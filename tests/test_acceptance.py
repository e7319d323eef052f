"""End-to-end acceptance checks at desk scale.

Each check prints one PASS/FAIL line per claim and asserts it, with a
wall-time budget where a run is substantial.  The float-half checks (gaps,
hinge flows, cube and corner modes) are rows of ``hotilab.cli.CLAIMS``, the
table that ``hoti-lab reproduce`` prints from: a test names its rows, and
``check`` evaluates them at the reproduce defaults, reading one shared
measurement per scan.  Two rows state levels the models provably cannot
reach; the table gives the analysis as their expected-failure reason, and
their tests are strict expected failures at the stated thresholds instead
of quietly relaxed ones.
"""

import math
import time
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from hotilab.cli import CLAIMS, DEFAULT_SIZES, DEFAULT_SOLVER, Scans, _symmetry_report, evaluate
from hotilab.invariants import trim_parities
from hotilab.ktheory import (
    PRESET_NAMES,
    _lattice_invariants,
    build_couple,
    derive_couple,
    higher_boundary_map,
    page_homology,
    preset_cofiltration,
    random_cofiltration,
)
from hotilab.models import (
    HoppingModel,
    builtin_model,
    instantiate,
    quarter_geometry,
    wire_geometry,
)
from hotilab.patterns import (
    Pattern,
    builtin_seeds,
    codimension_filtration,
    global_transversal,
    translate_limit,
)
from hotilab.spectral import folded_near_zero, spectral_norm_bound
from hotilab.symmetry import SymmetryAction, builtin_action, check_covariance, symmetrize


s0 = np.eye(2)
s3 = np.diag([1.0, -1.0])

COVARIANCE_TOL = 1e-12
SOLVER_TOL = 1e-8
N_RANDOM_COUPLES = 200
N_RANDOM_MODELS = 100
N_RANDOM_MATRICES = 50
N_RANDOM_PATTERNS = 50


def report(label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}: {label}" + (f" ({detail})" if detail else ""))
    return ok


# ---------------------------------------------------------------------------
# exact-couple page data of the preset cofiltrations


def test_inversion_square_face_image_and_corner_codomain():
    t0 = time.perf_counter()
    cd = preset_cofiltration("square-inversion")
    c1 = build_couple(cd)
    factors = _lattice_invariants(c1.differential(1, 1).matrix)
    bm = higher_boundary_map(cd, 2, 0)
    codomain = bm.codomain.canonical()
    ok = report(
        "inversion square: face boundary image has invariant factors (1, 2)",
        factors == (1, 2), f"factors {factors}",
    )
    ok &= report(
        "inversion square: second-order corner obstruction lands in Z/2",
        codomain == (0, (2,)) and bm.image_order_two(1),
        f"codomain {codomain}",
    )
    elapsed = time.perf_counter() - t0
    assert ok and elapsed < 1.0, f"elapsed {elapsed:.2f}s"


def test_fourfold_square_even_image_and_plain_squares_vanish():
    t0 = time.perf_counter()
    cd = preset_cofiltration("square-C4T")
    c1 = build_couple(cd)
    factors = _lattice_invariants(c1.differential(1, 1).matrix)
    bm = higher_boundary_map(cd, 2, 0)
    ok = report(
        "fourfold square: face boundary image is the even sublattice 2Z",
        factors == (2,), f"factors {factors}",
    )
    ok &= report(
        "fourfold square: corner obstruction lands in Z/2",
        bm.codomain.canonical() == (0, (2,)) and bm.image_order_two(1),
        str(bm.codomain.canonical()),
    )
    for name in ("square-plain-2", "square-plain-3"):
        plain = preset_cofiltration(name)
        zero = all(
            higher_boundary_map(plain, 2, q).is_zero() for q in (0, 1)
        )
        ok &= report(f"{name}: second-order boundary map vanishes", zero)
    elapsed = time.perf_counter() - t0
    assert ok and elapsed < 2.0, f"elapsed {elapsed:.2f}s"


def test_quarter_mirror_boundary_and_corner_obstruction():
    t0 = time.perf_counter()
    cd = preset_cofiltration("quarter-mirror-chiral")
    c1 = build_couple(cd)
    d10 = c1.differential(1, 0)
    ok = report(
        "chiral quarter: face generator maps to -2 x corner generator",
        d10.matrix.tolist() == [[-2], [0]], str(d10.matrix.tolist()),
    )
    first = higher_boundary_map(cd, 1, 1)
    ok &= report(
        "chiral quarter: first-order map is nontrivial on the face class only",
        (not first.codomain.is_zero(first.matrix[:, 0]))
        and first.codomain.is_zero(first.matrix[:, 1]),
        str(first.matrix.tolist()),
    )
    second = higher_boundary_map(cd, 2, 1)
    ok &= report(
        "chiral quarter: corner class hits the order-two generator at second order",
        second.domain.labels == ("[u_C]",) and second.image_order_two(0),
        f"domain {second.domain.labels}",
    )
    elapsed = time.perf_counter() - t0
    assert ok and elapsed < 1.0, f"elapsed {elapsed:.2f}s"


def test_derived_pages_match_direct_homology():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    checked = 0
    for name in PRESET_NAMES:
        _pages_agree(preset_cofiltration(name))
        checked += 1
    for _ in range(N_RANDOM_COUPLES):
        _pages_agree(random_cofiltration(rng))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = report(
        "derived couples equal direct subquotient homology on every page",
        True, f"{checked} couples, {elapsed:.1f}s",
    )
    assert ok and elapsed < 30.0


def _pages_agree(cd):
    c = build_couple(cd)
    for _ in range(cd.length + 1):
        nxt = derive_couple(c)
        for node in c.nodes():
            direct = page_homology(c, *node)
            assert nxt.e_groups[node].canonical() == direct, (cd.name, c.page, node)
        c = nxt


# ---------------------------------------------------------------------------
# float-half claims: rows of the claims table at the reproduce defaults

ROWS = {c.id: c for c in CLAIMS}


@pytest.fixture(scope="module")
def scans():
    """One measurement per scan for the whole module: the ham1 cube's edge
    and column rows, for one, read the same solve."""
    return Scans(DEFAULT_SOLVER, DEFAULT_SIZES)


def check(scans, *ids, budget=None):
    """Evaluate claims-table rows, print one PASS/FAIL line each, assert all."""
    t0 = time.perf_counter()
    results = [evaluate(ROWS[i], scans) for i in ids]
    ok = all([report(r["claim"], r["ok"], f"value {r['value']}") for r in results])
    elapsed = time.perf_counter() - t0
    assert ok and (budget is None or elapsed < budget), f"elapsed {elapsed:.0f}s"


def test_chiral_quarter_corner_index_and_face_layer(scans):
    check(scans, "quarter-index", "quarter-kernel-mode", "quarter-face-layer", budget=60.0)


def test_inversion_model_slab_gaps_and_hinge_parity(scans):
    check(
        scans, "ham1-yz-gapped", "ham1-xy-gapped",
        "ham1-flow-relation", "ham1-flow-parity", "ham1-flow-kirchhoff", budget=600.0,
    )


@pytest.mark.xfail(strict=True, reason=ROWS["ham1-bulk-gap"].xfail)
def test_inversion_model_bulk_gap_level(scans):
    check(scans, "ham1-bulk-gap")


def test_restored_time_reversal_makes_surfaces_gapless(scans):
    check(scans, "ham1-yz-gapless", "ham1-xy-gapless", budget=300.0)


def test_fourfold_model_alternating_hinge_flows(scans):
    check(
        scans, "ham3-flow-relation", "ham3-flow-units", "ham3-flow-parity", "ham3-flow-kirchhoff",
        budget=600.0,
    )


def test_twofold_model_side_faces_gapped_hinge_states(scans):
    check(
        scans, "ham2-yz-gapped", "ham2-xz-gapped", "ham2-xy-gapless", "ham2-hinge-weight-21k",
        "ham2-flow-relation", "ham2-flow-parity", "ham2-flow-kirchhoff", budget=600.0,
    )


def test_fourfold_cube_modes_on_vertical_hinges(scans):
    check(scans, "ham3-cube-hinges", "ham3-cube-spread", budget=900.0)


def test_inversion_cube_modes_edge_localized(scans):
    check(scans, "ham1-cube-edges", "ham1-cube-pair", budget=900.0)


@pytest.mark.xfail(strict=True, reason=ROWS["ham1-cube-columns"].xfail)
def test_inversion_cube_modes_vertical_column_level(scans):
    check(scans, "ham1-cube-columns")


# ---------------------------------------------------------------------------
# momentum-space parity index


def test_inversion_parity_index_and_stability():
    t0 = time.perf_counter()
    parity_op = np.kron(s0, s3)
    rep = trim_parities(builtin_model("ham1", 0.5), parity_op)
    ok = report(
        "parity index: inversion model carries the nontrivial index",
        rep.cs_parity == 1, f"odd-count total {rep.total}",
    )
    atom = HoppingModel(
        dimension=3, norb=4, hoppings={(0, 0, 0): parity_op.astype(complex)}
    )
    rep_a = trim_parities(atom, parity_op)
    ok &= report("parity index: atomic reference is trivial", rep_a.cs_parity == 0)
    stacked = _direct_sum(builtin_model("ham1", 0.5), atom)
    par8 = np.zeros((8, 8), dtype=complex)
    par8[:4, :4] = parity_op
    par8[4:, 4:] = parity_op
    rep_s = trim_parities(stacked, par8)
    ok &= report(
        "parity index: unchanged under stacking with the atomic reference",
        rep_s.cs_parity == rep.cs_parity, f"stacked total {rep_s.total}",
    )
    elapsed = time.perf_counter() - t0
    assert ok and elapsed < 10.0, f"elapsed {elapsed:.1f}s"


def _direct_sum(a, b):
    hoppings = {}
    for delta in set(a.hoppings) | set(b.hoppings):
        wa = a.hoppings.get(delta, np.zeros((a.norb, a.norb)))
        wb = b.hoppings.get(delta, np.zeros((b.norb, b.norb)))
        w = np.zeros((a.norb + b.norb,) * 2, dtype=complex)
        w[: a.norb, : a.norb], w[a.norb :, a.norb :] = wa, wb
        hoppings[delta] = w
    return HoppingModel(dimension=a.dimension, norb=a.norb + b.norb, hoppings=hoppings)


# ---------------------------------------------------------------------------
# lattice patterns


def test_pattern_class_counts_filtration_and_window_oracle():
    t0 = time.perf_counter()
    counts = {}
    for name in ("quarter", "square", "cube"):
        counts[name] = len(global_transversal(builtin_seeds(name)))
    ok = report(
        "pattern classes: quarter 4, square 9, cube 27",
        counts == {"quarter": 4, "square": 9, "cube": 27}, str(counts),
    )
    filt = codimension_filtration(global_transversal(builtin_seeds("cube")))
    ok &= report(
        "pattern filtration levels grow 1, 7, 19, 27",
        filt.sizes == (1, 7, 19, 27), str(filt.sizes),
    )
    rng = np.random.default_rng(20260814)
    checked = 0
    while checked < N_RANDOM_PATTERNS:
        got = _random_pattern_and_direction(rng)
        if got is None:
            continue
        p, v = got
        radius = int(rng.integers(3, 6 if p.dimension == 3 else 9))
        lim = translate_limit(p, v)
        n_star = _stabilization_bound(p, v, radius)
        assert _shifted_window(p, v, n_star, radius) == lim.window_sites(radius)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok &= report(
        "translate limits match far-shifted windows on random patterns",
        True, f"{checked} patterns, {elapsed:.1f}s",
    )
    assert ok and elapsed < 10.0


def _random_pattern_and_direction(rng):
    d = int(rng.integers(2, 4))
    m = int(rng.integers(1, d + 1))
    normals = []
    for _ in range(40):
        n = tuple(int(x) for x in rng.integers(-2, 3, size=d))
        if all(x == 0 for x in n):
            continue
        g = math.gcd(*(abs(x) for x in n))
        n = tuple(x // g for x in n)
        if n in normals or tuple(-x for x in n) in normals:
            continue
        normals.append(n)
        if len(normals) == m:
            break
    if len(normals) < m:
        return None
    p = Pattern(d, tuple((n, 0) for n in normals))
    for _ in range(60):
        v = tuple(int(x) for x in rng.integers(-3, 4, size=d))
        if any(v) and all(
            sum(a * b for a, b in zip(n, v)) >= 0 for n in normals
        ):
            return p, v
    return None


def _stabilization_bound(p, v, radius):
    n_star = 1
    for normal, bound in p.constraints:
        c = sum(a * b for a, b in zip(normal, v))
        if c > 0:
            l1 = sum(abs(a) for a in normal)
            n_star = max(n_star, math.ceil((bound + radius * l1) / c) + 1)
    return n_star


def _shifted_window(p, v, n, radius):
    out = set()
    span = range(-radius, radius + 1)
    for y in product(span, repeat=p.dimension):
        if p.contains(tuple(yi + n * vi for yi, vi in zip(y, v))):
            out.add(y)
    return out


# ---------------------------------------------------------------------------
# symmetry suite


def _solved_action(aname, mname, gamma):
    """The named action with the unitary solved from a model that has it."""
    el = builtin_action(aname, builtin_model(mname, gamma))
    return SymmetryAction(el.u, el.s, el.anti, el.chiral, aname)


def test_symmetry_actions_and_idempotent_projection():
    t0 = time.perf_counter()
    ok = True
    for mname, aname in (("ham1", "inversion"), ("ham2", "C2T"), ("ham3", "C4T")):
        model = builtin_model(mname, 0.5)
        covariant, defect = check_covariance(model, _solved_action(aname, mname, 0.5), COVARIANCE_TOL)
        ok &= report(f"{mname} is {aname}-covariant at 1e-12", covariant, f"defect {defect:.1e}")
    u = builtin_action("C4T", builtin_model("ham3", 0.5)).u
    fourth = np.linalg.matrix_power(u @ u.conj(), 2)  # (gT)^4 as a matrix
    ok &= report(
        "fourfold antiunitary generator has fourth power -1",
        np.max(np.abs(fourth + np.eye(len(u)))) < 1e-9,
    )
    broken = builtin_action("T", builtin_model("ham1", 0.5)) is None
    ok &= report("bare time reversal alone is broken at nonzero coupling", broken)
    rng = np.random.default_rng(20260814)
    deltas = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    actions = [_solved_action(aname, mname, gamma) for aname, mname, gamma in (
        ("inversion", "ham1", 0.5), ("C2T", "ham2", 0.5), ("C4T", "ham3", 0.5), ("T", "ham2", 0.0))]
    for i in range(N_RANDOM_MODELS):
        m = _random_model(rng, deltas)
        action = actions[i % len(actions)]
        p = symmetrize(m, action)
        covariant, defect = check_covariance(p, action, 1e-10)
        assert covariant, f"{action.name}: defect {defect}"
        p2 = symmetrize(p, action)
        for key, w in p.hoppings.items():
            assert np.max(np.abs(p2.hoppings[key] - w)) < 1e-10
        rep = _symmetry_report(p, action.name)  # what check-symmetry prints for p
        assert rep["covariant"] and rep["solutions"] == 1, (action.name, rep)
    elapsed = time.perf_counter() - t0
    ok &= report(
        "group-averaging is an idempotent projection on random models",
        True, f"{N_RANDOM_MODELS} models, {elapsed:.1f}s",
    )
    assert ok and elapsed < 30.0


def _random_model(rng, deltas):
    hops = {}
    for d in deltas:
        w = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        hops[d] = w
        hops[tuple(-x for x in d)] = w.conj().T
    on = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    hops[(0, 0, 0)] = on + on.conj().T
    return HoppingModel(3, 4, hops)


# ---------------------------------------------------------------------------
# folded solver against the dense reference


def _random_sparse_hermitian(rng, n):
    nnz = 6 * n
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return 0.5 * (a + a.conj().T)


def _compare_folded(h, nev, worst):
    # compared at the |E| level: when a degenerate +-|E| shell is wider than
    # the request (the quarter model has one at 1/sqrt(2)), the sign mix of
    # the returned states is not unique, but the magnitudes, the residuals,
    # and the orthonormality of the basis are.
    vals_f, vecs_f = folded_near_zero(h, nev, seed=0)
    vals_d = np.linalg.eigvalsh(h.toarray())
    ref = np.sort(np.abs(vals_d))[:nev]
    res = np.linalg.norm(h @ vecs_f - vecs_f * vals_f[None, :], axis=0)
    assert np.max(res) <= SOLVER_TOL * spectral_norm_bound(h)
    gram = vecs_f.conj().T @ vecs_f
    assert np.max(np.abs(gram - np.eye(nev))) < 1e-10
    return max(worst, float(np.max(np.abs(np.sort(np.abs(vals_f)) - ref))))


def test_folded_solver_agrees_with_dense():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    sizes = [int(rng.integers(48, 513)) for _ in range(38)] + [
        int(rng.integers(600, 1537)) for _ in range(10)
    ]
    worst = 0.0
    for n in sizes:
        worst = _compare_folded(_random_sparse_hermitian(rng, n), min(8, n - 2), worst)
    # banded lattice cases up to the 4096-dim mark (32x32 wire section)
    m1 = builtin_model("ham1", 0.5)
    big = [
        instantiate(m1, wire_geometry(3, 24), (0.3,)).matrix,
        instantiate(m1, wire_geometry(3, 32), (-0.7,)).matrix,
    ]
    for h in big:
        worst = _compare_folded(h, 8, worst)
    count = len(sizes) + len(big)
    assert count == N_RANDOM_MATRICES
    h = instantiate(builtin_model("chiral-quarter-uC"), quarter_geometry(24)).matrix
    worst = _compare_folded(h, 8, worst)
    elapsed = time.perf_counter() - t0
    ok = report(
        "folded solver reproduces dense near-zero eigenvalues at 1e-8",
        worst < SOLVER_TOL, f"{count}+1 systems, worst |dE| {worst:.2e}, {elapsed:.0f}s",
    )
    assert ok and elapsed < 300.0
