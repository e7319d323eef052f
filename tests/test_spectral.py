"""Eigensolver routes, region weights, band scans, gap scans."""

import importlib.util
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import hotilab.spectral as spectral
from hotilab.cli import _write_modes_csv
from hotilab.models import (
    Assembly,
    HoppingModel,
    builtin_model,
    bulk_geometry,
    cube_geometry,
    instantiate,
    quarter_geometry,
    slab_geometry,
    wire_geometry,
)
from hotilab.symmetry import covariant_elements
from hotilab.spectral import (
    BandData,
    band_structure,
    corner_regions,
    dense_eigh,
    folded_near_zero,
    minimum_bulk_gap,
    near_zero_states,
    slab_gap_scan,
    spectral_norm_bound,
    wire_regions,
    write_band_csv,
)

RTOL = 1e-10
ROOT = Path(__file__).resolve().parents[1]


def _wire_ham(side=10, k=0.3):
    m = builtin_model("ham1")
    return instantiate(m, wire_geometry(3, side), (k,)).matrix


def test_folded_matches_dense_near_zero():
    h = _wire_ham()
    vals_d, _ = dense_eigh(h)
    order = np.argsort(np.abs(vals_d), kind="stable")[:12]
    ref = np.sort(vals_d[order])
    vals_f, vecs_f = folded_near_zero(h, 12, seed=0)
    assert np.max(np.abs(vals_f - ref)) < RTOL
    res = np.linalg.norm(h @ vecs_f - vecs_f * vals_f[None, :], axis=0)
    assert np.max(res) <= 1e-8 * spectral_norm_bound(h)


def test_folded_solver_is_seeded_deterministic():
    h = _wire_ham(side=8, k=-0.7)
    v1, w1 = folded_near_zero(h, 8, seed=5)
    v2, w2 = folded_near_zero(h, 8, seed=5)
    assert np.array_equal(v1, v2)
    assert np.array_equal(w1, w2)


def test_sparse_solver_factors_h_itself(monkeypatch):
    # one LU per solve, of H - sigma; shift-invert runs on H, never on a formed H^2
    factored, nnz = [], []
    spla = spectral.spla

    class Proxy:
        def __getattr__(self, name):
            return getattr(spla, name)

        def splu(self, a, *args, **kwargs):
            factored.append(a.toarray())
            return spla.splu(a, *args, **kwargs)

        def eigsh(self, a, *args, **kwargs):
            nnz.append(a.nnz)
            return spla.eigsh(a, *args, **kwargs)

    monkeypatch.setattr(spectral, "spla", Proxy())
    h = sp.csr_matrix(_wire_ham(side=8))
    folded_near_zero(h, 8)
    assert nnz == [h.nnz]
    assert len(factored) == 1
    a, hd = factored[0], h.toarray()
    sigma = -1e-6 * spectral_norm_bound(h)
    assert np.array_equal(a - np.diag(np.diag(a)), hd - np.diag(np.diag(hd)))
    assert np.allclose(np.diag(a), np.diag(hd) - sigma, rtol=0, atol=1e-15)


def test_shift_invert_matches_dense_on_an_exact_kernel():
    # the chiral quarter's exact zero modes make H - sigma nearly singular;
    # with a pivot threshold of 0 (diagonal pivots only) ARPACK fails here
    h = instantiate(builtin_model("chiral-quarter-uC"), quarter_geometry(12)).matrix
    assert h.shape == (576, 576)
    ref = np.sort(np.abs(np.linalg.eigvalsh(h.toarray())))[:8]
    vals, _ = folded_near_zero(h, 8)
    assert np.max(np.abs(np.sort(np.abs(vals)) - ref)) < RTOL


def test_perfbench_tracer_finds_every_layer_it_wraps():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    names = ("folded_near_zero", "near_zero_states", "dense_eigh", "spla")
    originals = {name: getattr(spectral, name) for name in names}
    tracer = tracer_module.Tracer()
    try:
        tracer.install()  # looks every wrapped name up; a renamed one raises here
        for owner, attr, old in tracer._restore:
            assert getattr(owner, attr) is not old, attr
        for name in names[:3]:
            assert getattr(spectral, name).__wrapped__ is originals[name]
        assert spectral.spla.eigsh.__wrapped__ is originals["spla"].eigsh
    finally:
        tracer.uninstall()
    assert all(getattr(spectral, name) is fn for name, fn in originals.items())


def test_perfbench_workloads_set_up_under_the_tracer(monkeypatch):
    # the bench reaches hotilab by name: a renamed function, method or
    # keyword breaks its traced set-up here, and uninstall restores every patch
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer_module, workloads = (importlib.import_module(m) for m in ("tracer", "workloads"))
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        patched = list(tracer._restore)
        for workload in workloads.WORKLOADS.values():
            workload().setup(0)
    finally:
        tracer.uninstall()
    assert patched and tracer.spans
    for owner, attr, old in patched:
        assert getattr(owner, attr) is old, attr


def test_dense_phases_are_canonical():
    h = _wire_ham(side=6)
    from hotilab.spectral import _phase_pivot

    _, v1 = dense_eigh(h)
    _, v2 = dense_eigh(h.copy())
    assert np.array_equal(v1, v2)
    # pivot component of each column is real positive
    for j in range(v1.shape[1]):
        z = v1[_phase_pivot(v1[:, j]), j]
        assert abs(z.imag) < 1e-14
        assert z.real > 0


def test_dense_cap_checked_before_materializing():
    big = sp.eye(20001, dtype=complex, format="csr")
    with pytest.raises(ValueError, match="capped"):
        dense_eigh(big)
    # only a whole-spectrum request reaches the cap; the error says so
    with pytest.raises(ValueError, match="whole spectrum; a window below n - 1"):
        near_zero_states(big, big.shape[0] - 1)


def test_near_zero_routing_consistent():
    h = _wire_ham(side=8)
    a = spectral._window(*dense_eigh(h), 6)[0]  # dense reference
    b = near_zero_states(h, 6)[0]  # a window: the shift-invert route
    assert np.max(np.abs(a - b)) < RTOL


def test_dense_route_checks_its_residuals(monkeypatch):
    # the dense route, taken by a whole-spectrum request, shares the
    # sparse route's residual check
    h = _wire_ham(side=4)
    dense = spectral.dense_eigh

    def perturbed(m):
        vals, vecs = dense(m)
        vecs = vecs.copy()
        vecs[:, np.argmin(np.abs(vals))] += 1e-3
        return vals, vecs

    monkeypatch.setattr(spectral, "dense_eigh", perturbed)
    with pytest.raises(RuntimeError, match="dense solver: residual"):
        near_zero_states(h, h.shape[0] - 1)


def test_folded_rejects_nearly_full_spectrum():
    h = _wire_ham(side=3)  # dimension 36
    with pytest.raises(ValueError, match="near_zero_states"):
        folded_near_zero(h, 35)
    vals, _ = near_zero_states(h, 35)  # routed to dense
    assert len(vals) == 35


@pytest.mark.parametrize("nev", [0, -3])
def test_an_empty_window_is_rejected_before_any_factorization(monkeypatch, nev):
    def refuse(*args, **kwargs):
        raise AssertionError("factored H for a window of no states")

    monkeypatch.setattr(spectral.spla, "splu", refuse)
    with pytest.raises(ValueError, match=f"nev must be at least 1, got {nev}"):
        near_zero_states(_wire_ham(side=4), nev)
    with pytest.raises(ValueError, match="nev at least 1"):
        folded_near_zero(_wire_ham(side=4), nev)
    with pytest.raises(ValueError, match="at least 1"):
        band_structure(builtin_model("ham2"), wire_geometry(3, 4), [(0.0,), (0.5,)], window=nev)


def test_regions_match_per_site_loop():
    from math import ceil

    for geo in (wire_geometry(3, 7), wire_geometry(3, 8), cube_geometry(5)):
        L = int(geo.extents[0])
        c = ceil(L / 4)
        sites = geo.sites()
        part = wire_regions(geo, norb=2)
        lo = [lambda x, i=i: x[i] < c for i in (0, 1)]
        hi = [lambda x, i=i: x[i] >= L - c for i in (0, 1)]
        masks = {
            "hinge1": lambda x: lo[0](x) and lo[1](x),
            "hinge2": lambda x: hi[0](x) and lo[1](x),
            "hinge3": lambda x: hi[0](x) and hi[1](x),
            "hinge4": lambda x: lo[0](x) and hi[1](x),
            "face1": lambda x: lo[1](x) and not lo[0](x) and not hi[0](x),
            "face2": lambda x: hi[0](x) and not lo[1](x) and not hi[1](x),
            "face3": lambda x: hi[1](x) and not lo[0](x) and not hi[0](x),
            "face4": lambda x: lo[0](x) and not lo[1](x) and not hi[1](x),
        }
        masks["interior"] = lambda x: not any(m(x) for m in list(masks.values())[:8])
        assert part.names == tuple(masks)
        for name, mask in masks.items():
            ref = [i for i, x in enumerate(sites) if mask(x)]
            assert part.site_indices[name].tolist() == ref
            diag = np.zeros(2 * len(sites))
            for i in ref:
                diag[2 * i:2 * i + 2] = 1.0
            assert np.array_equal(part.projector_diagonal(name, len(diag)), diag)


def test_wire_region_partition_counts():
    geo = wire_geometry(3, 8)
    part = wire_regions(geo, norb=4)
    sizes = {n: len(part.site_indices[n]) for n in part.names}
    assert all(sizes[f"hinge{i}"] == 4 for i in range(1, 5))
    assert all(sizes[f"face{i}"] == 8 for i in range(1, 5))
    assert sizes["interior"] == 64 - 16 - 32
    total = sum(sizes.values())
    assert total == 64


def test_region_weights_sum_to_one():
    geo = wire_geometry(3, 8)
    part = wire_regions(geo, norb=4)
    h = instantiate(builtin_model("ham1"), geo, (0.1,)).matrix
    vals, vecs = near_zero_states(h, 10)
    w = part.weights(vecs)
    assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)


def test_corner_region_partition():
    geo = quarter_geometry(6)
    part = corner_regions(geo, norb=4)
    assert "corner" in part.names
    assert len(part.names) == 4
    assert all(len(part.site_indices[n]) == 9 for n in part.names)
    # corner quadrant hugs the origin
    sites = geo.sites()
    for i in part.site_indices["corner"]:
        assert sites[i][0] < 3 and sites[i][1] < 3


def test_degenerate_cluster_weights_localize():
    # two exactly degenerate states spread over two regions must come out
    # as single-region representatives
    geo = quarter_geometry(6)
    part = corner_regions(geo, norb=1)
    n = len(geo.sites())
    h = np.zeros((n, n), dtype=complex)
    ia = part.site_indices["corner"][0]
    ib = part.site_indices["quad11"][0]
    # symmetric well pair: eigenvectors of the zero eigenvalue cluster are
    # arbitrary mixtures of the two site states
    for j in range(n):
        if j not in (ia, ib):
            h[j, j] = 2.0
    from hotilab.spectral import _disentangle_clusters
    vals, vecs = np.linalg.eigh(h)
    vecs = _disentangle_clusters(vals, vecs, part)
    w = part.weights(vecs[:, :2])
    # each of the two degenerate states sits entirely in one region
    assert np.allclose(np.sort(w.max(axis=0)), [1.0, 1.0], atol=1e-12)


def test_band_structure_shapes_and_window():
    m = builtin_model("ham1")
    geo = slab_geometry(3, 2, 9)
    ks = [(kx, 0.0) for kx in np.linspace(-np.pi, np.pi, 5)]
    data = band_structure(m, geo, ks)
    assert data.energies.shape == (5, 9 * 4)
    windowed = band_structure(m, geo, ks, window=8)
    assert windowed.energies.shape == (5, 8)
    for ik in range(5):
        full = data.energies[ik]
        sel = np.sort(full[np.argsort(np.abs(full), kind="stable")[:8]])
        assert np.max(np.abs(sel - windowed.energies[ik])) < RTOL


@pytest.mark.parametrize("mname, side, nk", [
    ("ham1", 8, 9), ("ham1", 10, 10), ("ham2", 10, 9),
    ("ham2", 12, 12), ("ham3", 8, 8), ("ham3", 12, 11),
])
def test_halved_band_scan_matches_full_scan(monkeypatch, mname, side, nk):
    model = builtin_model(mname)
    geo = wire_geometry(3, side)
    part = wire_regions(geo, model.norb)
    ks = np.linspace(-np.pi, np.pi, nk)[:, None]
    kw = dict(partition=part, window=12)
    half = band_structure(model, geo, ks, **kw)
    monkeypatch.setattr(spectral, "momentum_reversal", lambda *args: None)
    full = band_structure(model, geo, ks, **kw)
    assert (half.solved_momenta, full.solved_momenta) == ((nk + 1) // 2, nk)
    assert half.k_reversal is not None and full.k_reversal is None
    bound = spectral_norm_bound(Assembly(model, geo).matrix((0.0,)))
    assert np.max(np.abs(half.energies - full.energies)) <= 1e-12 * bound
    assert np.max(np.abs(half.weights - full.weights)) <= 1e-8


def test_band_scan_without_reversal_solves_every_momentum(monkeypatch):
    # the seeded symmetry-broken model of the hinge-flow fallback test
    base = builtin_model("ham1")
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    hops = dict(base.hoppings)
    hops[(0, 0, 0)] = hops[(0, 0, 0)] + 0.05 * (a + a.conj().T)
    broken = HoppingModel(3, 4, hops)
    calls = []
    solve = spectral.near_zero_states

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "near_zero_states", counted)
    geo = wire_geometry(3, 6)
    data = band_structure(
        broken, geo, np.linspace(-np.pi, np.pi, 9)[:, None],
        partition=wire_regions(geo, 4), window=8,
    )
    assert len(calls) == 9
    assert data.k_reversal is None and data.solved_momenta == 9
    assert data.energies.shape == (9, 8) and data.weights.shape == (9, 8, 9)


def test_a_trimmed_scan_keeps_the_whole_window_columns_below_its_bound():
    model = builtin_model("ham2")
    geo = wire_geometry(3, 8)
    args = (model, geo, np.linspace(-np.pi, np.pi, 5)[:, None], 12, wire_regions(geo, 4), 0)
    whole, whole_vecs = spectral._momentum_scan(*args, keep_below=np.inf)
    bound = float(np.median(np.abs(whole.energies)))
    trimmed, vecs = spectral._momentum_scan(*args, keep_below=bound)
    assert np.array_equal(trimmed.energies, whole.energies)
    assert np.array_equal(trimmed.weights, whole.weights)
    assert all(v.shape[1] == 12 for v in whole_vecs)
    for e, full, v in zip(whole.energies, whole_vecs, vecs):
        assert np.array_equal(v, full[:, np.abs(e) < bound])
        # in the solver's C order: region weights and overlaps summed from
        # an F-ordered copy differ in their last bits
        assert full.flags.c_contiguous and v.flags.c_contiguous
    assert 0 < sum(v.shape[1] for v in vecs) < 5 * 12


@pytest.mark.parametrize("mname, geo", [
    ("ham1", cube_geometry(4)), ("chiral-quarter-uC", quarter_geometry(6)),
], ids=["cube", "quarter"])
def test_scan_without_periodic_directions_maps_no_momentum(mname, geo):
    # an empty k-map equals -1 vacuously: the one empty momentum of a cube
    # or a quarter is solved, never filled by a k-reversing element
    data = band_structure(builtin_model(mname), geo, np.zeros((1, 0)), window=4)
    assert data.k_reversal is None and data.solved_momenta == 1
    assert data.energies.shape == (1, 4)


def test_band_csv_roundtrip(tmp_path):
    m = builtin_model("ham1")
    geo = wire_geometry(3, 8)
    part = wire_regions(geo, norb=4)
    ks = [(0.0,), (0.5,)]
    data = band_structure(m, geo, ks, partition=part, window=4)
    path = tmp_path / "bands.csv"
    write_band_csv(path, data)
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[:3] == ["k1", "band", "energy"]
    assert header[3:] == [f"{n}_weight" for n in part.names]
    assert len(lines) == 1 + 2 * 4
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(data.energies[0, 0])


def test_spectrum_csv(tmp_path):
    path = tmp_path / "spec.csv"
    _write_modes_csv(path, "index", [0.5, -0.25], {})
    assert path.read_text() == "index,energy\n0,0.5\n1,-0.25\n"


def test_bulk_gap_scan():
    m = builtin_model("ham1")
    assert np.min(np.abs(np.linalg.eigvalsh(m.bloch((0, 0, 0))))) > 4.0
    g = minimum_bulk_gap(m, resolution=13)
    assert 0.1 < g < 2.0


def test_gap_scans_match_per_momentum_reference():
    """Slab faces (3D), edges (2D) and the bulk against a plain loop of
    eigvalsh over real-space assembly and ``model.bloch``."""
    nk = 5
    axis = np.linspace(-np.pi, np.pi, nk, endpoint=False)

    def low_and_tol(mats):
        low = min(float(np.min(np.abs(np.linalg.eigvalsh(h)))) for h in mats)
        return low, 1e-12 * max(spectral_norm_bound(h) for h in mats)

    def perturbed(model):
        # a seeded on-site term moves the minimum off the symmetric momenta
        # that every uniform grid shares
        a = np.random.default_rng(7).normal(size=(model.norb,) * 2)
        hops = dict(model.hoppings)
        zero = (0,) * model.dimension
        hops[zero] = hops.get(zero, 0) + 0.05 * (a + a.T)
        return HoppingModel(model.dimension, model.norb, hops)

    models = [builtin_model("ham1", 0.5), builtin_model("ham2", 0.5), builtin_model("chiral-quarter-uC")]
    models += [perturbed(m) for m in models]
    for model in models:
        for direction in range(model.dimension):
            geo = slab_geometry(model.dimension, direction, 5)
            low, tol = low_and_tol(
                [instantiate(model, geo, k).dense() for k in product(axis, repeat=model.dimension - 1)]
            )
            assert abs(slab_gap_scan(model, direction, 5, nk) - low) <= tol
        low, tol = low_and_tol([model.bloch(k) for k in product(axis, repeat=model.dimension)])
        assert abs(minimum_bulk_gap(model, resolution=nk) - low) <= tol


def _record_gap_scan(monkeypatch, scan):
    """The gap ``scan()`` returns and the momenta of each ``dense_spectra``
    call it makes (spot checks first, two momenta each, then the scan)."""
    calls = []
    solve = spectral.dense_spectra

    def recording(bloch, momenta):
        calls.append(np.array(momenta))
        return solve(bloch, momenta)

    monkeypatch.setattr(spectral, "dense_spectra", recording)
    return scan(), calls


def _assert_one_momentum_per_orbit(solved, nk, k_maps):
    """``solved`` holds, in grid order, the first point of each orbit that
    the group generated by ``k_maps`` has on the nk^m grid of [-pi, pi)^m."""
    m = solved.shape[1]
    axis = np.linspace(-np.pi, np.pi, nk, endpoint=False)
    index = np.rint((solved + np.pi) * nk / (2 * np.pi)).astype(np.int64)
    assert np.array_equal(axis[index], solved)  # the grid's own float momenta
    strides = nk ** np.arange(m - 1, -1, -1)
    flat = index @ strides
    assert np.all(np.diff(flat) > 0)
    group = {np.eye(m, dtype=np.int64).tobytes()} | {np.asarray(g, np.int64).tobytes() for g in k_maps}
    while True:  # close the k-maps under products
        mats = [np.frombuffer(g, dtype=np.int64).reshape(m, m) for g in group]
        products = {(a @ b).tobytes() for a in mats for b in mats}
        if products <= group:
            break
        group |= products
    images = np.sort(np.array([(index @ g.T % nk) @ strides for g in mats]), axis=0)
    # each representative is the first grid point of its orbit, and every
    # grid point is the image of exactly one representative
    assert np.array_equal(images[0], flat)
    distinct = np.vstack([np.ones_like(flat, dtype=bool), images[1:] != images[:-1]])
    assert np.array_equal(np.bincount(images[distinct], minlength=nk ** m), np.ones(nk ** m))
    return len(mats)


# (model, gamma, open direction, nk, orbits): the seven faces of the
# slab-gap-scan benchmark on its 12 x 12 grid, then the tier-1 grid
ORBIT_COUNTS = [
    ("ham2", 0.5, 0, 12, 49), ("ham2", 0.5, 1, 12, 49), ("ham2", 0.5, 2, 12, 43),
    ("ham1", 0.5, 0, 12, 43), ("ham1", 0.5, 2, 12, 43),
    ("ham1", 0.0, 0, 12, 28), ("ham1", 0.0, 2, 12, 28),
    ("ham1", 0.5, 0, 101, 2601), ("ham2", 0.5, 0, 101, 2601),
    ("ham3", 0.5, 2, 101, 1326), ("ham2", 0.5, 2, 101, 2601),
]


@pytest.mark.parametrize("mname, gamma, direction, nk, orbits", ORBIT_COUNTS)
def test_slab_gap_scan_solves_one_momentum_per_orbit(monkeypatch, mname, gamma, direction, nk, orbits):
    model = builtin_model(mname, gamma)
    depth = 3
    gap, calls = _record_gap_scan(monkeypatch, lambda: slab_gap_scan(model, direction, depth, nk))
    assert len(calls[-1]) == orbits and all(len(c) == 2 for c in calls[:-1])
    elements = covariant_elements(model, slab_geometry(3, direction, depth))
    _assert_one_momentum_per_orbit(calls[-1], nk, [el.k_map for el in elements])
    h = spectral.slab_bloch(model, direction, depth)
    mats = [h(k) for k in product(np.linspace(-np.pi, np.pi, nk, endpoint=False), repeat=2)]
    low = min(float(np.min(np.abs(np.linalg.eigvalsh(m)))) for m in mats)
    assert abs(gap - low) <= 1e-12 * max(spectral_norm_bound(m) for m in mats)


def test_bulk_gap_scan_solves_one_momentum_per_orbit(monkeypatch):
    # the eight k-maps of ham3's sixteen elements on a 9^3 grid; the scan
    # matches the full grid
    model = builtin_model("ham3")
    gap, calls = _record_gap_scan(monkeypatch, lambda: minimum_bulk_gap(model, resolution=9))
    elements = covariant_elements(model, bulk_geometry(3))
    assert _assert_one_momentum_per_orbit(calls[-1], 9, [el.k_map for el in elements]) == 8
    mats = [model.bloch(k) for k in product(np.linspace(-np.pi, np.pi, 9, endpoint=False), repeat=3)]
    low = min(float(np.min(np.abs(np.linalg.eigvalsh(m)))) for m in mats)
    assert abs(gap - low) <= 1e-12 * max(spectral_norm_bound(m) for m in mats)


def test_gap_scan_rejects_a_wrong_k_map(monkeypatch):
    # C2T on the ham2 yz slab reverses k_z; a finder that has it swap k_y
    # and k_z instead must trip the spot check
    model = builtin_model("ham2")
    c2t = next(el for el in covariant_elements(model, slab_geometry(3, 0, 4))
               if el.label == "S=(-x,-y,z),anti=1,chiral=0")
    assert c2t.k_map.tolist() == [[1, 0], [0, -1]]
    wrong = [replace(c2t, k_map=np.array([[0, 1], [1, 0]]))]
    monkeypatch.setattr(spectral, "covariant_elements", lambda *args: wrong)
    with pytest.raises(RuntimeError, match="does not map the spectrum"):
        slab_gap_scan(model, 0, 4, 12)


# (model, gamma, open direction, the label of real_gauge's pick): the four
# slab faces on which the gap scan runs in real arithmetic
GAUGE_FACES = [
    ("ham2", 0.5, 2, "S=(-x,-y,z),anti=1,chiral=0"),
    ("ham1", 0.0, 0, "S=(x,-y,-z),anti=1,chiral=0"),
    ("ham1", 0.0, 1, "S=(-x,y,-z),anti=1,chiral=0"),
    ("ham1", 0.0, 2, "S=(-x,-y,z),anti=1,chiral=0"),
]


@pytest.mark.parametrize("mname, gamma, direction, label", GAUGE_FACES)
def test_real_gauge_gap_scan_matches_complex_scan(monkeypatch, mname, gamma, direction, label):
    model, depth, nk = builtin_model(mname, gamma), 4, 12
    geo = slab_geometry(3, direction, depth)
    assert spectral.real_gauge(model, geo)[0] == label
    made, bloch = [], spectral.slab_bloch
    monkeypatch.setattr(spectral, "slab_bloch", lambda *args: made.append(bloch(*args)) or made[-1])
    real, real_calls = _record_gap_scan(monkeypatch, lambda: slab_gap_scan(model, direction, depth, nk))
    assert made[0](np.array([0.3, -1.1])).dtype == float  # the scan ran in real arithmetic
    monkeypatch.undo()
    monkeypatch.setattr(spectral, "real_gauge", lambda *args: None)
    full, full_calls = _record_gap_scan(monkeypatch, lambda: slab_gap_scan(model, direction, depth, nk))
    assert len(real_calls) == len(full_calls)
    assert all(np.array_equal(a, b) for a, b in zip(real_calls, full_calls))
    assert abs(real - full) <= 1e-12 * spectral_norm_bound(Assembly(model, geo).matrix((0.0, 0.0)))


@pytest.mark.parametrize("scale, match", [(None, "complex"), (2.0, "not unitary")],
                         ids=["not-real", "not-unitary"])
def test_gap_scan_rejects_a_wrong_real_gauge(monkeypatch, scale, match):
    # the identity leaves the ham2 xy slab's h(k) complex; twice the true V
    # makes it real but scales its spectrum by four
    model, geo = builtin_model("ham2"), slab_geometry(3, 2, 4)
    label, v = spectral.real_gauge(model, geo)
    wrong = np.eye(4, dtype=complex) if scale is None else scale * v
    monkeypatch.setattr(spectral, "real_gauge", lambda *args: ("wrong", wrong))
    with pytest.raises(RuntimeError, match=match):
        slab_gap_scan(model, 2, 4, 6)


def test_gap_scans_without_covariant_elements_solve_every_momentum(monkeypatch):
    # the seeded symmetry-broken model of the band-scan fallback test
    base = builtin_model("ham1")
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    hops = dict(base.hoppings)
    hops[(0, 0, 0)] = hops[(0, 0, 0)] + 0.05 * (a + a.conj().T)
    broken = HoppingModel(3, 4, hops)
    # only the identity, which moves no momentum
    assert [el.label for el in covariant_elements(broken, bulk_geometry(3))] == ["S=(x,y,z),anti=0,chiral=0"]
    for direction in range(3):
        _, calls = _record_gap_scan(monkeypatch, lambda: slab_gap_scan(broken, direction, 4, 7))
        assert [len(c) for c in calls] == [49]
    _, calls = _record_gap_scan(monkeypatch, lambda: minimum_bulk_gap(broken, resolution=5))
    assert [len(c) for c in calls] == [125]
