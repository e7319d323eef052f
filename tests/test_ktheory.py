"""Exact-couple construction, page turning, and higher boundary maps."""

import json

import numpy as np
import pytest

import hotilab.fgab as fgab
import hotilab.ktheory as ktheory
from hotilab.fgab import (
    GroupMap,
    free_group,
    imat,
    izeros,
    kernel_basis,
)
from hotilab.ktheory import (
    PRESET_NAMES,
    CofiltrationData,
    build_couple,
    cofiltration_from_dict,
    cofiltration_to_dict,
    couple_report,
    derive_couple,
    higher_boundary_map,
    page_homology,
    preset_cofiltration,
    random_cofiltration,
)

N_RANDOM_COUPLES = 40  # the acceptance run uses 200
N_RANDOM_LIFTS = 15


def all_pages(cd):
    pages = [build_couple(cd)]
    while pages[-1].page < cd.length:
        pages.append(derive_couple(pages[-1]))
    return pages


# ---------------------------------------------------------------------------
# construction and exactness


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_build_is_exact(name):
    c = build_couple(preset_cofiltration(name))
    c.verify()  # raises on failure


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_first_differential_is_stored_boundary(name):
    cd = preset_cofiltration(name)
    c = build_couple(cd)
    for p in range(cd.length):
        for t in (0, 1):
            d1 = c.differential(p, t)
            bnd = cd.boundary[(p, (t + p) % 2)]
            assert np.array_equal(d1.matrix, bnd.matrix)


def test_tampered_couple_is_rejected():
    c = build_couple(preset_cofiltration("square-inversion"))
    src, dst = c.d_groups[(1, 1)], c.e_groups[(2, 1)]
    c.beta[(1, 1)] = GroupMap(src, dst, izeros(dst.ngens, src.ngens))
    with pytest.raises(ValueError, match="exactness fails at D"):
        derive_couple(c)


def test_chain_condition_enforced():
    g = [free_group(1) for _ in range(3)]
    z = free_group(0)
    strata = {(0, 0): g[0], (0, 1): z, (1, 0): z, (1, 1): g[1], (2, 0): g[2], (2, 1): z}
    bnd = {
        (0, 0): GroupMap(g[0], g[1], imat([[1]])),
        (0, 1): GroupMap(z, z, izeros(0, 0)),
        (1, 1): GroupMap(g[1], g[2], imat([[1]])),
        (1, 0): GroupMap(z, z, izeros(0, 0)),
    }
    with pytest.raises(ValueError, match="compose to zero"):
        CofiltrationData(2, strata, bnd)


def test_second_order_closure_enforced():
    cd = preset_cofiltration("cube-plain")
    bad = izeros(cd.strata[(2, 1)].ngens, cd.strata[(0, 0)].ngens)
    bad[0, 0] = 1  # a single edge class; its own boundary is nonzero
    with pytest.raises(ValueError, match="not closed"):
        CofiltrationData(3, cd.strata, cd.boundary, second_order={0: bad})


def test_unknown_preset():
    with pytest.raises(KeyError, match="unknown preset"):
        preset_cofiltration("pentagon")


# ---------------------------------------------------------------------------
# two independent routes to the next page


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_derived_page_matches_homology_presets(name):
    cd = preset_cofiltration(name)
    for c in all_pages(cd)[:-1]:
        nxt = derive_couple(c)
        for node in c.nodes():
            assert nxt.e_groups[node].canonical() == page_homology(c, *node)


def test_derived_page_matches_homology_random():
    rng = np.random.default_rng(20260814)
    for _ in range(N_RANDOM_COUPLES):
        cd = random_cofiltration(rng)
        c = build_couple(cd)
        while c.page <= cd.length:
            nxt = derive_couple(c)
            for node in c.nodes():
                assert nxt.e_groups[node].canonical() == page_homology(c, *node)
            c = nxt


def test_stable_range_pages_freeze():
    # from page length+1 on, every differential is out of range, so the
    # canonical forms stop changing
    cd = preset_cofiltration("square-inversion")
    c = derive_couple(all_pages(cd)[-1])
    frozen = {node: c.e_groups[node].canonical() for node in c.nodes()}
    for _ in range(2):
        c = derive_couple(c)
        assert {n: c.e_groups[n].canonical() for n in c.nodes()} == frozen


def test_second_order_image_cancels_in_stable_range():
    # the flagged bulk class surjects onto the corner Z/2, so the stable
    # page at the corner node is trivial
    cd = preset_cofiltration("square-inversion")
    stable = derive_couple(all_pages(cd)[-1])
    assert stable.e_groups[(2, 1)].canonical() == (0, ())


# ---------------------------------------------------------------------------
# termwise isomorphism stability


def unimodular(rng, n):
    if n == 0:
        return izeros(0, 0)
    lo = np.tril(rng.integers(-1, 2, size=(n, n)))
    up = np.triu(rng.integers(-1, 2, size=(n, n)))
    np.fill_diagonal(lo, rng.choice([-1, 1], size=n))
    np.fill_diagonal(up, rng.choice([-1, 1], size=n))
    return imat(lo.tolist()) @ imat(up.tolist())


def test_page_groups_invariant_under_basis_change():
    # conjugating every stratum by a unimodular change of basis must not
    # change any page's canonical groups
    from hotilab.fgab import ieye, solve_integer

    rng = np.random.default_rng(3)
    for _ in range(10):
        cd = random_cofiltration(rng)
        u = {k: unimodular(rng, g.ngens) for k, g in cd.strata.items()}
        uinv = {k: solve_integer(m, ieye(m.shape[0])) for k, m in u.items()}
        strata = {
            k: free_group(g.ngens, g.labels) for k, g in cd.strata.items()
        }
        bnd = {}
        for (p, eps), f in cd.boundary.items():
            mat = u[(p + 1, eps ^ 1)] @ f.matrix @ uinv[(p, eps)]
            bnd[(p, eps)] = GroupMap(strata[(p, eps)], strata[(p + 1, eps ^ 1)], mat)
        second = {
            eps: u[(2, eps ^ 1)] @ m @ uinv[(0, eps)]
            for eps, m in cd.second_order.items()
        }
        cd2 = CofiltrationData(cd.length, strata, bnd, second_order=second)
        for ca, cb in zip(all_pages(cd), all_pages(cd2)):
            for node in ca.nodes():
                assert ca.e_groups[node].canonical() == cb.e_groups[node].canonical()


# ---------------------------------------------------------------------------
# higher boundary maps: pinned values


def test_square_inversion_pinned():
    cd = preset_cofiltration("square-inversion")
    c = build_couple(cd)
    from hotilab.ktheory import _lattice_invariants

    assert _lattice_invariants(c.differential(1, 1).matrix) == (1, 2)
    rep = higher_boundary_map(cd, 2, 0)
    assert rep.domain.canonical() == (2, ())
    assert rep.codomain.canonical() == (0, (2,))
    assert rep.codomain.is_zero(rep.matrix[:, 0])  # trivial class
    assert rep.image_order_two(1)  # flagged bulk class hits the generator


def test_square_c2t_pinned():
    rep = higher_boundary_map(preset_cofiltration("square-C2T"), 2, 0)
    assert rep.codomain.canonical() == (0, (2,))
    assert rep.codomain.is_zero(rep.matrix[:, 0])
    assert rep.image_order_two(1)


def test_square_c4t_pinned():
    cd = preset_cofiltration("square-C4T")
    c = build_couple(cd)
    from hotilab.ktheory import _lattice_invariants

    assert _lattice_invariants(c.differential(1, 1).matrix) == (2,)
    assert _lattice_invariants(c.differential(1, 0).matrix) == (2,)
    rep = higher_boundary_map(cd, 2, 0)
    assert rep.codomain.canonical() == (0, (2,))
    assert rep.image_order_two(1)


@pytest.mark.parametrize("name", ["square-plain-2", "square-plain-3"])
def test_plain_square_second_order_vanishes(name):
    cd = preset_cofiltration(name)
    for q in (0, 1):
        assert higher_boundary_map(cd, 2, q).is_zero()


def test_quarter_mirror_chiral_pinned():
    cd = preset_cofiltration("quarter-mirror-chiral")
    c = build_couple(cd)
    # the face class maps to -2 times the first corner class
    assert c.differential(1, 0).matrix.tolist() == [[-2], [0]]
    d1 = higher_boundary_map(cd, 1, 1)
    assert not d1.codomain.is_zero(d1.matrix[:, 0])  # [u_F] detects the face
    assert d1.codomain.is_zero(d1.matrix[:, 1])  # [u_C] does not
    d2 = higher_boundary_map(cd, 2, 1)
    assert d2.domain.canonical() == (1, ())
    assert d2.domain.labels == ("[u_C]",)
    assert d2.codomain.canonical() == (1, (2,))
    assert d2.image_order_two(0)  # [u_C] hits the order-two corner class


def test_first_order_map_equals_raw_boundary():
    cd = preset_cofiltration("quarter-mirror-chiral")
    rep = higher_boundary_map(cd, 1, 1)
    assert np.array_equal(rep.matrix, cd.boundary[(0, 1)].matrix)
    assert np.array_equal(rep.domain_lifts, np.eye(2, dtype=object))


def test_cube_edge_vertex_kernel_is_cycle_space():
    # the parity-1 edge-to-vertex map is the signed cube-graph incidence
    # matrix; its kernel is the cycle space, rank E - V + 1 = 5
    cd = preset_cofiltration("cube-plain")
    m = cd.boundary[(2, 1)].matrix
    assert m.shape == (8, 12)
    assert kernel_basis(m).shape[1] == 5


def test_order_out_of_range():
    cd = preset_cofiltration("square-plain-2")
    with pytest.raises(ValueError, match="between 1 and"):
        higher_boundary_map(cd, 3, 0)
    with pytest.raises(ValueError, match="between 1 and"):
        higher_boundary_map(cd, 0, 0)


# ---------------------------------------------------------------------------
# lift independence


def test_boundary_map_independent_of_lifts_presets():
    for name in ("square-inversion", "square-C4T", "quarter-mirror-chiral"):
        cd = preset_cofiltration(name)
        q = 1 if name == "quarter-mirror-chiral" else 0
        base = higher_boundary_map(cd, 2, q)
        for seed in range(5):
            pert = higher_boundary_map(cd, 2, q, rng=np.random.default_rng(seed))
            assert np.array_equal(base.matrix, pert.matrix)
            assert base.codomain.canonical() == pert.codomain.canonical()


def test_boundary_map_independent_of_lifts_random():
    rng = np.random.default_rng(11)
    for i in range(N_RANDOM_LIFTS):
        cd = random_cofiltration(rng)
        for r in range(1, cd.length + 1):
            for q in (0, 1):
                base = higher_boundary_map(cd, r, q)
                pert = higher_boundary_map(cd, r, q, rng=np.random.default_rng(i))
                assert np.array_equal(base.matrix, pert.matrix)


# ---------------------------------------------------------------------------
# reports and serialization


def test_report_inversion_contents():
    rep = couple_report(preset_cofiltration("square-inversion"))
    assert rep["differentials"]["1"]["d1[1,1]"]["image_invariant_factors"] == [1, 2]
    d2 = rep["boundary_maps"]["delta^2_q0"]
    assert d2["codomain"] == "Z/2"
    assert d2["generator_images"]["[triv]"] == "0"
    assert d2["generator_images"]["[ham1]"] != "0"


def test_report_turns_each_page_once(monkeypatch):
    # one report derives pages 2..length once each and reads every delta^r
    # from them; it agrees with higher_boundary_map, which builds its own
    turns = []
    derive = ktheory._derive_with_data

    def counted(*args, **kwargs):
        turns.append(1)
        return derive(*args, **kwargs)

    monkeypatch.setattr(ktheory, "_derive_with_data", counted)
    rng = np.random.default_rng(41)
    cases = [preset_cofiltration(n) for n in PRESET_NAMES]
    cases += [random_cofiltration(rng) for _ in range(6)]
    for cd in cases:
        turns.clear()
        rep = couple_report(cd)
        assert len(turns) == cd.length - 1
        assert len(rep["boundary_maps"]) == 2 * cd.length
        for r in range(1, cd.length + 1):
            for q in (0, 1):
                expected = higher_boundary_map(cd, r, q).to_dict()
                assert rep["boundary_maps"][f"delta^{r}_q{q}"] == expected


def test_report_verifies_each_page_once(monkeypatch):
    # page 1 is verified when built, each later page when it is derived
    pages = []
    verify = ktheory.ExactCouple.verify

    def counted(self):
        pages.append(self.page)
        return verify(self)

    monkeypatch.setattr(ktheory.ExactCouple, "verify", counted)
    rng = np.random.default_rng(5)
    randoms = [random_cofiltration(rng) for _ in range(9)]
    assert {cd.length for cd in randoms} == {1, 2, 3}
    for cd in [preset_cofiltration(n) for n in PRESET_NAMES] + randoms:
        pages.clear()
        couple_report(cd)
        assert sorted(pages) == list(range(1, cd.length + 1))


def test_report_is_json_serializable():
    for name in PRESET_NAMES:
        json.dumps(couple_report(preset_cofiltration(name)))


def test_cofiltration_round_trip():
    for name in PRESET_NAMES:
        cd = preset_cofiltration(name)
        cd2 = cofiltration_from_dict(cofiltration_to_dict(cd))
        assert cd2.length == cd.length
        for key, f in cd.boundary.items():
            assert np.array_equal(cd2.boundary[key].matrix, f.matrix)
        for ca, cb in zip(all_pages(cd), all_pages(cd2)):
            for node in ca.nodes():
                assert ca.e_groups[node].canonical() == cb.e_groups[node].canonical()


def test_random_cofiltrations_round_trip_through_json_text():
    rng = np.random.default_rng(26)
    for i in range(200):
        cd = random_cofiltration(rng, max_rank=i % 4)
        cd2 = cofiltration_from_dict(json.loads(json.dumps(cofiltration_to_dict(cd))))
        assert cd2.length == cd.length
        for key, g in cd.strata.items():
            assert cd2.strata[key].ngens == g.ngens and cd2.strata[key].labels == g.labels
        for key, f in cd.boundary.items():
            m = cd2.boundary[key].matrix
            assert m.shape == f.matrix.shape and np.array_equal(m, f.matrix)
        assert cd2.second_order.keys() == cd.second_order.keys()
        for eps, m in cd.second_order.items():
            assert cd2.second_order[eps].shape == m.shape
            assert np.array_equal(cd2.second_order[eps], m)


def test_round_trip_through_json_text():
    cd = preset_cofiltration("quarter-mirror-chiral")
    text = json.dumps(cofiltration_to_dict(cd))
    rep = higher_boundary_map(cofiltration_from_dict(json.loads(text)), 2, 1)
    assert rep.image_order_two(0)


def test_page_turn_keeps_each_subquotient_group():
    # the derived D and E groups are the subquotients' own groups, labelled
    # in the generators of the page they came from
    c = build_couple(preset_cofiltration("quarter-mirror-chiral"))
    out, dsq, esq = ktheory._derive_with_data(c)
    for k in out.d_groups:
        assert out.d_groups[k] is dsq[k].group and out.e_groups[k] is esq[k].group
    assert {k: g.labels for k, g in out.d_groups.items()} == {
        (0, 0): ("[chi+]", "[chi-]"),
        (0, 1): ("[u_C]",),
        (1, 0): ("[F:Ch{t}] +2*lift([u_C])",),
        (1, 1): ("[F:[1]]", "lift([chi+])", "lift([chi-])"),
        (2, 0): ("[C:[chi+E0]]", "[C:[chi-E0]]", "lift([F:[1]])",
                 "lift(lift([chi+]))", "lift(lift([chi-]))"),
        (2, 1): ("lift([F:Ch{t}] +2*lift([u_C]))",),
    }
    assert {k: g.labels for k, g in out.e_groups.items()} == {
        (0, 0): ("[chi+]", "[chi-]"),
        (0, 1): ("[u_C]",),
        (1, 0): (),
        (1, 1): ("F:[1]",),
        (2, 0): ("C:[chi+E0]", "C:[chi-E0]"),
        (2, 1): (),
    }


# Smith normal forms of one couple_report, an upper bound that keeps each
# group to one factorization of its own relations
REPORT_SNF_CALLS = {
    "square-plain-2": 84,
    "square-plain-3": 94,
    "square-inversion": 78,
    "square-C2T": 78,
    "square-C4T": 78,
    "cube-plain": 204,
    "quarter-mirror-chiral": 81,
}

# Hermite forms of one couple_report, an upper bound that keeps each map's
# image and kernel lattices to one canonicalization each
REPORT_HNF_CALLS = {name: 102 for name in PRESET_NAMES} | {"cube-plain": 224}


def _report_calls(monkeypatch, fn_name):
    """Calls to fgab's ``fn_name`` made by one couple_report of each preset."""
    calls = []
    fn = getattr(fgab, fn_name)

    def counted(m):
        calls.append(1)
        return fn(m)

    monkeypatch.setattr(fgab, fn_name, counted)
    monkeypatch.setattr(ktheory, fn_name, counted)
    made = {}
    for name in PRESET_NAMES:
        calls.clear()
        couple_report(preset_cofiltration(name))
        made[name] = len(calls)
    return made


def test_report_smith_forms_stay_bounded(monkeypatch):
    made = _report_calls(monkeypatch, "smith_normal_form")
    for name in PRESET_NAMES:
        assert made[name] <= REPORT_SNF_CALLS[name], name


def test_report_hermite_forms_stay_bounded(monkeypatch):
    made = _report_calls(monkeypatch, "hermite_column_form")
    for name in PRESET_NAMES:
        assert made[name] <= REPORT_HNF_CALLS[name], name
