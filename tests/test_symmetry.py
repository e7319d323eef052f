"""Twisted symmetry actions: cocycles, covariance, symmetrization."""

import numpy as np
import pytest

import hotilab.symmetry as symmetry
from hotilab.cli import _symmetry_report
from hotilab.models import (
    Assembly,
    HoppingModel,
    builtin_model,
    bulk_geometry,
    s0,
    s1,
    s2,
    s3,
    slab_geometry,
    wire_geometry,
)
from hotilab.symmetry import (
    BUILTIN_ACTIONS,
    COVARIANCE_TOL,
    RELATION_TOL,
    SymmetryAction,
    builtin_action,
    check_covariance,
    covariant_elements,
    generator_order,
    momentum_reversal,
    real_gauge,
    symmetrize,
    verify_projective_relations,
)

TOL = 1e-12

DECLARED_PAIRS = [
    ("ham1", "inversion"),
    ("ham2", "C2T"),
    ("ham3", "C4T"),
    ("chiral-quarter-uC", "chiral"),
    ("chiral-quarter-uC", "mirror-diagonal"),
    ("chiral-quarter-uF", "chiral"),
    ("chiral-quarter-uF", "mirror-diagonal"),
]


def _random_model(rng, dim, norb, deltas):
    hops = {}
    for d in deltas:
        w = rng.normal(size=(norb, norb)) + 1j * rng.normal(size=(norb, norb))
        hops[d] = w
        hops[tuple(-x for x in d)] = w.conj().T
    on = rng.normal(size=(norb, norb)) + 1j * rng.normal(size=(norb, norb))
    hops[tuple([0] * dim)] = on + on.conj().T
    return HoppingModel(dim, norb, hops)


def _solved_action(aname, mname, gamma=0.5):
    """The named action with the unitary solved from a model that has it."""
    el = builtin_action(aname, builtin_model(mname, gamma))
    return SymmetryAction(el.u, el.s, el.anti, el.chiral, aname)


def test_builtin_actions_verify():
    # every generator solved with a one-dimensional solution space verifies
    for mname, aname, gamma in REPORT_TABLE:
        el = builtin_action(aname, builtin_model(mname, gamma))
        if el is not None and el.solutions == 1:
            ok, defect = verify_projective_relations(_solved_action(aname, mname, gamma))
            assert ok, f"{mname}/{aname}/{gamma}: defect {defect}"


def test_time_reversal_squares_to_minus_one():
    for mname in ("ham1", "ham2"):
        a = _solved_action("T", mname, 0.0)
        assert abs(a.cocycle[("g", "g")] - (-1)) < 1e-9, mname


def test_c4t_fourth_power_is_minus_one():
    # tau(g^j, g^k) = -1 exactly when the powers wrap past the identity
    labels = {0: "e", 1: "g", 2: "g^2", 3: "g^3"}
    for mname, gamma in (("ham3", 0.5), ("ham1", 0.0), ("ham2", 0.0)):
        a = _solved_action("C4T", mname, gamma)
        for j in range(4):
            for k in range(4):
                tau = a.cocycle[(labels[j], labels[k])]
                want = -1.0 if j + k >= 4 else 1.0
                assert abs(tau - want) < 1e-9, (mname, j, k, tau)
        assert all(a.elements[j].anti == j % 2 for j in range(4))


def test_unitary_symmetries_have_trivial_cocycle():
    # the phase rule (first entry of largest magnitude real positive) gives U^2 = 1
    for aname, mname in (("inversion", "ham1"), ("inversion", "ham2"), ("C2T", "ham2"),
                         ("chiral", "chiral-quarter-uC"), ("mirror-diagonal", "chiral-quarter-uC")):
        a = _solved_action(aname, mname)
        assert all(abs(t - 1) < 1e-9 for t in a.cocycle.values()), (aname, mname)


@pytest.mark.parametrize("mname,aname", DECLARED_PAIRS)
def test_declared_covariance(mname, aname):
    el = builtin_action(aname, builtin_model(mname))
    assert el is not None, f"{mname} has no {aname}"
    if el.solutions == 1:
        ok, defect = check_covariance(builtin_model(mname), _solved_action(aname, mname), TOL)
        assert ok, f"{mname}/{aname}: defect {defect}"


def test_perturbation_selects_symmetry():
    # the gamma term of ham2 kills C4.T but keeps C2.T, and vice versa for ham3
    def has(aname, mname, gamma):
        return builtin_action(aname, builtin_model(mname, gamma)) is not None

    assert not has("C4T", "ham2", 0.5) and has("C2T", "ham2", 0.5)
    assert has("C4T", "ham2", 0.0)
    assert has("C4T", "ham3", 0.5) and not has("C2T", "ham3", 0.5)
    assert not has("T", "ham1", 0.5)


def test_symmetrize_projects_and_is_idempotent():
    rng = np.random.default_rng(3)
    deltas = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    for a in (_solved_action("inversion", "ham1"), _solved_action("C2T", "ham2"),
              _solved_action("C4T", "ham3"), _solved_action("T", "ham2", 0.0)):
        m = _random_model(rng, 3, 4, deltas)
        p = symmetrize(m, a)
        ok, defect = check_covariance(p, a, 1e-10)
        assert ok, f"{a.name}: {defect}"
        p2 = symmetrize(p, a)
        for key, w in p.hoppings.items():
            assert np.max(np.abs(p2.hoppings[key] - w)) < 1e-10


def test_symmetrize_fixes_covariant_model():
    m = builtin_model("ham3")
    p = symmetrize(m, _solved_action("C4T", "ham3"))
    for key, w in m.hoppings.items():
        assert np.max(np.abs(p.hoppings[key] - w)) < 1e-10


def test_symmetrize_group_order_cap():
    # a shear has no finite order, so no n up to the cap has S^n = 1
    with pytest.raises(ValueError, match="cap"):
        SymmetryAction(np.eye(1, dtype=complex), ((1, 1), (0, 1)))


def test_non_projective_matrices_rejected():
    # a doctored generator whose square is no scalar: g^2 is not proportional to e
    a = _solved_action("inversion", "ham1")
    bad = np.diag([1.0, 1.0, 1.0, 1.0 + 1e-3]).astype(complex)
    with pytest.raises(ValueError, match="proportional"):
        SymmetryAction(bad, a.matrix)


def test_point_group_validation():
    # S = diag(2, 1) is no lattice automorphism (|det| = 2): no power is 1
    with pytest.raises(ValueError):
        SymmetryAction(np.eye(1, dtype=complex), ((2, 0), (0, 1)))
    # the order is derived from S, anti and chiral
    assert SymmetryAction(np.eye(1, dtype=complex), ((0, -1), (1, 0))).order == 4
    assert [generator_order(*symmetry._ACTION_TABLE[name]) for name in BUILTIN_ACTIONS] == [
        2, 2, 4, 2, 2, 2]


def test_covariance_detects_broken_model():
    m = builtin_model("ham1")
    hops = dict(m.hoppings)
    bump = np.zeros((4, 4), dtype=complex)
    bump[0, 1] = 1e-6  # odd under the orbital parity grading
    hops[(1, 0, 0)] = hops[(1, 0, 0)] + bump
    hops[(-1, 0, 0)] = hops[(-1, 0, 0)] + bump.conj().T
    broken = HoppingModel(3, 4, hops)
    ok, defect = check_covariance(broken, _solved_action("inversion", "ham1"), TOL)
    assert not ok and defect > 1e-7


@pytest.mark.parametrize("mname,label", [
    ("ham1", "S=(-x,-y,-z),anti=0,chiral=0"),
    ("ham2", "S=(-x,-y,z),anti=1,chiral=0"),
    ("ham3", "S=(x,-y,z),anti=1,chiral=0"),
], ids=["ham1", "ham2", "ham3"])
def test_momentum_reversal_maps_eigenpairs_to_minus_k(mname, label):
    model = builtin_model(mname)
    geo = wire_geometry(3, 6)
    rev = momentum_reversal(model, geo)
    assert rev.label == label
    assert sorted(rev.site_perm) == list(range(36))
    asm = Assembly(model, geo)
    for k in (0.4, 2.9):
        vals, vecs = np.linalg.eigh(asm.matrix((k,)).toarray())
        h = asm.matrix((-k,))
        mapped = rev.apply(vecs)
        bound = np.max(abs(h).sum(axis=1))
        assert np.max(np.abs(h @ mapped - mapped * vals)) <= 1e-12 * bound


# the panels of the gap scans: slabs of the 3D models (open along x, y, z),
# edges of the 2D chiral models, and every bulk (direction None)
GAP_PANELS = [
    (m, g, d) for m in ("ham1", "ham2", "ham3") for g in (0.5, 0.0) for d in (0, 1, 2, None)
] + [(m, 0.5, d) for m in ("chiral-quarter-uC", "chiral-quarter-uF") for d in (0, 1, None)]


@pytest.mark.parametrize("mname, gamma, direction", GAP_PANELS)
def test_every_covariant_element_maps_k_to_its_k_map(mname, gamma, direction):
    model = builtin_model(mname, gamma)
    if direction is None:
        geo, h = bulk_geometry(model.dimension), model.bloch
    else:
        geo = slab_geometry(model.dimension, direction, 4)
        asm = Assembly(model, geo)

        def h(k):
            return asm.matrix(k).toarray()
    elements = list(covariant_elements(model, geo))
    assert elements  # every built-in model is covariant under a built-in action
    rng = np.random.default_rng(11)
    for el in elements:
        assert sorted(el.site_perm) == list(range(len(el.site_perm)))
        assert sorted(np.abs(el.k_map).sum(axis=0)) == [1] * len(el.k_map)  # signed permutation
        for k in rng.uniform(-np.pi, np.pi, size=(2, len(el.k_map))):
            vals, vecs = np.linalg.eigh(h(k))
            hm = h(el.k_map @ k)
            sign = -1 if el.chiral else 1
            bound = np.max(np.abs(hm).sum(axis=1))
            # the spectrum at k_map k is the one at k, negated for chiral elements
            assert np.max(np.abs(np.linalg.eigvalsh(hm) - np.sort(sign * vals))) <= 1e-12 * bound
            # and the element carries each eigenvector along
            mapped = el.apply(vecs)
            assert np.max(np.abs(hm @ mapped - mapped * (sign * vals))) <= 1e-12 * bound


# momentum_reversal's pick per built-in model: on a side-6 wire (3D models
# only), then on slabs open along each direction in turn
REVERSAL_LABELS = {
    ("ham1", 0.5): ("S=(-x,-y,-z),anti=0,chiral=0",) * 4,
    ("ham1", 0.0): ("S=(x,y,z),anti=1,chiral=0",) * 4,
    ("ham2", 0.5): ("S=(-x,-y,z),anti=1,chiral=0", "S=(-x,-y,-z),anti=0,chiral=0",
                    "S=(-x,-y,-z),anti=0,chiral=0", "S=(x,y,-z),anti=1,chiral=0"),
    ("ham2", 0.0): ("S=(x,y,z),anti=1,chiral=0",) * 4,
    ("ham3", 0.5): ("S=(x,-y,z),anti=1,chiral=0", "S=(x,-y,-z),anti=0,chiral=0",
                    "S=(x,-y,z),anti=1,chiral=0", "S=(x,y,-z),anti=1,chiral=0"),
    ("ham3", 0.0): ("S=(x,y,z),anti=1,chiral=0",) * 4,
    ("chiral-quarter-uC", 0.5): ("S=(x,y),anti=1,chiral=0",) * 2,
    ("chiral-quarter-uF", 0.5): ("S=(x,y),anti=1,chiral=0",) * 2,
}


@pytest.mark.parametrize("mname, gamma", list(REVERSAL_LABELS))
def test_momentum_reversal_is_the_first_reversing_covariant_element(mname, gamma):
    model = builtin_model(mname, gamma)
    geos = [wire_geometry(3, 6)] if model.dimension == 3 else []
    geos += [slab_geometry(model.dimension, d, 4) for d in range(model.dimension)]
    labels = []
    for geo in geos:
        rev = momentum_reversal(model, geo)
        labels.append(None if rev is None else rev.label)
        if rev is not None:
            assert not rev.chiral and np.array_equal(rev.k_map, -np.eye(len(geo.periodic_dirs)))
    assert tuple(labels) == REVERSAL_LABELS[(mname, gamma)]


# real_gauge's pick per built-in 3D model on a wire: mirror_z.T where the
# model has it; ham1's only site-fixing antiunitary element at gamma 0.5 is
# none (its mirror.T, S=(y,x,-z), moves sites)
REAL_GAUGE_LABELS = {
    ("ham1", 0.5): None,
    ("ham1", 0.0): "S=(x,y,-z),anti=1,chiral=0",
    ("ham2", 0.5): "S=(x,y,-z),anti=1,chiral=0",
    ("ham2", 0.0): "S=(x,y,-z),anti=1,chiral=0",
    ("ham3", 0.5): "S=(x,y,-z),anti=1,chiral=0",
    ("ham3", 0.0): "S=(x,y,-z),anti=1,chiral=0",
}


@pytest.mark.parametrize("mname, gamma", list(REAL_GAUGE_LABELS))
@pytest.mark.parametrize("side", [5, 6])
def test_real_gauge_makes_every_wire_bloch_matrix_real(mname, gamma, side):
    model, geo = builtin_model(mname, gamma), wire_geometry(3, side)
    gauge = real_gauge(model, geo)
    assert (gauge and gauge[0]) == REAL_GAUGE_LABELS[(mname, gamma)]
    if gauge is None:
        return
    label, v = gauge
    el = next(el for el in covariant_elements(model, geo) if el.label == label)
    assert el.antiunitary and not el.chiral and np.array_equal(el.k_map, [[1]])
    assert np.array_equal(el.site_perm, np.arange(side * side))
    assert np.max(np.abs(v @ v.conj().T - np.eye(4))) <= 1e-12
    assert np.max(np.abs(v @ v.T - el.unitary)) <= 1e-12
    asm, rot = Assembly(model, geo), np.kron(np.eye(side * side), v)
    for k in np.random.default_rng(3).uniform(-np.pi, np.pi, 4):
        h = asm.matrix((k,)).toarray()
        gauged = rot.conj().T @ h @ rot
        assert np.max(np.abs(gauged.imag)) <= 1e-12 * np.max(np.abs(h).sum(axis=1))


def test_covariant_elements_builds_no_action(monkeypatch):
    # the finder solves its elements from the hoppings, reading no table row
    def no_build(*args, **kwargs):
        raise AssertionError("an action was built")

    monkeypatch.setattr(symmetry, "_ACTION_TABLE", {})
    monkeypatch.setattr(symmetry, "builtin_action", no_build)
    monkeypatch.setattr(SymmetryAction, "__post_init__", no_build)
    geo = slab_geometry(3, 0, 20)
    first = list(covariant_elements(builtin_model("ham2", 0.37), geo))
    assert "S=(-x,-y,z),anti=1,chiral=0" in [el.label for el in first]
    # a model of equal content shares the solve, one that differs in one
    # hopping entry gets its own
    again = list(covariant_elements(builtin_model("ham2", 0.37), geo))
    assert all(a.unitary is b.unitary for a, b in zip(first, again))
    hops = dict(builtin_model("ham2", 0.37).hoppings)
    hops[(0, 0, 0)] = hops[(0, 0, 0)] + np.diag([1e-3, 0, 0, 0])
    other = list(covariant_elements(HoppingModel(3, 4, hops), geo))
    assert other[0].label == first[0].label and other[0].unitary is not first[0].unitary


def test_builtin_action_is_a_new_object_every_call():
    model = builtin_model("ham1")
    a, b = builtin_action("inversion", model), builtin_action("inversion", model)
    assert a is not b and a.u is not b.u
    a.u[:] = 0
    assert np.array_equal(builtin_action("inversion", model).u, b.u)


def test_chiral_action_needs_a_chirality_grading():
    # without a grading the finder tries no chiral element, so None would be a wrong verdict
    graded = builtin_model("chiral-quarter-uC")
    ungraded = HoppingModel(2, 4, dict(graded.hoppings))
    assert builtin_action("chiral", graded) is not None
    with pytest.raises(ValueError, match="grading"):
        builtin_action("chiral", ungraded)
    assert builtin_action("mirror-diagonal", ungraded) is not None


def test_ham2_bulk_has_its_inversion():
    # ham2's inversion acts on its orbitals as s3 (x) s0, not as ham1's
    # s0 (x) s3; the finder solves it, and the phase rule makes it +s3 (x) s0
    model = builtin_model("ham2")
    assert not check_covariance(model, SymmetryAction(WITNESS["inversion"], S_INVERSION))[0]
    inv = [el for el in covariant_elements(model, bulk_geometry(3))
           if not el.antiunitary and not el.chiral and np.array_equal(el.k_map, -np.eye(3))]
    assert len(inv) == 1
    u, target = inv[0].unitary, np.kron(np.diag([1, -1]), np.eye(2))
    assert abs(abs(np.trace(target @ u)) - 4) <= 1e-12  # u is a phase times target
    assert np.max(np.abs(builtin_action("inversion", model).u - target)) <= 1e-12


@pytest.mark.parametrize("mname, gamma", [
    (m, g) for m in ("ham1", "ham2", "ham3") for g in (0.5, 0.0)
] + [("chiral-quarter-uC", 0.5), ("chiral-quarter-uF", 0.5)])
def test_solved_unitaries_are_unitary_and_covariant(mname, gamma):
    model = builtin_model(mname, gamma)
    n, zero = model.norb, np.zeros((model.norb, model.norb))
    solved = symmetry._solved_elements(model)
    found = list(covariant_elements(model, bulk_geometry(model.dimension)))
    assert [el.label for el in found] == [el.label for el in solved]  # a bulk keeps them all
    for el, record in zip(found, solved):
        u, anti, sign = el.unitary, el.antiunitary, -1 if el.chiral else 1
        s = -el.k_map if anti else el.k_map  # a bulk's k-map is (-1)^anti S
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) <= 1e-12
        assert not u.flags.writeable  # shared by every call for this model
        system = []
        for d, w in model.hoppings.items():
            m, t = (w.conj() if anti else w), sign * model.hoppings.get(tuple(s @ d), zero)
            assert np.max(np.abs(u @ m @ u.conj().T - t)) <= COVARIANCE_TOL
            system.append(np.kron(np.eye(n), m.T) - np.kron(t, np.eye(n)))
        sv = np.linalg.svd(np.vstack(system), compute_uv=False)
        # the null space of U m - t U = 0 in U: three-dimensional on uF
        null = np.sum(sv <= 1e-9 * sv[0])
        assert null == (3 if mname == "chiral-quarter-uF" else 1)
        assert record.solutions == null


# the six unitaries the named actions carried before each became a question
# to the finder, all in ham1's orbital basis: a witness where covariant
S_INVERSION = ((-1, 0, 0), (0, -1, 0), (0, 0, -1))
WITNESS = {
    "inversion": np.kron(s0, s3),
    "C2T": np.kron(s0, s1),
    "C4T": np.kron(s0, s2 * np.exp([1j * np.pi / 4, -1j * np.pi / 4])),
    "T": np.kron(s0, s2),
    "chiral": np.kron(s3, s0),
    "mirror-diagonal": np.kron(s0, s3),
}

# check-symmetry's (covariant, solutions, group_order) for every built-in
# model and action of its shape, at gamma 0.5 and 0 (the chiral models take
# no gamma).  Against the fixed witnesses, six rows flip to covariant: the
# finder solves each model's own unitary
REPORT_TABLE = {
    ("ham1", "inversion", 0.5): (True, 1, 2),
    ("ham1", "inversion", 0.0): (True, 1, 2),
    ("ham1", "C2T", 0.5): (False, 0, 2),
    ("ham1", "C2T", 0.0): (True, 1, 2),
    ("ham1", "C4T", 0.5): (False, 0, 4),
    ("ham1", "C4T", 0.0): (True, 1, 4),
    ("ham1", "T", 0.5): (False, 0, 2),
    ("ham1", "T", 0.0): (True, 1, 2),
    ("ham2", "inversion", 0.5): (True, 1, 2),
    ("ham2", "inversion", 0.0): (True, 1, 2),
    ("ham2", "C2T", 0.5): (True, 1, 2),
    ("ham2", "C2T", 0.0): (True, 1, 2),
    ("ham2", "C4T", 0.5): (False, 0, 4),
    ("ham2", "C4T", 0.0): (True, 1, 4),
    ("ham2", "T", 0.5): (False, 0, 2),
    ("ham2", "T", 0.0): (True, 1, 2),
    ("ham3", "inversion", 0.5): (False, 0, 2),
    ("ham3", "inversion", 0.0): (True, 1, 2),
    ("ham3", "C2T", 0.5): (False, 0, 2),
    ("ham3", "C2T", 0.0): (True, 1, 2),
    ("ham3", "C4T", 0.5): (True, 1, 4),
    ("ham3", "C4T", 0.0): (True, 1, 4),
    ("ham3", "T", 0.5): (False, 0, 2),
    ("ham3", "T", 0.0): (True, 1, 2),
    ("chiral-quarter-uC", "chiral", 0.5): (True, 1, 2),
    ("chiral-quarter-uC", "mirror-diagonal", 0.5): (True, 1, 2),
    ("chiral-quarter-uF", "chiral", 0.5): (True, 3, 2),
    ("chiral-quarter-uF", "mirror-diagonal", 0.5): (True, 3, 2),
}
FLIPPED = {
    ("ham1", "C2T", 0.0), ("ham1", "C4T", 0.0), ("ham1", "T", 0.0),
    ("ham2", "inversion", 0.5), ("ham2", "inversion", 0.0), ("ham3", "inversion", 0.0),
}


def _report(mname, aname, gamma):
    return _symmetry_report(builtin_model(mname, gamma), aname)


def _witness_covariant(mname, aname, gamma):
    s, anti, chiral = symmetry._ACTION_TABLE[aname]
    action = SymmetryAction(WITNESS[aname], s, anti, chiral)
    return bool(check_covariance(builtin_model(mname, gamma), action)[0])


@pytest.mark.parametrize("mname, aname, gamma", list(REPORT_TABLE))
def test_check_covariance_verdicts_and_defects(mname, aname, gamma):
    rep = _report(mname, aname, gamma)
    assert (rep["covariant"], rep["solutions"], rep["group_order"]) == REPORT_TABLE[
        (mname, aname, gamma)]
    if rep["solutions"] == 1:
        assert 0 <= rep["covariance_defect"] <= COVARIANCE_TOL
    else:  # no unitary, or a space of them: no one defect to report
        assert rep["covariance_defect"] is None
    if _witness_covariant(mname, aname, gamma):
        assert rep["covariant"]


def test_report_flips_only_where_the_finder_solves_the_model_unitary():
    flipped = {key for key in REPORT_TABLE
               if REPORT_TABLE[key][0] and not _witness_covariant(*key)}
    assert flipped == FLIPPED
    assert all(not _witness_covariant(*key) for key in REPORT_TABLE if not REPORT_TABLE[key][0])


@pytest.mark.parametrize("aname", BUILTIN_ACTIONS)
def test_relation_verdicts_and_defects(aname):
    # the relations of every row with one solved unitary hold within
    # RELATION_TOL; a row with none, or with a space of them, has no relations
    for mname, name, gamma in REPORT_TABLE:
        if name != aname:
            continue
        rep = _report(mname, aname, gamma)
        if rep["solutions"] == 1:
            assert rep["relations_ok"] and 0 <= rep["relation_defect"] <= RELATION_TOL
        else:
            assert rep["relations_ok"] is None and rep["relation_defect"] is None
