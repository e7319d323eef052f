"""Twisted symmetry actions: cocycles, covariance, symmetrization."""

import numpy as np
import pytest

from hotilab.models import (
    Assembly,
    HoppingModel,
    builtin_model,
    bulk_geometry,
    slab_geometry,
    wire_geometry,
)
from hotilab.patterns import PointGroupElement
from hotilab.symmetry import (
    BUILTIN_ACTIONS,
    SymmetryAction,
    builtin_action,
    check_covariance,
    covariant_elements,
    momentum_reversal,
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


def test_builtin_actions_verify():
    for name in BUILTIN_ACTIONS:
        a = builtin_action(name)
        ok, defect = verify_projective_relations(a)
        assert ok, f"{name}: defect {defect}"


def test_time_reversal_squares_to_minus_one():
    a = builtin_action("T")
    assert abs(a.cocycle[("g", "g")] - (-1)) < 1e-9


def test_c4t_fourth_power_is_minus_one():
    # tau(g^j, g^k) = -1 exactly when the powers wrap past the identity
    a = builtin_action("C4T")
    labels = {0: "e", 1: "g", 2: "g^2", 3: "g^3"}
    for j in range(4):
        for k in range(4):
            tau = a.cocycle[(labels[j], labels[k])]
            want = -1.0 if j + k >= 4 else 1.0
            assert abs(tau - want) < 1e-9, (j, k, tau)
    assert all(a.antiunitary[labels[j]] == j % 2 for j in range(4))


def test_unitary_symmetries_have_trivial_cocycle():
    for name in ("inversion", "chiral", "mirror-diagonal", "C2T"):
        a = builtin_action(name)
        assert all(abs(t - 1) < 1e-9 for t in a.cocycle.values()), name


@pytest.mark.parametrize("mname,aname", DECLARED_PAIRS)
def test_declared_covariance(mname, aname):
    ok, defect = check_covariance(builtin_model(mname), builtin_action(aname), TOL)
    assert ok, f"{mname}/{aname}: defect {defect}"


def test_perturbation_selects_symmetry():
    # the gamma term of ham2 kills C4.T but keeps C2.T, and vice versa for ham3
    c4t, c2t = builtin_action("C4T"), builtin_action("C2T")
    assert not check_covariance(builtin_model("ham2", 0.5), c4t, TOL)[0]
    assert check_covariance(builtin_model("ham2", 0.0), c4t, TOL)[0]
    assert check_covariance(builtin_model("ham3", 0.5), c4t, TOL)[0]
    assert not check_covariance(builtin_model("ham1", 0.5), builtin_action("T"), TOL)[0]


def test_symmetrize_projects_and_is_idempotent():
    rng = np.random.default_rng(3)
    deltas = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    for name in ("inversion", "C2T", "C4T", "T"):
        a = builtin_action(name)
        m = _random_model(rng, 3, 4, deltas)
        p = symmetrize(m, a)
        ok, defect = check_covariance(p, a, 1e-10)
        assert ok, f"{name}: {defect}"
        p2 = symmetrize(p, a)
        for key, w in p.hoppings.items():
            assert np.max(np.abs(p2.hoppings[key] - w)) < 1e-10


def test_symmetrize_fixes_covariant_model():
    m = builtin_model("ham3")
    p = symmetrize(m, builtin_action("C4T"))
    for key, w in m.hoppings.items():
        assert np.max(np.abs(p.hoppings[key] - w)) < 1e-10


def test_symmetrize_group_order_cap():
    with pytest.raises(ValueError, match="cap"):
        SymmetryAction.cyclic(
            1025, np.eye(1, dtype=complex), PointGroupElement.identity(1)
        )


def test_non_projective_matrices_rejected():
    # doctor one unitary so products stop being proportional to table entries
    a = builtin_action("inversion")
    bad = dict(a.unitaries)
    bad["g"] = np.diag([1.0, 1.0, 1.0, 1.0 + 1e-3]).astype(complex)
    with pytest.raises(ValueError, match="proportional"):
        SymmetryAction(
            norb=a.norb, dimension=a.dimension, elements=a.elements,
            table=a.table, unitaries=bad, antiunitary=a.antiunitary,
            chirality=a.chirality, spatial=a.spatial,
        )


def test_covariance_detects_broken_model():
    m = builtin_model("ham1")
    hops = dict(m.hoppings)
    bump = np.zeros((4, 4), dtype=complex)
    bump[0, 1] = 1e-6  # odd under the orbital parity grading
    hops[(1, 0, 0)] = hops[(1, 0, 0)] + bump
    hops[(-1, 0, 0)] = hops[(-1, 0, 0)] + bump.conj().T
    broken = HoppingModel(3, 4, hops)
    ok, defect = check_covariance(broken, builtin_action("inversion"), TOL)
    assert not ok and defect > 1e-7


@pytest.mark.parametrize("mname,label", [
    ("ham1", "inversion:g"), ("ham2", "C2T:g"), ("ham3", "C4T:g"),
])
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
    ("ham1", 0.5): ("inversion:g", "inversion:g", "inversion:g", "inversion:g"),
    ("ham1", 0.0): ("inversion:g", "inversion:g", "inversion:g", "inversion:g"),
    ("ham2", 0.5): ("C2T:g", None, None, None),
    ("ham2", 0.0): ("C2T:g", "T:g", "T:g", "C4T:g^2"),
    ("ham3", 0.5): ("C4T:g", None, None, "C4T:g^2"),
    ("ham3", 0.0): ("C2T:g", "T:g", "T:g", "C4T:g^2"),
    ("chiral-quarter-uC", 0.5): (None, None),
    ("chiral-quarter-uF", 0.5): (None, None),
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


def test_covariant_elements_builds_no_action(monkeypatch):
    # the finder builds its actions once, so a later call builds none
    model, geo = builtin_model("ham2"), slab_geometry(3, 0, 20)
    list(covariant_elements(model, geo))

    def no_build(*args, **kwargs):
        raise AssertionError("an action was built")

    monkeypatch.setattr(SymmetryAction, "cyclic", classmethod(no_build))
    assert [el.label for el in covariant_elements(model, geo)] == ["C2T:e", "C2T:g"]


def test_builtin_action_is_a_new_object_every_call():
    model, geo = builtin_model("ham1"), slab_geometry(3, 2, 4)
    before = list(covariant_elements(model, geo))
    assert "inversion:g" in [el.label for el in before]
    a, b = builtin_action("inversion"), builtin_action("inversion")
    assert a is not b and a.unitaries["g"] is not b.unitaries["g"]
    a.unitaries["g"][:] = 0
    after = list(covariant_elements(model, geo))
    assert [el.label for el in after] == [el.label for el in before]
    for el, old in zip(after, before):
        name, g = el.label.split(":")
        assert np.array_equal(el.unitary, builtin_action(name).unitaries[g])
        assert np.array_equal(el.k_map, old.k_map)
        assert not el.unitary.flags.writeable  # shared with the next call
