"""Hopping models: Bloch matrices, real-space assembly, built-ins."""

import json
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from hotilab.models import (
    BUILTIN_MODELS,
    Assembly,
    Geometry,
    HoppingModel,
    builtin_model,
    bulk_geometry,
    cube_geometry,
    instantiate,
    model_from_dict,
    quarter_geometry,
    slab_geometry,
    wire_geometry,
)
from hotilab.patterns import Pattern, half_space

TOL = 1e-12


def test_ham1_has_seven_displacements():
    m = builtin_model("ham1", gamma=0.0)
    assert len(m.hoppings) == 7
    assert set(m.hoppings) == {
        (0, 0, 0),
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    }
    # the perturbation only touches the onsite term
    assert len(builtin_model("ham1", gamma=0.7).hoppings) == 7


def test_ham1_bloch_eigenvalues_at_corners():
    m = builtin_model("ham1", gamma=0.0)
    e0 = np.linalg.eigvalsh(m.bloch((0.0, 0.0, 0.0)))
    assert np.allclose(e0, [-5, -5, 5, 5], atol=TOL)
    epi = np.linalg.eigvalsh(m.bloch((np.pi, np.pi, np.pi)))
    assert np.allclose(epi, [-1, -1, 1, 1], atol=TOL)


def test_bloch_hermitian_everywhere():
    rng = np.random.default_rng(0)
    for name in BUILTIN_MODELS:
        m = builtin_model(name)
        for _ in range(5):
            k = rng.uniform(-np.pi, np.pi, size=m.dimension)
            h = m.bloch(k)
            assert np.max(np.abs(h - h.conj().T)) < TOL


def test_bulk_models_are_gapped():
    # default gamma keeps the bulk gap open on a dense momentum sample
    rng = np.random.default_rng(1)
    for name in ("ham1", "ham2", "ham3"):
        m = builtin_model(name)
        gap = min(
            np.min(np.abs(np.linalg.eigvalsh(m.bloch(k))))
            for k in rng.uniform(-np.pi, np.pi, size=(200, 3))
        )
        assert gap > 0.1, f"{name} bulk gap collapsed: {gap}"


def test_chiral_models_have_flat_unit_bands():
    # h = [[0,u*],[u,0]] with u unitary: eigenvalues exactly +-1
    rng = np.random.default_rng(2)
    for name in ("chiral-quarter-uC", "chiral-quarter-uF"):
        m = builtin_model(name)
        assert m.chirality is not None
        for k in rng.uniform(-np.pi, np.pi, size=(20, 2)):
            h = m.bloch(k)
            e = np.linalg.eigvalsh(h)
            assert np.allclose(np.abs(e), 1.0, atol=1e-12)
            g = m.chirality
            assert np.max(np.abs(g @ h @ g + h)) < TOL


def test_missing_reverse_hopping_rejected():
    w = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="reverse"):
        HoppingModel(1, 2, {(1,): w})


def test_non_adjoint_reverse_rejected():
    with pytest.raises(ValueError, match="adjoint"):
        HoppingModel(1, 1, {(1,): [[1.0]], (-1,): [[2.0]]})


@pytest.mark.filterwarnings("error")  # the rejection comes before any arithmetic on gamma
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_non_finite_hopping_rejected(bad):
    # NaN fails every comparison, so it must not read as a zero hopping
    with pytest.raises(ValueError, match="non-finite"):
        HoppingModel(1, 1, {(0,): [[bad]]})
    if np.isreal(bad):  # a non-finite gamma would otherwise drop ham1's onsite mass
        with pytest.raises(ValueError, match="non-finite"):
            builtin_model("ham1", float(np.real(bad)))


def test_geometry_site_ordering_and_counts():
    g = quarter_geometry(4)
    s = g.sites()
    assert len(s) == 16
    assert s == sorted(s)  # lexicographic
    assert cube_geometry(3).sites() == sorted(cube_geometry(3).sites())
    assert len(cube_geometry(3).sites()) == 27
    slab = slab_geometry(3, 2, 5)
    assert slab.periodic_dirs == (0, 1)
    assert len(slab.sites()) == 5


def test_pattern_constraining_periodic_direction_rejected():
    with pytest.raises(ValueError, match="periodic"):
        Geometry(half_space((1, 0)), (None, 4))


def test_instantiate_on_fully_periodic_geometry_is_bloch():
    m = builtin_model("ham1")
    g = bulk_geometry(3)
    for k in [(0.0, 0.0, 0.0), (0.3, -1.1, 2.0)]:
        h = instantiate(m, g, k).dense()
        assert np.max(np.abs(h - m.bloch(k))) < TOL


def test_instantiate_box_too_small_rejected():
    m = builtin_model("ham1")
    with pytest.raises(ValueError, match="minimum"):
        instantiate(m, cube_geometry(2))


def test_instantiate_momentum_count_checked():
    m = builtin_model("ham1")
    with pytest.raises(ValueError, match="momentum"):
        instantiate(m, slab_geometry(3, 2, 9), (0.0,))


def test_real_space_matrix_against_direct_assembly():
    # independent dense assembly of a ham1 slab at fixed transverse momentum
    m = builtin_model("ham1", gamma=0.4)
    L = 7
    geo = slab_geometry(3, 2, L)
    k = (0.5, -0.9)
    h = instantiate(m, geo, k).dense()
    n = m.norb
    ref = np.zeros((L * n, L * n), dtype=complex)
    for z in range(L):
        for delta, w in m.hoppings.items():
            zt = z + delta[2]
            if not 0 <= zt < L:
                continue
            phase = np.exp(1j * (k[0] * delta[0] + k[1] * delta[1]))
            ref[zt * n:(zt + 1) * n, z * n:(z + 1) * n] += w * phase
    assert np.max(np.abs(h - ref)) < TOL


def test_wire_geometry_matches_quarter_cross_section():
    g = wire_geometry(3, 6)
    assert g.periodic_dirs == (2,)
    assert len(g.sites()) == 36


def test_model_json_roundtrip():
    d = {
        "dimension": 1,
        "norb": 2,
        "name": "chain",
        "hoppings": [
            {"delta": [0], "matrix": [[[1.0, 0.0], [0.0, -2.0]], [[0.0, 2.0], [-1.0, 0.0]]]},
            {"delta": [1], "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.5]]]},
            {"delta": [-1], "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -0.5]]]},
        ],
    }
    m = model_from_dict(json.loads(json.dumps(d)))
    assert (m.dimension, m.norb, m.name) == (1, 2, "chain")
    assert np.array_equal(m.hoppings[(0,)], [[1, -2j], [2j, -1]])
    assert np.array_equal(m.hoppings[(1,)], [[0.5, 0], [0, 0.5j]])
    assert np.array_equal(m.hoppings[(-1,)], m.hoppings[(1,)].conj().T)
    m3 = model_from_dict({"model": "ham3", "gamma": 0.35})
    ref = builtin_model("ham3", gamma=0.35)
    assert set(m3.hoppings) == set(ref.hoppings)
    for key, w in ref.hoppings.items():
        assert np.max(np.abs(m3.hoppings[key] - w)) < TOL


def test_unknown_builtin_rejected():
    with pytest.raises(KeyError):
        builtin_model("nope")


# ---------------------------------------------------------------------------
# assembly oracle: one entry at a time over sites x hoppings x orbital pairs

def _loop_sites(geometry):
    """Pattern sites inside the box, lexicographic over open coordinates."""
    opens = geometry.open_dirs
    out = []
    for coords in product(*[range(int(geometry.extents[i])) for i in opens]):
        x = [0] * geometry.dimension
        for i, c in zip(opens, coords):
            x[i] = c
        if geometry.pattern.contains(x):
            out.append(tuple(x))
    return out


def _loop_instantiate(model, geometry, momentum):
    """Sites x hoppings x orbital pairs, one entry at a time."""
    sites = _loop_sites(geometry)
    index = {x: i for i, x in enumerate(sites)}
    n = model.norb
    kvec = dict(zip(geometry.periodic_dirs, (float(x) for x in momentum)))
    rows, cols, vals = [], [], []
    for si, x in enumerate(sites):
        for delta, w in model.hoppings.items():
            y = list(x)
            phase = 0.0
            for j, dj in enumerate(delta):
                if j in kvec:
                    phase += kvec[j] * dj
                else:
                    y[j] += dj
            ti = index.get(tuple(y))
            if ti is None:
                continue  # open truncation
            amp = np.exp(1j * phase)
            for a in range(n):
                for b in range(n):
                    v = w[a, b] * amp
                    if v != 0:
                        # convention: <y,a| H |x,b> = w(delta)_{ab}
                        rows.append(ti * n + a)
                        cols.append(si * n + b)
                        vals.append(v)
    dim = len(sites) * n
    return sites, sp.coo_matrix(
        (np.array(vals, dtype=complex), (rows, cols)), shape=(dim, dim)
    ).tocsr()


def _every_geometry(dimension):
    geos = [bulk_geometry(dimension)]
    geos += [slab_geometry(dimension, j, 5) for j in range(dimension)]
    if dimension == 3:
        geos += [wire_geometry(3, 6), cube_geometry(4), quarter_geometry(6, 3)]
    else:
        geos += [quarter_geometry(7)]
    return geos


@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_instantiate_equals_loop_oracle_exactly(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    m = builtin_model(name)
    for geo in _every_geometry(m.dimension):
        for _ in range(3):
            k = tuple(rng.uniform(-np.pi, np.pi, len(geo.periodic_dirs)))
            ham = instantiate(m, geo, k)
            sites, ref = _loop_instantiate(m, geo, k)
            assert ham.sites == sites
            assert ham.matrix.shape == ref.shape and (ham.matrix != ref).nnz == 0


def test_one_assembly_serves_every_momentum():
    m = builtin_model("ham2")
    geo = wire_geometry(3, 5)
    asm = Assembly(m, geo)
    for k in (-2.1, 0.0, 0.4):
        assert (asm.matrix((k,)) != _loop_instantiate(m, geo, (k,))[1]).nnz == 0
    with pytest.raises(ValueError, match="momentum"):
        asm.matrix(())
