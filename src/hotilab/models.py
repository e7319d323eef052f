"""Tight-binding hopping models and their Bloch / real-space matrices.

A hopping model is a finite displacement-indexed family of orbital matrices
w(delta) with w(-delta) = w(delta)^dagger.  Geometries pair a lattice pattern
with per-direction extents (open directions) and momentum directions
(periodic ones).  Every real-space matrix comes from one ``Assembly`` per
(model, geometry): the hops that stay on the site set (open truncation),
found once by index arithmetic on the site array, and summed with Bloch
phases along the periodic directions as H(k) = sum_delta e^{ik.delta} B_delta
at each momentum.  ``instantiate`` is the one-momentum form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fgab import json_integers
from .patterns import Pattern, half_space, quarter_pattern

__all__ = [
    "HoppingModel",
    "Geometry",
    "RealSpaceHamiltonian",
    "Assembly",
    "builtin_model",
    "BUILTIN_MODELS",
    "bulk_geometry",
    "slab_geometry",
    "wire_geometry",
    "quarter_geometry",
    "cube_geometry",
    "model_from_dict",
]

HERMITICITY_TOL = 1e-12

s0 = np.eye(2, dtype=complex)
s1 = np.array([[0, 1], [1, 0]], dtype=complex)
s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
s3 = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass
class HoppingModel:
    """w(delta) hopping matrices on Z^dimension with norb internal orbitals."""

    dimension: int
    norb: int
    hoppings: dict[tuple[int, ...], np.ndarray]
    chirality: np.ndarray | None = None  # grading operator for chiral models
    name: str = ""

    def __post_init__(self):
        clean: dict[tuple[int, ...], np.ndarray] = {}
        for delta, w in self.hoppings.items():
            d = tuple(int(x) for x in delta)
            if len(d) != self.dimension:
                raise ValueError(f"displacement {d} has wrong length")
            w = np.asarray(w, dtype=complex)
            if w.shape != (self.norb, self.norb):
                raise ValueError(f"hopping at {d} has wrong shape {w.shape}")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"hopping at {d} has a non-finite entry")
            if np.max(np.abs(w)) > 0:
                clean[d] = w
        for d, w in clean.items():
            md = tuple(-x for x in d)
            if md not in clean:
                raise ValueError(f"missing reverse hopping for {d}")
            if np.max(np.abs(clean[md] - w.conj().T)) > HERMITICITY_TOL:
                raise ValueError(f"w({md}) is not the adjoint of w({d})")
        self.hoppings = clean

    def range_per_direction(self) -> tuple[int, ...]:
        r = [0] * self.dimension
        for d in self.hoppings:
            for i, x in enumerate(d):
                r[i] = max(r[i], abs(x))
        return tuple(r)

    def bloch(self, k) -> np.ndarray:
        """Bloch matrix h(k) = sum_delta w(delta) exp(i k.delta)."""
        k = np.asarray(k, dtype=float)
        if k.shape != (self.dimension,):
            raise ValueError("momentum has wrong length")
        h = np.zeros((self.norb, self.norb), dtype=complex)
        for d, w in self.hoppings.items():
            h += w * np.exp(1j * float(np.dot(k, d)))
        return h


# ---------------------------------------------------------------------------
# geometries

@dataclass(frozen=True)
class Geometry:
    """Pattern + per-direction extents; None extent = periodic direction.

    Pattern normals must vanish along periodic directions (momentum must stay
    a good quantum number there).  Sites carry 0 in periodic coordinates and
    run lexicographically over the open ones.
    """

    pattern: Pattern
    extents: tuple[int | None, ...]

    def __post_init__(self):
        if len(self.extents) != self.pattern.dimension:
            raise ValueError("need one extent entry per direction")
        for n, _ in self.pattern.constraints:
            for j in self.periodic_dirs:
                if n[j] != 0:
                    raise ValueError(
                        f"pattern constrains periodic direction {j}: {n}"
                    )
        for j in self.open_dirs:
            if self.extents[j] is None or int(self.extents[j]) < 1:
                raise ValueError("open directions need positive extents")

    @property
    def dimension(self) -> int:
        return self.pattern.dimension

    @property
    def periodic_dirs(self) -> tuple[int, ...]:
        return tuple(i for i, L in enumerate(self.extents) if L is None)

    @property
    def open_dirs(self) -> tuple[int, ...]:
        return tuple(i for i, L in enumerate(self.extents) if L is not None)

    def site_array(self) -> np.ndarray:
        """(#sites, dimension) array of pattern sites inside the box,
        lexicographic over open coordinates (0 in periodic ones)."""
        opens = list(self.open_dirs)
        shape = [int(self.extents[i]) for i in opens]
        grid = np.indices(shape, dtype=np.int64).reshape(len(opens), math.prod(shape))
        sites = np.zeros((grid.shape[1], self.dimension), dtype=np.int64)
        sites[:, opens] = grid.T
        keep = np.ones(len(sites), dtype=bool)
        for normal, bound in self.pattern.constraints:
            keep &= sites @ np.array(normal, dtype=np.int64) >= bound
        return sites[keep]

    def sites(self) -> list[tuple[int, ...]]:
        """Pattern sites inside the box, lexicographic over open coordinates."""
        return [tuple(x) for x in self.site_array().tolist()]

    def box_lookup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(shape, strides, lookup) of the open box: the point with open
        coordinates x is box entry x @ strides, and lookup[x @ strides] is
        its row in ``site_array()`` (-1 where the pattern excludes it)."""
        opens = list(self.open_dirs)
        shape = np.array([int(self.extents[i]) for i in opens], dtype=np.int64)
        strides = np.array(
            [math.prod(shape[i + 1:]) for i in range(len(shape))], dtype=np.int64
        )
        sites = self.site_array()
        lookup = np.full(math.prod(shape), -1, dtype=np.int64)
        lookup[sites[:, opens] @ strides] = np.arange(len(sites))
        return shape, strides, lookup


def bulk_geometry(dimension: int) -> Geometry:
    return Geometry(Pattern(dimension), (None,) * dimension)


def slab_geometry(dimension: int, direction: int, depth: int) -> Geometry:
    """Half-space material confined to ``depth`` layers along one direction."""
    normal = tuple(1 if i == direction else 0 for i in range(dimension))
    extents = [None] * dimension
    extents[direction] = depth
    return Geometry(half_space(normal), tuple(extents))


def wire_geometry(dimension: int, side: int) -> Geometry:
    """Square cross-section in the (1,2)-plane, periodic along the rest."""
    if dimension < 3:
        raise ValueError("wires need at least three directions")
    extents = [side, side] + [None] * (dimension - 2)
    return Geometry(quarter_pattern(dimension), tuple(extents))


def quarter_geometry(side: int, dimension: int = 2) -> Geometry:
    extents = [side] * 2 + [None] * (dimension - 2)
    return Geometry(quarter_pattern(dimension), tuple(extents))


def cube_geometry(side: int) -> Geometry:
    cons = tuple(
        (tuple(1 if i == j else 0 for i in range(3)), 0) for j in range(3)
    )
    return Geometry(Pattern(3, cons), (side, side, side))


# ---------------------------------------------------------------------------
# real-space assembly

@dataclass
class RealSpaceHamiltonian:
    """Assembled matrix on geometry sites (CSR), with site bookkeeping."""

    geometry: Geometry
    model: HoppingModel
    momentum: tuple[float, ...]
    sites: list[tuple[int, ...]]
    matrix: sp.csr_matrix

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


class Assembly:
    """The hops of ``model`` that stay on the sites of ``geometry``.

    Built once per (model, geometry); independent of momentum.  Entry i
    adds values[i] e^{ik.delta} to <rows[i]| H(k) |cols[i]>, where delta is
    hopping ``hop[i]`` of ``model.hoppings`` restricted to the periodic
    directions.  Entries run over sites x hoppings x orbital pairs
    (convention <y,a| H |x,b> = w(y - x)_{ab}), so repeated entries, from
    hops that move only along periodic directions, are summed in that
    order.  Hops leaving the site set are dropped (sharp boundary).
    """

    def __init__(self, model: HoppingModel, geometry: Geometry):
        if model.dimension != geometry.dimension:
            raise ValueError("model/geometry dimension mismatch")
        ranges = model.range_per_direction()
        for i in geometry.open_dirs:
            need = 2 * ranges[i] + 1
            if int(geometry.extents[i]) < need:
                raise ValueError(
                    f"extent {geometry.extents[i]} along direction {i} is below "
                    f"the minimum {need} = 2*range+1 for this model"
                )
        n = model.norb
        opens = list(geometry.open_dirs)
        shape, strides, lookup = geometry.box_lookup()
        sites = geometry.site_array()
        deltas = np.array(list(model.hoppings), dtype=np.int64).reshape(-1, model.dimension)
        w = np.array(list(model.hoppings.values()), dtype=complex).reshape(-1, n, n)
        target = sites[:, None, opens] + deltas[None, :, opens]
        inside = np.all((target >= 0) & (target < shape), axis=-1)
        ti = np.full(inside.shape, -1, dtype=np.int64)
        ti[inside] = lookup[target[inside] @ strides]
        si, hop, a, b = np.nonzero((ti >= 0)[:, :, None, None] & (w != 0))
        self.dim = len(sites) * n
        self.rows = ti[si, hop] * n + a
        self.cols = si * n + b
        self.hop = hop
        self.values = w[hop, a, b]
        self.periodic_deltas = deltas[:, list(geometry.periodic_dirs)]

    def phases(self, momentum) -> np.ndarray:
        """e^{ik.delta} per hopping; one momentum entry per periodic
        direction, ascending."""
        momentum = tuple(float(x) for x in momentum)
        if len(momentum) != self.periodic_deltas.shape[1]:
            raise ValueError(
                f"need {self.periodic_deltas.shape[1]} momentum components, "
                f"got {len(momentum)}"
            )
        phase = np.zeros(len(self.periodic_deltas))
        for kj, dj in zip(momentum, self.periodic_deltas.T):
            phase = phase + kj * dj
        return np.exp(1j * phase)

    def matrix(self, momentum=()) -> sp.csr_matrix:
        """Sparse hermitian H(k)."""
        vals = self.values * self.phases(momentum)[self.hop]
        mat = sp.coo_matrix(
            (vals, (self.rows, self.cols)), shape=(self.dim, self.dim)
        ).tocsr()
        herm_defect = abs(mat - mat.conj().T).max() if self.dim else 0.0
        if herm_defect > 1e-9:
            raise AssertionError(f"assembled matrix not hermitian ({herm_defect})")
        return mat

    def dense_blocks(self) -> np.ndarray:
        """B_delta as dense (dim, dim) arrays, one per hopping of the model."""
        out = np.zeros((len(self.periodic_deltas), self.dim, self.dim), dtype=complex)
        out[self.hop, self.rows, self.cols] = self.values
        return out


def instantiate(
    model: HoppingModel, geometry: Geometry, momentum=()
) -> RealSpaceHamiltonian:
    """Real-space matrix on pattern-in-box sites with open truncation.

    Hops leaving the site set are dropped silently (sharp boundary); periodic
    directions contribute Bloch phases from ``momentum`` (one entry per
    periodic direction, ascending).
    """
    asm = Assembly(model, geometry)
    mat = asm.matrix(momentum)
    momentum = tuple(float(x) for x in momentum)
    return RealSpaceHamiltonian(geometry, model, momentum, geometry.sites(), mat)


# ---------------------------------------------------------------------------
# built-in models

def _dirac_hoppings(gammas, gamma0, dimension):
    """Standard lattice regularization: sum_i G_i sin k_i + G_0 (2 + sum cos k_i)."""
    hop = {}
    zero = tuple([0] * dimension)
    hop[zero] = 2.0 * gamma0
    for i in range(dimension):
        e = tuple(1 if j == i else 0 for j in range(dimension))
        me = tuple(-x for x in e)
        hop[e] = gammas[i] / 2j + gamma0 / 2
        hop[me] = -gammas[i] / 2j + gamma0 / 2
    return hop


def _ham1(gamma: float) -> HoppingModel:
    g1 = np.kron(s3, s1)
    g2 = np.kron(s0, s2)
    g3 = np.kron(s2, s1)
    g0 = np.kron(s0, s3)
    gb = 0.5 * np.kron(s1 + s2 + s3, s0 + s3)
    hop = _dirac_hoppings([g1, g2, g3], g0, 3)
    hop[(0, 0, 0)] = hop[(0, 0, 0)] + gamma * gb
    return HoppingModel(3, 4, hop, name="ham1")


def _ham2(gamma: float) -> HoppingModel:
    g1, g2, g3 = np.kron(s1, s1), np.kron(s1, s2), np.kron(s1, s3)
    g0 = np.kron(s3, s0)
    gb = np.kron(s0, s1 + s2)
    hop = _dirac_hoppings([g1, g2, g3], g0, 3)
    hop[(0, 0, 0)] = hop[(0, 0, 0)] + gamma * gb
    return HoppingModel(3, 4, hop, name="ham2")


def _ham3(gamma: float) -> HoppingModel:
    g1, g2, g3 = np.kron(s1, s1), np.kron(s1, s2), np.kron(s1, s3)
    g0 = np.kron(s3, s0)
    gb = np.kron(s2, s0)
    hop = _dirac_hoppings([g1, g2, g3], g0, 3)
    # anisotropic mass (gamma/2)(cos k1 - cos k2): breaks plain C4, keeps C4.T
    for e, sign in [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), -1), ((0, -1, 0), -1)]:
        hop[e] = hop[e] + sign * (gamma / 2) * gb
    return HoppingModel(3, 4, hop, name="ham3")


def _chiral_from_unitary_hops(uhops: dict, dimension: int, name: str) -> HoppingModel:
    """h = [[0, u*],[u, 0]] for u given by displacement blocks (2x2)."""
    hop = {}
    deltas = set(uhops) | {tuple(-x for x in d) for d in uhops}
    for d in deltas:
        ud = uhops.get(d, np.zeros((2, 2), dtype=complex))
        umd = uhops.get(tuple(-x for x in d), np.zeros((2, 2), dtype=complex))
        w = np.zeros((4, 4), dtype=complex)
        w[:2, 2:] = umd.conj().T
        w[2:, :2] = ud
        hop[d] = w
    chirality = np.kron(s3, s0)
    return HoppingModel(dimension, 4, hop, chirality=chirality, name=name)


def _chiral_quarter_uc() -> HoppingModel:
    # u(k) = 1/2 [[-e^{-ik1}-e^{-ik2}, e^{-ik1}-e^{-ik2}],
    #             [ e^{ik1}-e^{ik2},   e^{ik1}+e^{ik2}]]
    uhops = {
        (1, 0): 0.5 * np.array([[0, 0], [1, 1]], dtype=complex),
        (-1, 0): 0.5 * np.array([[-1, 1], [0, 0]], dtype=complex),
        (0, 1): 0.5 * np.array([[0, 0], [-1, 1]], dtype=complex),
        (0, -1): 0.5 * np.array([[-1, -1], [0, 0]], dtype=complex),
    }
    return _chiral_from_unitary_hops(uhops, 2, "chiral-quarter-uC")


def _chiral_quarter_uf() -> HoppingModel:
    # u(k) = diag(e^{i(k1+k2)}, 1): mirror-even diagonal hop, mirror-odd flat
    uhops = {
        (1, 1): np.diag([1.0, 0.0]).astype(complex),
        (0, 0): np.diag([0.0, 1.0]).astype(complex),
    }
    return _chiral_from_unitary_hops(uhops, 2, "chiral-quarter-uF")


BUILTIN_MODELS = ("ham1", "ham2", "ham3", "chiral-quarter-uC", "chiral-quarter-uF")


def builtin_model(name: str, gamma: float = 0.5) -> HoppingModel:
    """Named model; ``gamma`` scales the symmetry-selecting perturbation."""
    if not np.isfinite(gamma):
        raise ValueError(f"non-finite gamma {gamma!r}")
    if name == "ham1":
        return _ham1(gamma)
    if name == "ham2":
        return _ham2(gamma)
    if name == "ham3":
        return _ham3(gamma)
    if name == "chiral-quarter-uC":
        return _chiral_quarter_uc()
    if name == "chiral-quarter-uF":
        return _chiral_quarter_uf()
    raise KeyError(f"unknown model {name!r}; have {BUILTIN_MODELS}")


# ---------------------------------------------------------------------------
# serialization

def model_from_dict(d: dict) -> HoppingModel:
    if "model" in d:  # builtin reference: {"model": "ham1", "gamma": 0.5}
        model = builtin_model(d["model"], float(d.get("gamma", 0.5)))
        if "gamma" in d and model.chirality is not None:
            raise ValueError(f"{model.name} takes no gamma")
        return model
    name = d.get("name", "")
    if name in BUILTIN_MODELS:  # a built-in name would select that model's symmetry class
        raise ValueError(f"name {name!r} is a built-in model's; a model of custom hoppings takes its own")
    hops = {}
    for h in d["hoppings"]:
        w = np.array(
            [[complex(re, im) for re, im in row] for row in h["matrix"]],
            dtype=complex,
        )
        hops[tuple(json_integers(h["delta"], "delta"))] = w
    return HoppingModel(json_integers(d["dimension"], "dimension"), json_integers(d["norb"], "norb"),
                        hops, name=name)
