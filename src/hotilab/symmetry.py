"""Projective (twisted) symmetry actions on hopping models.

An action assigns to each group element a point-group map on displacements,
an orbital unitary, an antiunitary flag, and a chirality sign (whether it
commutes or anticommutes with the Hamiltonian).  The U(1) cocycle is stored
extensionally - computed from the actual unitaries, never assumed - so
projective relations like (C4.T)^4 = -1 are facts about matrices, not inputs.

``covariant_elements`` solves each element's orbital unitary from the model's
hoppings, once per model content, and shares one defect routine with
``check_covariance``.  The table of named actions (``builtin_action``) serves
``check-symmetry``, ``symmetrize`` and the parity operator of ``trim_parities``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from .models import Geometry, HoppingModel, s0, s1, s2, s3
from .patterns import PointGroupElement

__all__ = [
    "SymmetryAction",
    "builtin_action",
    "BUILTIN_ACTIONS",
    "check_covariance",
    "CovariantElement",
    "covariant_elements",
    "momentum_reversal",
    "symmetrize",
    "verify_projective_relations",
]

UNITARITY_TOL = 1e-12
COVARIANCE_TOL = 1e-12
MAX_GROUP_ORDER = 1024
_SOLVED: dict[tuple, tuple] = {}  # _solved_elements' results, by model content


def _maybe_conj(m: np.ndarray, anti: int) -> np.ndarray:
    return m.conj() if anti else m


def _scalar_ratio(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> complex:
    """tau with a = tau*b, or raise if the matrices are not proportional."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < tol:
        raise ValueError("cannot take ratio against a zero matrix")
    tau = a[idx] / b[idx]
    if np.max(np.abs(a - tau * b)) > tol:
        raise ValueError("matrices are not proportional; not a projective rep")
    return complex(tau)


@dataclass
class SymmetryAction:
    """Finite twisted group action on a norb-orbital model in d dimensions."""

    norb: int
    dimension: int
    elements: tuple[str, ...]
    table: dict[tuple[str, str], str]
    unitaries: dict[str, np.ndarray]
    antiunitary: dict[str, int]
    chirality: dict[str, int]
    spatial: dict[str, PointGroupElement]
    cocycle: dict[tuple[str, str], complex] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if len(self.elements) > MAX_GROUP_ORDER:
            raise ValueError(f"group order capped at {MAX_GROUP_ORDER}")
        e = self.identity
        if np.max(np.abs(self.unitaries[e] - np.eye(self.norb))) > UNITARITY_TOL:
            raise ValueError("identity element must carry the identity matrix")
        if not self.cocycle:
            for g in self.elements:
                for h in self.elements:
                    prod = self.unitaries[g] @ _maybe_conj(
                        self.unitaries[h], self.antiunitary[g]
                    )
                    self.cocycle[(g, h)] = _scalar_ratio(
                        prod, self.unitaries[self.table[(g, h)]]
                    )

    @property
    def identity(self) -> str:
        for g in self.elements:
            if all(self.table[(g, h)] == h for h in self.elements):
                return g
        raise ValueError("no identity element in multiplication table")

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def cyclic(
        cls,
        n: int,
        unitary: np.ndarray,
        spatial: PointGroupElement,
        antiunitary: bool = False,
        chirality: bool = False,
        name: str = "",
    ) -> "SymmetryAction":
        """Action of Z_n generated by one element; powers are derived."""
        unitary = np.asarray(unitary, dtype=complex)
        norb = unitary.shape[0]
        labels = ["e"] + [f"g{'^' + str(j) if j > 1 else ''}" for j in range(1, n)]
        us = {labels[0]: np.eye(norb, dtype=complex)}
        phis = {labels[0]: 0}
        chis = {labels[0]: 0}
        sps = {labels[0]: PointGroupElement.identity(spatial.dimension)}
        for j in range(1, n):
            us[labels[j]] = unitary @ _maybe_conj(us[labels[j - 1]], antiunitary)
            phis[labels[j]] = (j * int(antiunitary)) % 2
            chis[labels[j]] = (j * int(chirality)) % 2
            sps[labels[j]] = spatial.compose(sps[labels[j - 1]])
        table = {
            (labels[j], labels[k]): labels[(j + k) % n]
            for j in range(n)
            for k in range(n)
        }
        return cls(
            norb=norb,
            dimension=spatial.dimension,
            elements=tuple(labels),
            table=table,
            unitaries=us,
            antiunitary=phis,
            chirality=chis,
            spatial=sps,
            name=name,
        )


def verify_projective_relations(action: SymmetryAction, tol: float = 1e-9):
    """Re-derive every product relation from the matrices; return (ok, defect).

    Checks unitarity, spatial/antiunitary/chirality homomorphism properties,
    |tau| = 1, the twisted cocycle identity
    tau(g,h) tau(gh,k) = tau(g,hk) tau(h,k)^sigma(g)  (sigma = conj if g is
    antiunitary), and that U_g conj^phi(g)(U_h) = tau(g,h) U_gh entrywise.
    """
    defect = 0.0
    for g in action.elements:
        u = action.unitaries[g]
        defect = max(defect, float(np.max(np.abs(u @ u.conj().T - np.eye(action.norb)))))
    for g in action.elements:
        for h in action.elements:
            gh = action.table[(g, h)]
            if (action.antiunitary[g] + action.antiunitary[h]) % 2 != action.antiunitary[gh]:
                return False, np.inf
            if (action.chirality[g] + action.chirality[h]) % 2 != action.chirality[gh]:
                return False, np.inf
            sgh = action.spatial[g].compose(action.spatial[h])
            if sgh.matrix != action.spatial[gh].matrix:
                return False, np.inf
            tau = action.cocycle[(g, h)]
            defect = max(defect, abs(abs(tau) - 1.0))
            prod = action.unitaries[g] @ _maybe_conj(
                action.unitaries[h], action.antiunitary[g]
            )
            defect = max(
                defect, float(np.max(np.abs(prod - tau * action.unitaries[gh])))
            )
    for g in action.elements:
        sig = action.antiunitary[g]
        for h in action.elements:
            for k in action.elements:
                lhs = action.cocycle[(g, h)] * action.cocycle[(action.table[(g, h)], k)]
                thk = action.cocycle[(h, k)]
                rhs = action.cocycle[(g, action.table[(h, k)])] * (
                    thk.conjugate() if sig else thk
                )
                defect = max(defect, abs(lhs - rhs))
    return defect <= tol, defect


def _element_defect(model: HoppingModel, s: np.ndarray, u: np.ndarray, anti: int, chiral: int) -> float:
    """Max entry of U conj^anti(w(d)) U^-1 - (-1)^chiral w(s d) over d where either is nonzero."""
    zero, sign = np.zeros((model.norb, model.norb), dtype=complex), -1.0 if chiral else 1.0
    lhs = {tuple((s @ d).tolist()): u @ _maybe_conj(w, anti) @ u.conj().T for d, w in model.hoppings.items()}
    return max((float(np.max(np.abs(lhs.get(d, zero) - sign * model.hoppings.get(d, zero))))
                for d in lhs.keys() | model.hoppings.keys()), default=0.0)


def check_covariance(
    model: HoppingModel, action: SymmetryAction, tol: float = COVARIANCE_TOL
):
    """Max defect of U_g wtilde(delta) U_g^-1 = (-1)^c(g) w(S_g delta).

    wtilde is the entrywise conjugate when g is antiunitary.  Returns
    (ok, defect) over all elements and displacements.
    """
    if model.dimension != action.dimension or model.norb != action.norb:
        raise ValueError("model/action shape mismatch")
    defect = max(_element_defect(model, np.array(action.spatial[g].matrix), action.unitaries[g],
                                 action.antiunitary[g], action.chirality[g]) for g in action.elements)
    return defect <= tol, defect


@dataclass(frozen=True)
class CovariantElement:
    """One symmetry element on a geometry: psi -> P U conj^anti(psi), with P
    moving site s to ``site_perm[s]`` and U acting on each site's orbitals,
    carries eigenvectors of H(k) onto eigenvectors of H(k_map @ k), with the
    same energies, or negated ones when ``chiral``."""

    label: str  # "S=(<image of x,y,z>),anti=<0|1>,chiral=<0|1>"
    site_perm: np.ndarray
    unitary: np.ndarray
    antiunitary: bool
    k_map: np.ndarray | None = None
    chiral: bool = False

    def apply(self, vecs: np.ndarray) -> np.ndarray:
        """Image of the columns of ``vecs`` (site-major, orbital-minor)."""
        src = vecs.reshape(len(self.site_perm), self.unitary.shape[0], -1)
        out = np.empty_like(src)
        out[self.site_perm] = self.unitary @ (src.conj() if self.antiunitary else src)
        return out.reshape(vecs.shape)


def _solved_elements(model: HoppingModel) -> tuple:
    """(S, U, anti, chiral, label) per signed axis permutation S that maps the
    hopping displacements onto themselves, antiunitary flag and (graded models)
    chiral flag whose equation U conj^anti(w(delta)) = (-1)^chiral w(S delta) U
    has a solution within ``COVARIANCE_TOL``: U is the polar factor of a seeded
    combination of its null vectors, which solves it when any unitary does."""
    key = (model.dimension, model.norb, model.chirality is not None,
           tuple(sorted((d, w.tobytes()) for d, w in model.hoppings.items())))
    if key not in _SOLVED:
        n, dim, where = model.norb, model.dimension, {d: i for i, d in enumerate(model.hoppings)}
        w = np.array(list(model.hoppings.values())).reshape(-1, n, n)
        eye, axes = np.eye(n), "xyz" if dim <= 3 else [f"x{i + 1}" for i in range(dim)]
        candidates, grams, solved, rng = [], [], [], np.random.default_rng(0)
        for perm, signs in product(permutations(range(dim)), product((1, -1), repeat=dim)):
            s = np.eye(dim, dtype=np.int64)[list(perm)] * np.array(signs)[:, None]
            image = [where.get(tuple((s @ d).tolist())) for d in where]
            if None in image:
                continue
            name = ",".join(("-" if sign < 0 else "") + axes[p] for p, sign in zip(perm, signs))
            for anti, chiral in product((0, 1), (0, 1) if model.chirality is not None else (0,)):
                # U m - t U = 0 on U's row-major entries, one block of rows per displacement
                m, t = _maybe_conj(w, anti), (-1 if chiral else 1) * w[image]
                rows = (eye[:, None, :, None] * m.swapaxes(1, 2)[:, None, :, None, :]
                        - t[:, :, None, :, None] * eye[None, :, None, :]).reshape(-1, n * n)
                grams.append(rows.conj().T @ rows)
                candidates.append((s, anti, chiral, f"S=({name}),anti={anti},chiral={chiral}"))
        for (s, anti, chiral, label), lam, vecs in zip(candidates, *np.linalg.eigh(np.array(grams))):
            null = vecs[:, lam <= 1e-12 * lam[-1]]
            x = null @ (rng.normal(size=null.shape[1]) + 1j * rng.normal(size=null.shape[1]))
            left, _, right = np.linalg.svd(x.reshape(n, n))
            u = left @ right
            if null.shape[1] and _element_defect(model, s, u, anti, chiral) <= COVARIANCE_TOL:
                u.flags.writeable = False  # shared by every call for this content
                solved.append((s, u, anti, chiral, label))
        _SOLVED[key] = tuple(solved)
    return _SOLVED[key]


def covariant_elements(model: HoppingModel, geometry: Geometry) -> Iterator[CovariantElement]:
    """Yield each element of ``_solved_elements(model)`` (signed permutations
    in lexicographic order, identity first) whose S keeps open and periodic
    directions apart and, as x -> S x + t, maps the open box onto the sites of
    ``geometry`` (a bulk has one site).  (O psi)(S x + t) = U conj^phi(psi(x))
    then gives O H(k) O^-1 = (-1)^c H(k_map @ k), k_map = (-1)^phi S_pp."""
    opens, periodic = list(geometry.open_dirs), list(geometry.periodic_dirs)
    shape, strides, lookup = geometry.box_lookup()
    sites = geometry.site_array()[:, opens]
    for s, u, anti, chiral, label in _solved_elements(model):
        s_open = s[np.ix_(opens, opens)]
        if s[np.ix_(opens, periodic)].any() or s[np.ix_(periodic, opens)].any():
            continue
        # shift the image box back so that its lowest corner is the origin
        image = sites @ s_open.T - np.minimum(s_open, 0) @ (shape - 1)
        if not np.all((image >= 0) & (image < shape)):
            continue
        perm = lookup[image @ strides]
        if np.any(perm < 0):
            continue
        k_map = (-1 if anti else 1) * s[np.ix_(periodic, periodic)]
        yield CovariantElement(label, perm, u, bool(anti), k_map, bool(chiral))


def momentum_reversal(model: HoppingModel, geometry: Geometry) -> CovariantElement | None:
    """The first non-chiral element of ``covariant_elements`` whose k-map
    is -1, so that it maps H(k) onto H(-k) with the same energies; or None."""
    return next((el for el in covariant_elements(model, geometry)
                 if not el.chiral and np.array_equal(el.k_map, -np.eye(len(el.k_map)))), None)


def symmetrize(model: HoppingModel, action: SymmetryAction) -> HoppingModel:
    """Group-average projection onto exactly covariant models.

    P(w)(delta) = 1/|G| sum_g (-1)^c(g) conj^phi(g)[U_g^dag w(S_g delta) U_g],
    the fixed-point transform of the covariance equation.  Idempotent, and
    the identity on already-covariant models.
    """
    if model.dimension != action.dimension or model.norb != action.norb:
        raise ValueError("model/action shape mismatch")
    deltas = set(model.hoppings)
    for g in action.elements:
        deltas |= {
            action.spatial[g].inverse().apply(d) for d in set(model.hoppings)
        }
    zero = np.zeros((model.norb, model.norb), dtype=complex)
    out = {}
    for d in deltas:
        acc = np.zeros((model.norb, model.norb), dtype=complex)
        for g in action.elements:
            u = action.unitaries[g]
            w = model.hoppings.get(action.spatial[g].apply(d), zero)
            term = _maybe_conj(u.conj().T @ w @ u, action.antiunitary[g])
            acc += -term if action.chirality[g] else term
        out[d] = acc / action.order
    return HoppingModel(
        model.dimension, model.norb, out, chirality=model.chirality,
        name=model.name + "+sym" if model.name else "",
    )


# ---------------------------------------------------------------------------
# named actions, name -> (order, orbital unitary, point-group matrix, antiunitary, chiral)
_ACTION_TABLE = {
    "inversion": (2, np.kron(s0, s3), ((-1, 0, 0), (0, -1, 0), (0, 0, -1)), False, False),
    # C2 about the third axis composed with time reversal; squares to +1
    "C2T": (2, np.kron(s0, s1), ((-1, 0, 0), (0, -1, 0), (0, 0, 1)), True, False),
    # C4 about the third axis composed with time reversal; fourth power = -1.
    # Its unitary is s0 (x) s2 diag(e^{i pi/4}, e^{-i pi/4}), scaled column-wise
    "C4T": (4, np.kron(s0, s2 * np.exp([1j * np.pi / 4, -1j * np.pi / 4])),
            ((0, -1, 0), (1, 0, 0), (0, 0, 1)), True, False),
    "T": (2, np.kron(s0, s2), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), True, False),
    "chiral": (2, np.kron(s3, s0), ((1, 0), (0, 1)), False, True),
    # swaps the two lattice directions; orbitals already sit in mirror eigenbasis
    "mirror-diagonal": (2, np.kron(s0, s3), ((0, 1), (1, 0)), False, False),
}
BUILTIN_ACTIONS = tuple(_ACTION_TABLE)


def builtin_action(name: str) -> SymmetryAction:
    """A new action built from the named row of the built-in table."""
    if name not in _ACTION_TABLE:
        raise KeyError(f"unknown action {name!r}; have {BUILTIN_ACTIONS}")
    order, unitary, matrix, antiunitary, chiral = _ACTION_TABLE[name]
    return SymmetryAction.cyclic(order, unitary, PointGroupElement(matrix),
                                 antiunitary, chiral, name)
