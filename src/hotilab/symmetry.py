"""Projective (twisted) symmetry actions on hopping models.

A symmetry element acts by a point-group matrix S on displacements, an
orbital unitary U, an antiunitary flag phi and a chirality flag c (whether it
anticommutes with the Hamiltonian); ``Element`` is that record.  The finder
solves U from the model's hoppings for every (S, phi, c) the model has, once
per model content; ``covariant_elements`` yields those that fit a geometry,
and a named action (``builtin_action``) is one (S, phi, c) asked of it.  A
``SymmetryAction`` is the cyclic group one element generates: its order,
powers and U(1) cocycle (Freed & Moore's phi-twisted one) are derived, never
assumed, so projective relations like (C4.T)^4 = -1 are facts about a model.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import NamedTuple

import numpy as np

from .fgab import ieye, imat
from .models import Geometry, HoppingModel

__all__ = [
    "Element",
    "SymmetryAction",
    "builtin_action",
    "BUILTIN_ACTIONS",
    "check_covariance",
    "CovariantElement",
    "covariant_elements",
    "generator_order",
    "momentum_reversal",
    "real_gauge",
    "symmetrize",
    "verify_projective_relations",
]

COVARIANCE_TOL = 1e-12
RELATION_TOL = 1e-9  # of the projective relations and the ratios that define the cocycle
MAX_GROUP_ORDER = 1024
_SOLVED: dict[tuple, tuple] = {}  # _solved_elements' results, by model content


def _maybe_conj(m: np.ndarray, anti: int) -> np.ndarray:
    return m.conj() if anti else m


def _scalar_ratio(a: np.ndarray, b: np.ndarray) -> complex:
    """tau with a = tau*b, or raise if the matrices are not proportional."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < RELATION_TOL:
        raise ValueError("cannot take ratio against a zero matrix")
    tau = a[idx] / b[idx]
    if np.max(np.abs(a - tau * b)) > RELATION_TOL:
        raise ValueError("matrices are not proportional; not a projective rep")
    return complex(tau)


class Element(NamedTuple):
    """One symmetry element: x -> s x on displacements, u conj^anti on
    orbitals, and the sign (-1)^chiral on the Hamiltonian."""

    label: str
    s: np.ndarray  # integer point-group matrix
    u: np.ndarray
    anti: int
    chiral: int
    solutions: int = 1  # dimension of the space the finder solved U from; 1 for a given U


def generator_order(s, anti: int, chiral: int) -> int:
    """The least n with S^n = 1 and with n*anti and n*chiral even."""
    s, power = imat(s), imat(s)
    for n in range(1, MAX_GROUP_ORDER + 1):
        if np.array_equal(power, ieye(len(s))) and n * (anti | chiral) % 2 == 0:
            return n
        power = s @ power
    raise ValueError(f"no n up to the cap, {MAX_GROUP_ORDER}, has S^n = 1 and n*anti, n*chiral even")


@dataclass
class SymmetryAction:
    """Twisted action of Z_order generated by one ``Element``: its U on
    orbitals, S on displacements, conjugating when anti and anticommuting
    with H when chiral.  ``order`` is ``generator_order`` of (S, anti,
    chiral), ``elements`` are the powers e, g, g^2, ..., and ``cocycle``
    maps a label pair (g^j, g^k) to tau with
    U_j conj^phi_j(U_k) = tau U_(j+k mod order)."""

    generator: Element
    name: str = ""
    order: int = field(init=False)
    elements: tuple[Element, ...] = field(init=False)
    cocycle: dict[tuple[str, str], complex] = field(init=False)

    def __post_init__(self):
        g = self.generator
        g = self.generator = g._replace(s=imat(g.s), u=np.array(g.u, dtype=complex))
        n = self.order = generator_order(g.s, g.anti, g.chiral)
        powers = [Element("e", ieye(len(g.s)), np.eye(len(g.u), dtype=complex), 0, 0)]
        for j in range(1, n):
            prev = powers[-1]
            powers.append(Element(f"g{'^' + str(j) if j > 1 else ''}", g.s @ prev.s,
                                  g.u @ _maybe_conj(prev.u, g.anti),
                                  (j * g.anti) % 2, (j * g.chiral) % 2))
        self.elements = tuple(powers)
        self.cocycle = {
            (a.label, b.label): _scalar_ratio(a.u @ _maybe_conj(b.u, a.anti), powers[(j + k) % n].u)
            for j, a in enumerate(powers) for k, b in enumerate(powers)
        }


def verify_projective_relations(action: SymmetryAction):
    """Re-derive every product relation from the matrices; return (ok, defect).

    Checks unitarity, |tau| = 1, the twisted cocycle identity
    tau(g,h) tau(gh,k) = tau(g,hk) tau(h,k)^sigma(g)  (sigma = conj if g is
    antiunitary), and that U_g conj^phi(g)(U_h) = tau(g,h) U_gh entrywise.
    S, anti and chiral multiply as the powers do, since the order is derived.
    """
    els, n, tau = action.elements, action.order, action.cocycle
    defect = 0.0
    for g in els:
        defect = max(defect, float(np.max(np.abs(g.u @ g.u.conj().T - np.eye(len(action.generator.u))))))
    for j, g in enumerate(els):
        for k, h in enumerate(els):
            gh = els[(j + k) % n]
            t, prod = tau[(g.label, h.label)], g.u @ _maybe_conj(h.u, g.anti)
            defect = max(defect, abs(abs(t) - 1.0), float(np.max(np.abs(prod - t * gh.u))))
    for j, g in enumerate(els):
        for k, h in enumerate(els):
            for m, f in enumerate(els):
                lhs = tau[(g.label, h.label)] * tau[(els[(j + k) % n].label, f.label)]
                thf = tau[(h.label, f.label)]
                rhs = tau[(g.label, els[(k + m) % n].label)] * (thf.conjugate() if g.anti else thf)
                defect = max(defect, abs(lhs - rhs))
    return defect <= RELATION_TOL, defect


def _element_defect(model: HoppingModel, el: Element) -> float:
    """Max entry of U conj^anti(w(d)) U^-1 - (-1)^chiral w(S d) over d where either is nonzero."""
    zero, sign, u = np.zeros((model.norb, model.norb), dtype=complex), -1.0 if el.chiral else 1.0, el.u
    lhs = {tuple((el.s @ d).tolist()): u @ _maybe_conj(w, el.anti) @ u.conj().T
           for d, w in model.hoppings.items()}
    return max((float(np.max(np.abs(lhs.get(d, zero) - sign * model.hoppings.get(d, zero))))
                for d in lhs.keys() | model.hoppings.keys()), default=0.0)


def check_covariance(
    model: HoppingModel, action: SymmetryAction, tol: float = COVARIANCE_TOL
):
    """Max defect of U_g wtilde(delta) U_g^-1 = (-1)^c(g) w(S_g delta).

    wtilde is the entrywise conjugate when g is antiunitary.  Returns
    (ok, defect) over all elements and displacements.
    """
    if (model.dimension, model.norb) != (len(action.generator.s), len(action.generator.u)):
        raise ValueError("model/action shape mismatch")
    defect = max(_element_defect(model, el) for el in action.elements)
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
    """An ``Element`` per signed axis permutation S that maps the
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
                candidates.append((f"S=({name}),anti={anti},chiral={chiral}", s, anti, chiral))
        for (label, s, anti, chiral), lam, vecs in zip(candidates, *np.linalg.eigh(np.array(grams))):
            null = vecs[:, lam <= 1e-12 * lam[-1]]
            x = null @ (rng.normal(size=null.shape[1]) + 1j * rng.normal(size=null.shape[1]))
            left, _, right = np.linalg.svd(x.reshape(n, n))
            el = Element(label, s, left @ right, anti, chiral, null.shape[1])
            if null.shape[1] and _element_defect(model, el) <= COVARIANCE_TOL:
                el.u.flags.writeable = False  # shared by every call for this content
                solved.append(el)
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
    for el in _solved_elements(model):
        s_open = el.s[np.ix_(opens, opens)]
        if el.s[np.ix_(opens, periodic)].any() or el.s[np.ix_(periodic, opens)].any():
            continue
        # shift the image box back so that its lowest corner is the origin
        image = sites @ s_open.T - np.minimum(s_open, 0) @ (shape - 1)
        if not np.all((image >= 0) & (image < shape)):
            continue
        perm = lookup[image @ strides]
        if np.any(perm < 0):
            continue
        k_map = (-1 if el.anti else 1) * el.s[np.ix_(periodic, periodic)]
        yield CovariantElement(el.label, perm, el.u, bool(el.anti), k_map, bool(el.chiral))


def momentum_reversal(model: HoppingModel, geometry: Geometry) -> CovariantElement | None:
    """The first non-chiral element of ``covariant_elements`` whose k-map
    is -1, so that it maps H(k) onto H(-k) with the same energies; or None."""
    return next((el for el in covariant_elements(model, geometry)
                 if not el.chiral and np.array_equal(el.k_map, -np.eye(len(el.k_map)))), None)


def real_gauge(model: HoppingModel, geometry: Geometry, elements=None) -> tuple[str, np.ndarray] | None:
    """(label, V) of the first antiunitary, non-chiral entry of ``elements`` (the
    geometry's ``covariant_elements`` when None) with k-map +1 that fixes every site
    and has U conj(U) = 1, so that V^dag H(k) V is real on each site block; or None.
    Such a U is symmetric and unitary, so Re U and Im U are commuting real symmetric
    matrices: one orthogonal Q, the eigenvectors of Re U + c Im U (c generic),
    diagonalizes U, and V = Q diag(Q^T U Q)^(1/2) Q^T, U's principal square root,
    checked unitary with V V^T = U."""
    for el in covariant_elements(model, geometry) if elements is None else elements:
        u, eye = el.unitary, np.eye(len(el.unitary))
        if (el.antiunitary and not el.chiral and np.array_equal(el.k_map, np.eye(len(el.k_map)))
                and np.array_equal(el.site_perm, np.arange(len(el.site_perm)))
                and np.max(np.abs(u @ u.conj() - eye)) <= RELATION_TOL):
            q = np.linalg.eigh(u.real + 0.7548776662 * u.imag)[1]  # c splits U's distinct eigenvalues
            v = (q * np.sqrt(np.diagonal(q.T @ u @ q))) @ q.T
            if max(np.max(np.abs(v @ v.conj().T - eye)), np.max(np.abs(v @ v.T - u))) <= RELATION_TOL:
                return el.label, v
    return None


def symmetrize(model: HoppingModel, action: SymmetryAction) -> HoppingModel:
    """Group-average projection onto exactly covariant models.

    P(w)(delta) = 1/|G| sum_g (-1)^c(g) conj^phi(g)[U_g^dag w(S_g delta) U_g],
    the fixed-point transform of the covariance equation.  Idempotent, and
    the identity on already-covariant models.
    """
    if (model.dimension, model.norb) != (len(action.generator.s), len(action.generator.u)):
        raise ValueError("model/action shape mismatch")
    els = action.elements  # a group: its images S_g delta are also its preimages
    deltas = {tuple((g.s @ d).tolist()) for g in els for d in model.hoppings}
    zero = np.zeros((model.norb, model.norb), dtype=complex)
    out = {}
    for d in deltas:
        acc = np.zeros((model.norb, model.norb), dtype=complex)
        for g in els:
            w = model.hoppings.get(tuple((g.s @ d).tolist()), zero)
            term = _maybe_conj(g.u.conj().T @ w @ g.u, g.anti)
            acc += -term if g.chiral else term
        out[d] = acc / action.order
    return HoppingModel(
        model.dimension, model.norb, out, chirality=model.chirality,
        name=model.name + "+sym" if model.name else "",
    )


# ---------------------------------------------------------------------------
# named actions, name -> (point-group matrix S, antiunitary flag, chiral flag):
# each is a question to the finder, which solves the model's own unitary
_ACTION_TABLE = {
    "inversion": (((-1, 0, 0), (0, -1, 0), (0, 0, -1)), 0, 0),
    "C2T": (((-1, 0, 0), (0, -1, 0), (0, 0, 1)), 1, 0),  # C2 about the third axis, then T
    "C4T": (((0, -1, 0), (1, 0, 0), (0, 0, 1)), 1, 0),  # C4 about the third axis, then T
    "T": (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1, 0),
    "chiral": (((1, 0), (0, 1)), 0, 1),
    "mirror-diagonal": (((0, 1), (1, 0)), 0, 0),  # swaps the two lattice directions
}
BUILTIN_ACTIONS = tuple(_ACTION_TABLE)


def builtin_action(name: str, model: HoppingModel) -> Element | None:
    """The element of ``_solved_elements(model)`` with the named (S, anti,
    chiral), or None when the model has none.  Its U is scaled by one phase
    so that U's first entry of largest magnitude is real positive.  A chiral
    action raises on a model without a chirality grading, on which the
    finder tries no chiral element."""
    s, anti, chiral = _ACTION_TABLE[name]
    if chiral and model.chirality is None:
        raise ValueError(f"{name} is chiral; {model.name or 'the model'} has no chirality grading")
    for el in _solved_elements(model):
        if (el.anti, el.chiral) == (anti, chiral) and np.array_equal(el.s, s):
            size = np.abs(el.u).ravel()
            pivot = el.u.flat[np.argmax(size >= size.max() * (1 - 1e-12))]
            return el._replace(u=el.u * (pivot.conjugate() / abs(pivot)))
    return None
