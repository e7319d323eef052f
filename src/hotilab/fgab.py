"""Exact linear algebra over Z and finitely generated abelian groups.

Everything in this module is integer-exact: matrices are numpy arrays with
``dtype=object`` holding Python ints, so arbitrary precision is automatic.
A group is presented as Z^n modulo the column span of a relation matrix;
subgroups of a presented group are integer lattices between the relation
lattice and Z^n.  Every lattice this module returns (``lattice_sum``, a
map's ``image_lattice``, ``kernel_lattice`` and ``preimage_lattice``) is
already a column Hermite form, which is unique, so two lattices are equal
exactly when their arrays are equal, and a lattice spanning Z^n is
``ieye(n)``.  A map computes its image and kernel lattices once, on first
use, and hands out the same read-only arrays after that.  Smith normal form
returns the full transform pair (U, D, V) with U M V = D exactly.  Both
kernels compute on lists of Python ints and return object arrays.

Each group factors its relations once, on first use, and membership
(``is_zero``, for a vector or every column of a matrix) reads U x modulo
that Smith diagonal.  A subquotient's group carries labels written in the
ambient group's generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "imat",
    "json_integers",
    "izeros",
    "ieye",
    "smith_normal_form",
    "smith_diagonal",
    "hermite_column_form",
    "solve_integer",
    "kernel_basis",
    "integer_rank",
    "lattice_sum",
    "FGAbelianGroup",
    "GroupMap",
    "Subquotient",
    "describe",
    "free_group",
]


# ---------------------------------------------------------------------------
# integer matrices

def imat(data) -> np.ndarray:
    """Build an exact integer matrix (2d object array of Python ints)."""
    a = np.array(data, dtype=object)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1) if a.size else a.reshape(0, 1)
    for x in a.flat:
        if not isinstance(x, (int, np.integer)):
            raise TypeError(f"non-integer entry {x!r}")
    return np.vectorize(int, otypes=[object])(a) if a.size else a


def json_integers(value, entry: str):
    """``value`` as read from JSON, an integer or nested lists of them; raise
    unless every entry is a Python int and no bool, since a float, string or
    bool would otherwise convert silently.  Model, pattern and cofiltration
    files are all read through this rule."""
    for v in np.array(value, dtype=object).ravel():
        if type(v) is not int:
            raise ValueError(f"{entry} has the entry {v!r}; expected an integer")
    return value


def izeros(n: int, m: int) -> np.ndarray:
    return np.zeros((n, m), dtype=object)


def ieye(n: int) -> np.ndarray:
    return np.eye(n, dtype=object)


def _as_imat(m) -> np.ndarray:
    if isinstance(m, np.ndarray) and m.dtype == object and m.ndim == 2:
        return m
    return imat(m)


def _from_rows(rows, n: int, m: int) -> np.ndarray:
    """The n x m object array of an iterable of rows (n or m may be 0)."""
    return np.array(list(rows), dtype=object).reshape(n, m)


# ---------------------------------------------------------------------------
# Smith normal form

def _least_entry(d: list[list[int]], t: int):
    """(i, j) of the first nonzero d[i][j] of least magnitude with i, j >= t."""
    best = pivot = None
    for i in range(t, len(d)):
        for j, a in enumerate(d[i][t:], t):
            if a and (best is None or abs(a) < best):
                best, pivot = abs(a), (i, j)
                if best == 1:
                    return pivot
    return pivot


def smith_normal_form(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (U, D, V) with U m V = D, U and V unimodular, D diagonal.

    Diagonal entries are nonnegative and each divides the next.  Exact over
    Python ints; no size limits.
    """
    mat = _as_imat(m)
    rows, cols = mat.shape
    d = [list(map(int, r)) for r in mat.tolist()]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    # V transposed, so that a column operation on V is a row operation
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def add_row(src, dst, c):  # row[dst] += c * row[src]
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in d:
            r[dst] += c * r[src]
        vt[dst] = [x + c * y for x, y in zip(vt[dst], vt[src])]

    t = 0
    while t < min(rows, cols):
        # pick the nonzero pivot of least magnitude in the remaining block
        pivot = _least_entry(d, t)
        if pivot is None:
            break
        i, j = pivot
        d[t], d[i] = d[i], d[t]
        u[t], u[i] = u[i], u[t]
        if j != t:
            for r in d:
                r[t], r[j] = r[j], r[t]
            vt[t], vt[j] = vt[j], vt[t]

        p = d[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                add_row(t, i, -(d[i][t] // p))
                dirty = dirty or d[i][t] != 0
        for j in range(t + 1, cols):
            if d[t][j]:
                add_col(t, j, -(d[t][j] // p))
                dirty = dirty or d[t][j] != 0
        if dirty:
            continue  # remainder became the new smallest entry; re-pivot

        # divisibility sweep: pivot must divide the whole remaining block
        if abs(p) != 1:
            offender = next((i for i in range(t + 1, rows)
                             if any(x % p for x in d[i][t + 1:])), None)
            if offender is not None:
                add_row(offender, t, 1)
                continue

        if p < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return _from_rows(u, rows, rows), _from_rows(d, rows, cols), _from_rows(zip(*vt), cols, cols)


def smith_diagonal(d) -> tuple[int, ...]:
    """The nonzero entries of a Smith form's diagonal ``d``, in order: the
    invariant factors of the lattice spanned by the factored matrix's columns."""
    return tuple(int(d[i, i]) for i in range(min(d.shape)) if d[i, i] != 0)


def integer_rank(m) -> int:
    m = _as_imat(m)
    return len(smith_diagonal(smith_normal_form(m)[1])) if m.size else 0


def hermite_column_form(m) -> np.ndarray:
    """Column-style Hermite normal form (canonical basis of the column lattice).

    Returns an n x r matrix (r = lattice rank) with positive pivots, entries
    to the right of each pivot reduced into [0, pivot).  Unique for a given
    column lattice, so usable as a canonical form.
    """
    mat = _as_imat(m)
    n, k = mat.shape
    a = [list(map(int, c)) for c in mat.T.tolist()]  # the columns
    row = 0
    col = 0
    while row < n and col < k:
        # gcd-sweep columns col..k-1 on this row
        while True:
            nz = [(abs(a[j][row]), j) for j in range(col, k) if a[j][row]]
            if not nz:
                break
            j0 = min(nz)[1]  # least magnitude, the first of equals
            if j0 != col:
                a[col], a[j0] = a[j0], a[col]
            p = a[col][row]
            done = True
            for j in range(col + 1, k):
                if a[j][row]:
                    q = a[j][row] // p
                    a[j] = [x - q * y for x, y in zip(a[j], a[col])]
                    done = done and a[j][row] == 0
            if done:
                break
        p = a[col][row]
        if p:
            if p < 0:
                a[col] = [-x for x in a[col]]
                p = -p
            # reduce earlier columns against this pivot
            for j in range(col):
                q = a[j][row] // p
                if q:
                    a[j] = [x - q * y for x, y in zip(a[j], a[col])]
            col += 1
        row += 1
    # drop zero columns (all beyond `col` are zero by construction)
    return _from_rows(zip(*a[:col]), n, col)


def solve_integer(m, b):
    """Solve m x = b over the integers; return x or None.

    ``b`` may be a vector or an n x s matrix (solved columnwise; None if any
    column has no solution).  One factorization of ``m`` serves every
    column, and a ``b`` without columns factors nothing.
    """
    m = _as_imat(m)
    bb = _as_imat(b)
    if bb.shape[1] == 0:
        return izeros(m.shape[1], 0)
    u, d, v = smith_normal_form(m)
    c = u @ bb
    n, k = d.shape
    y = izeros(k, bb.shape[1])
    for i in range(n):
        # row i of U b must vanish where D has no pivot, else be its multiple
        di = d[i, i] if i < k else 0
        if any(x % di if di else x for x in c[i]):
            return None
        if di:
            y[i] = c[i] // di
    return v @ y  # always k x s, even for vector-shaped b


def kernel_basis(m) -> np.ndarray:
    """Integer basis of {x : m x = 0}, as columns (possibly zero columns -> none)."""
    m = _as_imat(m)
    n, k = m.shape
    if k == 0:
        return izeros(k, 0)
    _, d, v = smith_normal_form(m)
    return v[:, len(smith_diagonal(d)):]


# ---------------------------------------------------------------------------
# lattice calculus (sublattices of Z^n given by generator columns)

def lattice_sum(a, b) -> np.ndarray:
    a, b = _as_imat(a), _as_imat(b)
    return hermite_column_form(np.concatenate([a, b], axis=1))


# ---------------------------------------------------------------------------
# presented groups

@dataclass(frozen=True)
class FGAbelianGroup:
    """Z^ngens modulo the column span of ``relations`` (ngens x nrel)."""

    ngens: int
    relations: np.ndarray = None  # type: ignore[assignment]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        rel = self.relations
        rel = izeros(self.ngens, 0) if rel is None else _as_imat(rel)
        if rel.shape[0] != self.ngens:
            raise ValueError("relation matrix has wrong number of rows")
        object.__setattr__(self, "relations", rel)
        if self.labels is not None and len(self.labels) != self.ngens:
            raise ValueError("need one label per generator")

    @cached_property
    def _snf(self):
        return smith_normal_form(self.relations)

    # -- structure ---------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.ngens - len(smith_diagonal(self._snf[1]))

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(x for x in smith_diagonal(self._snf[1]) if x != 1)

    def canonical(self) -> tuple[int, tuple[int, ...]]:
        return (self.rank, self.torsion)

    # -- elements ----------------------------------------------------------
    def _u_reduced(self, x) -> np.ndarray:
        """U x with each row reduced modulo its nonzero Smith diagonal entry."""
        u, d, _ = self._snf
        y = u @ _as_imat(x)
        for i in range(min(d.shape)):
            di = d[i, i]
            if di != 0:
                y[i, :] %= di
        return y

    def reduce(self, x) -> np.ndarray:
        """Canonical coset representative of a vector, or of each column of a matrix.

        A vector gives a vector; an ngens x s matrix gives the s
        representatives as columns, from one exact inversion of U.
        """
        # invert U exactly: it is unimodular, so solve U z = _u_reduced(x)
        z = solve_integer(self._snf[0], self._u_reduced(x))
        return z[:, 0] if np.ndim(x) == 1 else z

    def is_zero(self, x) -> bool:
        """True when a vector, or every column of a matrix, is 0 in the group."""
        return not np.any(self._u_reduced(x))

    def __repr__(self) -> str:  # e.g. Z^2 + Z/2
        return f"FGAbelianGroup({describe(self.canonical())})"


def describe(canonical: tuple[int, tuple[int, ...]]) -> str:
    rank, tors = canonical
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{t}" for t in tors)
    return " + ".join(parts) if parts else "0"


def free_group(n: int, labels=None) -> FGAbelianGroup:
    return FGAbelianGroup(n, izeros(n, 0), tuple(labels) if labels else None)


def _labels_of(g: FGAbelianGroup) -> tuple[str, ...]:
    return g.labels if g.labels is not None else tuple(f"e{i}" for i in range(g.ngens))


def _combo_label(col, labels) -> str:
    """``col`` as a signed sum of ``labels``, e.g. "a -b +2*c", or "0"."""
    signs = {1: "+", -1: "-"}
    terms = [f"{signs.get(int(c), f'{int(c):+d}*')}{lab}" for c, lab in zip(col, labels) if c != 0]
    return " ".join(terms).removeprefix("+") or "0"


# ---------------------------------------------------------------------------
# homomorphisms

@dataclass
class GroupMap:
    """Homomorphism between presented groups, as a matrix on generators."""

    src: FGAbelianGroup
    dst: FGAbelianGroup
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = _as_imat(self.matrix)
        if self.matrix.shape != (self.dst.ngens, self.src.ngens):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"dst ngens {self.dst.ngens} x src ngens {self.src.ngens}"
            )
        # well-defined: relations of src must land in the relation lattice of dst
        if not self.dst.is_zero(self.matrix @ self.src.relations):
            raise ValueError("map does not respect source relations")

    def compose(self, other: "GroupMap") -> "GroupMap":
        """self o other."""
        return GroupMap(other.src, self.dst, self.matrix @ other.matrix)

    # -- lattices ----------------------------------------------------------
    # computed once per map and read-only, so every reader shares the arrays
    @cached_property
    def image_lattice(self) -> np.ndarray:
        """Full preimage-in-Z^n lattice of the image subgroup of dst."""
        lat = lattice_sum(self.matrix, self.dst.relations)
        lat.flags.writeable = False
        return lat

    @cached_property
    def kernel_lattice(self) -> np.ndarray:
        """Lattice of {x in Z^src : f(x) = 0 in dst} (contains src relations)."""
        lat = self.preimage_lattice(izeros(self.dst.ngens, 0))
        lat.flags.writeable = False
        return lat

    def preimage_lattice(self, lat_dst) -> np.ndarray:
        """Lattice of {x in Z^src : f(x) in lat_dst + dst relations}."""
        a = self.matrix
        ker = kernel_basis(np.concatenate([a, -_as_imat(lat_dst), -self.dst.relations], axis=1))
        return lattice_sum(ker[: a.shape[1], :], self.src.relations)

    def is_zero_map(self) -> bool:
        return self.dst.is_zero(self.matrix)


# ---------------------------------------------------------------------------
# subquotients

@dataclass
class Subquotient:
    """S / Q for lattices Q <= S inside an ambient presented group.

    ``group`` is a presentation of the subquotient, its generators
    labelled as combinations of the ambient ones; ``basis`` lifts its
    generators to ambient coordinates; ``project`` maps ambient vectors
    lying in S to coordinates of ``group``.
    """

    ambient: FGAbelianGroup
    sub_lattice: np.ndarray
    quot_lattice: np.ndarray
    group: FGAbelianGroup = field(init=False)
    basis: np.ndarray = field(init=False)

    def __post_init__(self):
        amb = self.ambient
        s_lat = lattice_sum(self.sub_lattice, amb.relations)
        q_lat = lattice_sum(self.quot_lattice, amb.relations)
        self.sub_lattice = s_lat
        self.quot_lattice = q_lat
        basis = s_lat  # HNF basis columns are a lattice basis of S
        # Q sits inside S exactly when its generators solve in that basis
        rel = solve_integer(basis, q_lat)
        if rel is None:
            raise ValueError("quotient lattice is not contained in subgroup lattice")
        amb_labels = _labels_of(amb)
        labels = tuple(_combo_label(col, amb_labels) for col in basis.T)
        self.group = FGAbelianGroup(basis.shape[1], rel, labels)
        self.basis = basis

    def project(self, x) -> np.ndarray:
        """Coordinates in ``group`` of an ambient vector, or of each column of a matrix.

        Every column must lie in S.  A vector gives a vector; a matrix
        gives a matrix of coordinate columns, from one ``solve_integer``
        and one ``reduce``.
        """
        c = solve_integer(self.basis, x)
        if c is None:
            raise ValueError("vector does not lie in the subgroup")
        return self.group.reduce(c[:, 0] if np.ndim(x) == 1 else c)

    def lift(self, c) -> np.ndarray:
        return (self.basis @ _as_imat(c).reshape(-1, 1))[:, 0]

    def canonical(self):
        return self.group.canonical()
