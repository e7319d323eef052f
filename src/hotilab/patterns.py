"""Polyhedral lattice patterns and their translation-limit transversals.

A pattern is the set of points of Z^d satisfying finitely many half-space
constraints <normal, x> >= bound with integer data.  Corner-type geometries
(half spaces, quadrants, octants) are patterns; translating an observer along
a lattice direction and keeping only what survives in every finite window
yields the translation limits, which stratify by codimension (the rank of the
surviving normals).  All computations here are exact: integer arithmetic for
the patterns, Fourier-Motzkin elimination over rationals for direction
feasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .fgab import (
    hermite_column_form,
    ieye,
    imat,
    integer_rank,
    kernel_basis,
)

__all__ = [
    "Pattern",
    "Transversal",
    "Filtration",
    "translate_limit",
    "transversal_of",
    "global_transversal",
    "codimension_filtration",
    "half_space",
    "quarter_pattern",
    "square_seeds",
    "cube_seeds",
    "builtin_seeds",
    "BUILTIN_SEEDS",
    "pattern_to_dict",
    "pattern_from_dict",
]


def _dot(a, b) -> int:
    return sum(int(x) * int(y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination (exact, rationals)

def _fm_point(rows, nvars):
    """Find t in Q^nvars with coeffs.t >= bound (or > when strict) for each row.

    ``rows`` is a list of (coeffs tuple, bound, strict).  Returns a list of
    Fractions or None when infeasible.
    """
    rows = [
        (tuple(Fraction(c) for c in cs), Fraction(b), bool(s)) for cs, b, s in rows
    ]
    if nvars == 0:
        for _, b, s in rows:
            if (0 <= b and s) or (0 < b):
                return None
        return []
    pos, neg, rest = [], [], []
    for cs, b, s in rows:
        a = cs[-1]
        if a > 0:
            pos.append((cs, b, s))
        elif a < 0:
            neg.append((cs, b, s))
        else:
            rest.append((cs[:-1], b, s))
    reduced = list(rest)
    for cp, bp, sp in pos:
        ap = cp[-1]
        for cn, bn, sn in neg:
            an = cn[-1]
            coeffs = tuple(ap * cn[j] - an * cp[j] for j in range(nvars - 1))
            bound = ap * bn - an * bp
            reduced.append((coeffs, bound, sp or sn))
    t = _fm_point(reduced, nvars - 1)
    if t is None:
        return None
    lowers, uppers = [], []
    for cs, b, s in pos + neg:
        a = cs[-1]
        val = (b - sum(cs[j] * t[j] for j in range(nvars - 1))) / a
        (lowers if a > 0 else uppers).append((val, s))
    if not lowers and not uppers:
        tk = Fraction(0)
    elif not uppers:
        tk = max(v for v, _ in lowers) + 1
    elif not lowers:
        tk = min(v for v, _ in uppers) - 1
    else:
        lo = max(v for v, _ in lowers)
        hi = min(v for v, _ in uppers)
        tk = (lo + hi) / 2
        if lo == hi:
            tk = lo  # only reachable when both sides are non-strict
    return t + [tk]


# ---------------------------------------------------------------------------
# patterns

@dataclass(frozen=True)
class Pattern:
    """Subset of Z^d cut out by integer half-space constraints.

    Constraints are gcd-normalized on construction; normals must be nonzero
    and pairwise non-parallel (so slabs of finite width are not patterns —
    finite extents belong to geometries, not patterns).
    """

    dimension: int
    constraints: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self):
        d = self.dimension
        if d < 1:
            raise ValueError("dimension must be positive")
        norm = []
        for normal, bound in self.constraints:
            n = tuple(int(x) for x in normal)
            if len(n) != d:
                raise ValueError("normal has wrong length")
            g = math.gcd(*(abs(x) for x in n))
            if g == 0:
                raise ValueError("zero normal")
            n = tuple(x // g for x in n)
            b = -((-int(bound)) // g)  # ceil(bound/g): same integer points
            norm.append((n, b))
        for (n1, _), (n2, _) in combinations(norm, 2):
            if n1 == n2 or n1 == tuple(-x for x in n2):
                raise ValueError(f"parallel normals {n1} and {n2}")
        object.__setattr__(self, "constraints", tuple(norm))
        if norm:
            rows = [(n, b, False) for n, b in norm]
            if _fm_point(rows, d) is None:
                raise ValueError("constraints define an empty set")

    # -- basic queries -------------------------------------------------
    def contains(self, x) -> bool:
        return all(_dot(n, x) >= b for n, b in self.constraints)

    @property
    def codimension(self) -> int:
        if not self.constraints:
            return 0
        return integer_rank(imat([list(n) for n, _ in self.constraints]))

    def window_sites(self, radius: int) -> set[tuple[int, ...]]:
        """All pattern sites with max-norm <= radius (brute force)."""
        r = range(-radius, radius + 1)
        return {x for x in product(r, repeat=self.dimension) if self.contains(x)}

    def canonical(self) -> "Pattern":
        """Translate-equivalence representative: sorted constraints, bounds
        reduced modulo the achievable-translation lattice (0 when reachable)."""
        cons = sorted(self.constraints)
        if not cons:
            return Pattern(self.dimension, ())
        nmat = imat([list(n) for n, _ in cons])  # m x d; columns span {<n_i,t>}
        lat = hermite_column_form(nmat)
        b = [bd for _, bd in cons]
        for j in range(lat.shape[1]):
            p = next(i for i in range(lat.shape[0]) if lat[i, j] != 0)
            q = b[p] // int(lat[p, j])
            if q:
                for i in range(len(b)):
                    b[i] -= q * int(lat[i, j])
        return Pattern(self.dimension, tuple((n, bb) for (n, _), bb in zip(cons, b)))


def half_space(normal, bound: int = 0) -> Pattern:
    return Pattern(len(tuple(normal)), ((tuple(normal), bound),))


def quarter_pattern(dimension: int = 2) -> Pattern:
    """Material filling the first quadrant of the (1,2)-plane, free elsewhere."""
    e1 = tuple(1 if i == 0 else 0 for i in range(dimension))
    e2 = tuple(1 if i == 1 else 0 for i in range(dimension))
    return Pattern(dimension, ((e1, 0), (e2, 0)))


def square_seeds(dimension: int = 2) -> list[Pattern]:
    """The four corner patterns of a square cross-section in the (1,2)-plane."""
    seeds = []
    for s1, s2 in product((1, -1), repeat=2):
        n1 = tuple(s1 if i == 0 else 0 for i in range(dimension))
        n2 = tuple(s2 if i == 1 else 0 for i in range(dimension))
        seeds.append(Pattern(dimension, ((n1, 0), (n2, 0))))
    return seeds


def cube_seeds() -> list[Pattern]:
    """The eight octant (corner) patterns of a finite cube in d = 3."""
    seeds = []
    for signs in product((1, -1), repeat=3):
        cons = tuple(
            (tuple(s if i == j else 0 for i in range(3)), 0)
            for j, s in enumerate(signs)
        )
        seeds.append(Pattern(3, cons))
    return seeds


BUILTIN_SEEDS = ("quarter", "square", "square-3d", "cube")


def builtin_seeds(name: str) -> list[Pattern]:
    if name not in BUILTIN_SEEDS:
        raise KeyError(f"unknown builtin pattern {name!r}; have {sorted(BUILTIN_SEEDS)}")
    return {"quarter": [quarter_pattern(2)], "square": square_seeds(2),
            "square-3d": square_seeds(3), "cube": cube_seeds()}[name]


# ---------------------------------------------------------------------------
# translation limits

def translate_limit(pattern: Pattern, direction) -> Pattern:
    """Limit of the pattern as seen by an observer walking along ``direction``.

    Constraints whose normal has positive inner product with the direction
    fall away; zero-inner-product constraints survive with bound renormalized
    to 0.  Directions with a negative inner product against any normal walk
    out of the pattern (the window eventually empties), so they are rejected.
    """
    v = tuple(int(x) for x in direction)
    if len(v) != pattern.dimension:
        raise ValueError("direction has wrong length")
    if all(x == 0 for x in v):
        raise ValueError("direction must be nonzero")
    kept = []
    for n, b in pattern.constraints:
        ip = _dot(n, v)
        if ip < 0:
            raise ValueError(
                f"direction {v} leaves the pattern (normal {n}): empty limit"
            )
        if ip == 0:
            kept.append((n, 0))
    return Pattern(pattern.dimension, tuple(kept))


def _limit_direction_for_subset(pattern: Pattern, keep: tuple[int, ...]):
    """Integer direction keeping exactly the constraints in ``keep``, or None.

    The direction must be orthogonal to every kept normal and strictly
    positive against every dropped one.  Exact: integer basis of the kept
    normals' orthogonal lattice, then Fourier-Motzkin for a rational interior
    point, scaled back to integers.
    """
    d = pattern.dimension
    cons = pattern.constraints
    kept_rows = [list(cons[i][0]) for i in keep]
    if kept_rows:
        basis = kernel_basis(imat(kept_rows))
    else:
        basis = ieye(d)
    k = basis.shape[1]
    if k == 0:
        return None  # kept normals span everything: no direction survives
    dropped = [i for i in range(len(cons)) if i not in keep]
    if not dropped:
        return tuple(int(basis[i, 0]) for i in range(d))
    rows = []
    for i in dropped:
        coeffs = [_dot(cons[i][0], basis[:, j]) for j in range(k)]
        if all(c == 0 for c in coeffs):
            return None  # dropped normal is trapped in the kept span
        rows.append((tuple(coeffs), 0, True))
    t = _fm_point(rows, k)
    if t is None:
        return None
    denom = math.lcm(*(f.denominator for f in t)) if t else 1
    tt = [int(f * denom) for f in t]
    v = tuple(int(sum(int(basis[i, j]) * tt[j] for j in range(k))) for i in range(d))
    assert any(v), "interior point of a nonempty strict cone cannot vanish"
    return v


def transversal_of(pattern: Pattern) -> "Transversal":
    """All iterated translation limits of a pattern, up to translate-equivalence."""
    seed = pattern.canonical()
    seen = {seed}
    frontier = [seed]
    while frontier:
        p = frontier.pop()
        m = len(p.constraints)
        for size in range(m + 1):
            for keep in combinations(range(m), size):
                v = _limit_direction_for_subset(p, keep)
                if v is None:
                    continue
                lim = translate_limit(p, v).canonical()
                if lim not in seen:
                    seen.add(lim)
                    frontier.append(lim)
    tv = Transversal(tuple(sorted(seen, key=_pattern_sort_key)))
    bulks = [p for p in tv.patterns if p.codimension == 0]
    if len(bulks) != 1:
        raise ValueError(
            "pattern admits no full-lattice limit (bounded in some direction); "
            "transversals require an unbounded polyhedral pattern"
        )
    return tv


def _pattern_sort_key(p: Pattern):
    return (p.codimension, p.constraints)


def global_transversal(seeds) -> "Transversal":
    """Union of the transversals of several seed patterns, identified up to
    translate-equivalence."""
    seen: set[Pattern] = set()
    dims = {p.dimension for p in seeds}
    if len(dims) != 1:
        raise ValueError("seeds must share a dimension")
    for s in seeds:
        seen.update(transversal_of(s).patterns)
    return Transversal(tuple(sorted(seen, key=_pattern_sort_key)))


@dataclass(frozen=True)
class Transversal:
    """Finite set of translate-equivalence classes, canonical representatives."""

    patterns: tuple[Pattern, ...]

    def __len__(self) -> int:
        return len(self.patterns)

    def by_codimension(self) -> dict[int, tuple[Pattern, ...]]:
        out: dict[int, list[Pattern]] = {}
        for p in self.patterns:
            out.setdefault(p.codimension, []).append(p)
        return {c: tuple(ps) for c, ps in sorted(out.items())}


# ---------------------------------------------------------------------------
# codimension filtration

@dataclass(frozen=True)
class Filtration:
    """Nested levels of a transversal; level r holds codimension <= r classes."""

    levels: tuple[tuple[Pattern, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)

    def __len__(self) -> int:
        return len(self.levels)


def codimension_filtration(transversal: Transversal) -> Filtration:
    if not transversal.patterns:
        raise ValueError("empty transversal")
    cmax = max(p.codimension for p in transversal.patterns)
    levels = []
    for r in range(cmax + 1):
        levels.append(
            tuple(p for p in transversal.patterns if p.codimension <= r)
        )
    for a, b in zip(levels, levels[1:]):
        assert set(a) <= set(b)
    return Filtration(tuple(levels))


# ---------------------------------------------------------------------------
# serialization

def pattern_to_dict(p: Pattern) -> dict:
    return {
        "dimension": p.dimension,
        "constraints": [
            {"normal": list(n), "bound": b} for n, b in p.constraints
        ],
    }


def pattern_from_dict(d: dict) -> Pattern:
    cons = tuple(
        (tuple(c["normal"]), int(c.get("bound", 0))) for c in d.get("constraints", [])
    )
    return Pattern(int(d["dimension"]), cons)
