"""Exact couples over stratified K-group data and higher boundary maps.

The input is per-stratum K-theory of a codimension filtration: for each
level p = 0..d (bulk, faces, hinges/corners, ...) two finitely generated
abelian groups (one per K-parity) plus first-order boundary maps that
step one level down and flip parity, composing to zero.  Optional
second-order lift data records where kernel classes of the first-order
map land two levels down; this is what feeds the r = 2 boundary map.

``build_couple`` realizes such data as an exact couple (a split model:
every level's six-term sequence is spliced from short exact sequences
with a chosen splitting), ``derive_couple`` turns pages, and
``higher_boundary_map`` extracts the order-r bulk-to-stratum map with
its domain and codomain presented canonically.  Both it and
``couple_report`` read from one page chain that turns each page once.

Grid convention: nodes are (p, t) with p the filtration level and t a
diagonal index; classes stored at E[p, t] have internal K-parity
(t + p) mod 2.  With that bookkeeping the three couple maps are

    alpha[p, t]: D[p, t] -> D[p-1, t^1]
    beta [p, t]: D[p, t] -> E[p+r, (t+r-1) % 2]     (r = page)
    gamma[p, t]: E[p, t] -> D[p, t]

and d^r = beta o gamma always flips internal parity exactly once,
whatever r.  Below level 0 everything is trivial; above the top level
alpha is implicitly the identity (the filtration has stabilized).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .fgab import (
    FGAbelianGroup,
    GroupMap,
    Subquotient,
    _combo_label,
    _labels_of,
    describe,
    free_group,
    hermite_column_form,
    ieye,
    imat,
    izeros,
    json_integers,
    kernel_basis,
    smith_diagonal,
    smith_normal_form,
    solve_integer,
)

__all__ = [
    "PRESET_NAMES",
    "CofiltrationData",
    "ExactCouple",
    "BoundaryMapReport",
    "build_couple",
    "derive_couple",
    "page_homology",
    "higher_boundary_map",
    "preset_cofiltration",
    "random_cofiltration",
    "couple_report",
    "cofiltration_to_dict",
    "cofiltration_from_dict",
]

PRESET_NAMES = (
    "square-plain-2",
    "square-plain-3",
    "square-inversion",
    "square-C2T",
    "square-C4T",
    "cube-plain",
    "quarter-mirror-chiral",
)


def _lattice_invariants(lat) -> tuple[int, ...]:
    """Invariant factors of the subgroup spanned by ``lat`` columns (none,
    with no Smith form taken, when every column is zero)."""
    return smith_diagonal(smith_normal_form(lat)[1]) if np.any(lat) else ()


# ---------------------------------------------------------------------------
# input data


@dataclass
class CofiltrationData:
    """Per-stratum K-groups, boundary maps, and second-order lift data.

    ``strata[(p, eps)]`` is the parity-eps K-group of the level-p stratum
    for p = 0..length.  ``boundary[(p, eps)]`` maps strata[p, eps] ->
    strata[p+1, eps^1]; consecutive maps compose to zero.
    ``second_order[eps]`` is an optional integer matrix sending bulk
    generators of parity eps to strata[2, eps^1]; it is evaluated only on
    the kernel of boundary[(0, eps)] and becomes the beta-value of the
    corresponding lifted classes (hence the d^2 data of the couple).
    """

    length: int
    strata: dict
    boundary: dict
    second_order: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        d = self.length
        if d < 1:
            raise ValueError("cofiltration length must be >= 1")
        for p in range(d + 1):
            for eps in (0, 1):
                if (p, eps) not in self.strata:
                    raise ValueError(f"missing stratum group ({p}, {eps})")
        for p in range(d):
            for eps in (0, 1):
                f = self.boundary.get((p, eps))
                if f is None:
                    raise ValueError(f"missing boundary map ({p}, {eps})")
                if f.src is not self.strata[(p, eps)] or f.dst is not self.strata[(p + 1, eps ^ 1)]:
                    raise ValueError(f"boundary map ({p}, {eps}) connects wrong groups")
        for p in range(d - 1):
            for eps in (0, 1):
                comp = self.boundary[(p + 1, eps ^ 1)].compose(self.boundary[(p, eps)])
                if not comp.is_zero_map():
                    raise ValueError(f"boundary maps do not compose to zero at level {p}, parity {eps}")
        for eps, mat in self.second_order.items():
            mat = imat(mat)
            tgt = self.strata[(2, eps ^ 1)]
            src = self.strata[(0, eps)]
            if mat.shape != (tgt.ngens, src.ngens):
                raise ValueError(f"second-order matrix for parity {eps} has wrong shape")
            self.second_order[eps] = mat
            if d >= 3:
                # the induced beta must still square to zero one level down,
                # but only on classes where the lift data is ever used
                ker = self.boundary[(0, eps)].kernel_lattice
                down = self.boundary[(2, eps ^ 1)].matrix @ mat @ ker
                if not self.strata[(3, eps)].is_zero(down):
                    raise ValueError(
                        f"second-order data for parity {eps} is not closed under the boundary map"
                    )


# ---------------------------------------------------------------------------
# exact couples


@dataclass
class ExactCouple:
    """Bigraded exact couple on nodes (p, t); see the module docstring.

    ``beta`` is stored only where its target node exists (p + page <=
    length); a missing beta is the zero map to the (trivial) groups past
    the top of the filtration.
    """

    length: int
    page: int
    d_groups: dict
    e_groups: dict
    alpha: dict
    beta: dict
    gamma: dict
    name: str = ""

    def nodes(self):
        return [(p, t) for p in range(self.length + 1) for t in (0, 1)]

    def beta_target(self, p: int, t: int) -> tuple[int, int]:
        return (p + self.page, (t + self.page - 1) % 2)

    def differential(self, p: int, t: int):
        """d^page out of E[p, t] as a GroupMap, or None past the top."""
        if p + self.page > self.length:
            return None
        return self.beta[(p, t)].compose(self.gamma[(p, t)])

    def differential_source(self, p: int, t: int) -> tuple[int, int]:
        """Node whose d^page lands on E[p, t] (level may be negative)."""
        return (p - self.page, (t + self.page - 1) % 2)

    def verify(self) -> None:
        """Check ker = im at every node; raise naming the first violation.

        Every lattice compared is a column HNF, so equal lattices are equal
        arrays, and a lattice spanning all of D[p, t] is the identity.
        """
        d = self.length
        for p in range(d + 1):
            for t in (0, 1):
                full = ieye(self.d_groups[(p, t)].ngens)
                im_g = self.gamma[(p, t)].image_lattice
                ker_a = self.alpha[(p, t)].kernel_lattice if p >= 1 else full
                if not np.array_equal(im_g, ker_a):
                    raise ValueError(f"exactness fails at D[{p},{t}]: im gamma != ker alpha")
                # alpha is the identity above the top
                im_a = self.alpha[(p + 1, t ^ 1)].image_lattice if p + 1 <= d else full
                ker_b = self.beta[(p, t)].kernel_lattice if (p, t) in self.beta else full
                if not np.array_equal(im_a, ker_b):
                    raise ValueError(f"exactness fails at D[{p},{t}]: im alpha != ker beta")
                src = self.differential_source(p, t)
                im_b = (
                    self.beta[src].image_lattice
                    if src[0] >= 0
                    else hermite_column_form(self.e_groups[(p, t)].relations)
                )
                if not np.array_equal(im_b, self.gamma[(p, t)].kernel_lattice):
                    raise ValueError(f"exactness fails at E[{p},{t}]: im beta != ker gamma")


def build_couple(cd: CofiltrationData) -> ExactCouple:
    """Realize cofiltration data as a page-1 exact couple (split model).

    D[p] = coker(beta one level down) (+) ker(beta at the other slot);
    gamma projects onto the cokernel part, alpha includes the kernel
    part, and beta acts by the induced boundary map on the cokernel part
    and by the declared second-order lift on the kernel part.  The
    result is exact by construction and has d^1 equal to the stored
    boundary maps.
    """
    d = cd.length
    eg = {
        (p, t): cd.strata[(p, (t + p) % 2)]
        for p in range(d + 1)
        for t in (0, 1)
    }
    dg, al, be, ga = {}, {}, {}, {}
    ker_sq = {}  # (p, t) -> Subquotient of ker beta[p, t] inside D[p, t]

    for t in (0, 1):
        dg[(0, t)] = eg[(0, t)]
        ga[(0, t)] = GroupMap(eg[(0, t)], dg[(0, t)], ieye(eg[(0, t)].ngens))

    for p in range(d + 1):
        if p >= 1:
            for t in (0, 1):
                e = eg[(p, t)]
                coker_rel = be[(p - 1, t)].image_lattice
                ksq = ker_sq[(p - 1, t ^ 1)]
                nk = ksq.group.ngens
                rel = izeros(e.ngens + nk, coker_rel.shape[1] + ksq.group.relations.shape[1])
                rel[: e.ngens, : coker_rel.shape[1]] = coker_rel
                rel[e.ngens :, coker_rel.shape[1] :] = ksq.group.relations
                prev = dg[(p - 1, t ^ 1)]
                labs = tuple(f"[{s}]" for s in _labels_of(e))
                labs += tuple(f"lift({s})" for s in ksq.group.labels)
                dgrp = FGAbelianGroup(e.ngens + nk, rel, labs)
                dg[(p, t)] = dgrp
                gmat = izeros(dgrp.ngens, e.ngens)
                gmat[: e.ngens, :] = ieye(e.ngens)
                ga[(p, t)] = GroupMap(e, dgrp, gmat)
                amat = izeros(prev.ngens, dgrp.ngens)
                amat[:, e.ngens :] = ksq.basis
                al[(p, t)] = GroupMap(dgrp, prev, amat)
        if p == d:
            break
        for t in (0, 1):
            src = dg[(p, t)]
            tgt = eg[(p + 1, t)]
            bnd = cd.boundary[(p, (t + p) % 2)]
            ncoker = tgt.ngens  # rows
            ne = eg[(p, t)].ngens
            bmat = izeros(ncoker, src.ngens)
            bmat[:, :ne] = bnd.matrix
            if p >= 1:
                ksq = ker_sq[(p - 1, t ^ 1)]
                if p == 1:
                    lift = cd.second_order.get((t ^ 1))
                    if lift is not None:
                        bmat[:, ne:] = lift @ ksq.basis
            bm = GroupMap(src, tgt, bmat)
            be[(p, t)] = bm
            ker_sq[(p, t)] = Subquotient(src, bm.kernel_lattice, src.relations)

    return ExactCouple(d, 1, dg, eg, al, be, ga, name=cd.name)


def _derive_with_data(c: ExactCouple, rng=None):
    """One page turn; returns the new couple plus per-node subquotients.

    With ``rng``, the alpha-lifts used for the new beta are perturbed by
    random kernel elements; by exactness the induced map on the derived
    groups must not change (this is the well-definedness property hook).
    The input is trusted to be exact; the output is verified.
    """
    d, r = c.length, c.page
    dsq, esq = {}, {}
    for p in range(d + 1):
        for t in (0, 1):
            dgrp = c.d_groups[(p, t)]
            sub = c.alpha[(p + 1, t ^ 1)].image_lattice if p + 1 <= d else ieye(dgrp.ngens)
            dsq[(p, t)] = Subquotient(dgrp, sub, dgrp.relations)
            egrp = c.e_groups[(p, t)]
            gsub = c.gamma[(p, t)].preimage_lattice(sub)
            src = c.differential_source(p, t)
            if src[0] >= 0:
                ker = c.alpha[src].kernel_lattice if src[0] >= 1 else ieye(c.d_groups[src].ngens)
                quot = c.beta[src].matrix @ ker
            else:
                quot = izeros(egrp.ngens, 0)
            esq[(p, t)] = Subquotient(egrp, gsub, quot)

    nd = {k: sq.group for k, sq in dsq.items()}
    ne = {k: sq.group for k, sq in esq.items()}

    al, be, ga = {}, {}, {}
    for p in range(d + 1):
        for t in (0, 1):
            sq = dsq[(p, t)]
            if p >= 1:
                tsq = dsq[(p - 1, t ^ 1)]
                amat = tsq.project(c.alpha[(p, t)].matrix @ sq.basis)
                al[(p, t)] = GroupMap(nd[(p, t)], nd[(p - 1, t ^ 1)], amat)
            gmat = sq.project(c.gamma[(p, t)].matrix @ esq[(p, t)].basis)
            ga[(p, t)] = GroupMap(ne[(p, t)], nd[(p, t)], gmat)
            if p + r + 1 <= d:
                alpha_up = c.alpha[(p + 1, t ^ 1)]
                stacked = np.concatenate([alpha_up.matrix, c.d_groups[(p, t)].relations], axis=1)
                sol = solve_integer(stacked, sq.basis)
                if sol is None:
                    raise RuntimeError(f"no alpha-lift for derived generator at D[{p},{t}]")
                y = sol[: alpha_up.src.ngens, :]
                if rng is not None:
                    kl = alpha_up.kernel_lattice
                    if kl.shape[1]:
                        y = y + kl @ imat(rng.integers(-2, 3, size=(kl.shape[1], y.shape[1])))
                tnode = (p + r + 1, (t + r) % 2)
                bmat = esq[tnode].project(c.beta[(p + 1, t ^ 1)].matrix @ y)
                be[(p, t)] = GroupMap(nd[(p, t)], ne[tnode], bmat)

    out = ExactCouple(d, r + 1, nd, ne, al, be, ga, name=c.name)
    out.verify()
    return out, dsq, esq


def derive_couple(c: ExactCouple) -> ExactCouple:
    """The derived couple: D' = im alpha, E' = gamma^{-1}(im alpha) / beta(ker alpha).

    Exactness of the input is verified first (raising with the offending
    node) and the output is verified before it is returned.
    """
    c.verify()
    return _derive_with_data(c)[0]


def page_homology(c: ExactCouple, p: int, t: int) -> tuple[int, tuple[int, ...]]:
    """Canonical form of ker d / im d at a node, by direct subquotient.

    This is the independent route against which derive_couple is tested:
    it never looks at the couple's D side.
    """
    egrp = c.e_groups[(p, t)]
    dout = c.differential(p, t)
    sub = dout.kernel_lattice if dout is not None else ieye(egrp.ngens)
    src = c.differential_source(p, t)
    din = c.differential(*src) if src[0] >= 0 else None
    quot = din.image_lattice if din is not None else egrp.relations
    return Subquotient(egrp, sub, quot).canonical()


# ---------------------------------------------------------------------------
# higher boundary maps


@dataclass
class BoundaryMapReport:
    """delta^r on bulk parity-q classes, with presented (co)domain.

    ``domain_lifts`` columns lift the domain generators to bulk-stratum
    coordinates; ``matrix`` gives their images in ``codomain``
    coordinates.  ``codomain_node`` is the (level, slot) of the target.
    """

    r: int
    q: int
    domain: FGAbelianGroup
    domain_lifts: np.ndarray
    codomain: FGAbelianGroup
    codomain_node: tuple[int, int]
    matrix: np.ndarray

    def is_zero(self) -> bool:
        return self.codomain.is_zero(self.matrix)

    def image_order_two(self, j: int) -> bool:
        """True when generator j maps to a nonzero class killed by doubling."""
        col = self.matrix[:, j]
        return (not self.codomain.is_zero(col)) and self.codomain.is_zero(2 * col)

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "q": self.q,
            "domain": describe(self.domain.canonical()),
            "domain_generators": list(_labels_of(self.domain)),
            "codomain": describe(self.codomain.canonical()),
            "codomain_canonical": _canon_dict(self.codomain.canonical()),
            "matrix": self.matrix.astype(int).tolist(),
            "generator_images": {
                lab: _combo_label(self.matrix[:, j], _labels_of(self.codomain))
                for j, lab in enumerate(_labels_of(self.domain))
            },
        }


def _page_chain(cd: CofiltrationData, last: int, rng=None) -> list:
    """Pages 1..last of ``cd``'s couple, each turned once from the one before.

    Entry r - 1 is (page-r couple, lifts), where ``lifts[q]`` lifts the
    generators of the bulk page-r group of parity q back to bulk-stratum
    coordinates.  ``rng`` perturbs the alpha-lifts of every page turn.
    Every page is verified once: page 1 here, each later one as it is made.
    """
    c = build_couple(cd)
    c.verify()
    lifts = {q: ieye(c.e_groups[(0, q)].ngens) for q in (0, 1)}
    chain = [(c, lifts)]
    while c.page < last:
        c, _, esq = _derive_with_data(c, rng=rng)
        lifts = {q: lifts[q] @ esq[(0, q)].basis for q in (0, 1)}
        chain.append((c, lifts))
    return chain


def _boundary_map_on_page(c: ExactCouple, lifts: dict, q: int) -> BoundaryMapReport:
    """delta^r on bulk parity-q classes, read off the page-r couple ``c``."""
    dmap = c.differential(0, q)
    if dmap is None:  # pragma: no cover - excluded by the range check
        raise RuntimeError("differential out of the bulk node is missing")
    tnode = c.beta_target(0, q)
    return BoundaryMapReport(
        r=c.page,
        q=q,
        domain=c.e_groups[(0, q)],
        domain_lifts=lifts[q],
        codomain=c.e_groups[tnode],
        codomain_node=tnode,
        matrix=dmap.matrix,
    )


def higher_boundary_map(cd: CofiltrationData, r: int, q: int, rng=None) -> BoundaryMapReport:
    """The order-r boundary map on bulk classes of parity q.

    Domain: the page-r group at the bulk node, i.e. the bulk classes that
    survive r-1 differentials, presented with lifts back to bulk-stratum
    coordinates.  Codomain: the page-r group at the level-r node.  For
    r = 1 this reduces to the stored first-order boundary map.  The
    pages come from one chain of r - 1 page turns, the chain that
    ``couple_report`` reads every delta^r from.  With ``rng``, page turns
    use randomized alpha-lifts; the result must be identical (lift
    independence).
    """
    if not 1 <= r <= cd.length:
        raise ValueError(f"order must be between 1 and the filtration length {cd.length}")
    return _boundary_map_on_page(*_page_chain(cd, r, rng=rng)[-1], q)


# ---------------------------------------------------------------------------
# presets

_SIDE_SIGN = {"+": 1, "-": -1}


def _cell_name(pinned) -> str:
    if not pinned:
        return "B"
    return "(" + ",".join(f"{a}{s}" for a, s in sorted(pinned.items())) + ")"


def _subset_label(cell, subset) -> str:
    if not subset:
        return f"{cell}:[1]"
    return f"{cell}:Ch{{{','.join(str(a) for a in sorted(subset))}}}"


def _plain_cofiltration(axes: tuple[int, ...], terminated: tuple[int, ...], name: str) -> CofiltrationData:
    """Torus-stratum complex of a box geometry, in the subset basis.

    Cells pin a subset of the terminated axes to a side; the stratum
    K-group at parity eps is free on (cell, I) with I a subset of the
    cell's free axes and |I| = eps mod 2.  The boundary map removes a
    pinned axis from I with the side sign times the usual reordering
    sign, so consecutive maps telescope to zero.
    """
    d = len(terminated)
    cells = {p: [] for p in range(d + 1)}
    for p in range(d + 1):
        for pin_axes in combinations(terminated, p):
            for sides in product("+-", repeat=p):
                cells[p].append(dict(zip(pin_axes, sides)))

    def classes(cell_pin, eps):
        free = [a for a in axes if a not in cell_pin]
        return [
            frozenset(s)
            for k in range(eps, len(free) + 1, 2)
            for s in combinations(free, k)
        ]

    index = {}
    strata = {}
    for p in range(d + 1):
        for eps in (0, 1):
            labels = []
            for ci, pin in enumerate(cells[p]):
                for subset in classes(pin, eps):
                    index[(p, ci, subset)] = len(labels)
                    labels.append(_subset_label(_cell_name(pin), subset))
            strata[(p, eps)] = free_group(len(labels), labels)

    boundary = {}
    for p in range(d):
        for eps in (0, 1):
            src, dst = strata[(p, eps)], strata[(p + 1, eps ^ 1)]
            mat = izeros(dst.ngens, src.ngens)
            for ci, pin in enumerate(cells[p]):
                for subset in classes(pin, eps):
                    col = index[(p, ci, subset)]
                    for u in subset:
                        if u not in terminated:
                            continue
                        reorder = (-1) ** sum(1 for a in subset if a < u)
                        for side in "+-":
                            tgt_pin = dict(pin)
                            tgt_pin[u] = side
                            cj = cells[p + 1].index(tgt_pin)
                            row = index[(p + 1, cj, subset - {u})]
                            mat[row, col] += _SIDE_SIGN[side] * reorder
            boundary[(p, eps)] = GroupMap(src, dst, mat)
    return CofiltrationData(d, strata, boundary, name=name)


def _square_equivariant(name: str, ham_label: str, orbits: int, lift_col) -> CofiltrationData:
    """Orbit-reduced wire-cross-section data shared by the square presets.

    ``orbits`` is the number of free face/hinge orbits (2 for inversion
    and C2T, 1 for C4T); the face-to-hinge matrices carry the
    orbit-folded values, and ``lift_col`` is the hinge-winding image of
    the flagged bulk class under the second-order map.  Only the bulk
    subgroup relevant to that map is stored (the full equivariant bulk
    K-theory has no explicit generator dictionary), so the bulk data is
    deliberately partial.
    """
    strata = {
        (0, 0): free_group(2, ("[triv]", ham_label)),
        (0, 1): free_group(0),
    }
    if orbits == 2:
        strata[(1, 0)] = free_group(4, ("F1:[1]", "F1:Ch{t,3}", "F2:[1]", "F2:Ch{t,3}"))
        strata[(1, 1)] = free_group(4, ("F1:Ch{t}", "F1:Ch{3}", "F2:Ch{t}", "F2:Ch{3}"))
        strata[(2, 0)] = free_group(2, ("Ca:[1]", "Cb:[1]"))
        strata[(2, 1)] = free_group(2, ("Ca:Ch{3}", "Cb:Ch{3}"))
        # folded face-to-hinge map on free orbit generators: the transverse
        # classes land on the two hinge orbits as (w + x, x - w)
        fc = [[1, 0, 1, 0], [-1, 0, 1, 0]]
        fc_even = [[0, 1, 0, 1], [0, -1, 0, 1]]
    else:
        strata[(1, 0)] = free_group(2, ("F:[1]", "F:Ch{t,3}"))
        strata[(1, 1)] = free_group(2, ("F:Ch{t}", "F:Ch{3}"))
        strata[(2, 0)] = free_group(1, ("C:[1]",))
        strata[(2, 1)] = free_group(1, ("C:Ch{3}",))
        # single fourfold orbit: the transverse class folds with multiplicity 2
        fc = [[2, 0]]
        fc_even = [[0, 2]]
    boundary = {
        (0, 0): GroupMap(strata[(0, 0)], strata[(1, 1)], izeros(strata[(1, 1)].ngens, 2)),
        (0, 1): GroupMap(strata[(0, 1)], strata[(1, 0)], izeros(strata[(1, 0)].ngens, 0)),
        (1, 0): GroupMap(strata[(1, 0)], strata[(2, 1)], imat(fc_even)),
        (1, 1): GroupMap(strata[(1, 1)], strata[(2, 0)], imat(fc)),
    }
    lift = izeros(strata[(2, 1)].ngens, 2)
    for i, c in enumerate(lift_col):
        lift[i, 1] = int(c)
    return CofiltrationData(2, strata, boundary, second_order={0: lift}, name=name)


def _quarter_mirror_chiral() -> CofiltrationData:
    """Quarter-plane model with diagonal mirror and chiral grading.

    Bulk K_1 is free on the face-detecting unitary class [u_F] and the
    corner-detecting one [u_C]; the mirror identifies the two faces, and
    the corner K_0 is free on the two graded point classes.  The face
    generator maps to -2 times the first corner generator, and the
    second-order lift sends [u_C] to +1 times it.
    """
    strata = {
        (0, 0): free_group(2, ("[chi+]", "[chi-]")),
        (0, 1): free_group(2, ("[u_F]", "[u_C]")),
        (1, 0): free_group(1, ("F:[1]",)),
        (1, 1): free_group(1, ("F:Ch{t}",)),
        (2, 0): free_group(2, ("C:[chi+E0]", "C:[chi-E0]")),
        (2, 1): free_group(0),
    }
    boundary = {
        (0, 0): GroupMap(strata[(0, 0)], strata[(1, 1)], izeros(1, 2)),
        (0, 1): GroupMap(strata[(0, 1)], strata[(1, 0)], imat([[-1, 0]])),
        (1, 0): GroupMap(strata[(1, 0)], strata[(2, 1)], izeros(0, 1)),
        (1, 1): GroupMap(strata[(1, 1)], strata[(2, 0)], imat([[-2], [0]])),
    }
    lift = imat([[0, 1], [0, 0]])  # [u_F] unused (not in the kernel), [u_C] -> +C:[chi+E0]
    return CofiltrationData(2, strata, boundary, second_order={1: lift}, name="quarter-mirror-chiral")


def preset_cofiltration(name: str) -> CofiltrationData:
    """Built-in cofiltration data sets; see PRESET_NAMES."""
    if name == "square-plain-2":
        return _plain_cofiltration((1, 2), (1, 2), name)
    if name == "square-plain-3":
        return _plain_cofiltration((1, 2, 3), (1, 2), name)
    if name == "cube-plain":
        return _plain_cofiltration((1, 2, 3), (1, 2, 3), name)
    if name == "square-inversion":
        return _square_equivariant(name, "[ham1]", 2, [1, 0])
    if name == "square-C2T":
        return _square_equivariant(name, "[ham2]", 2, [0, 1])
    if name == "square-C4T":
        return _square_equivariant(name, "[ham3]", 1, [1])
    if name == "quarter-mirror-chiral":
        return _quarter_mirror_chiral()
    raise KeyError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")


# ---------------------------------------------------------------------------
# randomized instances (for the two-route property checks)


def random_cofiltration(rng: np.random.Generator, max_rank: int = 3) -> CofiltrationData:
    """Random free-strata complex with a compatible second-order lift.

    Boundary maps are drawn so that consecutive maps compose to zero
    exactly (each new map is a random combination of the left kernel of
    the previous one), which is a random splice of short exact
    sequences.
    """
    d = int(rng.integers(1, 4))
    strata = {}
    for p in range(d + 1):
        for eps in (0, 1):
            n = int(rng.integers(0, max_rank + 1))
            strata[(p, eps)] = free_group(n, tuple(f"s{p}{eps}g{i}" for i in range(n)))
    boundary = {}
    for p in range(d):
        for eps in (0, 1):
            src, dst = strata[(p, eps)], strata[(p + 1, eps ^ 1)]
            if p == 0:
                mat = imat(rng.integers(-2, 3, size=(dst.ngens, src.ngens)))
            else:
                prev = boundary[(p - 1, eps ^ 1)].matrix
                left = kernel_basis(prev.T)  # rows allowed for the next map
                coeff = imat(rng.integers(-2, 3, size=(dst.ngens, left.shape[1])))
                mat = (left @ coeff.T).T
            boundary[(p, eps)] = GroupMap(src, dst, mat)
    second = {}
    if d >= 2 and rng.random() < 0.7:
        eps = int(rng.integers(0, 2))
        tgt = strata[(2, eps ^ 1)]
        src = strata[(0, eps)]
        if d >= 3:
            down = boundary[(2, eps ^ 1)].matrix
            closed = kernel_basis(down)  # columns killed by the next boundary map
            coeff = imat(rng.integers(-2, 3, size=(closed.shape[1], src.ngens)))
            mat = closed @ coeff
        else:
            mat = imat(rng.integers(-2, 3, size=(tgt.ngens, src.ngens)))
        second[eps] = mat
    return CofiltrationData(d, strata, boundary, second_order=second, name="random")


# ---------------------------------------------------------------------------
# reports and serialization


def _canon_dict(canonical) -> dict:
    rank, torsion = canonical
    return {"rank": int(rank), "torsion": [int(t) for t in torsion]}


def couple_report(cd: CofiltrationData) -> dict:
    """JSON-ready summary of pages 1..length, their differentials, and every delta^r.

    One page chain serves the whole report: each page is turned once
    (length - 1 turns in all), and delta^r_q is read from page r.
    """
    chain = _page_chain(cd, cd.length)
    pages = {}
    diffs = {}
    for c, _ in chain:
        pg = {}
        dd = {}
        for p, t in c.nodes():
            g = c.e_groups[(p, t)]
            key = f"E[{p},{t}]"
            pg[key] = {
                "group": describe(g.canonical()),
                "canonical": _canon_dict(g.canonical()),
                "generators": list(_labels_of(g)),
            }
            dmap = c.differential(p, t)
            if dmap is not None and (g.ngens or dmap.dst.ngens):
                tgt = c.beta_target(p, t)
                dd[f"d{c.page}[{p},{t}]"] = {
                    "target": f"E[{tgt[0]},{tgt[1]}]",
                    "matrix": dmap.matrix.astype(int).tolist(),
                    "image_invariant_factors": list(_lattice_invariants(dmap.matrix)),
                }
        pages[str(c.page)] = pg
        diffs[str(c.page)] = dd
    deltas = {
        f"delta^{c.page}_q{q}": _boundary_map_on_page(c, lifts, q).to_dict()
        for c, lifts in chain
        for q in (0, 1)
    }
    return {
        "name": cd.name,
        "length": cd.length,
        "pages": pages,
        "differentials": diffs,
        "boundary_maps": deltas,
    }


def _group_to_dict(g: FGAbelianGroup) -> dict:
    return {
        "ngens": g.ngens,
        "relations": g.relations.astype(int).tolist(),
        "labels": list(g.labels) if g.labels is not None else None,
    }


def _group_from_dict(d: dict, entry: str) -> FGAbelianGroup:
    ngens = json_integers(d["ngens"], f"{entry} ngens")
    json_integers(d.get("relations") or [], f"{entry} relations")
    rel = imat(d["relations"]) if d.get("relations") else izeros(ngens, 0)
    if rel.size == 0:
        rel = izeros(ngens, 0)
    labels = tuple(d["labels"]) if d.get("labels") else None
    return FGAbelianGroup(ngens, rel, labels)


def cofiltration_to_dict(cd: CofiltrationData) -> dict:
    return {
        "name": cd.name,
        "length": cd.length,
        "strata": {f"{p},{eps}": _group_to_dict(g) for (p, eps), g in cd.strata.items()},
        "boundary": {
            f"{p},{eps}": f.matrix.astype(int).tolist() for (p, eps), f in cd.boundary.items()
        },
        "second_order": {str(eps): m.astype(int).tolist() for eps, m in cd.second_order.items()},
    }


def _mat_from_rows(rows, nrows: int, ncols: int, entry: str) -> np.ndarray:
    # nested-list round trips lose the column count of empty matrices, so
    # rebuild against the declared shape, which every row must fill
    if len(rows) != nrows or any(len(row) != ncols for row in rows):
        raise ValueError(f"{entry} needs {nrows} rows of {ncols} entries, its declared shape")
    json_integers(rows, entry)
    m = izeros(nrows, ncols)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            m[i, j] = v
    return m


def cofiltration_from_dict(data: dict) -> CofiltrationData:
    """Inverse of cofiltration_to_dict; validates via the constructor."""
    strata = {}
    for key, gd in data["strata"].items():
        p, eps = (int(x) for x in key.split(","))
        strata[(p, eps)] = _group_from_dict(gd, f"strata {key!r}")
    boundary = {}
    for key, mat in data["boundary"].items():
        p, eps = (int(x) for x in key.split(","))
        src, dst = strata[(p, eps)], strata[(p + 1, eps ^ 1)]
        mat = _mat_from_rows(mat, dst.ngens, src.ngens, f"boundary {key!r}")
        boundary[(p, eps)] = GroupMap(src, dst, mat)
    second = {
        int(eps): _mat_from_rows(
            m, strata[(2, int(eps) ^ 1)].ngens, strata[(0, int(eps))].ngens, f"second_order {eps!r}"
        )
        for eps, m in data.get("second_order", {}).items()
    }
    return CofiltrationData(
        json_integers(data["length"], "length"), strata, boundary, second_order=second,
        name=data.get("name", "")
    )
