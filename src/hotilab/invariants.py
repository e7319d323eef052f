"""Topological diagnostics: Chern numbers, corner zero-mode counts, hinge
spectral flow, and inversion-parity indices.

Every quantized output is computed from raw spectral data and then rounded
with an explicit distance check; a raw value further than INTEGER_TOL from
the nearest integer is an error, not a rounding choice.  Bulk-boundary
statements (Kirchhoff sums, alternation constraints) are verified on the
measured data rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np
import scipy.sparse as sp

from .models import HoppingModel, quarter_geometry, wire_geometry
from .spectral import (
    RegionPartition,
    _disentangle_clusters,
    _momentum_scan,
    corner_regions,
    near_zero_states,
    slab_gap_scan,
    spectral_norm_bound,
    wire_regions,
)

__all__ = [
    "INTEGER_TOL",
    "chern_number_2d",
    "plane_bloch",
    "CornerReport",
    "corner_index",
    "face_layer_index",
    "HingeReport",
    "hinge_spectral_flow",
    "TrimReport",
    "trim_parities",
    "BulkCornerReport",
    "bulk_corner_parity",
]

INTEGER_TOL = 0.1      # max distance of a raw invariant from an integer
ZERO_MODE_TOL = 1e-6   # |E| below this (times a norm bound) counts as zero
WEIGHT_THRESHOLD = 0.5 # region weight needed to attribute a state
ZONE_EDGE_TOL = 1e-9   # a crossing this close to k = +-pi is reported at -pi
EDGE_GAP_FLOOR = 0.05  # edge gap below which corner modes are not isolated
CORNER_BOX = 4         # side of the corner box that filters kernel modes
ENERGY_WINDOW = 0.3    # |E| inside which hinge-flow bands are matched
MIN_OVERLAP = 0.5      # overlap a matched pair needs to count as a crossing
CHERN_RESOLUTION = 18  # plane grid of the weak-index check in trim_parities


def _round_integer(raw: float, what: str) -> int:
    n = round(raw)
    if abs(raw - n) >= INTEGER_TOL:
        raise RuntimeError(f"{what} = {raw} is not within {INTEGER_TOL} of an integer")
    return int(n)


# ---------------------------------------------------------------------------
# Chern number (plaquette field-strength construction)

def _chern_raw(bloch, resolution: int) -> float:
    ks = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    frames = []
    nocc = None
    for k1 in ks:
        row = []
        for k2 in ks:
            vals, vecs = np.linalg.eigh(bloch((k1, k2)))
            occ = int(np.sum(vals < 0))
            if np.min(np.abs(vals)) < 1e-12:
                raise RuntimeError(f"zero eigenvalue at k=({k1}, {k2})")
            if nocc is None:
                nocc = occ
            elif occ != nocc:
                raise RuntimeError(
                    f"occupied rank jumps from {nocc} to {occ}: gap closes"
                )
            row.append(vecs[:, :occ])
        frames.append(row)
    total = 0.0
    n = resolution
    for i in range(n):
        for j in range(n):
            a, b = frames[i][j], frames[(i + 1) % n][j]
            c, d = frames[(i + 1) % n][(j + 1) % n], frames[i][(j + 1) % n]
            u1 = np.linalg.det(a.conj().T @ b)
            u2 = np.linalg.det(b.conj().T @ c)
            u3 = np.linalg.det(c.conj().T @ d)
            u4 = np.linalg.det(d.conj().T @ a)
            prod = u1 * u2 * u3 * u4
            if abs(prod) < 1e-12:
                raise RuntimeError("vanishing plaquette link; refine the grid")
            total += np.angle(prod)
    return total / (2 * np.pi)


def chern_number_2d(bloch, resolution: int) -> int:
    """First Chern number of the occupied (E < 0) bands of a 2d Bloch map
    ``bloch``, a callable of k.

    Plaquette field strengths from overlap-link phases; the lattice total is
    an integer by construction, and two grid sizes must agree before the
    value is trusted.
    """
    c1 = _round_integer(_chern_raw(bloch, resolution), "chern number")
    c2 = _round_integer(_chern_raw(bloch, resolution + 7), "chern number")
    if c1 != c2:
        raise RuntimeError(f"grid disagreement: {c1} vs {c2}; refine resolution")
    return c1


def plane_bloch(model: HoppingModel, axis: int, value: float):
    """2d Bloch map of a 3d model restricted to k[axis] = value."""
    if model.dimension != 3:
        raise ValueError("plane restriction needs a 3d model")
    rest = [i for i in range(3) if i != axis]

    def bloch2(k):
        full = np.zeros(3)
        full[axis] = value
        full[rest[0]], full[rest[1]] = k[0], k[1]
        return model.bloch(full)

    return bloch2


# ---------------------------------------------------------------------------
# corner zero modes

@dataclass
class CornerReport:
    index: int
    zero_energies: np.ndarray
    corner_weights: np.ndarray
    box_weights: np.ndarray  # weight inside the small corner box
    chirality_values: np.ndarray
    edge_gap: float
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "zero_energies": [float(x) for x in self.zero_energies],
            "corner_weights": [float(x) for x in self.corner_weights],
            "box_weights": [float(x) for x in self.box_weights],
            "chirality_values": [float(x) for x in self.chirality_values],
            "edge_gap": float(self.edge_gap),
            "warnings": list(self.warnings),
        }


def _graded_count(vecs: np.ndarray, grading: np.ndarray) -> tuple[np.ndarray, int]:
    """<v|G|v> of each column v of ``vecs`` for the diagonal grading G, and
    the graded count: the sum of those values, each rounded to an integer."""
    values = np.real(np.sum(vecs.conj() * (grading[:, None] * vecs), axis=0))
    return values, sum(_round_integer(float(g), "zero-mode chirality") for g in values)


def _edge_gap(model: HoppingModel, depth: int) -> float:
    """Min |E| over both half-space edge spectra (momentum along the edge)."""
    return min(slab_gap_scan(model, d, depth, 40) for d in (0, 1))


def corner_index(
    model: HoppingModel,
    side: int = 24,
    nev: int = 8,
    seed: int = 0,
) -> CornerReport:
    """Graded count of zero modes bound to the corner of a quarter plane.

    On any finite box the total graded zero-mode count vanishes identically
    (compensating modes sit at the far corners), so states are filtered by
    weight in the corner quadrant before counting chirality eigenvalues.
    Requires both edges gapped; zero modes are those below ZERO_MODE_TOL
    times a norm bound.  The ``nev`` states come from
    ``spectral._momentum_scan`` at the quarter's one empty momentum, their
    degenerate clusters rotated onto the quadrants.
    """
    if model.dimension != 2:
        raise ValueError("corner counting is for 2d models")
    if model.chirality is None:
        raise ValueError("corner counting needs a chirality grading")
    warnings: list[str] = []
    egap = _edge_gap(model, depth=max(8, side // 3))
    if egap < EDGE_GAP_FLOOR:
        raise RuntimeError(
            f"edge spectrum gap {egap:.3e} below {EDGE_GAP_FLOOR}; corner "
            "modes are not isolated"
        )
    geo = quarter_geometry(side)
    part = corner_regions(geo, model.norb)
    data, (vecs,) = _momentum_scan(model, geo, np.zeros((1, 0)), nev, part, seed, keep_below=np.inf)
    vals, weights = data.energies[0], data.weights[0].T
    # a norm bound of H: the largest row sum of |w| over all hoppings, which
    # every interior site of the quarter attains
    scale = spectral_norm_bound(np.hstack(list(model.hoppings.values())))
    zero = np.abs(vals) <= ZERO_MODE_TOL * scale
    band = ~zero & (np.abs(vals) <= 100 * ZERO_MODE_TOL * scale)
    if np.any(band):
        warnings.append(
            f"{int(np.sum(band))} states in the ambiguous band just above "
            "the zero-mode tolerance"
        )
    if np.all(zero):
        warnings.append("window filled with zero modes; counts may be partial")
    corner = weights[part.names.index("corner")]
    x, y = geo.site_array().T
    box = RegionPartition(("box",), {"box": np.flatnonzero((x < CORNER_BOX) & (y < CORNER_BOX))},
                          model.norb)
    grading = np.tile(np.real(np.diag(model.chirality)), len(x))
    gamma_vals, index = _graded_count(vecs[:, zero & (corner > WEIGHT_THRESHOLD)], grading)
    return CornerReport(
        index=index,
        zero_energies=vals[zero],
        corner_weights=corner[zero],
        box_weights=box.weights(vecs)[0][zero],
        chirality_values=gamma_vals,
        edge_gap=egap,
        warnings=warnings,
    )


def face_layer_index(side: int = 24) -> int:
    """Graded corner zero-mode count of the edge-flow partial isometry.

    V shifts right along the bottom edge row, up along the left edge column
    (above the origin), and acts as the identity in the interior.  On the
    infinite quarter lattice V is an isometry whose cokernel is spanned by
    the origin and its upward neighbour, so the corner-filtered graded count
    is -2; on a finite box the compensating kernel modes sit at the far
    corners and are excluded by the box filter.
    """
    L = side
    x, y = quarter_geometry(L).site_array().T  # site index x * L + y
    n = L * L
    s = np.arange(n)
    # bottom row steps +x (site + L), left column steps +y (site + 1)
    target = np.where(y == 0, s + L, np.where(x == 0, s + 1, s))
    keep = np.where(y == 0, x + 1 < L, (x > 0) | (y + 1 < L))
    v = sp.coo_matrix(
        (np.ones(int(keep.sum())), (target[keep], s[keep])), shape=(n, n)
    ).tocsr()
    h = sp.bmat([[None, v.conj().T], [v, None]], format="csr")
    vals, vecs = near_zero_states(h, 8)
    zero = np.abs(vals) <= 1e-10
    # the kernel is degenerate across near and far corners: rotate it onto
    # the corner box and the rest (of both chiral blocks, one orbital per
    # entry) so the filter sees unmixed modes
    in_box = np.tile((x < CORNER_BOX) & (y < CORNER_BOX), 2)
    part = RegionPartition(("box", "rest"), {"box": np.flatnonzero(in_box),
                                             "rest": np.flatnonzero(~in_box)}, 1)
    z = _disentangle_clusters(vals[zero], vecs[:, zero], part)
    return _graded_count(z[:, part.weights(z)[0] > 0.9], np.repeat([1.0, -1.0], n))[1]


# ---------------------------------------------------------------------------
# hinge spectral flow

@dataclass
class HingeReport:
    flows: dict[str, int]
    kirchhoff_sum: int
    crossings: list[dict]
    momenta: np.ndarray
    energies: np.ndarray
    warnings: list[str] = field(default_factory=list)
    k_reversal: str | None = None  # symmetry element that filled the -k half
    real_gauge: str | None = None  # antiunitary element whose gauge made H(k) real
    solved_momenta: int = 0

    def to_dict(self) -> dict:
        return {
            "flows": dict(self.flows),
            "kirchhoff_sum": self.kirchhoff_sum,
            "crossings": list(self.crossings),
            "warnings": list(self.warnings),
            "k_reversal": self.k_reversal,
            "real_gauge": self.real_gauge,
            "solved_momenta": self.solved_momenta,
        }


def hinge_spectral_flow(
    model: HoppingModel,
    side: int = 28,
    nk: int = 101,
    window: int = 16,
    seed: int = 0,
) -> HingeReport:
    """Signed zero crossings of wire bands, attributed to hinge regions.

    Between adjacent momenta, states inside |E| < ENERGY_WINDOW are paired
    by maximum overlap (``csgraph.min_weight_full_bipartite_matching``); a
    matched pair straddling E = 0 contributes its slope sign to the hinge
    carrying most of its weight there.  Matching only locally (never
    chaining across the whole loop) keeps the count immune to states
    drifting in and out of the solver window far from zero.  The Kirchhoff
    sum of all flows is reported, not assumed.  Crossing momenta lie in
    [-pi, pi); one within ``ZONE_EDGE_TOL`` of the zone edge is reported as
    exactly -pi, whatever the last bits of its interpolation.

    The windows come from ``spectral._momentum_scan`` (behind
    ``band_structure``), trimmed to the states inside ENERGY_WINDOW.
    The midpoint grid is symmetric about k = 0, so when a solved symmetry
    element of the model maps H(k) onto H(-k) on the wire
    (``symmetry.momentum_reversal``) only ceil(nk/2) momenta are solved and
    each window at -k is the residual-checked image of the window at k.
    The report records that element, the real gauge and the count.
    """
    if model.dimension != 3:
        raise ValueError("hinge flow is for 3d models on wires")
    geo = wire_geometry(3, side)
    part = wire_regions(geo, model.norb)
    # Midpoint grid: crossings pinned at high-symmetry momenta (k = pi for
    # fourfold-rotation models) land strictly inside a segment instead of on
    # a sample, where their sign is numerical noise.
    ks = -np.pi + (np.arange(nk) + 0.5) * (2.0 * np.pi / nk)
    data, vecs = _momentum_scan(model, geo, ks[:, None], window, part, seed, keep_below=ENERGY_WINDOW)
    energies = data.energies
    warnings: list[str] = []
    for k, vals in zip(ks, energies):
        if np.all(np.abs(vals) < ENERGY_WINDOW):
            warnings.append(
                f"solver window saturated inside |E|<{ENERGY_WINDOW} at "
                f"k={k:.3f}; increase the window"
            )
    hinge_names = [n for n in part.names if n.startswith("hinge")]
    hinge_rows = [part.names.index(n) for n in hinge_names]
    flows = {n: 0 for n in hinge_names}
    crossings: list[dict] = []
    # imported here, not at the top: scipy.sparse.csgraph (10 modules, ~0.9 MB) serves only this
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching
    # Close the loop: the wrap segment (last midpoint -> first midpoint + 2pi)
    # makes the count a true winding over the Brillouin circle.
    for i in range(nk):
        j = (i + 1) % nk
        ka, kb = ks[i], ks[j] + (2.0 * np.pi if j == 0 else 0.0)
        sel_a = np.where(np.abs(energies[i]) < ENERGY_WINDOW)[0]
        sel_b = np.where(np.abs(energies[j]) < ENERGY_WINDOW)[0]
        if len(sel_a) == 0 or len(sel_b) == 0:
            continue
        ov = np.abs(vecs[i].conj().T @ vecs[j])
        # each weight 2 - |overlap| > 0: the least-weight full matching has the greatest overlap
        ri, ci = min_weight_full_bipartite_matching(sp.csr_matrix(2.0 - ov))
        for r, c in zip(ri, ci):
            a, b = sel_a[r], sel_b[c]
            ea, eb = energies[i, a], energies[j, b]
            if not ((ea < 0 <= eb) or (eb < 0 <= ea)):
                continue
            if ov[r, c] < MIN_OVERLAP:
                warnings.append(
                    f"ignored straddle near k={ka:.3f} with overlap below "
                    f"{MIN_OVERLAP} (window likely saturated)"
                )
                continue
            sign = 1 if eb > ea else -1
            w = 0.5 * (data.weights[i, a] + data.weights[j, b])
            hw = {n: float(w[r]) for n, r in zip(hinge_names, hinge_rows)}
            best = max(hw, key=hw.get)
            kcross = float(ka - ea * (kb - ka) / (eb - ea))
            kcross = float((kcross + np.pi) % (2.0 * np.pi) - np.pi)
            if np.pi - abs(kcross) <= ZONE_EDGE_TOL:
                kcross = -np.pi
            record = {"k": kcross, "slope": sign, "weights": hw, "hinge": None}
            if hw[best] > WEIGHT_THRESHOLD:
                flows[best] += sign
                record["hinge"] = best
            else:
                warnings.append(
                    f"crossing at k={kcross:.3f} not attributable to a "
                    f"single hinge (best weight {hw[best]:.2f})"
                )
            crossings.append(record)
    if not crossings:
        warnings.append(
            f"no band crosses E = 0 inside |E|<{ENERGY_WINDOW}, so every hinge "
            "flow is 0; raise side or nk"
        )
    total = sum(flows.values())
    if total != 0:
        warnings.append(f"hinge flows sum to {total}, not zero")
    return HingeReport(flows=flows, kirchhoff_sum=total, crossings=crossings, momenta=ks,
                       energies=energies, warnings=warnings, k_reversal=data.k_reversal,
                       real_gauge=data.real_gauge, solved_momenta=data.solved_momenta)


# ---------------------------------------------------------------------------
# inversion parities at momentum-reversal-invariant points

@dataclass
class TrimReport:
    per_point: dict[tuple[float, ...], int]
    total: int
    cs_parity: int
    plane_cherns: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "per_point": {str(k): v for k, v in self.per_point.items()},
            "total": self.total,
            "cs_parity": self.cs_parity,
            "plane_cherns": dict(self.plane_cherns),
        }


def trim_parities(model: HoppingModel, parity_operator: np.ndarray) -> TrimReport:
    """Odd-parity occupied counts at the eight momentum-reversal-invariant
    points, and the mod-4 parity index (total/2 mod 2).

    Requires an insulating spectrum at every such point, an even total, and
    vanishing Chern numbers (on a CHERN_RESOLUTION^2 grid) on all six
    invariant planes, without which the index is not well-defined.
    """
    if model.dimension != 3:
        raise ValueError("parity index is for 3d models")
    u = np.asarray(parity_operator, dtype=complex)
    if np.max(np.abs(u @ u - np.eye(model.norb))) > 1e-9:
        raise ValueError("parity operator must square to one")
    plane_cherns: dict[str, int] = {}
    for axis in range(3):
        for value in (0.0, np.pi):
            c = chern_number_2d(plane_bloch(model, axis, value), resolution=CHERN_RESOLUTION)
            plane_cherns[f"axis{axis}@{value:.3f}"] = c
            if c != 0:
                raise RuntimeError(
                    f"invariant plane axis{axis}={value:.2f} carries "
                    f"chern number {c}; parity index undefined"
                )
    per_point: dict[tuple[float, ...], int] = {}
    for point in product((0.0, np.pi), repeat=3):
        h = model.bloch(point)
        vals, vecs = np.linalg.eigh(h)
        if np.min(np.abs(vals)) < 1e-9:
            raise RuntimeError(f"spectrum touches zero at {point}")
        occ = vecs[:, vals < 0]
        cross = occ.conj().T @ u @ occ
        defect = np.max(np.abs(cross @ cross - np.eye(occ.shape[1])))
        if defect > 1e-9:
            raise RuntimeError(f"parity operator does not commute with h at {point}")
        pvals = np.linalg.eigvalsh(0.5 * (cross + cross.conj().T))
        n_odd = int(np.sum(pvals < 0))
        per_point[point] = n_odd
    total = sum(per_point.values())
    if total % 2 != 0:
        raise RuntimeError(f"odd-parity total {total} is odd; index undefined")
    cs_parity = (total % 4) // 2
    return TrimReport(per_point, total, cs_parity, plane_cherns)


# ---------------------------------------------------------------------------
# corner-flow parity rules per symmetry class

@dataclass
class BulkCornerReport:
    symmetry_class: str
    flows: tuple[int, ...]
    constraint_ok: bool
    parity: int

    def to_dict(self) -> dict:
        return {
            "symmetry_class": self.symmetry_class,
            "flows": list(self.flows),
            "constraint_ok": self.constraint_ok,
            "parity": self.parity,
        }


def bulk_corner_parity(flows, symmetry_class: str) -> BulkCornerReport:
    """Mod-2 invariant of the four hinge flows under the class constraint.

    Inversion and C2.T relate antipodal hinges (c[i+2] = -c[i]); the parity
    is (c1 + c2) mod 2.  C4.T relates neighbours with a velocity reversal
    (c[i+1] = -c[i]); the parity is |c1| mod 2.
    """
    c = tuple(int(x) for x in flows)
    if len(c) != 4:
        raise ValueError("need four hinge flows in cyclic order")
    if symmetry_class in ("inversion", "C2T"):
        ok = c[2] == -c[0] and c[3] == -c[1]
        parity = (c[0] + c[1]) % 2
    elif symmetry_class == "C4T":
        ok = all(c[(i + 1) % 4] == -c[i] for i in range(4))
        parity = abs(c[0]) % 2
    else:
        raise KeyError(f"unknown symmetry class {symmetry_class!r}")
    return BulkCornerReport(symmetry_class, c, ok, parity)
