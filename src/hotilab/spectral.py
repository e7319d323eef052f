"""Eigensolvers and band-structure helpers with deterministic output.

Two routes to spectra: dense diagonalization (canonically phase-fixed) and
a sparse solver for the eigenvalues of H nearest zero: shift-invert ARPACK
on H itself about a small negative shift, from one LU of H - sigma
(symmetric minimum-degree ordering, pivot threshold 0.01) that is freed
before a Ritz step on the orthonormalized result, with a seeded start
vector.  ``near_zero_states`` alone chooses between them, from the request:
a window below n - 1 states runs the sparse solver at any size, the whole
spectrum the dense one; both share one window pick and one residual check.
Every near-zero solve of a hopping model runs in one momentum-scan loop,
which builds the assembly once and evaluates it per momentum, solves real
matrices in the gauge of ``symmetry.real_gauge`` when it finds one, and
attaches per-region spatial weights (regions are masks on the geometry's
site array), disentangling degenerate clusters so weights are stable under
basis ambiguity.  Gap scans (slabs, edges, the bulk) run one dense
``eigvalsh`` loop, ``dense_spectra``, over a Bloch callable at one momentum
per orbit of the solved k-maps of ``symmetry.covariant_elements``, each
spot-checked once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .models import Assembly, Geometry, HoppingModel, bulk_geometry, slab_geometry
from .symmetry import covariant_elements, momentum_reversal, real_gauge

__all__ = [
    "DENSE_DIM_CAP",
    "dense_eigh",
    "folded_near_zero",
    "near_zero_states",
    "spectral_norm_bound",
    "RegionPartition",
    "wire_regions",
    "corner_regions",
    "BandData",
    "band_structure",
    "dense_spectra",
    "slab_bloch",
    "slab_gap_scan",
    "minimum_bulk_gap",
    "write_band_csv",
]

DENSE_DIM_CAP = 16384
RESIDUAL_FACTOR = 1e-8  # residual tolerance relative to a norm bound of H
CLUSTER_TOL = 1e-7      # eigenvalue spacing treated as degenerate


def _phase_pivot(col: np.ndarray) -> int:
    """First index whose magnitude is within 1e-12 of the column max.

    Exact magnitude ties occur at symmetry-related sites; a tolerance makes
    the pivot stable against the one-ulp drift of a unit-phase rescale.
    """
    a = np.abs(col)
    return int(np.argmax(a >= a.max() * (1 - 1e-12)))


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make the pivot component of each column real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        z = out[_phase_pivot(out[:, j]), j]
        if abs(z) > 0:
            out[:, j] *= z.conjugate() / abs(z)
    return out


def dense_eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum, ascending, with canonical eigenvector phases."""
    if h.shape[0] > DENSE_DIM_CAP:
        raise ValueError(
            f"dense path capped at {DENSE_DIM_CAP} rows, got {h.shape[0]}: the request asks for "
            "the whole spectrum; a window below n - 1 states takes the shift-invert route"
        )
    h = h.toarray() if sp.issparse(h) else np.asarray(h)
    vals, vecs = np.linalg.eigh(h)
    return vals, _fix_phases(vecs)


def spectral_norm_bound(h) -> float:
    """Max absolute row sum (of a dense or sparse h): a cheap upper bound on the spectral norm."""
    return float(np.max(abs(h).sum(axis=1)))


def _window(vals: np.ndarray, vecs: np.ndarray, nev: int):
    """The ``nev`` pairs nearest zero energy, sorted by energy."""
    order = np.argsort(np.abs(vals), kind="stable")[:nev]
    order = order[np.argsort(vals[order], kind="stable")]
    return vals[order], vecs[:, order]


def _check_residual(h, vals: np.ndarray, vecs: np.ndarray, bound: float, what: str) -> None:
    """Raise unless every column satisfies ||h v - E v|| <= ``bound``."""
    resid = np.max(np.linalg.norm(h @ vecs - vecs * vals[None, :], axis=0))
    if resid > bound:
        raise RuntimeError(f"{what}: residual {resid:.3e} exceeds {bound:.3e}")


def _shift_invert_vectors(h, k: int, sigma: float, v0: np.ndarray) -> np.ndarray:
    """ARPACK's ``k`` vectors of ``h`` nearest ``sigma``; frees its LU of h - sigma on return."""
    lu = spla.splu((h - sigma * sp.identity(h.shape[0])).tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.01, options={"SymmetricMode": True})
    op = spla.LinearOperator(h.shape, matvec=lu.solve, dtype=h.dtype)
    return spla.eigsh(h, k=k, sigma=sigma, which="LM", v0=v0, OPinv=op)[1]


def folded_near_zero(h, nev: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``nev`` eigenpairs of sparse hermitian ``h`` nearest zero.

    Shift-invert ARPACK on H itself, about sigma = -1e-6 * bound(H): the
    shift is never exactly zero, so an exact kernel (the chiral quarter's
    zero modes) still factors.  H - sigma is factored once (symmetric
    minimum-degree ordering, pivot threshold 0.01: half the fill of scipy's
    default), and the factor is freed before the Ritz step.  ARPACK's
    non-hermitian driver on complex H leaves vectors inside degenerate
    clusters far from orthonormal, so a dense Ritz step of H on their
    orthonormalized span gives the returned pairs.  The start vector is
    seeded.  Raises if any residual exceeds RESIDUAL_FACTOR * bound(H).
    The name is kept from the folded H^2 route this replaced, because
    callers and tools outside the package look the function up by name.
    """
    h = sp.csr_matrix(h)
    n = h.shape[0]
    if not 1 <= nev < n - 1:
        raise ValueError(
            f"sparse solver needs nev at least 1 and below n - 1 (nev {nev}, n {n}); "
            "near_zero_states routes whole-spectrum requests to the dense solver"
        )
    scale = max(spectral_norm_bound(h), 1e-30)
    rng = np.random.default_rng(seed)
    v0 = rng.normal(size=n)
    v0 /= np.linalg.norm(v0)
    k_ask = min(nev + 4, n - 2)  # small buffer stabilizes clusters
    basis, _ = np.linalg.qr(_shift_invert_vectors(h, k_ask, -1e-6 * scale, v0))
    small = basis.conj().T @ (h @ basis)
    svals, svecs = np.linalg.eigh(0.5 * (small + small.conj().T))
    vals, vecs = _window(svals, basis @ svecs, nev)
    vecs = _fix_phases(vecs)
    _check_residual(h, vals, vecs, RESIDUAL_FACTOR * scale, "shift-invert solver")
    return vals, vecs


def near_zero_states(h, nev: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The one dense/sparse router, on the request alone: a window of
    ``nev < n - 1`` states runs ``folded_near_zero`` (the shift-invert
    solver) at any size; a whole-spectrum request diagonalizes densely.
    Both return the ``nev`` pairs nearest zero, sorted by energy, and raise
    unless each residual is within ``RESIDUAL_FACTOR`` of a norm bound of H."""
    if nev < 1:
        raise ValueError(f"nev must be at least 1, got {nev}")
    if nev < h.shape[0] - 1:
        return folded_near_zero(h, nev, seed=seed)
    vals, vecs = _window(*dense_eigh(h), nev)
    _check_residual(h, vals, vecs, RESIDUAL_FACTOR * spectral_norm_bound(h), "dense solver")
    return vals, vecs


# ---------------------------------------------------------------------------
# spatial regions

@dataclass
class RegionPartition:
    """Named site-index sets on a geometry, for spatial weights of states."""

    names: tuple[str, ...]
    site_indices: dict[str, np.ndarray]  # rows of geometry.site_array()
    norb: int

    def projector_diagonal(self, name: str, dim: int) -> np.ndarray:
        d = np.zeros(dim)
        sites = np.asarray(self.site_indices[name], dtype=np.int64)
        d[(sites[:, None] * self.norb + np.arange(self.norb)).ravel()] = 1.0
        return d

    def weights(self, vecs: np.ndarray) -> np.ndarray:
        """(#regions, #states) occupation weights of each column vector."""
        dens = np.abs(vecs) ** 2
        return np.array([self.projector_diagonal(n, vecs.shape[0]) @ dens for n in self.names])


def wire_regions(geometry: Geometry, norb: int) -> RegionPartition:
    """Four hinge squares (side ceil(L/4)), four faces, interior.

    The cross-section is the first two open directions; hinges sit at the
    corners of the box, faces along its edges minus the hinge squares.
    """
    d1, d2 = geometry.open_dirs[:2]
    L1, L2 = int(geometry.extents[d1]), int(geometry.extents[d2])
    c1, c2 = ceil(L1 / 4), ceil(L2 / 4)
    sites = geometry.site_array()
    lo1, hi1 = sites[:, d1] < c1, sites[:, d1] >= L1 - c1
    lo2, hi2 = sites[:, d2] < c2, sites[:, d2] >= L2 - c2
    masks = {
        "hinge1": lo1 & lo2,
        "hinge2": hi1 & lo2,
        "hinge3": hi1 & hi2,
        "hinge4": lo1 & hi2,
        "face1": lo2 & ~lo1 & ~hi1,
        "face2": hi1 & ~lo2 & ~hi2,
        "face3": hi2 & ~lo1 & ~hi1,
        "face4": lo1 & ~lo2 & ~hi2,
    }
    masks["interior"] = ~np.logical_or.reduce(list(masks.values()))
    regions = {name: np.flatnonzero(m) for name, m in masks.items()}
    return RegionPartition(tuple(regions), regions, norb)


def corner_regions(geometry: Geometry, norb: int) -> RegionPartition:
    """Quadrant split of a finite box; ``corner`` is the quadrant at the
    origin corner (where two pattern boundaries meet)."""
    opens = list(geometry.open_dirs)
    halves = np.array([int(geometry.extents[i]) / 2.0 for i in opens])
    quadrant = (geometry.site_array()[:, opens] >= halves).astype(int)
    regions = {}
    for q in np.unique(quadrant, axis=0):
        label = "corner" if not q.any() else "quad" + "".join(map(str, q))
        regions[label] = np.flatnonzero((quadrant == q).all(axis=1))
    return RegionPartition(tuple(regions), regions, norb)


# ---------------------------------------------------------------------------
# band scans

@dataclass
class BandData:
    """Energies (and optional region weights) over a momentum path/grid."""

    momenta: np.ndarray            # (#k, m)
    energies: np.ndarray           # (#k, #bands)
    weights: np.ndarray | None     # (#k, #bands, #regions)
    region_names: tuple[str, ...]
    k_reversal: str | None         # symmetry element that filled the -k half
    real_gauge: str | None         # antiunitary element whose gauge made H(k) real
    solved_momenta: int


def _disentangle_clusters(
    vals: np.ndarray, vecs: np.ndarray, partition: RegionPartition
) -> np.ndarray:
    """Rotate degenerate clusters to diagonalize a weighted region sum.

    Exactly degenerate states (symmetry-related hinge pairs) come out of the
    solver in arbitrary mixtures; diagonalizing sum_r c_r P_r with distinct
    coefficients inside each cluster pins a localized representative basis.
    """
    vecs = vecs.copy()
    n = len(vals)
    diag = np.zeros(vecs.shape[0])
    for i, name in enumerate(partition.names):
        diag += (i + 1.0) * partition.projector_diagonal(name, vecs.shape[0])
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and vals[stop] - vals[stop - 1] < CLUSTER_TOL:
            stop += 1
        if stop - start > 1:
            block = vecs[:, start:stop]
            w = block.conj().T @ (diag[:, None] * block)
            w = 0.5 * (w + w.conj().T)
            _, rot = np.linalg.eigh(w)
            vecs[:, start:stop] = block @ rot
        start = stop
    return vecs


def _momentum_scan(
    model: HoppingModel,
    geometry: Geometry,
    momenta,
    nev: int | None,
    partition: RegionPartition | None,
    seed: int,
    keep_below: float | None = None,
):
    """The one momentum-scan loop: every near-zero solve of a hopping model
    (``band_structure``, the hinge flow, the corner index and the ``cli``
    spectrum and cube scans) runs here.  A geometry with no periodic
    direction is scanned at its one empty momentum, ``np.zeros((1, 0))``.

    Solves the ``nev`` states nearest zero on one assembly (the whole
    spectrum, densely, when None; a window by shift-invert at any size),
    of the real part of D^dag H(k) D (D = 1 (x) V on every site) where
    ``real_gauge`` finds V: it must be real within 1e-12 * bound(H), and the
    vectors D carries back must pass the residual check against H(k), or the
    scan raises.  On a grid symmetric about k = 0 (momenta[n-1-i] =
    -momenta[i]) where ``momentum_reversal`` finds an element, only the
    first ceil(n/2) momenta are solved: the window at -k is the mapped
    window at k, with the same energies, and must pass the same residual
    check against H(-k).  A scan of one momentum maps nothing, so it seeks
    no such element.  Returns the band data (of whole windows) and, with
    ``keep_below``, each window's disentangled eigenvectors of |E| below it.
    """
    momenta = np.atleast_2d(np.asarray(momenta, dtype=float))
    asm = Assembly(model, geometry)
    n = len(momenta)
    symmetric = n > 1 and np.all(np.abs(momenta + momenta[::-1]) <= 1e-12)
    reversal = momentum_reversal(model, geometry) if symmetric else None
    nsolve, nwant = n if reversal is None else (n + 1) // 2, asm.dim if nev is None else nev
    gauge = real_gauge(model, geometry)
    if gauge is not None:
        rot = sp.kron(sp.identity(asm.dim // model.norb), gauge[1], format="csr")
    energies, weights, kept = [None] * n, [None] * n, [None] * n
    for i in range(nsolve):
        h, at = asm.matrix(momenta[i]), momenta[i].round(3).tolist()
        if gauge is None:
            vals, vecs = near_zero_states(h, nwant, seed=seed)
        else:
            hr, bound = rot.conj().T @ h @ rot, spectral_norm_bound(h)
            if abs(hr.imag).max() > 1e-12 * bound:
                raise RuntimeError(f"{gauge[0]} leaves H(k={at}) complex in its real gauge")
            vals, vecs = near_zero_states(hr.real, nwant, seed=seed)
            vecs = _fix_phases(rot @ vecs)
            _check_residual(h, vals, vecs, RESIDUAL_FACTOR * bound, f"{gauge[0]} gauge at k={at}")
        found = {i: vecs}
        j = n - 1 - i
        if reversal is not None and j != i:
            found[j] = _fix_phases(reversal.apply(vecs))
            h = asm.matrix(momenta[j])
            _check_residual(h, vals, found[j], RESIDUAL_FACTOR * spectral_norm_bound(h),
                            f"{reversal.label} mapping k={at} to k={momenta[j].round(3).tolist()}")
        for idx, v in found.items():
            energies[idx] = vals
            if partition is not None:
                v = _disentangle_clusters(vals, v, partition)
                weights[idx] = partition.weights(v).T
            if keep_below is not None:
                kept[idx] = v.compress(np.abs(vals) < keep_below, axis=1)  # keeps v's C order
    data = BandData(momenta, np.array(energies), None if partition is None else np.array(weights),
                    () if partition is None else partition.names,
                    None if reversal is None else reversal.label,
                    None if gauge is None else gauge[0], nsolve)
    return data, None if keep_below is None else kept


def band_structure(
    model: HoppingModel,
    geometry: Geometry,
    momenta,
    partition: RegionPartition | None = None,
    window: int | None = None,
    seed: int = 0,
) -> BandData:
    """Spectrum along a momentum list; ``window`` keeps only that many
    states nearest zero energy (the shift-invert route at any size; the
    whole spectrum, solved densely, when None).

    On a grid symmetric about k = 0, a model with a k-reversing symmetry
    element is solved at ceil(n/2) momenta and the rest are mapped (see
    ``_momentum_scan``, which also solves in a ``real_gauge``);
    ``k_reversal``, ``real_gauge`` and ``solved_momenta`` record them.
    Only a solved window and its image are held at a time.
    """
    return _momentum_scan(model, geometry, momenta, window, partition, seed)[0]


# ---------------------------------------------------------------------------
# gap scans (dense Bloch matrices, eigenvalues only)

def dense_spectra(bloch, momenta):
    """Ascending eigenvalues of the dense hermitian ``bloch(k)``, one array
    per momentum, computed lazily: the one loop behind every gap scan."""
    return (np.linalg.eigvalsh(bloch(k)) for k in momenta)


def _orbit_gap(bloch, nk: int, m: int, elements) -> float:
    """min |E| of ``bloch`` on the nk^m grid of [-pi, pi)^m (last axis fastest)
    at the first point of each orbit of the elements' k-maps M, which map
    grid index j to M j mod nk exactly.  Spot check once per map that moves
    the grid and chiral flag, at a seeded random k: the spectrum at M k must
    be the one at k (negated if chiral) within 1e-12 * bound, or this raises."""
    index = np.indices((nk,) * m).reshape(m, -1).T
    points = np.linspace(-np.pi, np.pi, nk, endpoint=False)[index]
    rng, images, checked = np.random.default_rng(0), [np.arange(len(points))], set()  # identity first
    for el in elements:
        image = (index @ el.k_map.T % nk) @ nk ** np.arange(m - 1, -1, -1)
        if np.any(image != images[0]) and (image.tobytes(), el.chiral) not in checked:
            checked.add((image.tobytes(), el.chiral))
            k = rng.uniform(-np.pi, np.pi, m)
            at_k, at_mk = dense_spectra(bloch, [k, el.k_map @ k])
            defect = np.max(np.abs(at_mk - (-at_k[::-1] if el.chiral else at_k)))
            if defect > 1e-12 * spectral_norm_bound(bloch(k)):
                raise RuntimeError(f"{el.label} does not map the spectrum at k={k.tolist()} onto M k")
            images.append(image)
    low, last = images[0], None  # low[j]: the lowest grid index reached from j so far
    while not np.array_equal(low, last):
        low, last = np.minimum.reduce([low[image] for image in images]), low
    return min(float(np.min(np.abs(v))) for v in dense_spectra(bloch, points[low == images[0]]))


def slab_bloch(model: HoppingModel, direction: int, depth: int):
    """h(k_parallel) for a slab: its dense blocks B_delta, summed with phases."""
    asm = Assembly(model, slab_geometry(model.dimension, direction, depth))
    blocks = asm.dense_blocks()

    def h(kpar):
        out = np.zeros((asm.dim, asm.dim), dtype=complex)
        for amp, block in zip(asm.phases(kpar), blocks):
            out += amp * block
        return out

    return h


def slab_gap_scan(model: HoppingModel, direction: int, depth: int, nk: int) -> float:
    """min |E| of a slab open along ``direction`` over an nk^m grid of its
    m periodic directions (the faces of a 3D model, the edges of a 2D one),
    at one momentum per orbit of its covariant k-maps, spot-checked."""
    elements = covariant_elements(model, slab_geometry(model.dimension, direction, depth))
    return _orbit_gap(slab_bloch(model, direction, depth), nk, model.dimension - 1, elements)


def minimum_bulk_gap(model: HoppingModel, resolution: int) -> float:
    """Min |E| of the Bloch spectrum over a uniform momentum grid, at one
    momentum per orbit of every covariant element's k-map, spot-checked."""
    elements = covariant_elements(model, bulk_geometry(model.dimension))
    return _orbit_gap(model.bloch, resolution, model.dimension, elements)


# ---------------------------------------------------------------------------
# CSV output

def write_band_csv(path, data: BandData) -> None:
    """Rows: k components, band index, energy, then one weight per region."""
    m = data.momenta.shape[1]
    cols = [f"k{i+1}" for i in range(m)] + ["band", "energy"]
    cols += [f"{name}_weight" for name in data.region_names]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for ik, k in enumerate(data.momenta):
            for ib in range(data.energies.shape[1]):
                row = [f"{x:.12g}" for x in k] + [
                    str(ib), f"{data.energies[ik, ib]:.12g}"
                ]
                if data.weights is not None:
                    row += [f"{w:.12g}" for w in data.weights[ik, ib]]
                fh.write(",".join(row) + "\n")
