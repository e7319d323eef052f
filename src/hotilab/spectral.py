"""Eigensolvers and band-structure helpers with deterministic output.

Two routes to spectra: dense diagonalization (small matrices, canonically
phase-fixed) and a folded sparse solver that targets the eigenvalues of H
nearest zero by running ARPACK on H^2 with a seeded start vector, then
recovering signs and refined vectors from a Ritz step in the recovered
subspace; ``near_zero_states`` alone chooses between them.  Band scans build
a model's assembly once and evaluate it per momentum, and attach per-region
spatial weights (regions are masks on the geometry's site array),
disentangling degenerate clusters so weights are stable under basis
ambiguity.  Gap scans (slabs, edges, the bulk) run one dense ``eigvalsh``
loop, ``dense_spectra``, over a Bloch callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import ceil

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .models import Assembly, Geometry, HoppingModel, slab_geometry
from .symmetry import momentum_reversal

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
    "write_spectrum_csv",
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
            f"dense path capped at {DENSE_DIM_CAP}; use the folded solver"
        )
    h = h.toarray() if sp.issparse(h) else np.asarray(h)
    vals, vecs = np.linalg.eigh(h)
    return vals, _fix_phases(vecs)


def spectral_norm_bound(h) -> float:
    """Max absolute row sum: a cheap upper bound on the spectral norm."""
    if sp.issparse(h):
        return float(np.max(abs(h).sum(axis=1)))
    return float(np.max(np.sum(np.abs(h), axis=1)))


def folded_near_zero(
    h, nev: int, seed: int = 0, residual_factor: float = RESIDUAL_FACTOR
) -> tuple[np.ndarray, np.ndarray]:
    """``nev`` eigenpairs of sparse hermitian ``h`` nearest zero.

    ARPACK on H^2 (shift-invert about a point just below its spectrum) finds
    the folded subspace; a dense Ritz step of H within it restores signs and
    sharpens the pairs.  The start vector is seeded, so reruns are
    reproducible.  Raises if any residual exceeds residual_factor * bound(H).
    """
    h = sp.csr_matrix(h)
    n = h.shape[0]
    if nev >= n - 1:
        raise ValueError(
            f"folded solver needs nev < n - 1 (nev {nev}, n {n}); "
            "near_zero_states routes such cases to the dense solver"
        )
    scale = max(spectral_norm_bound(h), 1e-30)
    hsq = (h @ h).tocsc()
    rng = np.random.default_rng(seed)
    v0 = rng.normal(size=n)
    v0 /= np.linalg.norm(v0)
    sigma = -1e-6 * scale**2
    k_ask = min(max(nev + 4, nev), n - 2)  # small buffer stabilizes clusters
    vals2, vecs2 = spla.eigsh(hsq, k=k_ask, sigma=sigma, which="LM", v0=v0)
    # close the subspace under H: span{V, HV} is H-invariant even when a
    # degenerate H^2 multiplet was cut, since H(Hv) = lambda^2 v stays inside
    aug = np.hstack([vecs2, h @ vecs2])
    usvd, svd_vals, _ = np.linalg.svd(aug, full_matrices=False)
    basis = usvd[:, svd_vals > 1e-10 * svd_vals[0]]
    # Ritz step in the folded subspace: signed eigenvalues + refined vectors
    small = basis.conj().T @ (h @ basis)
    small = 0.5 * (small + small.conj().T)
    svals, svecs = np.linalg.eigh(small)
    ritz = basis @ svecs
    order = np.argsort(np.abs(svals), kind="stable")[:nev]
    order = order[np.argsort(svals[order], kind="stable")]
    vals, vecs = svals[order], _fix_phases(ritz[:, order])
    resid = np.linalg.norm(h @ vecs - vecs * vals[None, :], axis=0)
    if np.max(resid) > residual_factor * scale:
        raise RuntimeError(
            f"folded solver residual {np.max(resid):.3e} exceeds "
            f"{residual_factor:.1e} * {scale:.3e}"
        )
    return vals, vecs


def near_zero_states(
    h, nev: int, seed: int = 0, dense_cutoff: int = 2048
) -> tuple[np.ndarray, np.ndarray]:
    """The one dense/folded router: dense up to ``dense_cutoff`` (or when
    nearly the whole spectrum is asked for), folded above; same contract."""
    n = h.shape[0]
    if n <= dense_cutoff or nev >= n - 1:
        vals, vecs = dense_eigh(h)
        order = np.argsort(np.abs(vals), kind="stable")[:nev]
        order = order[np.argsort(vals[order], kind="stable")]
        return vals[order], vecs[:, order]
    return folded_near_zero(h, nev, seed=seed)


# ---------------------------------------------------------------------------
# spatial regions

@dataclass
class RegionPartition:
    """Named site-index sets on a geometry, for spatial weights of states."""

    names: tuple[str, ...]
    site_indices: dict[str, np.ndarray]  # indices into geometry.sites()
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
    dense_cutoff: int,
    keep_vectors: bool = False,
):
    """The one momentum-scan loop, behind ``band_structure`` and the hinge flow.

    Solves the ``nev`` states nearest zero (all when None) on one assembly.
    On a grid symmetric about k = 0 (momenta[n-1-i] = -momenta[i]) where
    ``momentum_reversal`` finds an element, only the first ceil(n/2) momenta
    are solved: the window at -k is the mapped window at k, with the same
    energies, and must pass the folded solver's residual check against
    H(-k) or the scan raises.  Returns the band data and, with
    ``keep_vectors``, every window's (disentangled) eigenvectors.
    """
    momenta = np.atleast_2d(np.asarray(momenta, dtype=float))
    asm = Assembly(model, geometry)
    n = len(momenta)
    reversal = None
    if np.all(np.abs(momenta + momenta[::-1]) <= 1e-12):
        reversal = momentum_reversal(model, geometry)
    nsolve = n if reversal is None else (n + 1) // 2
    energies, weights, kept = [None] * n, [None] * n, [None] * n
    for i in range(nsolve):
        vals, vecs = near_zero_states(
            asm.matrix(momenta[i]), asm.dim if nev is None else nev,
            seed=seed, dense_cutoff=dense_cutoff,
        )
        found = {i: vecs}
        j = n - 1 - i
        if reversal is not None and j != i:
            found[j] = _fix_phases(reversal.apply(vecs))
            h = asm.matrix(momenta[j])
            resid = np.max(np.linalg.norm(h @ found[j] - found[j] * vals[None, :], axis=0))
            bound = RESIDUAL_FACTOR * spectral_norm_bound(h)
            if resid > bound:
                raise RuntimeError(
                    f"{reversal.label} maps k={momenta[i].round(3).tolist()} with "
                    f"residual {resid:.3e} above {bound:.3e} at k={momenta[j].round(3).tolist()}"
                )
        for idx, v in found.items():
            energies[idx] = vals
            if partition is not None:
                v = _disentangle_clusters(vals, v, partition)
                weights[idx] = partition.weights(v).T
            if keep_vectors:
                kept[idx] = v
    data = BandData(
        momenta,
        np.array(energies),
        None if partition is None else np.array(weights),
        () if partition is None else partition.names,
        None if reversal is None else reversal.label,
        nsolve,
    )
    return data, kept if keep_vectors else None


def band_structure(
    model: HoppingModel,
    geometry: Geometry,
    momenta,
    partition: RegionPartition | None = None,
    window: int | None = None,
    seed: int = 0,
    dense_cutoff: int = 2048,
) -> BandData:
    """Spectrum along a momentum list; ``window`` keeps only that many
    states nearest zero energy (folded solver route for large systems).

    On a grid symmetric about k = 0, a model with a k-reversing symmetry
    element is solved at ceil(n/2) momenta and the rest are mapped (see
    ``_momentum_scan``); ``k_reversal`` and ``solved_momenta`` record it.
    Only a solved window and its image are held at a time.
    """
    return _momentum_scan(model, geometry, momenta, window, partition, seed, dense_cutoff)[0]


# ---------------------------------------------------------------------------
# gap scans (dense Bloch matrices, eigenvalues only)

def dense_spectra(bloch, momenta):
    """Ascending eigenvalues of the dense hermitian ``bloch(k)``, one array
    per momentum, computed lazily: the one loop behind every gap scan."""
    return (np.linalg.eigvalsh(bloch(k)) for k in momenta)


def _grid(nk: int, m: int):
    """The nk^m momenta of a uniform grid on [-pi, pi)^m, last axis fastest."""
    return product(np.linspace(-np.pi, np.pi, nk, endpoint=False), repeat=m)


def _min_abs(spectra) -> float:
    return min(float(np.min(np.abs(vals))) for vals in spectra)


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
    m periodic directions (the faces of a 3D model, the edges of a 2D one)."""
    h = slab_bloch(model, direction, depth)
    return _min_abs(dense_spectra(h, _grid(nk, model.dimension - 1)))


def minimum_bulk_gap(model: HoppingModel, resolution: int = 21) -> float:
    """Min |E| of the Bloch spectrum over a uniform momentum grid."""
    return _min_abs(dense_spectra(model.bloch, _grid(resolution, model.dimension)))


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


def write_spectrum_csv(path, energies) -> None:
    """Rows: state index, energy."""
    with open(path, "w") as fh:
        fh.write("index,energy\n")
        for i, e in enumerate(np.asarray(energies).ravel()):
            fh.write(f"{i},{e:.12g}\n")
