"""Reference real-space assembly, written apart from ``hotilab.models``.

The matrix is built straight from ``model.hoppings`` with numpy index
arithmetic on a site array: no per-site Python loop and no call into
``instantiate``.  Entries are emitted in the order sites x hoppings x
orbital pairs, so duplicate entries (hops that only move along periodic
directions) are summed in the same order as in ``instantiate`` and the two
matrices can be compared for exact equality.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def box_sites(geometry) -> np.ndarray:
    """(nsites, dim) integer array of pattern sites, lexicographic over open axes."""
    dim = geometry.dimension
    opens = geometry.open_dirs
    shape = [int(geometry.extents[i]) for i in opens]
    grid = np.indices(shape).reshape(len(opens), -1).T
    sites = np.zeros((grid.shape[0], dim), dtype=np.int64)
    sites[:, list(opens)] = grid
    keep = np.ones(len(sites), dtype=bool)
    for normal, bound in geometry.pattern.constraints:
        keep &= sites @ np.asarray(normal, dtype=np.int64) >= bound
    return sites[keep]


def assemble(model, geometry, momentum=()) -> sp.csr_matrix:
    """CSR matrix with <y,a|H|x,b> = w(y - x)_{ab} e^{i k.delta}, open truncation."""
    sites = box_sites(geometry)
    opens = list(geometry.open_dirs)
    periodic = list(geometry.periodic_dirs)
    momentum = np.asarray(momentum, dtype=float)
    n = model.norb
    nsites = len(sites)
    shape = [int(geometry.extents[i]) for i in opens]
    # dense lookup from open coordinates to site index (-1: not a site)
    lookup = -np.ones(shape, dtype=np.int64)
    lookup[tuple(sites[:, opens].T)] = np.arange(nsites)

    deltas = np.array(list(model.hoppings), dtype=np.int64)       # (nd, dim)
    blocks = np.array(list(model.hoppings.values()))              # (nd, n, n)
    nd = len(deltas)
    phase = np.zeros(nd)
    for j, kj in zip(periodic, momentum):
        phase = phase + kj * deltas[:, j]
    amp = np.exp(1j * phase)                                      # (nd,)

    target = sites[:, None, opens] + deltas[None, :, opens]       # (ns, nd, nopen)
    inside = np.all((target >= 0) & (target < np.array(shape)), axis=-1)
    ti = np.full((nsites, nd), -1, dtype=np.int64)
    ti[inside] = lookup[tuple(target[inside].T)]

    vals = blocks[None, :, :, :] * amp[None, :, None, None]       # (1, nd, n, n)
    vals = np.broadcast_to(vals, (nsites, nd, n, n))
    a = np.arange(n)[None, None, :, None]
    b = np.arange(n)[None, None, None, :]
    rows = ti[:, :, None, None] * n + a
    cols = np.arange(nsites)[:, None, None, None] * n + b
    keep = (ti[:, :, None, None] >= 0) & (vals != 0)
    rows = np.broadcast_to(rows, keep.shape)[keep]
    cols = np.broadcast_to(cols, keep.shape)[keep]
    dim = nsites * n
    return sp.coo_matrix((vals[keep], (rows, cols)), shape=(dim, dim)).tocsr()


def norm_bound(h) -> float:
    """Max absolute row sum, an upper bound on the spectral norm."""
    return float(np.max(abs(h).sum(axis=1)))


def same_matrix(a, b) -> bool:
    """Exact equality of two sparse matrices (shape, pattern and values)."""
    return a.shape == b.shape and (a != b).nnz == 0
