"""The NumPy kernels behind nets and nearest-center assignment.

Pairwise distances, greedy net selection and nearest-center assignment, for
coordinate spaces and for spaces given by a dense distance matrix. All
functions are deterministic given their inputs.
"""

from __future__ import annotations

import numpy as np

# name of the kernel implementation, recorded with benchmark results
BACKEND = "pure"

CHUNK = 512


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Dense symmetric Euclidean distance matrix with a zero diagonal."""
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        diff = coords[start:stop, None, :] - coords[None, :, :]
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff), out=out[start:stop])
    np.fill_diagonal(out, 0.0)
    return out


def greedy_net_coords(coords: np.ndarray, order: np.ndarray, threshold: float) -> np.ndarray:
    """Maximal threshold-separated subset, scanning points in ``order``.

    A point is admitted iff its distance to every previously admitted point
    is >= threshold (compared in the squared domain). Returns admitted point
    indices in admission order.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    thr2 = threshold * threshold
    chosen = np.empty(n, dtype=np.int64)
    chosen_coords = np.empty_like(coords)
    k = 0
    for cand in order:
        if k == 0:
            chosen[0] = cand
            chosen_coords[0] = coords[cand]
            k = 1
            continue
        diff = chosen_coords[:k] - coords[cand]
        dsq = np.einsum("ij,ij->i", diff, diff)
        if dsq.min() >= thr2:
            chosen[k] = cand
            chosen_coords[k] = coords[cand]
            k += 1
    return chosen[:k].copy()


def greedy_net_matrix(dmat: np.ndarray, order: np.ndarray, threshold: float) -> np.ndarray:
    """Matrix-metric variant of :func:`greedy_net_coords`."""
    n = dmat.shape[0]
    chosen = np.empty(n, dtype=np.int64)
    k = 0
    for cand in order:
        if k == 0 or dmat[cand, chosen[:k]].min() >= threshold:
            chosen[k] = cand
            k += 1
    return chosen[:k].copy()


def nearest_center_coords(query_coords: np.ndarray,
                          center_coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest center (row of ``center_coords``) per query row.

    Ties go to the earlier center row; callers order centers by point id to
    get the ascending-id tie-break. Returns (indices, distances).
    """
    q = np.asarray(query_coords, dtype=np.float64)
    cc = np.asarray(center_coords, dtype=np.float64)
    n = q.shape[0]
    best_idx = np.empty(n, dtype=np.int64)
    best_d = np.empty(n, dtype=np.float64)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        diff = q[start:stop, None, :] - cc[None, :, :]
        dsq = np.einsum("ijk,ijk->ij", diff, diff)
        best_idx[start:stop] = np.argmin(dsq, axis=1)
        best_d[start:stop] = np.sqrt(dsq[np.arange(stop - start), best_idx[start:stop]])
    return best_idx, best_d


def nearest_center_matrix(dmat: np.ndarray, query_ids: np.ndarray,
                          center_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-metric variant of :func:`nearest_center_coords`."""
    sub = dmat[np.ix_(query_ids, center_ids)]
    best_idx = np.argmin(sub, axis=1).astype(np.int64)
    best_d = sub[np.arange(sub.shape[0]), best_idx]
    return best_idx, np.asarray(best_d, dtype=np.float64)
