"""The kernels behind nets and nearest-center assignment.

Pairwise distances, greedy net selection and nearest-center assignment, for
coordinates in two or more dimensions and for spaces given by a dense
distance matrix; the coordinate kernels serve ``metric.CoordIndex`` and the
matrix kernels ``metric.MatrixIndex``. The coordinate kernels query SciPy
cKDTrees, imported on first use, and decide every comparison near a
threshold or a tie exactly, by squared distances; the matrix kernels are
NumPy scans. 1-D coordinates and ultrametric spaces need neither:
``metric.LineIndex`` and ``metric.PrefixIndex`` read nets and nearest
centers off their sorted coordinates or strings. All functions are
deterministic given their inputs.
"""

from __future__ import annotations

import numpy as np

# name of the kernel implementation, recorded with benchmark results
BACKEND = "pure"

CHUNK = 512
# relative slack on tree distances: nearest_center_coords re-decides a query
# by squared distances when its two nearest centers are this close, and the
# tree queries of greedy_net_coords, the net check and metric.CoordIndex.ball
# widen their radius by it, as metric.LineIndex widens its binary searches;
# tree and squared distances differ by a few ulps, far less than this
TIE_RTOL = 1e-7


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


def greedy_net_coords(tree, order: np.ndarray, threshold: float) -> np.ndarray:
    """Maximal threshold-separated subset of the points of ``tree``, a cKDTree,
    scanning points in ``order``, which lists each point at most once.

    A point is admitted iff its distance to every previously admitted point
    is >= threshold (compared in the squared domain). Returns admitted point
    indices in admission order. Each admitted point blocks the points within
    the threshold, found by querying ``tree`` and decided by squared
    distance; the scan admits the next point not yet blocked.
    """
    coords = tree.data
    thr2 = threshold * threshold
    radius = threshold * (1.0 + TIE_RTOL)
    blocked = np.zeros(coords.shape[0], dtype=bool)
    chosen = []
    for cand in order:
        if blocked[cand]:
            continue
        chosen.append(cand)
        near = tree.query_ball_point(coords[cand], radius, return_sorted=False)
        if len(near) > 1:  # else the ball holds cand alone, and the scan is past it
            near = np.asarray(near, dtype=np.int64)
            blocked[near[squared_distances(coords[near], coords[cand]) < thr2]] = True
    return np.asarray(chosen, dtype=np.int64)


def greedy_net_matrix(dmat: np.ndarray, order: np.ndarray, threshold: float) -> np.ndarray:
    """Matrix-metric variant of :func:`greedy_net_coords`.

    Each admitted point blocks the points closer than ``threshold``, read off
    its row; ``dmat`` is symmetric, so its row holds every point's distance to it.
    """
    blocked = np.zeros(dmat.shape[0], dtype=bool)
    chosen = []
    for cand in order:
        if blocked[cand]:
            continue
        chosen.append(cand)
        blocked |= dmat[cand] < threshold
    return np.asarray(chosen, dtype=np.int64)


def nearest_center_coords(query_coords: np.ndarray,
                          center_coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest center (row of ``center_coords``) per query row.

    A cKDTree over the centers answers each query. Where the second-nearest
    center lies within a relative TIE_RTOL of the nearest, the tree's own
    rounding may not decide the winner, so that row is re-decided exactly:
    every center within that radius is compared by squared distance. Ties go
    to the earlier center row; callers order centers by point id to get the
    ascending-id tie-break. Returns (indices, distances), each distance the
    square root of the winner's squared distance.
    """
    q = np.asarray(query_coords, dtype=np.float64)
    cc = np.asarray(center_coords, dtype=np.float64)
    best_idx = np.zeros(q.shape[0], dtype=np.int64)
    if q.shape[0] and cc.shape[0] > 1:
        from scipy.spatial import cKDTree  # on first use: slow to import

        tree = cKDTree(cc)
        d, nearest = tree.query(q, k=2)
        best_idx[:] = nearest[:, 0]
        close = np.flatnonzero(d[:, 1] <= d[:, 0] * (1.0 + TIE_RTOL))
        if close.size:
            cand = tree.query_ball_point(q[close], d[close, 0] * (1.0 + TIE_RTOL))
            counts = np.fromiter(map(len, cand), dtype=np.int64, count=close.size)
            cols = np.concatenate(cand).astype(np.int64)
            starts = np.cumsum(counts) - counts
            dsq = squared_distances(q[np.repeat(close, counts)], cc[cols])
            tied = dsq == np.repeat(np.minimum.reduceat(dsq, starts), counts)
            best_idx[close] = np.minimum.reduceat(np.where(tied, cols, cc.shape[0]), starts)
    return best_idx, np.sqrt(squared_distances(q, cc[best_idx]))


def nearest_center_within_coords(tree, center_coords: np.ndarray,
                                 radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest center of each point of ``tree`` that has a center near it.

    One pair query between a cKDTree over the centers and ``tree``, a
    cKDTree over the points, finds every center within ``radius`` widened
    by TIE_RTOL. Each pair is decided as in :func:`nearest_center_coords`:
    least squared distance, ties to the earlier center row. Returns (point
    rows, ascending; center indices; distances, each the square root of the
    winner's squared distance). Every point with a center within
    ``radius`` is listed with its nearest center; the widened radius may
    list a few more.
    """
    from scipy.spatial import cKDTree  # on first use: slow to import

    cc = np.asarray(center_coords, dtype=np.float64)
    pairs = cKDTree(cc).sparse_distance_matrix(tree, radius * (1.0 + TIE_RTOL),
                                               output_type="ndarray")
    centers = pairs["i"].astype(np.int64)
    points = pairs["j"].astype(np.int64)
    dsq = squared_distances(tree.data[points], cc[centers])
    # per point, the least squared distance and then the lowest center row
    order = np.lexsort((centers, dsq, points))
    first = order[np.flatnonzero(np.diff(points[order], prepend=-1))]
    return points[first], centers[first], np.sqrt(dsq[first])


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between paired rows of ``a`` and ``b``."""
    diff = a - b
    return np.einsum("ij,ij->i", diff, diff)


def nearest_center_matrix(dmat: np.ndarray, query_ids: np.ndarray,
                          center_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-metric variant of :func:`nearest_center_coords`.

    Works through CHUNK query rows at a time, so no |Q| x |C| copy of the
    matrix is made.
    """
    best_idx = np.empty(len(query_ids), dtype=np.int64)
    best_d = np.empty(len(query_ids), dtype=np.float64)
    for start in range(0, len(query_ids), CHUNK):
        sub = dmat[np.ix_(query_ids[start:start + CHUNK], center_ids)]
        idx = np.argmin(sub, axis=1)
        best_idx[start:start + idx.size] = idx
        best_d[start:start + idx.size] = sub[np.arange(idx.size), idx]
    return best_idx, best_d
