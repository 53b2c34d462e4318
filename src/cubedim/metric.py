"""Finite metric spaces: distances, balls, diameters, doubling estimates.

A space is a list of points with contiguous integer ids plus a metric
descriptor. Supported metrics: euclidean coordinates, an explicit distance
matrix, snowflaked variants (d^epsilon), and the longest-common-prefix
ultrametric on symbol strings. Every set in the package (subsets, balls,
cubes) is an id array over one of these spaces.

Each space answers its distance questions through one index of its kind,
built on first use: ``LineIndex`` (1-D coordinates), ``CoordIndex``
(coordinates in two or more dimensions), ``PrefixIndex`` or ``MatrixIndex``.
They share one set of methods, so no caller tests the metric kind.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import InvalidArgumentError, PointsFileError

_KINDS = ("euclidean", "matrix", "snowflake", "ultrametric")


@dataclass(frozen=True)
class MetricDescriptor:
    """What metric the space carries.

    ``scale`` multiplies the final distance (used by diameter normalization);
    ``epsilon`` is the snowflake exponent applied before scaling.
    """

    kind: str
    epsilon: float = 1.0
    arity: int = 0
    base: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidArgumentError(f"unknown metric kind {self.kind!r}")
        if not (0.0 < self.epsilon <= 1.0):
            raise InvalidArgumentError("snowflake epsilon must be in (0, 1]")
        if self.kind == "ultrametric":
            if self.arity < 2:
                raise InvalidArgumentError("ultrametric arity must be >= 2")
            if not (0.0 < self.base < 1.0):
                raise InvalidArgumentError("ultrametric base must be in (0, 1)")
        if not (0.0 < self.scale < np.inf):
            raise InvalidArgumentError("metric scale must be finite and positive")

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.epsilon != 1.0:
            out["epsilon"] = self.epsilon
        if self.kind == "ultrametric":
            out["arity"] = self.arity
            out["base"] = self.base
        if self.scale != 1.0:
            out["scale"] = self.scale
        return out

    @classmethod
    def from_json(cls, m: dict) -> "MetricDescriptor":
        """The descriptor ``to_json`` wrote; an ultrametric must give its arity and base."""
        kind = m.get("kind")
        ultra = kind == "ultrametric"
        return cls(kind, epsilon=float(m.get("epsilon", 1.0)),
                   arity=int(m["arity"]) if ultra else 0,
                   base=float(m["base"]) if ultra else 0.0,
                   scale=float(m.get("scale", 1.0)))

    def transform(self, base):
        """A base distance (Euclidean, stored, or ``base ** lcp``) put through the
        snowflake power and the scale, elementwise over an array."""
        if self.epsilon != 1.0:
            base = (np.power(base, self.epsilon) if isinstance(base, np.ndarray)
                    else base ** self.epsilon)
        if self.scale != 1.0:
            base = base * self.scale
        return base


@dataclass
class DoublingEstimate:
    """Empirical doubling constant: max greedy count of r-balls covering a 2r-ball."""

    C_d_hat: int
    samples_used: int


class _Index:
    """What the indexes of the metric kinds share. Ids arrive checked,
    as int64 arrays; a subset handed to ``diameter`` has two ids or more."""

    def __init__(self, space: "MetricSpace"):
        # parts of the space, not the space: it holds this index, and a cycle delays freeing both
        self.descriptor = space.descriptor
        self.ids = space.ids

    def row(self, p) -> np.ndarray:
        return self.pairs(p, slice(None))

    def nearest_within(self, centers: np.ndarray, r: float):
        """``nearest`` for (at least) every point with a center closer than
        ``r``, ids first and ascending; here all points."""
        return (self.ids, *self.nearest(self.ids, centers))

    def run_diameters(self, ids: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Here each run's ``diameter`` in turn."""
        out = np.zeros(bounds.size - 1)
        for i in np.flatnonzero(np.diff(bounds) > 1):
            out[i] = self.diameter(ids[bounds[i]:bounds[i + 1]])
        return out

    @staticmethod
    def _runs_by_key(bounds, keys_at, value) -> np.ndarray:
        """Run diameters from one key per non-empty run, ``keys_at(starts)`` in one
        pass; ``value(key)``, the diameter, runs once per distinct key."""
        filled = np.flatnonzero(np.diff(bounds))  # reduceat needs non-empty runs
        keys, inverse = np.unique(keys_at(bounds[filled]), return_inverse=True)
        out = np.zeros(bounds.size - 1)
        out[filled] = np.asarray([value(key) for key in keys], dtype=np.float64)[inverse]
        return out


class PrefixIndex(_Index):
    """The strings of an ultrametric space, sorted once.

    ``dist[L]`` is the distance between two strings whose longest common
    prefix (lcp) has length L; its last entry, for equal strings, is 0. The
    strings sharing a length-L prefix form one run of consecutive ranks, and
    the lcp of two strings is the least adjacent lcp between their ranks.
    Since ``dist`` is non-increasing (checked here), d(p, q) < t exactly
    when p and q share a prefix of length ``level(t)``. Nets, nearest
    centers, rows and balls are read off the sorted order with no n x n
    matrix and no per-center scan.
    """

    def __init__(self, space: "MetricSpace"):
        super().__init__(space)
        codes = space._codes
        length = codes.shape[1]
        base = np.power(space.descriptor.base, np.arange(length + 1).astype(np.float64))
        base[length] = 0.0
        self.dist = space.descriptor.transform(base)
        if np.any(self.dist[1:] > self.dist[:-1]):
            raise InvalidArgumentError("ultrametric distances must not grow with the "
                                       "common prefix length")
        n = codes.shape[0]
        self.codes = codes
        self._neg_dist = -self.dist  # ascending, for searchsorted
        self.order = np.lexsort(codes.T[::-1])
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.order] = np.arange(n)
        self.adjacent = self.lcp(self.order[:-1], self.order[1:])
        self._runs = {}

    def lcp(self, a, b):
        """Longest common prefix length of the strings of ids ``a`` and ``b``, elementwise."""
        neq = self.codes[a] != self.codes[b]
        return np.where(neq.any(axis=-1), np.argmax(neq, axis=-1), self.codes.shape[1])

    def level(self, t) -> int:
        """Least L with dist[L] < t: d(p, q) < t iff lcp(p, q) >= level(t)."""
        return int(np.searchsorted(self._neg_dist, -t, side="right"))

    def _tie_level(self, d):
        """Least L with dist[L] == d, for distances d taken from the table."""
        return np.searchsorted(self._neg_dist, -d, side="left")

    def runs(self, L) -> np.ndarray:
        """Run number of each rank; two ranks share a run iff their strings
        share a prefix of length L."""
        if L not in self._runs:
            self._runs[L] = np.concatenate([[0], np.cumsum(self.adjacent < L)])
        return self._runs[L]

    def row(self, p) -> np.ndarray:
        """d(p, q) for every q: running minima of the adjacent lcps outward from p."""
        r = self.rank[p]
        lcp = np.empty(self.rank.size, dtype=self.adjacent.dtype)
        lcp[r] = self.codes.shape[1]
        lcp[r + 1:] = np.minimum.accumulate(self.adjacent[r:])
        lcp[:r] = np.minimum.accumulate(self.adjacent[:r][::-1])[::-1]
        out = np.empty(self.rank.size, dtype=np.float64)
        out[self.order] = self.dist[lcp]
        return out

    def pairs(self, a, b) -> np.ndarray:
        return self.dist[self.lcp(a, b)]

    def ball(self, x, r) -> np.ndarray:
        """Ids q with d(x, q) < r, ascending: one run of ranks."""
        runs = self.runs(self.level(r))
        run = runs[self.rank[x]]
        lo, hi = np.searchsorted(runs, [run, run + 1])
        return np.sort(self.order[lo:hi])

    def net(self, order: np.ndarray, t: float) -> np.ndarray:
        """The greedy t-separated net of the scan ``order`` (ids, each at most
        once), in admission order.

        A point is blocked by an admitted one iff they share a prefix of
        length ``level(t)``, so the net is the first point in scan order of
        each such prefix run that the scan visits.
        """
        runs = self.runs(self.level(t))
        position = np.full(self.rank.size, order.size, dtype=np.int64)  # unscanned last
        position[order] = np.arange(order.size)
        starts = np.flatnonzero(np.diff(runs)) + 1
        first = np.minimum.reduceat(position[self.order], np.concatenate([[0], starts]))
        return order[np.sort(first[first < order.size])]

    def nearest(self, query_ids: np.ndarray, centers: np.ndarray):
        """Per query: index into ``centers`` of the nearest one, and its distance.

        The longest prefix a query shares with any center is the one it shares
        with its predecessor or successor center in sorted order. Every center
        at the same distance shares with the query the shortest prefix with
        that distance, one run of ranks; the lowest index there wins, as
        ``argmin`` over a row picks it.
        """
        k = centers.size
        center_rank = self.rank[centers]
        by_rank = np.argsort(center_rank, kind="stable")
        query_rank = self.rank[query_ids]
        pos = np.searchsorted(center_rank[by_rank], query_rank, side="right")
        pred = centers[by_rank[np.maximum(pos - 1, 0)]]
        succ = centers[by_rank[np.minimum(pos, k - 1)]]
        best = np.maximum(self.lcp(query_ids, pred), self.lcp(query_ids, succ))
        dist = self.dist[best]
        tie_level = self._tie_level(dist)
        idx = np.empty(query_ids.size, dtype=np.int64)
        for L in np.unique(tie_level):
            runs = self.runs(int(L))
            lowest = np.full(int(runs[-1]) + 1, k, dtype=np.int64)
            np.minimum.at(lowest, runs[center_rank], np.arange(k))
            sel = tie_level == L
            idx[sel] = lowest[runs[query_rank[sel]]]
        return idx, dist

    def closest_pair(self, ids: np.ndarray):
        """(least d over pairs i < j of ``ids``, (ids[i], ids[j])) for the first such
        pair in (i, j) order.

        The longest common prefix within the set is between neighbours in
        sorted order; the pairs at the least distance are those within one run
        at its tie level, and the first is a run's two lowest positions.
        """
        ranks = self.rank[ids]
        by_rank = np.argsort(ranks, kind="stable")
        best = self.lcp(ids[by_rank[:-1]], ids[by_rank[1:]]).max()
        d = self.dist[best]
        runs = self.runs(int(self._tie_level(d)))[ranks]
        grouped = np.lexsort((np.arange(ids.size), runs))
        same = runs[grouped[1:]] == runs[grouped[:-1]]
        first, second = grouped[:-1][same], grouped[1:][same]
        t = int(np.argmin(first))
        return float(d), (int(ids[first[t]]), int(ids[second[t]]))

    def _lcp_diameter(self, lcp: int) -> float:
        """Diameter of a set whose least common prefix has length lcp."""
        if lcp == self.codes.shape[1]:
            return 0.0
        return float(self.descriptor.transform(self.descriptor.base ** lcp))

    def diameter(self, ids: np.ndarray) -> float:
        # min lcp over the set is attained by the lexicographic extremes
        ranks = self.rank[ids]
        return self._lcp_diameter(int(self.lcp(self.order[ranks.min()],
                                               self.order[ranks.max()])))

    def run_diameters(self, ids: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """One pass: the lcp of each run's least and greatest rank."""
        ranks = self.rank[ids[:bounds[-1]]]
        return self._runs_by_key(
            bounds, lambda starts: self.lcp(self.order[np.minimum.reduceat(ranks, starts)],
                                            self.order[np.maximum.reduceat(ranks, starts)]),
            lambda lcp: self._lcp_diameter(int(lcp)))

    def min_gap(self) -> float:
        # the longest common prefix of two distinct strings is between neighbours
        lcps = self.adjacent[self.adjacent < self.codes.shape[1]]
        return self._lcp_diameter(int(lcps.max())) if lcps.size else float("inf")


class CoordIndex(_Index):
    """The points of a coordinate space (euclidean or snowflake) in two or more
    dimensions; ``LineIndex`` serves one dimension.

    A distance is the Euclidean one put through the descriptor's monotone
    power and scale, so a radius is asked of the tree at ``base_radius``.
    Balls, nets and the least gap query one kd-tree over all points, built
    on first use; comparisons near a threshold or a tie are decided exactly.
    """

    def __init__(self, space: "MetricSpace"):
        super().__init__(space)
        self.coords = space.coords

    @cached_property
    def tree(self):
        from scipy.spatial import cKDTree  # on first use: slow to import

        return cKDTree(self.coords)

    def base_radius(self, r) -> float:
        """Base-metric radius whose transformed value is r."""
        d = self.descriptor
        base = r / d.scale
        if d.epsilon != 1.0:
            base = base ** (1.0 / d.epsilon)
        return base

    def pairs(self, a, b) -> np.ndarray:
        """d(a, b) over ids or id arrays; ``b`` may be ``slice(None)``, every point."""
        diff = self.coords[b] - self.coords[a]
        return self.descriptor.transform(np.sqrt(np.einsum("ij,ij->i", diff, diff)))

    def ball(self, x, r) -> np.ndarray:
        cand = np.asarray(self.tree.query_ball_point(self.coords[x],
                                                     self.base_radius(r) * (1 + 1e-12)),
                          dtype=np.int64)
        members = cand[self.pairs(x, cand) < r]
        members.sort()
        return members

    def net(self, order: np.ndarray, t: float) -> np.ndarray:
        return kernels.greedy_net_coords(self.tree, order, self.base_radius(t))

    def nearest(self, query_ids: np.ndarray, centers: np.ndarray):
        idx, base_d = kernels.nearest_center_coords(self.coords[query_ids],
                                                    self.coords[centers])
        return idx, self.descriptor.transform(base_d)

    def nearest_within(self, centers: np.ndarray, r: float):
        """A point's nearest center is closer than ``r`` exactly when some center
        is, so one pair query between the centers and the points within ``r``
        finds them all, and no other point is visited."""
        ids, idx, base_d = kernels.nearest_center_within_coords(
            self.tree, self.coords[centers], self.base_radius(r))
        return ids, idx, self.descriptor.transform(base_d)

    def closest_pair(self, ids: np.ndarray):
        # the tree's distances round differently from pairs() by a few ulps:
        # take every pair near the tree's least distance, decide exactly
        from scipy.spatial import cKDTree

        tree = cKDTree(self.coords[ids])
        near, _ = tree.query(self.coords[ids], k=2)
        cand = tree.query_pairs(float(near[:, 1].min()) * (1.0 + kernels.TIE_RTOL),
                                output_type="ndarray")
        d = self.pairs(ids[cand[:, 0]], ids[cand[:, 1]])
        tied = np.flatnonzero(d == d.min())
        i, j = cand[tied[np.lexsort((cand[tied, 1], cand[tied, 0]))[0]]]
        return float(d[tied[0]]), (int(ids[i]), int(ids[j]))

    def diameter(self, ids: np.ndarray) -> float:
        pts = self.coords[ids]
        if ids.size > 2048:
            from scipy.spatial import ConvexHull, QhullError

            try:
                pts = pts[ConvexHull(pts).vertices]
            except QhullError:
                pass  # affinely degenerate (e.g. collinear): no hull, scan all points
        d2 = 0.0
        # 128-row blocks: a 2048-point scan holds 4 MB of differences, not 16 MB
        for start in range(0, len(pts), 128):
            block = pts[start:start + 128]
            diff = block[:, None, :] - pts[None, :, :]
            d2 = max(d2, float(np.einsum("ijk,ijk->ij", diff, diff).max()))
        return float(self.descriptor.transform(float(np.sqrt(d2))))

    def min_gap(self) -> float:
        # one id per distinct point: repeated points are not distinct
        _, first = np.unique(self.coords, axis=0, return_index=True)
        if first.size == 1:
            return float("inf")
        return self.closest_pair(np.sort(first))[0]


class LineIndex(CoordIndex):
    """The points of a 1-D coordinate space, sorted once (stably, so equal
    coordinates keep ascending ids).

    Rounded subtraction is monotone, so the points closer to x than a
    threshold, and the centers nearest to x, are runs of the sorted order
    next to x. Nets, nearest centers, balls, the closest pair and diameters
    are read off that order with no tree; each run is found by binary search
    at a radius widened by ``kernels.TIE_RTOL`` and decided by the same
    expression as the tree index's kernels, so every net, nearest center,
    ball and closest pair is bit for bit that of ``CoordIndex`` on the same
    points.
    """

    def __init__(self, space: "MetricSpace"):
        super().__init__(space)
        x = self.coords[:, 0]
        self.order = np.argsort(x, kind="stable")
        self.rank = np.empty(x.size, dtype=np.int64)
        self.rank[self.order] = np.arange(x.size)
        self.sorted = x[self.order]

    @cached_property
    def _lists(self):
        """The sorted coordinates and the rank of each id, as Python lists: the
        net's scan and the binary searches read them one element at a time."""
        return self.sorted.tolist(), self.rank.tolist()

    def ball(self, x, r) -> np.ndarray:
        """The run of ranks within the widened radius, decided by ``pairs``."""
        xs, c = self._lists[0], float(self.coords[x, 0])
        wide = self.base_radius(r) * (1.0 + kernels.TIE_RTOL)
        cand = self.order[bisect_left(xs, c - wide):bisect_right(xs, c + wide)]
        members = cand[self.pairs(x, cand) < r]
        members.sort()
        return members

    def net(self, order: np.ndarray, t: float) -> np.ndarray:
        """The greedy net of ``kernels.greedy_net_coords``: a point is admitted
        iff no admitted center c has ``(x - c)**2 < sep**2``.

        That set is one run of ranks around c, so each admitted center blocks
        a run; the widened run found by binary search is trimmed at both ends
        to the points the squared distance decides.
        """
        sep = self.base_radius(t)
        sep2 = sep * sep
        wide = sep * (1.0 + kernels.TIE_RTOL)
        xs, rank = self._lists
        blocked = bytearray(len(xs))  # by rank
        chosen = []
        for cand in order.tolist():
            r = rank[cand]
            if blocked[r]:
                continue
            chosen.append(cand)
            c = xs[r]

            def near(y):
                return (y - c) * (y - c) < sep2

            lo = bisect_left(xs, c - wide, 0, r)
            if not near(xs[lo]):  # the widening let in points at the separation or beyond
                lo = bisect_left(xs, True, lo, r, key=near)
            hi = bisect_right(xs, c + wide, r + 1)
            if hi > r + 1 and not near(xs[hi - 1]):
                hi = bisect_left(xs, True, r + 1, hi, key=lambda y: not near(y))
            blocked[lo:hi] = b"\x01" * (hi - lo)
        return np.asarray(chosen, dtype=np.int64)

    def nearest(self, query_ids: np.ndarray, centers: np.ndarray):
        """``kernels.nearest_center_coords``: the least ``(x - c)**2``, ties to the
        lowest center row.

        Centers at one coordinate collapse to their lowest row. The least
        squared distance is that of the predecessor or the successor
        coordinate; a third coordinate ties with them only where rounding
        makes two differences equal, and such a query is decided over all
        centers.
        """
        cx = self.coords[centers, 0]
        by_x = np.argsort(cx, kind="stable")
        sx = cx[by_x]
        distinct = np.concatenate([[True], sx[1:] != sx[:-1]])
        ux, urow = sx[distinct], by_x[distinct]  # each coordinate's lowest row
        q = self.coords[query_ids, 0]
        pos = np.searchsorted(ux, q, side="right")
        last = ux.size - 1

        def dsq(at):
            diff = q - ux[np.clip(at, 0, last)]
            return diff * diff

        left, right = dsq(pos - 1), dsq(pos)
        best = np.minimum(left, right)
        pred, succ = urow[np.maximum(pos - 1, 0)], urow[np.minimum(pos, last)]
        idx = np.where(left < right, pred,
                       np.where(right < left, succ, np.minimum(pred, succ)))
        tied = ((pos >= 2) & (dsq(pos - 2) == best)) | ((pos < last) & (dsq(pos + 1) == best))
        for i in np.flatnonzero(tied):
            diff = q[i] - ux
            idx[i] = urow[diff * diff == best[i]].min()
        return idx, self.descriptor.transform(np.sqrt(best))

    # the nearest center of every point: a line has no pair query to restrict it
    nearest_within = _Index.nearest_within

    def closest_pair(self, ids: np.ndarray):
        """The least distance is between neighbours in sorted order. The first
        pair at it in (i, j) order starts at the least position i in any such
        neighbour pair; j is i's first partner at that distance."""
        by_x = np.argsort(self.rank[ids])
        d = self.pairs(ids[by_x[:-1]], ids[by_x[1:]])
        least = d.min()
        tied = np.flatnonzero(d == least)
        i = int(min(by_x[tied].min(), by_x[tied + 1].min()))
        partner = self.pairs(ids[i], ids) == least
        partner[i] = False
        return float(least), (int(ids[i]), int(ids[np.argmax(partner)]))

    def diameter(self, ids: np.ndarray) -> float:
        x = self.coords[ids, 0]
        return float(self.descriptor.transform(float(x.max() - x.min())))

    def run_diameters(self, ids: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """One pass: max - min of each run."""
        x = self.coords[ids[:bounds[-1]], 0]
        return self._runs_by_key(
            bounds, lambda starts: np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts),
            lambda span: float(self.descriptor.transform(float(span))))

    def min_gap(self) -> float:
        # between sorted neighbours, skipping repeated points
        distinct = np.flatnonzero(self.sorted[1:] != self.sorted[:-1])
        if distinct.size == 0:
            return float("inf")
        return float(self.pairs(self.order[distinct], self.order[distinct + 1]).min())


class MatrixIndex(_Index):
    """A space given by its distance matrix.

    ``matrix``, the stored one put through the descriptor's power and scale,
    is computed once per space on first use; rows are read-only views of it.
    A diameter or the least gap is the transform of one stored entry.
    """

    def __init__(self, space: "MetricSpace"):
        super().__init__(space)
        self.stored = space._matrix

    @cached_property
    def matrix(self) -> np.ndarray:
        # a view, so that the flag below leaves the stored matrix writeable
        out = self.descriptor.transform(self.stored.view())
        out.flags.writeable = False
        return out

    def pairs(self, a, b) -> np.ndarray:
        return self.matrix[a, b]

    def ball(self, x, r) -> np.ndarray:
        return np.flatnonzero(self.matrix[x] < r).astype(np.int64)

    def net(self, order: np.ndarray, t: float) -> np.ndarray:
        return kernels.greedy_net_matrix(self.matrix, order, t)

    def nearest(self, query_ids: np.ndarray, centers: np.ndarray):
        return kernels.nearest_center_matrix(self.matrix, query_ids, centers)

    def closest_pair(self, ids: np.ndarray):
        best, witness = float("inf"), None
        for i, c in enumerate(ids[:-1]):
            row = self.matrix[c, ids[i + 1:]]
            j = int(np.argmin(row))
            if row[j] < best:
                best = float(row[j])
                witness = (int(c), int(ids[i + 1 + j]))
        return best, witness

    def diameter(self, ids: np.ndarray) -> float:
        return float(self.descriptor.transform(self.stored[np.ix_(ids, ids)].max()))

    def min_gap(self) -> float:
        m = self.stored + np.diag(np.full(self.ids.size, np.inf))
        return float(self.descriptor.transform(float(m.min())))


class MetricSpace:
    """Immutable finite metric space with id-indexed points; ``index`` answers
    its distance questions, and the methods here check and pass them on."""

    def __init__(self, descriptor, coords=None, strings=None, matrix=None):
        self.descriptor = descriptor
        self.coords = None  # the payload of the space's kind; the others stay None
        self._codes = None
        self.strings = None
        self._matrix = None
        self._diam = None
        self._min_gap = None

        kind = descriptor.kind
        if kind in ("euclidean", "snowflake"):
            if coords is None:
                raise InvalidArgumentError(f"{kind} metric needs coordinate payloads")
            c = np.asarray(coords, dtype=np.float64)
            if c.ndim == 1:
                c = c[:, None]
            if c.ndim != 2 or c.shape[0] == 0:
                raise InvalidArgumentError("coordinates must be a non-empty 2d array")
            if not np.isfinite(c).all():
                raise InvalidArgumentError("coordinates must be finite")
            self.coords = np.ascontiguousarray(c)
            self.n = c.shape[0]
            self._index_type = LineIndex if c.shape[1] == 1 else CoordIndex
        elif kind == "ultrametric":
            if not strings:
                raise InvalidArgumentError("ultrametric metric needs string payloads")
            length = len(strings[0])
            if any(len(s) != length for s in strings):
                raise InvalidArgumentError("ultrametric strings must share one length")
            # one code point per column; a zero column stands in for empty strings
            codes = np.zeros((len(strings), max(length, 1)), dtype=np.uint32)
            codes[:, :length] = np.frombuffer("".join(strings).encode("utf-32-le"),
                                              dtype=np.uint32).reshape(len(strings), length)
            self.strings = list(strings)
            self._codes = codes
            self.n = len(strings)
            self._index_type = PrefixIndex
        else:  # matrix; the descriptor admits no other kind
            m = np.asarray(matrix, dtype=np.float64)
            if not np.isfinite(m).all():
                raise InvalidArgumentError("distance matrix entries must be finite")
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
                raise InvalidArgumentError("matrix metric needs a square distance matrix")
            if not np.array_equal(m, m.T):
                raise InvalidArgumentError("distance matrix must be symmetric")
            if np.any(np.diag(m) != 0.0):
                raise InvalidArgumentError("distance matrix diagonal must be zero")
            if np.count_nonzero(m <= 0.0) != m.shape[0]:  # the zero diagonal alone
                raise InvalidArgumentError("off-diagonal distances must be positive")
            self._matrix = m
            self.n = m.shape[0]
            self._index_type = MatrixIndex
        self.ids = np.arange(self.n, dtype=np.int64)

    @cached_property
    def index(self) -> _Index:
        """The distance index of this space's metric kind, built on first use."""
        return self._index_type(self)

    def _check_id(self, p):
        if not (0 <= p < self.n):
            raise InvalidArgumentError(f"unknown point id {p} (n={self.n})")

    # -- distances ----------------------------------------------------------

    def row(self, p) -> np.ndarray:
        """Distances from p to every point, as a length-n vector (do not write it)."""
        self._check_id(p)
        return self.index.row(p)

    def pair_distances(self, a, b) -> np.ndarray:
        """d(a[i], b[i]) for paired id arrays; elementwise equal to ``distance``."""
        return self.index.pairs(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))

    def distance_matrix(self) -> np.ndarray:
        """Dense n x n distance matrix, one ``row()`` per point; nothing is cached."""
        out = np.empty((self.n, self.n), dtype=np.float64)
        for p in range(self.n):
            out[p] = self.row(p)
        return out

    def distance(self, p, q) -> float:
        """d(p, q) per the descriptor; symmetric, zero iff the stored points coincide."""
        self._check_id(p)
        self._check_id(q)
        if p == q:
            return 0.0
        return float(self.pair_distances([p], [q])[0])

    # -- balls and diameters --------------------------------------------------

    def ball_members(self, x, r) -> np.ndarray:
        """Ids q with d(x, q) < r (strict), ascending. Includes x for r > 0."""
        self._check_id(x)
        if r <= 0:
            raise InvalidArgumentError("ball radius must be positive")
        return self.index.ball(x, r)

    def diameter(self, subset=None) -> float:
        """Max pairwise distance over the subset (whole space by default)."""
        if subset is None:
            if self._diam is None:
                self._diam = self.diameter(self.ids)
            return self._diam
        ids = np.asarray(subset, dtype=np.int64)
        if ids.size == 0:
            raise InvalidArgumentError("diameter of an empty subset")
        if ids.size == 1:
            return 0.0
        return self.index.diameter(ids)

    def run_diameters(self, ids, bounds) -> np.ndarray:
        """Diameter of each run ``ids[bounds[i]:bounds[i + 1]]``, bit for bit that of
        ``diameter()``; 0.0 for an empty run. See the index of each kind for how."""
        return self.index.run_diameters(np.asarray(ids, dtype=np.int64),
                                        np.asarray(bounds, dtype=np.int64))

    def min_positive_distance(self) -> float:
        """Smallest distance between two distinct points; inf when there are none.

        Repeated points are not distinct. The result is 0.0 only when the
        least gap underflows.
        """
        if self._min_gap is None:
            self._min_gap = float("inf") if self.n == 1 else self.index.min_gap()
        return self._min_gap

    # -- derived spaces -------------------------------------------------------

    def rescaled(self, factor) -> "MetricSpace":
        """Same points, metric multiplied by factor."""
        if factor <= 0:
            raise InvalidArgumentError("scale factor must be positive")
        d = self.descriptor
        new_desc = MetricDescriptor(d.kind, d.epsilon, d.arity, d.base, d.scale * factor)
        return self._clone(new_desc)

    def snowflaked(self, epsilon) -> "MetricSpace":
        """Same points, metric d^epsilon. Scale is re-applied after the power."""
        if not (0.0 < epsilon <= 1.0):
            raise InvalidArgumentError("snowflake epsilon must be in (0, 1]")
        d = self.descriptor
        kind = "snowflake" if d.kind in ("euclidean", "snowflake") else d.kind
        new_desc = MetricDescriptor(kind, d.epsilon * epsilon, d.arity, d.base,
                                    d.scale ** epsilon)
        return self._clone(new_desc)

    def normalized(self, target=1.0 - 1e-9) -> "MetricSpace":
        """Rescale so the diameter equals target (no-op for singletons)."""
        diam = self.diameter()
        if diam == 0.0:
            return self
        return self.rescaled(target / diam)

    def _clone(self, desc) -> "MetricSpace":
        # the constructor takes the payload of desc's kind and ignores the others
        return MetricSpace(desc, coords=self.coords, strings=self.strings,
                           matrix=self._matrix)

    # -- doubling ------------------------------------------------------------

    def estimate_doubling(self, sample_count=32, rng_seed=0) -> DoublingEstimate:
        """Greedy estimate of the doubling constant over sampled (x, r) pairs.

        Each sample greedily covers ball(x, 2r) with radius-r balls centered
        at member points; the estimate is the running maximum, so it is
        monotone in sample_count for a fixed seed.
        """
        if sample_count < 1:
            raise InvalidArgumentError("sample_count must be >= 1")
        gap = self.min_positive_distance()
        if gap == float("inf"):  # one point, perhaps repeated
            return DoublingEstimate(1, sample_count)
        rng = np.random.default_rng(rng_seed)
        diam = self.diameter()
        lo, hi = np.log(max(gap, 1e-300)), np.log(max(diam / 2.0, gap * 2.0))
        best = 1
        for _ in range(sample_count):
            x = int(rng.integers(self.n))
            r = float(np.exp(rng.uniform(lo, hi)))
            # r-balls centred at uncovered members in id order: the greedy r-net
            members = self.ball_members(x, 2.0 * r)
            best = max(best, self.index.net(members, r).size)
        return DoublingEstimate(best, sample_count)


# -- points files --------------------------------------------------------


def load_points(path) -> MetricSpace:
    """Read a points JSON document and validate it into a MetricSpace."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PointsFileError(f"cannot parse points file {path}: {exc}") from exc
    return space_from_json(doc)


def space_from_json(doc) -> MetricSpace:
    if not isinstance(doc, dict) or "metric" not in doc:
        raise PointsFileError("points document must be an object with a 'metric' field")
    m = doc["metric"]
    kind = m.get("kind")
    if kind not in _KINDS:
        raise PointsFileError(f"field 'metric.kind': unknown kind {kind!r}")
    try:
        desc = MetricDescriptor.from_json(m)
        if kind == "matrix":
            tri = m.get("matrix")
            if tri is None:
                raise PointsFileError("field 'metric.matrix': missing for matrix kind")
            space = MetricSpace(desc, matrix=_matrix_from_lower_triangular(tri))
            _spot_check_triangle(space)
            return space
        pts = doc.get("points")
        if not pts:
            raise PointsFileError("field 'points': empty or missing")
        if kind == "ultrametric":
            return MetricSpace(desc, strings=[str(s) for s in pts])
        return MetricSpace(desc, coords=np.asarray(pts, dtype=np.float64))
    except KeyError as exc:
        raise PointsFileError(f"field 'metric.{exc.args[0]}': missing") from exc
    except (TypeError, ValueError, InvalidArgumentError) as exc:
        raise PointsFileError(f"invalid points document: {exc}") from exc


def _matrix_from_lower_triangular(tri):
    # solve k(k-1)/2 = len for k
    n = int((1 + np.sqrt(1 + 8 * len(tri))) / 2)
    if n * (n - 1) // 2 != len(tri):
        raise PointsFileError("field 'metric.matrix': length is not a triangular number")
    # float() per entry refuses what a JSON number list should not hold
    values = np.fromiter(map(float, tri), dtype=np.float64, count=len(tri))
    full = np.zeros((n, n), dtype=np.float64)
    lower = np.tri(n, k=-1, dtype=bool)  # (i, j) for i > j, row by row as in the file
    full[lower] = values
    full.T[lower] = values  # the mirror entries, in the same order
    return full


def _spot_check_triangle(space):
    """Probabilistic triangle-inequality check for matrix-supplied metrics:
    10,000 seeded random triples."""
    if space.n < 3:
        return
    rng = np.random.default_rng(0)
    m = space._matrix
    idx = rng.integers(space.n, size=(10000, 3))
    p, q, s = idx[:, 0], idx[:, 1], idx[:, 2]
    bad = m[p, q] > m[p, s] + m[s, q] + 1e-12 * np.maximum(m[p, q], 1.0)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise PointsFileError(
            f"triangle inequality fails for triple ({p[i]}, {q[i]}, {s[i]})")


def save_points(space: MetricSpace, path) -> None:
    doc = {"metric": space.descriptor.to_json()}
    kind = space.descriptor.kind
    if kind in ("euclidean", "snowflake"):
        doc["points"] = [[float(v) for v in row] for row in space.coords]
    elif kind == "ultrametric":
        doc["points"] = list(space.strings)
    else:
        # (i, j) for i > j, row by row
        doc["metric"]["matrix"] = space._matrix[np.tri(space.n, k=-1, dtype=bool)].tolist()
        doc["points"] = list(range(space.n))
    # json.dumps runs the C encoder; json.dump streams through the Python one
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
