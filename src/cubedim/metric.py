"""Finite metric spaces: distances, balls, diameters, doubling estimates.

A space is a list of points with contiguous integer ids plus a metric
descriptor. Supported metrics: euclidean coordinates, an explicit distance
matrix, snowflaked variants (d^epsilon), and the longest-common-prefix
ultrametric on symbol strings. Every set in the package (subsets, balls,
cubes) is an id array over one of these spaces.

Each space answers its distance questions through one index of its kind,
built on first use: ``LineIndex`` (1-D coordinates), ``CoordIndex``
(coordinates in two or more dimensions, read off the NumPy cells of one
``kernels.CellIndex``, which the space's rescaled and snowflaked clones
share with it, as they share its largest squared distance),
``PrefixIndex`` (over the sorted strings, which the clones share too) or
``MatrixIndex``. They share one set of methods, so no caller tests the
metric kind; where one index answers a question in its own way, callers
ask for that by the method's name (``ball_run``). Each has one range query,
``balls``, which single balls and the inner-ball check (``inner_balls``)
read, and one greedy cover, ``cover_runs``: the shared ball loop, which the
line and the ultrametric read as runs of their ranks instead. A block that
must grow grows by the one rule, ``grow``. ``MetricSpace.subset`` checks
every id set handed to the package. Nothing here imports SciPy.
"""

from __future__ import annotations

import copy
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import kernels
from .errors import InvalidArgumentError, PointsFileError

_KINDS = ("euclidean", "matrix", "snowflake", "ultrametric")
_BLOCK = 128  # rows of differences held at once: 128 x m x dim floats, not m x m x dim
_PAIRS = 1 << 16  # pairs of a level's small cubes whose squared distances are held at once
_CHUNK = 1 << 10  # scan positions of a line net whose blocked marks one gather reads


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
        """The descriptor ``to_json`` wrote; an ultrametric must give its arity and
        base. No field is converted (``_json_number``)."""
        kind = m.get("kind")
        ultra = kind == "ultrametric"
        return cls(kind, epsilon=_json_number(m, "epsilon", 1.0),
                   arity=_json_number(m, "arity", integer=True) if ultra else 0,
                   base=_json_number(m, "base") if ultra else 0.0,
                   scale=_json_number(m, "scale", 1.0))

    def transform(self, base):
        """A base distance (Euclidean, stored, or ``base ** lcp``) put through the
        snowflake power and the scale, elementwise. A scalar takes the same
        ``np.power`` as an array, so a value rounds alike either way."""
        if self.epsilon != 1.0:
            base = np.power(base, self.epsilon)
        if self.scale != 1.0:
            base = base * self.scale
        return base


def _json_number(m: dict, key: str, default=None, integer=False):
    """``m[key]`` (``default`` if absent) as a float, or an int if ``integer``;
    any other JSON value, a bool among them, raises ``InvalidArgumentError``."""
    value = m.get(key, default) if default is not None else m[key]
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise InvalidArgumentError(f"metric {key} {value!r} is not "
                                   f"{'an integer' if integer else 'a number'}")
    return value if integer else float(value)


@dataclass
class DoublingEstimate:
    """Empirical doubling constant: max greedy count of r-balls covering a 2r-ball."""

    C_d_hat: int
    samples_used: int


class _Index:
    """What the indexes of the metric kinds share. Ids arrive checked,
    as int64 arrays; a subset handed to ``diameter`` has two ids or more.
    Every index's ``balls(centers, r)`` gives the pairs (i, q) with
    d(centers[i], q) < r as (owner, members), grouped by ascending owner i:
    a family build reads each ball's members off its group."""

    def __init__(self, space: "MetricSpace"):
        # parts of the space, not the space: it holds this index, and a cycle delays freeing both
        self.descriptor = space.descriptor
        self.ids = space.ids

    def row(self, p) -> np.ndarray:
        return self.pairs(p, slice(None))

    def _whole(self, ids: np.ndarray) -> bool:
        """Whether ``ids`` lists every point, in order."""
        return ids is self.ids or (ids.size == self.ids.size and np.array_equal(ids, self.ids))

    @cached_property
    def least_gap(self) -> float:
        """``min_gap``: the least distance between distinct points, inf with none."""
        return self.min_gap()

    def ball(self, x, r) -> np.ndarray:
        """Ids q with d(x, q) < r, ascending: the members of ``balls([x], r)``."""
        members = self.balls(np.array([x], dtype=np.int64), r)[1]
        members.sort()
        return members

    def inner_balls(self, centers: np.ndarray, r: float):
        """``balls``: the pairs (i, q) with d(centers[i], q) < r, for the inner-ball check."""
        return self.balls(centers, r)

    def run_farthest(self, ids: np.ndarray, bounds: np.ndarray,
                     centers: np.ndarray) -> np.ndarray:
        """Each run's largest distance from its center, ``centers[i]`` for the run
        ``ids[bounds[i]:bounds[i + 1]]``, to a member; 0.0 for an empty run. Here
        one ``pairs`` call over every member."""
        sizes = np.diff(bounds)
        filled = np.flatnonzero(sizes)  # reduceat needs non-empty runs
        out = np.zeros(sizes.size)
        d = self.pairs(np.repeat(centers, sizes), ids[:bounds[-1]])
        out[filled] = np.maximum.reduceat(d, bounds[filled])
        return out

    def cover_runs(self, ids: np.ndarray, r: float):
        """The blocks of ``covering.greedy_cover_count`` over ``ids`` as (members,
        bounds), block i being ``members[bounds[i]:bounds[i + 1]]``, ascending and
        in the order taken. Each start is the least uncovered id. Its near set,
        its uncovered ids within r, is its closed ball at ``nextafter(r)``, taken
        whole at diameter <= r, as growing would admit all of it, and grown
        (``grow``) otherwise. If diam(ids) <= r there is one block."""
        if ids.size == 1 or self.diameter(ids) <= r:
            members = kernels.distinct(ids)
            return members, np.array([0, members.size])
        live = np.zeros(self.ids.size, dtype=bool)
        live[ids] = True
        closed = np.nextafter(r, np.inf)
        blocks = []
        for start in np.flatnonzero(live):
            if not live[start]:
                continue
            ball = self.ball(start, closed)
            near = ball[live[ball]]
            block = (near if near.size == 1 or self.diameter(near) <= r
                     else self.grow(start, near, r))
            live[block] = False
            blocks.append(block)
        sizes = [block.size for block in blocks]
        return np.concatenate(blocks), np.cumsum([0, *sizes])

    def grow(self, start, candidates: np.ndarray, r: float) -> np.ndarray:
        """The diameter-<=r set grown from ``start`` over ``candidates``, ascending:
        candidates come by ascending (distance from start, id), and each is taken
        iff it is within r of every one taken before it."""
        row_start = self.pairs(start, candidates)
        order = np.lexsort((candidates, row_start))
        maxd = row_start.copy()  # running max distance from each candidate to the set
        chosen = [int(start)]
        for pos in order:
            cand = int(candidates[pos])
            if cand == start:
                continue
            if maxd[pos] <= r:
                chosen.append(cand)
                np.maximum(maxd, self.pairs(cand, candidates), out=maxd)
        return np.asarray(sorted(chosen), dtype=np.int64)

    def least_positive(self, ids: np.ndarray, among: np.ndarray) -> np.ndarray:
        """Each id's least positive distance to the ids ``among``, NaN where it has
        none; here the least over each id's row."""
        out = np.full(ids.size, np.nan)
        for i, p in enumerate(ids):
            d = self.row(p)[among]
            d = d[d > 0]
            if d.size:
                out[i] = d.min()
        return out


class _SortedIndex(_Index):
    """An index over one sorted order of the ids: ``order`` lists them by
    rank and ``rank`` inverts it. For ranks a < b < c, d(a, b) and d(b, c)
    are at most d(a, c). So a set's diameter is the distance between its
    least and greatest rank, its farthest member from a point is one of
    those two, and its least distance is between neighbours in rank; all
    are read from ``pairs``, as every distance is. A ball is one run of
    ranks, and ``ball_run`` gives its bounds.
    """

    def diameter(self, ids: np.ndarray) -> float:
        """The distance between the least and greatest rank; the ends of ``order`` for all ids."""
        if self._whole(ids):
            return float(self.pairs(self.order[:1], self.order[-1:])[0])
        return float(self.run_diameters(ids, np.array([0, ids.size]))[0])

    def _run_ends(self, ids: np.ndarray, bounds: np.ndarray):
        """The non-empty runs, and the ids of least and greatest rank in each."""
        ranks = self.rank[ids[:bounds[-1]]]
        filled = np.flatnonzero(np.diff(bounds))  # reduceat needs non-empty runs
        starts = bounds[filled]
        return (filled, self.order[np.minimum.reduceat(ranks, starts)],
                self.order[np.maximum.reduceat(ranks, starts)])

    def run_diameters(self, ids: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """One ``pairs`` call over each run's least and greatest rank."""
        filled, least, greatest = self._run_ends(ids, bounds)
        out = np.zeros(bounds.size - 1)
        out[filled] = self.pairs(least, greatest)
        return out

    def run_farthest(self, ids: np.ndarray, bounds: np.ndarray,
                     centers: np.ndarray) -> np.ndarray:
        """Two ``pairs`` calls, from each center to its run's least and greatest
        rank: a member ranked above the center is no farther from it than the
        greatest rank, and one ranked below no farther than the least."""
        filled, least, greatest = self._run_ends(ids, bounds)
        out = np.zeros(bounds.size - 1)
        c = centers[filled]
        out[filled] = np.maximum(self.pairs(c, least), self.pairs(c, greatest))
        return out

    def _members(self, lo: np.ndarray, hi: np.ndarray):
        """(owner, members): the pairs (i, order[q]) for the ranks q in lo[i]..hi[i]-1."""
        sizes = hi - lo
        owner = np.repeat(np.arange(lo.size), sizes)
        return owner, self.order[np.arange(owner.size) + (lo - np.cumsum(sizes) + sizes)[owner]]

    def closest_pair(self, ids: np.ndarray):
        """(least d over pairs i < j of ``ids``, (ids[i], ids[j])) for the first such
        pair in (i, j) order. The ranks between a pair at the least distance
        are joined by neighbour pairs at it, so the first pair starts at the
        least position i in any tied neighbour pair; j is i's first partner
        at that distance."""
        by_rank = np.argsort(self.rank[ids])
        d = self.pairs(ids[by_rank[:-1]], ids[by_rank[1:]])
        least = d.min()
        tied = np.flatnonzero(d == least)
        i = int(min(by_rank[tied].min(), by_rank[tied + 1].min()))
        partner = self.pairs(ids[i], ids) == least
        partner[i] = False
        return float(least), (int(ids[i]), int(ids[np.argmax(partner)]))

    def least_positive(self, ids: np.ndarray, among: np.ndarray) -> np.ndarray:
        """Each id's least positive distance to the ids ``among``, NaN where it has
        none. Distances from p do not fall as ranks move away from p's, so the
        least positive one on each side is to the nearest rank of ``among`` at a
        positive distance; a bisection over ``among``'s ranks finds it."""
        ranks = kernels.distinct(self.rank[among])
        cand = self.order[ranks]
        out = np.full(ids.size, np.nan)
        for seq, start in ((cand, np.searchsorted(ranks, self.rank[ids], side="right")),
                           (cand[::-1], cand.size - np.searchsorted(ranks, self.rank[ids]))):
            lo, hi = start, np.full(ids.size, cand.size)
            while np.any(lo < hi):  # the first position of seq from start at d > 0
                at = np.flatnonzero(lo < hi)
                mid = (lo[at] + hi[at]) // 2
                positive = self.pairs(ids[at], seq[mid]) > 0
                hi[at[positive]] = mid[positive]
                lo[at[~positive]] = mid[~positive] + 1
            found = lo < cand.size
            out[found] = np.fmin(out[found], self.pairs(ids[found], seq[lo[found]]))
        return out


class _PrefixBase:
    """What an ultrametric space shares with its rescaled and snowflaked
    clones, none of it read through the descriptor: the strings' code
    points, one column each, and, set by the first ``PrefixIndex`` over
    them, their sorted order, its inverse and adjacent lcps (``sorted``),
    and the prefix runs of each length (``runs``)."""

    def __init__(self, codes: np.ndarray):
        self.codes = codes
        self.sorted = None
        self.runs = {}


class PrefixIndex(_SortedIndex):
    """The strings of an ultrametric space, sorted once.

    ``dist[L]`` is the distance between two strings whose longest common
    prefix (lcp) has length L; its last entry, for equal strings, is 0. The
    strings sharing a length-L prefix form one run of consecutive ranks, and
    the lcp of two strings is the least adjacent lcp between their ranks.
    Since ``dist`` is non-increasing (checked here), d(p, q) < t exactly
    when p and q share a prefix of length ``level(t)``. Nets, nearest
    centers and balls are read off the sorted order with no n x n matrix
    and no per-center scan: every ball is one prefix run, so the balls of
    many centers (``balls``) and the greedy cover's blocks (``cover_runs``)
    are each one array pass over the runs. The order, the adjacent lcps and
    the runs do not read the descriptor, and the space's rescaled and
    snowflaked clones share them (``_PrefixBase``).
    """

    def __init__(self, space: "MetricSpace"):
        super().__init__(space)
        shared = space._base
        self.codes = codes = shared.codes
        length = codes.shape[1]
        base = np.power(space.descriptor.base, np.arange(length + 1).astype(np.float64))
        base[length] = 0.0
        self.dist = space.descriptor.transform(base)
        if np.any(self.dist[1:] > self.dist[:-1]):
            raise InvalidArgumentError("ultrametric distances must not grow with the "
                                       "common prefix length")
        self._neg_dist = -self.dist  # ascending, for searchsorted
        if shared.sorted is None:
            n = codes.shape[0]
            order = np.lexsort(codes.T[::-1])
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.arange(n)
            shared.sorted = order, rank, self.lcp(order[:-1], order[1:])
        self.order, self.rank, self.adjacent = shared.sorted
        self._runs = shared.runs

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

    def pairs(self, a, b) -> np.ndarray:
        return self.dist[self.lcp(a, b)]

    def ball_run(self, xs: np.ndarray, r: np.ndarray):
        """The ranks lo[i]..hi[i]-1 of the ids q with d(xs[i], q) < r[i]: the run
        of xs[i]'s prefix of length ``level(r[i])``."""
        levels = np.searchsorted(self._neg_dist, -r, side="right")  # level()
        rx = self.rank[xs]
        lo, hi = np.empty_like(levels), np.empty_like(levels)
        for L in kernels.distinct(levels).tolist():
            runs = self.runs(L)
            at = levels == L
            run = runs[rx[at]]
            lo[at], hi[at] = np.searchsorted(runs, [run, run + 1])
        return lo, hi

    def balls(self, centers: np.ndarray, r: float):
        """(owner, members): the pairs (i, q) with d(centers[i], q) < r, each
        center's prefix run at ``level(r)``."""
        runs = self.runs(self.level(r))
        run = runs[self.rank[centers]]
        return self._members(np.searchsorted(runs, run), np.searchsorted(runs, run + 1))

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
        for L in kernels.distinct(tie_level):
            runs = self.runs(int(L))
            lowest = np.full(int(runs[-1]) + 1, k, dtype=np.int64)
            np.minimum.at(lowest, runs[center_rank], np.arange(k))
            sel = tie_level == L
            idx[sel] = lowest[runs[query_rank[sel]]]
        return idx, dist

    def cover_runs(self, ids: np.ndarray, r: float):
        """The blocks of ``covering.greedy_cover_count`` over ``ids``, in rank
        order, as (members, bounds): the distinct ``ids`` by rank and the
        bounds of their runs, block i being ``members[bounds[i]:bounds[i + 1]]``.
        Each id's closed r-ball
        is its run at ``level(nextafter(r))``, of diameter at most r, so the
        greedy takes every block whole, as the ids of one run."""
        live = np.zeros(self.rank.size, dtype=bool)
        live[ids] = True
        ranks = np.flatnonzero(live[self.order])
        run = self.runs(self.level(np.nextafter(r, np.inf)))[ranks]
        return self.order[ranks], np.flatnonzero(np.diff(run, prepend=-1, append=run[-1] + 1))

    def min_gap(self) -> float:
        # the longest common prefix of two distinct strings is between neighbours
        lcps = self.adjacent[self.adjacent < self.codes.shape[1]]
        return float(self.dist[lcps.max()]) if lcps.size else float("inf")


def _farthest_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row of ``a``'s largest squared distance to a row of ``b``, by blocks of rows."""
    return np.concatenate([kernels.square_sums(a[start:start + _BLOCK, None, :], b).max(axis=1)
                           for start in range(0, len(a), _BLOCK)])


def _grouped_diameters(ids: np.ndarray, bounds: np.ndarray, blocks, diameter) -> np.ndarray:
    """Each run ``ids[bounds[i]:bounds[i + 1]]``'s diameter, 0.0 below two ids.
    The runs of 2 to ``_BLOCK`` ids go by size, ``_PAIRS`` pairs or so at a
    time: ``blocks`` takes an (runs, s) array of their ids and gives each row's
    diameter. A larger run is asked of ``diameter`` alone."""
    sizes = np.diff(bounds)
    out = np.zeros(sizes.size)
    for s in kernels.distinct(sizes[(sizes > 1) & (sizes <= _BLOCK)]).tolist():
        runs = np.flatnonzero(sizes == s)
        step = max(1, _PAIRS // (s * s))
        for start in range(0, runs.size, step):
            at = runs[start:start + step]
            out[at] = blocks(ids[bounds[at, None] + np.arange(s)])
    for i in np.flatnonzero(sizes > _BLOCK).tolist():
        out[i] = diameter(ids[bounds[i]:bounds[i + 1]])
    return out


def _reaching(pts: np.ndarray, block: np.ndarray, low: float) -> np.ndarray:
    """The points of ``pts`` whose distance from the centre of ``block``'s bounding box,
    plus the largest such distance in ``block``, reaches ``low`` up to a relative 1e-9,
    far above rounding: by the triangle inequality, no other is ``low`` from ``block``."""
    mid = block.min(axis=0) / 2.0 + block.max(axis=0) / 2.0
    span = np.sqrt(kernels.squared_distances(block, mid).max())
    return pts[np.sqrt(kernels.squared_distances(pts, mid)) + span >= low * (1.0 - 1e-9)]


def _farthest_pair_sq(pts: np.ndarray, keys: np.ndarray) -> float:
    """The largest squared difference over the pairs of ``pts`` that may reach it.
    Above one block, only points ``_reaching`` the attained ``low`` stay. In the
    order of their cell ``keys`` a block of rows holds nearby points: each is
    scanned against the points ``_reaching`` the largest distance so far."""
    if len(pts) <= _BLOCK:
        return float(_farthest_sq(pts, pts).max())
    end = pts[kernels.squared_distances(pts, pts[0]).argmax()]
    low = np.sqrt(kernels.squared_distances(pts, end).max())
    pts = _reaching(pts[np.argsort(keys, kind="stable")], pts, low)
    best = 0.0
    for start in range(0, len(pts), _BLOCK):
        block = pts[start:start + _BLOCK]
        partners = _reaching(pts, block, max(low, np.sqrt(best)))
        if partners.size:
            best = max(best, float(_farthest_sq(block, partners).max()))
    return best


class _CoordBase:
    """What a coordinate space shares with its rescaled and snowflaked clones,
    all in the base (Euclidean) metric and each computed on first use: the
    cell index over its points and their largest squared distance."""

    def __init__(self, coords: np.ndarray):
        self.coords = coords

    @cached_property
    def cells(self) -> kernels.CellIndex:
        return kernels.CellIndex(self.coords)

    @cached_property
    def farthest_sq(self) -> float:
        return _farthest_pair_sq(self.coords, self.cells.key)

    @cached_property
    def lowest_at_place(self) -> np.ndarray:
        """Each point's lowest id among the points at its place."""
        by_place = np.lexsort(self.coords.T[::-1])  # stable: one place's ids ascend
        pts = self.coords[by_place]
        new = np.concatenate([[True], np.any(pts[1:] != pts[:-1], axis=1)])
        out = np.empty(by_place.size, dtype=np.int64)
        out[by_place] = by_place[np.flatnonzero(new)][np.cumsum(new) - 1]
        return out


class CoordIndex(_Index):
    """The points of a coordinate space (euclidean or snowflake) in two or more
    dimensions; ``LineIndex`` serves one dimension.

    A distance is the Euclidean one put through the descriptor's monotone
    power and scale, so a radius is asked of the cells at ``base_radius``.
    Balls, nets and the blocks of a diameter read one ``kernels.CellIndex``
    over all points, shared with the space's clones; nearest centers, the
    closest pair and least positive distances read one over the points they
    search (the shared one when that is every point). Every candidate is
    decided exactly, by ``pairs`` or by squared distances.
    """

    def __init__(self, space: "MetricSpace"):
        super().__init__(space)
        self.coords = space.coords
        self.base = space._base

    @property
    def cells(self) -> kernels.CellIndex:
        return self.base.cells

    def base_radius(self, r) -> float:
        """Base-metric radius whose transformed value is r."""
        d = self.descriptor
        base = r / d.scale
        if d.epsilon != 1.0:
            base = base ** (1.0 / d.epsilon)
        return base

    def pairs(self, a, b) -> np.ndarray:
        """d(a, b) over ids or id arrays; ``b`` may be ``slice(None)``, every point."""
        return self.descriptor.transform(np.sqrt(kernels.square_sums(self.coords[b],
                                                                     self.coords[a])))

    def balls(self, centers: np.ndarray, r: float):
        """(owner, members): the pairs (i, q) with d(centers[i], q) < r: the cells'
        pairs within the base radius widened by ``kernels.TIE_RTOL``, each kept
        by the squared difference that ``pairs`` takes too."""
        owner, members = [], []
        for qi, rows, dsq in self.cells.within(
                self.coords[centers], self.base_radius(r) * (1.0 + kernels.TIE_RTOL)):
            near = self.descriptor.transform(np.sqrt(dsq)) < r
            owner.append(qi[near])
            members.append(rows[near])
        return np.concatenate(owner), np.concatenate(members)

    def net(self, order: np.ndarray, t: float) -> np.ndarray:
        """``kernels.greedy_net_coords`` at the base radius of ``t`` (rows while
        each admitted point blocks a fair share of the scan, then cells), unless
        no two distinct places are nearer than ``t``. The kernel blocks a point
        iff its squared distance to an admitted one is below the squared base
        radius, so a separation below the least gap (``least_gap``, less
        ``kernels.TIE_RTOL`` for the roundings between the two domains) blocks
        only the points at an admitted point's place: the net is each place's
        first point in scan order, in scan order, with no kernel call. The gap
        is read only once known (``build_system`` and ``estimate_doubling`` ask
        for it before any net): on a 5-D lattice it costs more than the nets.
        At a squared base radius of 0 nothing is blocked and every point is
        admitted."""
        sep = self.base_radius(t)
        thr2 = sep * sep
        if thr2 == 0.0:
            return order.copy()
        gap = self.__dict__.get("least_gap", 0.0)  # the cached_property's value, once asked
        room = self.base_radius(gap / (1.0 + kernels.TIE_RTOL))
        if not thr2 < room * room:
            return kernels.greedy_net_coords(self.cells, order, sep)
        lowest = self.base.lowest_at_place
        if np.array_equal(lowest, self.ids):  # every place holds one point
            return order.copy()
        place = lowest[order]
        by_place = np.argsort(place, kind="stable")
        ranked = place[by_place]
        first = by_place[np.concatenate([[True], ranked[1:] != ranked[:-1]])[:place.size]]
        return order[np.sort(first)]

    def nearest(self, query_ids: np.ndarray, centers: np.ndarray):
        # every point a center: the shared cells are the centers' cells
        idx, base_d = kernels.nearest_center_coords(
            self.coords[query_ids], self.coords[centers],
            self.cells if self._whole(centers) else None)
        return idx, self.descriptor.transform(base_d)

    def inner_balls(self, centers: np.ndarray, r: float):
        """``balls``, but where every point is a center, in id order, no ball is
        asked: center p's is taken to hold p and the lowest id at p's place. That
        decides the inner-ball check as the balls do unless two points at
        distinct places lie nearer than r, as the centers of a net never do."""
        if not self._whole(centers):
            return self.balls(centers, r)
        lowest = self.base.lowest_at_place
        moved = np.flatnonzero(lowest != self.ids)
        return np.concatenate([self.ids, moved]), np.concatenate([self.ids, lowest[moved]])

    def _cells_of(self, ids: np.ndarray) -> kernels.CellIndex:
        """A cell index over the points ``ids``, its row i the point ids[i]: the
        shared one when ``ids`` lists every point."""
        return self.cells if self._whole(ids) else kernels.CellIndex(self.coords[ids])

    def closest_pair(self, ids: np.ndarray):
        """The least squared distance between neighbours in cell order bounds the
        least distance, and the cells give every pair within that bound (widened
        by a relative 1e-9, which holds every pair that ``pairs`` may round to
        the least distance). Of those pairs, the first position i of one at the
        least distance wins, with its first partner at it (which comes after i)."""
        cells = self._cells_of(ids)
        pts = cells.sorted_coords
        bound = float(kernels.squared_distances(pts[:-1], pts[1:]).min())
        a, b = (np.concatenate(side) for side in zip(
            *((a, b) for a, b, _ in cells.pairs_within(np.sqrt(bound) * (1.0 + 1e-9)))))
        first = np.minimum(a, b)
        d = self.pairs(ids[first], ids[np.maximum(a, b)])
        least = d.min()
        i = int(first[d == least].min())
        partner = self.pairs(ids[i], ids) == least
        partner[i] = False
        return float(least), (int(ids[i]), int(ids[np.argmax(partner)]))

    def least_positive(self, ids: np.ndarray, among: np.ndarray) -> np.ndarray:
        """Each id's least positive distance to the ids ``among``, NaN where it has
        none: ``pairs`` to its nearest point of ``among`` at a positive squared
        distance, which the cells around it find. Where that distance rounds to 0
        under the descriptor, the id's row decides."""
        rows, _ = self._cells_of(among).nearest(self.coords[ids], positive=True)
        out = np.full(ids.size, np.nan)
        found = rows >= 0
        out[found] = self.pairs(ids[found], among[rows[found]])
        zero = np.flatnonzero(out == 0.0)
        out[zero] = super().least_positive(ids[zero], among)
        return out

    def diameter(self, ids: np.ndarray) -> float:
        """The largest squared difference over the pairs that may reach it
        (``_farthest_pair_sq``), as a distance; the whole space's is shared."""
        if self._whole(ids):
            best = self.base.farthest_sq
        else:
            best = _farthest_pair_sq(self.coords[ids], self.cells.key[ids])
        return float(self.descriptor.transform(np.sqrt(best)))

    def run_diameters(self, ids: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """``_grouped_diameters``: a group of runs of s ids takes its largest
        squared differences over (runs, s, s) blocks, as ``diameter`` takes a
        block's, then ``sqrt`` and ``transform``."""
        def blocks(members):
            pts = self.coords[members]
            sq = kernels.square_sums(pts[:, :, None], pts[:, None]).max(axis=(1, 2))
            return self.descriptor.transform(np.sqrt(sq))
        return _grouped_diameters(ids, bounds, blocks, self.diameter)

    def min_gap(self) -> float:
        # one id per distinct point: repeated points are not distinct
        first = np.flatnonzero(self.base.lowest_at_place == self.ids)
        if first.size == 1:
            return float("inf")
        return self.closest_pair(first)[0]


class LineIndex(_SortedIndex, CoordIndex):
    """The points of a 1-D coordinate space, sorted once (stably, so equal
    coordinates keep ascending ids).

    Rounded subtraction is monotone, so the points closer to x than a
    threshold, and the centers nearest to x, are runs of the sorted order
    next to x. Nets, nearest centers, balls, the closest pair and diameters
    are read off that order with no cells; each run is found by binary
    search at a radius widened by ``kernels.TIE_RTOL`` and decided by the
    same expression as the cell index's kernels, so every net, nearest
    center, ball and closest pair is bit for bit that of ``CoordIndex`` on
    the same points, at a fraction of the cost of cells. ``ball_run`` finds
    each ball's run, a cube's farthest member from its center is its least
    or greatest rank (``run_farthest``), and the greedy cover's blocks are
    runs of the ranks (``cover_runs``).
    """

    def __init__(self, space: "MetricSpace"):
        super().__init__(space)
        x = self.coords[:, 0]
        self.order = np.argsort(x, kind="stable")
        self.rank = np.empty(x.size, dtype=np.int64)
        self.rank[self.order] = np.arange(x.size)
        self.sorted = x[self.order]

    @cached_property
    def _xs(self) -> list:
        """The sorted coordinates as a Python list: the net's scan and the
        cover's blocks read it one element at a time."""
        return self.sorted.tolist()

    def balls(self, centers: np.ndarray, r: float):
        """(owner, members): the pairs (i, q) with d(centers[i], q) < r, each
        center's run of ranks from ``ball_run``."""
        return self._members(*self.ball_run(centers, np.full(centers.size, float(r))))

    def ball_run(self, xs: np.ndarray, t: np.ndarray):
        """The ranks lo[i]..hi[i]-1 of the ids q with d(xs[i], q) < t[i], for
        arrays of ids and radii: the ``_windows`` at the radius widened by
        ``kernels.TIE_RTOL``, each end that ``pairs`` puts at t or beyond moved
        in by one binary search for all."""
        c = self.coords[xs, 0]
        wide = self.base_radius(t) * (1.0 + kernels.TIE_RTOL)
        rx = self.rank[xs]
        lo, hi = self._windows(rx, c - wide, c + wide)
        far = (self.pairs(np.concatenate([xs, xs]), self.order[np.concatenate([lo, hi - 1])])
               >= np.concatenate([t, t]))
        if not far.any():
            return lo, hi
        # lo moves to the first rank of lo..rx closer than t, hi to the first
        # of rx+1..hi that is not
        for end, a, b, near, moved in ((lo, lo, rx, True, far[:xs.size]),
                                       (hi, rx + 1, hi, False, far[xs.size:])):
            at = np.flatnonzero(moved)
            a, b = a[at], b[at]
            while np.any(a < b):
                live = np.flatnonzero(a < b)
                mid = (a[live] + b[live]) // 2
                hit = (self.pairs(xs[at[live]], self.order[mid]) < t[at[live]]) == near
                b[live[hit]] = mid[hit]
                a[live[~hit]] = mid[~hit] + 1
            end[at] = a
        return lo, hi

    def net(self, order: np.ndarray, t: float) -> np.ndarray:
        """The greedy net of ``kernels.greedy_net_coords``: a point is admitted
        iff no admitted center c has ``(x - c)**2 < sep**2``.

        That set is one run of ranks around c, so each admitted center blocks
        a run. A point whose two sorted neighbours fail that test is ``sep``
        from every point, as no farther rank is nearer: it blocks nothing,
        nothing blocks it, and it is admitted wherever the scan meets it. The
        scan visits only the other points (``_scan``), a chunk at a time with
        the chunk's blocked points dropped first. The net is ``order``
        filtered by the admitted ranks, in scan order.
        """
        sep = self.base_radius(t)
        sep2 = sep * sep
        gap = np.diff(self.sorted)
        far = gap * gap >= sep2  # the net's test, between sorted neighbours
        admitted = bytearray(self.sorted.size)  # by rank, written by _scan
        mark = np.frombuffer(admitted, dtype=bool)  # first the isolated ranks
        mark[:] = True
        mark[1:] &= far
        mark[:-1] &= far
        ranks = self.rank[order]
        rest = ranks[~mark[ranks]]
        blocked = bytearray(self.sorted.size)  # by rank
        dropped = np.frombuffer(blocked, dtype=bool)
        wide = sep * (1.0 + kernels.TIE_RTOL)
        for start in range(0, rest.size, _CHUNK):
            chunk = rest[start:start + _CHUNK]
            self._scan(chunk[~dropped[chunk]].tolist(), sep2, wide, blocked, admitted)
        return order[mark[ranks]]

    def _scan(self, ranks: list, sep2: float, wide: float, blocked: bytearray,
              admitted: bytearray) -> None:
        """The greedy scan over ``ranks``: each rank not yet blocked is
        admitted and blocks the run of ranks within the separation, the
        widened run found by binary search and trimmed at both ends to the
        points the squared distance decides."""
        xs = self._xs
        for r in ranks:
            if blocked[r]:
                continue
            admitted[r] = 1
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

    def cover_runs(self, ids: np.ndarray, r: float):
        """The blocks of ``covering.greedy_cover_count`` over ``ids``, in rank
        order, as (members, bounds): the distinct ``ids`` by rank and the
        bounds of their runs, block i being ``members[bounds[i]:bounds[i + 1]]``.

        A block is the uncovered ids in one interval of coordinates, and no
        uncovered id within r of its start lies beyond a block taken before
        it, so the blocks are runs of the ranks. Each start, the least
        uncovered id, takes as its near set's ends the first and last
        uncovered ranks within the widened closed radius, found by binary
        search over the sorted coordinates as in ``ball_run``; an end that
        ``pairs`` puts beyond r is moved in by binary search. The near set
        is taken whole when its ends are within r of each other, and grown
        (``grow``) otherwise; a grown block is a run of the near set's ranks.
        """
        n = self.sorted.size
        state = bytearray(n)  # by rank: 1 uncovered id, 2 taken in a block
        marks = np.frombuffer(state, dtype=np.uint8)
        marks[self.rank[ids]] = 1
        ranks = np.flatnonzero(marks)
        live = bytearray(n)  # by id: uncovered
        uncovered = np.frombuffer(live, dtype=bool)
        uncovered[ids] = True
        xs, order = self._xs, self.order
        wide = float(self.base_radius(np.nextafter(r, np.inf)) * (1.0 + kernels.TIE_RTOL))

        def within(q):  # rank q is within r of the start s
            return self.pairs(s, order[q:q + 1])[0] <= r

        firsts = []
        s = live.find(1)
        while s >= 0:
            rs = int(self.rank[s])
            c = xs[rs]
            f = state.find(1, bisect_left(xs, c - wide, 0, rs), rs + 1)
            g = state.rfind(1, rs, bisect_right(xs, c + wide, rs + 1))
            if f < rs or g > rs:
                d = self.pairs(order[[rs, rs, f]], order[[f, g, g]])
                if d[0] > r:  # the widening, or a block between, left ids beyond r
                    f = state.find(1, bisect_left(range(n), True, f, rs, key=within), rs + 1)
                if d[1] > r:
                    g = state.rfind(1, rs, bisect_left(range(n), True, rs + 1, g + 1,
                                                       key=lambda q: not within(q)))
                if d[0] > r or d[1] > r:
                    d[2] = self.pairs(order[f:f + 1], order[g:g + 1])[0]
                if d[2] > r:
                    block = self.rank[self.grow(s, order[f:g + 1][marks[f:g + 1] == 1], r)]
                    f, g = int(block.min()), int(block.max())
            state[f:g + 1] = b"\x02" * (g + 1 - f)
            uncovered[order[f:g + 1]] = False
            firsts.append(f)
            s = live.find(1, s + 1)
        bounds = np.searchsorted(ranks, np.sort(np.asarray(firsts, dtype=np.int64)))
        return order[ranks], np.append(bounds, ranks.size)

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

    def _windows(self, ranks: np.ndarray, low: np.ndarray, high: np.ndarray):
        """The ranks lo..hi-1 of the coordinates in [low, high], for intervals that
        each hold the coordinate of their rank in ``ranks``. A side is searched
        only where the next rank out on it lies in the interval too."""
        lo, hi = ranks.copy(), ranks + 1
        last = self.sorted.size - 1
        out = np.flatnonzero(self.sorted[np.maximum(ranks - 1, 0)] >= low)
        lo[out] = np.searchsorted(self.sorted, low[out], side="left")
        out = np.flatnonzero(self.sorted[np.minimum(ranks + 1, last)] <= high)
        hi[out] = np.searchsorted(self.sorted, high[out], side="right")
        return lo, hi

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
    Distances, diameters and the least gap are all read from it, the whole
    space's diameter once.
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

    def balls(self, centers: np.ndarray, r: float):
        """(owner, members): the pairs (i, q) with d(centers[i], q) < r, read
        off the centers' rows, ``kernels.CHUNK`` rows at a time."""
        owner, members = [], []
        for start in range(0, centers.size, kernels.CHUNK):
            i, q = np.nonzero(self.matrix[centers[start:start + kernels.CHUNK]] < r)
            owner.append(i + start)
            members.append(q)
        return np.concatenate(owner), np.concatenate(members)

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

    @cached_property
    def _farthest(self) -> float:
        return float(self.matrix.max())

    def diameter(self, ids: np.ndarray) -> float:
        if self._whole(ids):
            return self._farthest
        return float(self.matrix[np.ix_(ids, ids)].max())

    def run_diameters(self, ids: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """``_grouped_diameters``: a group of runs of s ids reads its (runs, s, s)
        blocks of the matrix."""
        return _grouped_diameters(
            ids, bounds, lambda m: self.matrix[m[:, :, None], m[:, None]].max(axis=(1, 2)),
            self.diameter)

    def min_gap(self) -> float:
        return float((self.matrix + np.diag(np.full(self.ids.size, np.inf))).min())


class MetricSpace:
    """Immutable finite metric space with id-indexed points; ``index`` answers
    its distance questions, and the methods here check and pass them on."""

    def __init__(self, descriptor, coords=None, strings=None, matrix=None):
        self.descriptor = descriptor
        self.coords = None  # the payload of the space's kind; the others stay None
        self.strings = None
        self._matrix = None
        self._base = None

        kind = descriptor.kind
        if kind in ("euclidean", "snowflake"):
            if coords is None:
                raise InvalidArgumentError(f"{kind} metric needs coordinate payloads")
            c = np.asarray(coords, dtype=np.float64)
            if c.ndim == 1:
                c = c[:, None]
            if c.ndim != 2 or c.shape[0] == 0:
                raise InvalidArgumentError("coordinates must be a non-empty 2d array")
            if c.shape[1] == 0:
                raise InvalidArgumentError("coordinates must have at least one axis")
            if not np.isfinite(c).all():
                raise InvalidArgumentError("coordinates must be finite")
            self.coords = np.ascontiguousarray(c)
            self._base = _CoordBase(self.coords)
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
            self._base = _PrefixBase(codes)
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
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or not 0 <= p < self.n:
            raise InvalidArgumentError(f"unknown point id {p!r} (n={self.n})")

    def subset(self, ids) -> np.ndarray:
        """``ids`` as an int64 array, once checked: a 1-D array of integers, at
        least one, each a point id in 0..n-1. Anything else, a boolean mask
        among them, raises ``InvalidArgumentError``."""
        a = np.asarray(ids)
        if (a.ndim != 1 or a.size == 0 or a.dtype.kind not in "iu"
                or a.min() < 0 or a.max() >= self.n):
            raise InvalidArgumentError(f"a subset must be a 1-D array of point ids, at least "
                                       f"one, each in 0..{self.n - 1}")
        return a.astype(np.int64, copy=False)

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
        if not r > 0:
            raise InvalidArgumentError("ball radius must be positive")
        return self.index.ball(x, r)

    def diameter(self, subset=None) -> float:
        """Max pairwise distance over the subset (whole space by default), asked of
        the index, which keeps the whole space's or reads it in O(1)."""
        ids = self.ids if subset is None else self.subset(subset)
        return 0.0 if ids.size == 1 else self.index.diameter(ids)

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
        return self.index.least_gap

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

    def normalizing_factor(self, target=1.0 - 1e-9) -> float:
        """The factor that rescales the diameter to target; 1.0 for a zero diameter."""
        diam = self.diameter()
        return 1.0 if diam == 0.0 else target / diam

    def _clone(self, desc) -> "MetricSpace":
        # the same checked payload under desc, which keeps the kind's family: a
        # clone shares the base-metric state of its source (``_CoordBase``,
        # ``_PrefixBase``) and builds its own index
        clone = copy.copy(self)
        clone.descriptor = desc
        clone.__dict__.pop("index", None)
        return clone

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
            if set(map(type, pts)) != {str}:  # one C-level pass when all are strings
                bad = next(i for i, s in enumerate(pts) if type(s) is not str)
                raise PointsFileError(f"field 'points': entry {bad} of an ultrametric "
                                      f"space is not a string")
            return MetricSpace(desc, strings=pts)
        _check_coordinates(pts)
        return MetricSpace(desc, coords=np.asarray(pts, dtype=np.float64))
    except KeyError as exc:
        raise PointsFileError(f"field 'metric.{exc.args[0]}': missing") from exc
    except (TypeError, ValueError, InvalidArgumentError) as exc:
        raise PointsFileError(f"invalid points document: {exc}") from exc


def _check_coordinates(pts):
    """Refuse a coordinate that is not a JSON number, which ``np.asarray`` would
    read as one from a string or a bool: one C-level pass over the types of
    the points' coordinates, or of the points when they are bare numbers."""
    try:
        types = set(map(type, chain.from_iterable(pts)))
    except TypeError:  # a point that is a bare number
        types = set(map(type, pts))
    if types <= {int, float}:
        return
    for i, point in enumerate(pts):
        for j, v in enumerate(point if type(point) is list else [point]):
            if type(v) not in (int, float):
                raise PointsFileError(f"field 'points': coordinate {j} of point {i} "
                                      f"is not a number")


def _matrix_from_lower_triangular(tri):
    # solve k(k-1)/2 = len for k
    n = int((1 + np.sqrt(1 + 8 * len(tri))) / 2)
    if n * (n - 1) // 2 != len(tri):
        raise PointsFileError("field 'metric.matrix': length is not a triangular number")
    if not set(map(type, tri)) <= {int, float}:  # one C-level pass; a bool is no number
        bad = next(i for i, v in enumerate(tri) if type(v) not in (int, float))
        raise PointsFileError(f"field 'metric.matrix': entry {bad} is not a number")
    values = np.fromiter(tri, dtype=np.float64, count=len(tri))
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
        doc["points"] = space.coords.tolist()
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
