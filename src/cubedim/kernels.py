"""The kernels behind nets and nearest-center assignment.

Pairwise distances, greedy net selection and nearest-center assignment, for
coordinates in two or more dimensions and for spaces given by a dense
distance matrix; the coordinate kernels serve ``metric.CoordIndex`` and the
matrix kernels ``metric.MatrixIndex``. The coordinate kernels take their
candidates from a ``CellIndex``, the fixed-radius cells of Bentley, Stanat
and Williams (Inf. Process. Lett. 1977) read off one Morton order of the
quantized points, and decide every candidate exactly, by squared
distances. The greedy net on coordinates first goes by rows instead: each
admitted point blocks the rest of the scan from one row of squared
distances, which costs one distance per point left where a look in the
cells costs about a hundred NumPy calls per batch, so rows win while each
blocks a fair share of the scan (a plane's coarse levels), and the cells
take the rest (fine levels, where a point blocks few others). The matrix
kernels are NumPy scans. 1-D coordinates and
ultrametric spaces need neither: ``metric.LineIndex`` and
``metric.PrefixIndex`` read nets and nearest centers off their sorted
coordinates or strings. Every squared distance in the package, here and in
``metric``, is ``square_sums``. All functions are deterministic given their
inputs.
"""

from __future__ import annotations

import numpy as np

# name of the kernel implementation, recorded with benchmark results
BACKEND = "pure"

CHUNK = 512
# relative slack on the radius at which metric.LineIndex searches its sorted
# coordinates and metric.CoordIndex.balls asks the cells for candidates, each
# decided exactly after: far above the few ulps by which two roundings of one
# distance differ
TIE_RTOL = 1e-7

KEY_BITS = 63  # bits of a Morton key, held in a uint64
AXIS_BITS = 30  # grid bits per axis at most
CANDIDATES = 1 << 16  # candidates decided at once, at most: the arrays stay in cache
ROUND = 1 << 10  # blocked points worth one batch of a greedy net
ROW_SHARE = 64  # distances a greedy net's rows may measure per point they block
ROW_PAIRS = 1 << 12  # distances a greedy net's rows may measure beyond that share
CELLS = 1 << 20  # cells whose runs are looked up at once, at most
PAIR_POINTS = 1 << 14  # points whose boxes pairs_within finds at once, at most
TABLE_BITS = 20  # a level with at most 2**TABLE_BITS cells keeps a table of their runs,
TABLE_FILL = 4  # if it has at most TABLE_FILL cells per point: a sparser table is mostly empty
LOOKUP = 4.0  # the cost of looking up one cell, in candidates decided


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array, or rows of a 2-D one, ascending
    (rows lexicographically): ``np.unique`` with no index, inverse or count,
    which imports ``numpy.ma`` on its first call."""
    a = np.sort(values) if values.ndim == 1 else values[np.lexsort(values.T[::-1])]
    step = a[1:] != a[:-1]
    return a[np.concatenate([[True], step if step.ndim == 1 else step.any(axis=1)])[:len(a)]]


def _stretches(sizes: np.ndarray, limit: int):
    """Consecutive ranges (a, b) covering ``sizes``, each summing to at most
    about ``limit``: the range grows past it only by its last size."""
    if not sizes.size:
        return []
    ends = np.cumsum(sizes)
    if ends[-1] <= limit:
        return [(0, sizes.size)]
    part = (ends - sizes) // limit
    cuts = np.concatenate([[0], np.flatnonzero(part[1:] != part[:-1]) + 1, [sizes.size]])
    return zip(cuts[:-1].tolist(), cuts[1:].tolist())


def _spread_table(axes: int) -> np.ndarray:
    """Each byte value with its bit i moved to bit i * axes."""
    v = np.arange(256, dtype=np.uint64)
    out = np.zeros(256, dtype=np.uint64)
    for i in range(8):
        out |= ((v >> np.uint64(i)) & np.uint64(1)) << np.uint64(i * axes)
    return out


class CellIndex:
    """The rows of ``coords`` sorted once by the Morton key of their grid cells.

    Every axis is mapped by one scale onto a grid of ``2**bits`` steps, whose
    origin lies two thirds of the points' span below the lowest point, so
    that the points of a dyadic lattice fall inside cells rather than on
    their faces; a point's grid coordinates are the floors, and its key
    interleaves their bits. A cell of level L holds the points whose grid
    coordinates agree above their L lowest bits, and those points are one
    run of the sorted order. A box around a query is covered by the cells of
    the level that costs the fewest lookups and candidates (``_level``), and
    each candidate those cells hold is decided by its exact squared distance:
    the grid only ever decides which points are looked at. Every query is
    one look, at cells that reach a bound known before it: a radius, or for
    a nearest point the least distance its probe measured. At most 63 axes
    are keyed; the cells span any further axis whole.
    """

    def __init__(self, coords):
        self.coords = np.asarray(coords, dtype=np.float64)
        self.axes = min(self.coords.shape[1], KEY_BITS)
        self.bits = min(AXIS_BITS, KEY_BITS // self.axes)
        self.size = 1 << self.bits
        keyed = self.coords[:, :self.axes]
        low = keyed.min(axis=0)
        span = float((keyed.max(axis=0) - low).max())
        self.scale = self.size / (2.0 * span) if span > 0.0 else 0.0
        if not 0.0 < self.scale < np.inf:  # one place, or a span too small to scale
            self.scale, span = 1.0, 0.0
        self.origin = (low - 2.0 * span / 3.0)[:, None]
        self._spread = _spread_table(self.axes)
        q = self._floor(self.grid(self.coords))
        self.qmin, self.qmax = q.min(axis=1)[:, None], q.max(axis=1)[:, None]
        self.key = self._encode(q, self.bits)
        self.order = np.argsort(self.key, kind="stable")
        self.sorted_key = self.key[self.order]
        self.sorted_coords = self.coords[self.order]
        self._filled, self._levels, self._tables = {}, {}, {}

    def grid(self, coords: np.ndarray) -> np.ndarray:
        """Grid coordinates of the rows of ``coords`` on the keyed axes, one row
        per axis, as floats; far outside the grid they are held to +-2**62,
        which keeps them beyond it."""
        g = (np.asarray(coords, dtype=np.float64)[:, :self.axes].T - self.origin) * self.scale
        return np.clip(g, -2.0 ** 62, 2.0 ** 62)

    def grid_radius(self, r) -> np.ndarray:
        """A half-width in grid steps that covers the base radius ``r``, the
        rounding of the grid coordinates and of the caller's radius."""
        return np.asarray(r, dtype=np.float64) * self.scale * (1.0 + 1e-9) + 1.0

    def _floor(self, g: np.ndarray) -> np.ndarray:
        """The grid cell of level 0 that holds each grid coordinate, or the
        nearest one."""
        return np.clip(np.floor(g), 0, self.size - 1).astype(np.int64)

    def _encode(self, q: np.ndarray, bits: int) -> np.ndarray:
        """The Morton codes of the cells ``q`` (one row per axis) of a level
        with ``bits`` bits per axis: at level 0, the points' keys."""
        key = np.zeros(q.shape[1], dtype=np.uint64)
        for j in range(self.axes):
            c = q[j].astype(np.uint64)
            for b in range(0, bits, 8):
                key |= self._spread[(c >> np.uint64(b)) & np.uint64(255)] << np.uint64(
                    b * self.axes + j)
        return key

    def _cell_runs(self, cell: np.ndarray, level: int, since=None):
        """The runs ``order[start:stop]`` of the level-``level`` cells ``cell``:
        read off a table of every cell's first position when the level has at
        most 2**TABLE_BITS cells and TABLE_FILL per point, else found by binary
        search. A cell before the cell of the key ``since`` (one per cell, when
        given) is empty."""
        code = self._encode(cell, self.bits - level)
        shift = np.uint64(level * self.axes)
        cell_bits = (self.bits - level) * self.axes
        if cell_bits <= TABLE_BITS and 1 << cell_bits <= TABLE_FILL * self.key.size:
            if level not in self._tables:
                counts = np.bincount((self.sorted_key >> shift).astype(np.int64),
                                     minlength=1 << cell_bits)
                self._tables[level] = np.concatenate([[0], np.cumsum(counts)])
            table = self._tables[level]
            start, stop = table[code], table[code + np.uint64(1)]
        else:
            first = code << shift
            start = np.searchsorted(self.sorted_key, first)
            stop = np.searchsorted(self.sorted_key, first + (np.uint64(1) << shift))
        if since is not None:
            stop = np.where(code < since >> shift, start, stop)
        return start, stop

    def filled(self, level: int) -> int:
        """The number of level-``level`` cells that hold a point."""
        if level not in self._filled:
            cell = self.sorted_key >> np.uint64(level * self.axes)
            self._filled[level] = 1 + int(np.count_nonzero(cell[1:] != cell[:-1]))
        return self._filled[level]

    def _level(self, width: int) -> int:
        """The level of the cells that cover a box of ``width`` grid steps at
        least cost: the least whose cells are wider (two per axis at most) or
        one of the two levels either side of it, a box meeting ``width / side
        + 1`` cells per axis on average, each lookup weighed as LOOKUP
        candidates and each cell as the points of an average filled cell."""
        if width not in self._levels:
            span = (self.qmax - self.qmin)[:, 0].tolist()
            top = int(width).bit_length()
            best, cost = top, np.inf
            for level in range(max(0, top - 2), min(top + 2, self.bits) + 1):
                side = float(1 << level)
                cells = 1.0
                for s in span:
                    cells *= min(width / side, s / side) + 1.0
                c = cells * (LOOKUP + self.key.size / self.filled(level))
                if c < cost:
                    best, cost = level, c
            self._levels[width] = best
        return self._levels[width]

    def boxes(self, g: np.ndarray, w):
        """The cells around each query at grid coordinates ``g`` (one row per
        axis) with half-width ``w`` (grid steps, one or one per query): its
        least and greatest cell per axis, and their level, whose cells hold
        every point within ``w`` of it on every keyed axis."""
        w = np.zeros(g.shape[1]) + w
        lo, hi = self._floor(g - w), self._floor(g + w)
        # box widths in grid steps, rounded up to a power of two
        width = np.frexp(np.minimum(np.floor(2.0 * w), float(self.size)) + 0.5)[1]
        widths = distinct(width)
        level = np.array([self._level(1 << v) for v in widths.tolist()],
                         dtype=np.int64)[np.searchsorted(widths, width)]
        return lo >> level, hi >> level, level

    def runs(self, lo: np.ndarray, hi: np.ndarray, level: np.ndarray, since=None):
        """The runs ``order[start:stop]`` of every cell of each query's box
        (``boxes``), query ``qi`` by query in ascending order; with ``since``,
        a key per query, the cells before the one holding it are left empty."""
        count = hi - lo + 1
        total = count.prod(axis=0)
        qi = np.repeat(np.arange(total.size), total)
        cell = lo[:, qi]
        wide = np.flatnonzero(count.max(axis=1, initial=1) > 1)
        if wide.size:
            rest = np.arange(qi.size) - np.repeat(np.cumsum(total) - total, total)
            for j in wide:
                c = count[j, qi]
                cell[j] += rest % c
                rest //= c
        since = None if since is None else since[qi]
        levels = distinct(level)
        if levels.size == 1:
            return (qi, *self._cell_runs(cell, int(levels[0]), since))
        start, stop = np.empty(qi.size, dtype=np.int64), np.empty(qi.size, dtype=np.int64)
        at = level[qi]
        for lv in levels.tolist():
            sel = np.flatnonzero(at == lv)
            start[sel], stop[sel] = self._cell_runs(cell[:, sel], lv,
                                                    None if since is None else since[sel])
        return qi, start, stop

    def blocks(self, g: np.ndarray, w, since=None):
        """The candidates of the queries at grid coordinates ``g`` (one row per
        axis) with half-widths ``w`` (grid steps, one or one per query), a
        stretch of queries at a time: yields (first, stop, count, at) where the
        positions ``at`` of the sorted order hold, query by query from
        ``first`` to ``stop - 1``, ``count`` candidates each, among them every
        point within ``w`` of the query on every keyed axis; ``since`` is
        passed to ``runs``. A stretch spans at most CELLS cells and CANDIDATES
        candidates, unless one query alone has more."""
        lo, hi, level = self.boxes(g, w)
        for a, b in _stretches((hi - lo + 1).prod(axis=0), CELLS):
            qi, start, stop = self.runs(lo[:, a:b], hi[:, a:b], level[a:b],
                                        None if since is None else since[a:b])
            size = stop - start
            total = np.bincount(qi, weights=size, minlength=b - a).astype(np.int64)
            bounds = np.concatenate([[0], np.cumsum(total)])
            cells = np.searchsorted(qi, np.arange(b - a + 1))
            for c, d in _stretches(total, CANDIDATES):
                sz, st = size[cells[c]:cells[d]], start[cells[c]:cells[d]]
                at = np.arange(bounds[d] - bounds[c]) + np.repeat(st - np.cumsum(sz) + sz, sz)
                yield a + c, a + d, total[c:d], at

    def within(self, query: np.ndarray, r: float):
        """Blocks (qi, rows, dsq) of the pairs of query row ``qi`` and indexed
        row whose squared distance ``dsq`` is at most ``r * r``."""
        query = np.asarray(query, dtype=np.float64)
        for first, stop, count, at in self.blocks(self.grid(query), self.grid_radius(r)):
            dsq = square_sums(np.repeat(query[first:stop], count, axis=0),
                              self.sorted_coords[at])
            near = np.flatnonzero(dsq <= r * r)
            qi = first + np.searchsorted(np.cumsum(count), near, side="right")
            yield qi, self.order[at[near]], dsq[near]

    def pairs_within(self, r: float):
        """Blocks (a, b, dsq) of the pairs of indexed rows, each pair once,
        whose squared distance ``dsq`` is at most ``r * r``: every point asks
        the cells around it, from its own on, for the points after it in the
        sorted order, PAIR_POINTS points at a time."""
        for s in range(0, self.key.size, PAIR_POINTS):
            part = slice(s, s + PAIR_POINTS)
            g = self.grid(self.sorted_coords[part])
            for first, stop, count, at in self.blocks(g, self.grid_radius(r),
                                                      since=self.sorted_key[part]):
                pos = np.repeat(np.arange(s + first, s + stop), count)
                later = np.flatnonzero(at > pos)
                pos, at = pos[later], at[later]
                dsq = square_sums(self.sorted_coords[pos], self.sorted_coords[at])
                near = dsq <= r * r
                yield self.order[pos[near]], self.order[at[near]], dsq[near]

    def nearest(self, query: np.ndarray, positive=False):
        """Per query row: the nearest indexed row, by least squared distance with
        ties to the lowest row, and that squared distance; when ``positive``,
        rows at squared distance 0 are passed over. -1 and inf where no row is
        left.

        A query first measures the first point of its own level-0 cell and the
        two sorted points on each side of that cell: a point of another cell
        has other coordinates, so one of them qualifies unless rounding hides
        it, and the least that does bounds the query's nearest. The query then
        looks once, in the cells that hold every point up to that bound (every
        cell, when no probed point qualifies), and decides each candidate.
        """
        query = np.asarray(query, dtype=np.float64)
        g = self.grid(query)
        key = self._encode(self._floor(g), self.bits)
        left = np.searchsorted(self.sorted_key, key)
        right = np.searchsorted(self.sorted_key, key, side="right")
        probe = np.clip(np.column_stack([left - 2, left - 1, left, right, right + 1]),
                        0, self.key.size - 1)
        dsq = square_sums(np.repeat(query, probe.shape[1], axis=0),
                          self.sorted_coords[probe.ravel()])
        if positive:
            dsq = np.where(dsq > 0.0, dsq, np.inf)
        bound = dsq.reshape(probe.shape).min(axis=1)
        rows = np.full(len(query), -1, dtype=np.int64)
        best = np.full(len(query), np.inf)
        w = np.sqrt(bound) * self.scale * (1.0 + 1e-9) + 2.0  # inf: every cell
        for first, stop, count, at in self.blocks(g, w):
            # no count is 0: a box holds the probed point that set it, or every point
            starts = np.cumsum(count) - count
            dsq = square_sums(np.repeat(query[first:stop], count, axis=0),
                              self.sorted_coords[at])
            if positive:
                dsq = np.where(dsq > 0.0, dsq, np.inf)
            best[first:stop] = np.minimum.reduceat(dsq, starts)
            tied = dsq == np.repeat(best[first:stop], count)
            rows[first:stop] = np.minimum.reduceat(
                np.where(tied, self.order[at], self.key.size), starts)
        rows[best == np.inf] = -1
        return rows, best


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Dense symmetric Euclidean distance matrix with a zero diagonal."""
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        np.sqrt(square_sums(coords[start:stop, None, :], coords), out=out[start:stop])
    np.fill_diagonal(out, 0.0)
    return out


def greedy_net_coords(cells: CellIndex, order: np.ndarray, threshold: float) -> np.ndarray:
    """Maximal threshold-separated subset of the points of ``cells``, scanning
    points in ``order``, which lists each point at most once.

    A point is admitted iff its distance to every previously admitted point
    is >= threshold (compared in the squared domain). Returns admitted point
    indices in admission order.

    The scan first goes by rows: it admits the next point of ``order`` that
    no row has blocked and blocks the later points of the scan that one row
    of squared distances over ``coords[order]`` puts within the threshold.
    A row costs a distance per point left in the scan, and a look in the
    cells a fixed cost per batch and a few candidates per point it blocks,
    so rows pay while each blocks a fair share of the scan: they go on while
    they have measured at most ROW_SHARE distances per point they block,
    plus ROW_PAIRS, and the rest of the scan goes by cells, with the blocked
    points carried over. It takes the next points of ``order`` that no
    admitted point blocks, a batch at a time, finds each one's points within
    the threshold in the cells around it, decided by squared distance, and
    admits them in order unless an earlier one of the batch blocks them. The
    next batch is twice as large as the number admitted, or large enough to
    block about ROUND points.
    """
    coords = cells.coords
    thr2 = threshold * threshold
    pts = coords[order]
    taken = np.zeros(order.size, dtype=bool)  # blocked by a row, by position in order
    first, pos, credit = [], 0, ROW_PAIRS
    while pos < order.size and credit > 0:
        if taken[pos]:
            pos += int(np.argmin(taken[pos:]))
            if taken[pos]:  # every position left is blocked
                pos = order.size
                break
        row = square_sums(pts[pos:], pts[pos]) < thr2
        later = taken[pos:]
        later |= row
        credit += ROW_SHARE * int(np.count_nonzero(row)) - row.size
        first.append(pos)
        pos += 1
    chosen = [order[first]]
    blocked = np.zeros(coords.shape[0], dtype=bool)
    blocked[order[taken]] = True
    slot = np.full(coords.shape[0], -1, dtype=np.int64)  # a point's place in its batch
    want, reach = 1, 64
    while pos < order.size:
        window = order[pos:pos + reach]
        free = np.flatnonzero(~blocked[window])[:want]
        if free.size == 0:
            pos += window.size
            reach *= 2
            continue
        batch = window[free]
        pos += int(free[-1]) + 1
        reach = max(64, 4 * want)
        qi, near = [], []
        for q, rows, dsq in cells.within(coords[batch], threshold):
            qi.append(q[dsq < thr2])
            near.append(rows[dsq < thr2])
        qi, near = np.concatenate(qi), np.concatenate(near)
        slot[batch] = np.arange(batch.size)
        other = slot[near]
        slot[batch] = -1
        clash = (other >= 0) & (other != qi)
        keep = np.ones(batch.size, dtype=bool)
        if clash.any():
            src, dst = qi[clash], other[clash]
            starts = np.flatnonzero(np.diff(src, prepend=-1))
            ends = np.append(starts[1:], src.size)
            for s, a, b in zip(src[starts].tolist(), starts.tolist(), ends.tolist()):
                if keep[s]:
                    keep[dst[a:b]] = False
        chosen.append(batch[keep])
        blocked[near[keep[qi]]] = True
        each = max(1, qi.size // batch.size)  # points blocked per query
        want = max(1, min(max(2 * int(np.count_nonzero(keep)), ROUND // each),
                          CANDIDATES // each))
    return np.concatenate(chosen)


def greedy_net_matrix(dmat: np.ndarray, order: np.ndarray, threshold: float) -> np.ndarray:
    """Matrix-metric variant of :func:`greedy_net_coords`, by rows alone.

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


def nearest_center_coords(query_coords: np.ndarray, center_coords: np.ndarray,
                          cells: CellIndex | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest center (row of ``center_coords``) per query row.

    A ``CellIndex`` over the centers (``cells``, when the caller has one)
    answers each query by least squared distance, ties to the earlier center
    row; callers order centers by point id to get the ascending-id
    tie-break. Returns (indices, distances), each distance the square root
    of the winner's squared distance.
    """
    q = np.asarray(query_coords, dtype=np.float64)
    cc = np.asarray(center_coords, dtype=np.float64)
    best_idx = np.zeros(q.shape[0], dtype=np.int64)
    if q.shape[0] and cc.shape[0] > 1:
        best_idx = (CellIndex(cc) if cells is None else cells).nearest(q)[0]
    return best_idx, np.sqrt(square_sums(q, cc[best_idx]))


def square_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum of ``(a - b) ** 2`` over the last axis, ``a`` and ``b`` broadcast
    against each other.

    One or two coordinates are taken one at a time, each difference squared
    and added in place: a sum of two terms rounds once in either order, so
    this is ``np.einsum``'s bits without its array of differences. Three or
    more go through ``np.einsum``, whose SIMD lanes fix the order of the sum
    (three terms as (p0 + p2) + p1), which a sequential sum would not keep.
    """
    if a.shape[-1] > 2:
        diff = a - b
        return np.einsum("...k,...k->...", diff, diff)
    out = a[..., 0] - b[..., 0]
    out *= out
    if a.shape[-1] == 2:
        term = a[..., 1] - b[..., 1]
        term *= term
        out += term
    return out


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
