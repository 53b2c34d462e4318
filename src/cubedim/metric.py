"""Finite metric spaces: distances, balls, diameters, doubling estimates.

A space is a list of points with contiguous integer ids plus a metric
descriptor. Supported metrics: euclidean coordinates, an explicit distance
matrix, snowflaked variants (d^epsilon), and the longest-common-prefix
ultrametric on symbol strings. Every set in the package (subsets, balls,
cubes) is an id array over one of these spaces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import InvalidArgumentError, PointsFileError

# distance_matrix() keeps its result on spaces up to this many points
CACHE_LIMIT = 4096

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
        if self.scale <= 0.0:
            raise InvalidArgumentError("metric scale must be positive")

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


@dataclass
class DoublingEstimate:
    """Empirical doubling constant: max greedy count of r-balls covering a 2r-ball."""

    C_d_hat: int
    samples_used: int
    radii_probed: list = field(default_factory=list)


class PrefixIndex:
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

    def __init__(self, codes: np.ndarray, dist: np.ndarray):
        if np.any(dist[1:] > dist[:-1]):
            raise InvalidArgumentError("ultrametric distances must not grow with the "
                                       "common prefix length")
        n = codes.shape[0]
        self.codes = codes
        self.dist = dist
        self._neg_dist = -dist  # ascending, for searchsorted
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

    def ball(self, x, r) -> np.ndarray:
        """Ids q with d(x, q) < r, ascending: one run of ranks."""
        runs = self.runs(self.level(r))
        run = runs[self.rank[x]]
        lo, hi = np.searchsorted(runs, [run, run + 1])
        return np.sort(self.order[lo:hi])

    def net(self, order: np.ndarray, t: float) -> np.ndarray:
        """The greedy t-separated net of the scan ``order`` (a permutation of
        the ids), in admission order.

        A point is blocked by an admitted one iff they share a prefix of
        length ``level(t)``, so the net is the first point in scan order of
        each such prefix run.
        """
        runs = self.runs(self.level(t))
        position = np.empty(order.size, dtype=np.int64)
        position[order] = np.arange(order.size)
        starts = np.flatnonzero(np.diff(runs)) + 1
        first = np.minimum.reduceat(position[self.order], np.concatenate([[0], starts]))
        return order[np.sort(first)]

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


class MetricSpace:
    """Immutable finite metric space with id-indexed points."""

    def __init__(self, descriptor, coords=None, strings=None, matrix=None):
        self.descriptor = descriptor
        self._coords = None
        self._codes = None
        self.strings = None
        self._matrix = None
        self._dmat = None
        self._tree = None
        self._prefixes = None
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
            self._coords = np.ascontiguousarray(c)
            self.n = c.shape[0]
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
        elif kind == "matrix":
            m = np.asarray(matrix, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
                raise InvalidArgumentError("matrix metric needs a square distance matrix")
            if not np.allclose(m, m.T, rtol=0, atol=0):
                raise InvalidArgumentError("distance matrix must be symmetric")
            if np.any(np.diag(m) != 0.0):
                raise InvalidArgumentError("distance matrix diagonal must be zero")
            off = m + np.eye(m.shape[0])
            if np.any(off <= 0.0):
                raise InvalidArgumentError("off-diagonal distances must be positive")
            self._matrix = m
            self.n = m.shape[0]
        else:  # pragma: no cover - descriptor validates kinds
            raise InvalidArgumentError(kind)
        self.ids = np.arange(self.n, dtype=np.int64)

    # -- raw payload access -------------------------------------------------

    @property
    def coords(self):
        return self._coords

    def _check_id(self, p):
        if not (0 <= p < self.n):
            raise InvalidArgumentError(f"unknown point id {p} (n={self.n})")

    # -- distances ----------------------------------------------------------

    def _transform(self, base):
        d = self.descriptor
        if d.epsilon != 1.0:
            base = np.power(base, d.epsilon) if isinstance(base, np.ndarray) else base ** d.epsilon
        if d.scale != 1.0:
            base = base * d.scale
        return base

    def _base_distances(self, a, b):
        """Untransformed d(a, b) of a coordinate or matrix space, elementwise over
        ids or id arrays ``a`` and ``b``.

        ``b`` may also be ``slice(None)``, giving the row of ``a`` to every point.
        """
        if self.descriptor.kind in ("euclidean", "snowflake"):
            diff = self._coords[b] - self._coords[a]
            return np.sqrt(np.einsum("ij,ij->i", diff, diff))
        return self._matrix[a, b].copy()

    def row(self, p) -> np.ndarray:
        """Distances from p to every point, as a length-n vector."""
        self._check_id(p)
        if self._dmat is not None:
            return self._dmat[p]
        if self.descriptor.kind == "ultrametric":
            return self.prefix_index().row(p)
        return self._transform(self._base_distances(p, slice(None)))

    def pair_distances(self, a, b) -> np.ndarray:
        """d(a[i], b[i]) for paired id arrays; elementwise equal to ``distance``."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self._dmat is not None:
            return self._dmat[a, b]
        if self.descriptor.kind == "ultrametric":
            index = self.prefix_index()
            return index.dist[index.lcp(a, b)]
        return self._transform(self._base_distances(a, b))

    def prefix_index(self) -> "PrefixIndex":
        """The strings of an ultrametric space in lexicographic order (cached).

        Its distance table holds ``row()``'s value at every prefix length.
        """
        if self._prefixes is None:
            length = self._codes.shape[1]
            base = np.power(self.descriptor.base, np.arange(length + 1).astype(np.float64))
            base[length] = 0.0
            self._prefixes = PrefixIndex(self._codes, self._transform(base))
        return self._prefixes

    def distance_matrix(self) -> np.ndarray:
        """Dense distance matrix, cached when n <= CACHE_LIMIT."""
        if self._dmat is None:
            kind = self.descriptor.kind
            if kind in ("euclidean", "snowflake"):
                dmat = self._transform(kernels.pairwise_distances(self._coords))
            elif kind == "matrix":
                # a copy, so that _matrix is never written
                dmat = self._transform(self._matrix.copy())
            else:
                # one n x n array, filled row by row
                dmat = np.empty((self.n, self.n), dtype=np.float64)
                for i in range(self.n):
                    dmat[i] = self.row(i)
            np.fill_diagonal(dmat, 0.0)
            if self.n <= CACHE_LIMIT:
                self._dmat = dmat
            return dmat
        return self._dmat

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
        kind = self.descriptor.kind
        if kind in ("euclidean", "snowflake"):
            base_r = self._invert_radius(r)
            cand = np.asarray(self._get_tree().query_ball_point(self._coords[x],
                                                                base_r * (1 + 1e-12)),
                              dtype=np.int64)
            diff = self._coords[cand] - self._coords[x]
            members = cand[self._transform(np.sqrt(np.einsum("ij,ij->i", diff, diff))) < r]
            members.sort()
            return members
        if kind == "ultrametric":
            return self.prefix_index().ball(x, r)
        return np.flatnonzero(self.row(x) < r).astype(np.int64)

    def _invert_radius(self, r) -> float:
        """Base-metric radius whose transformed value is r."""
        d = self.descriptor
        base = r / d.scale
        if d.epsilon != 1.0:
            base = base ** (1.0 / d.epsilon)
        return base

    def _get_tree(self):
        if self._tree is None:
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self._coords)
        return self._tree

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
        kind = self.descriptor.kind
        if kind in ("euclidean", "snowflake"):
            return float(self._transform(self._euclid_diam(ids)))
        if kind == "ultrametric":
            # min lcp over the set is attained by the lexicographic extremes
            index = self.prefix_index()
            ranks = index.rank[ids]
            return self._lcp_diameter(int(index.lcp(index.order[ranks.min()],
                                                    index.order[ranks.max()])))
        sub = self._matrix[np.ix_(ids, ids)]
        return float(self._transform(sub.max()))

    def _lcp_diameter(self, lcp: int) -> float:
        """Diameter of an ultrametric set whose least common prefix has length lcp."""
        if lcp == self._codes.shape[1]:
            return 0.0
        return float(self._transform(self.descriptor.base ** lcp))

    def run_diameters(self, ids, bounds) -> np.ndarray:
        """Diameter of each run ``ids[bounds[i]:bounds[i + 1]]``; 0.0 for an empty run.

        Each value equals ``diameter()`` of its run bit for bit. On 1-D
        coordinates (max - min) and ultrametrics (the lcp of the least and
        greatest rank) one pass over all runs finds every run's extremes, and
        the scalar formula of ``diameter()`` runs once per distinct value.
        Other kinds take each run's diameter in turn.
        """
        ids = np.asarray(ids, dtype=np.int64)
        bounds = np.asarray(bounds, dtype=np.int64)
        sizes = np.diff(bounds)
        out = np.zeros(sizes.size)
        kind = self.descriptor.kind
        if kind == "ultrametric" or (kind in ("euclidean", "snowflake")
                                     and self._coords.shape[1] == 1):
            filled = np.flatnonzero(sizes)  # reduceat needs non-empty runs
            starts = bounds[filled]
            if kind == "ultrametric":
                index = self.prefix_index()
                ranks = index.rank[ids[:bounds[-1]]]
                lcps, inverse = np.unique(
                    index.lcp(index.order[np.minimum.reduceat(ranks, starts)],
                              index.order[np.maximum.reduceat(ranks, starts)]),
                    return_inverse=True)
                values = [self._lcp_diameter(int(lcp)) for lcp in lcps]
            else:
                x = self._coords[ids[:bounds[-1]], 0]
                spans, inverse = np.unique(
                    np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts),
                    return_inverse=True)
                values = [float(self._transform(float(span))) for span in spans]
            out[filled] = np.asarray(values, dtype=np.float64)[inverse]
            return out
        for i in np.flatnonzero(sizes):
            out[i] = self.diameter(ids[bounds[i]:bounds[i + 1]])
        return out

    def _euclid_diam(self, ids) -> float:
        pts = self._coords[ids]
        if pts.shape[1] == 1:
            return float(pts.max() - pts.min())
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
        return float(np.sqrt(d2))

    def min_positive_distance(self) -> float:
        """Smallest distance between two distinct points; inf when there are none.

        Repeated points are not distinct. The result is 0.0 only when the
        least gap underflows.
        """
        if self._min_gap is not None:
            return self._min_gap
        if self.n == 1:
            self._min_gap = float("inf")
            return self._min_gap
        kind = self.descriptor.kind
        if kind in ("euclidean", "snowflake"):
            d, _ = self._get_tree().query(self._coords, k=2)
            base = float(d[:, 1].min())
            if base == 0.0:  # a repeated point: measure between distinct points
                from scipy.spatial import cKDTree

                distinct = np.unique(self._coords, axis=0)
                if distinct.shape[0] == 1:
                    self._min_gap = float("inf")
                    return self._min_gap
                d, _ = cKDTree(distinct).query(distinct, k=2)
                base = float(d[:, 1].min())
        elif kind == "ultrametric":
            # the longest common prefix of two distinct strings is between neighbours
            lcps = self.prefix_index().adjacent
            lcps = lcps[lcps < self._codes.shape[1]]
            if lcps.size == 0:
                self._min_gap = float("inf")
                return self._min_gap
            base = self.descriptor.base ** int(lcps.max())
        else:
            m = self._matrix + np.diag(np.full(self.n, np.inf))
            base = float(m.min())
        self._min_gap = float(self._transform(base))
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
        if desc.kind in ("euclidean", "snowflake"):
            return MetricSpace(desc, coords=self._coords)
        if desc.kind == "ultrametric":
            return MetricSpace(desc, strings=self.strings)
        return MetricSpace(desc, matrix=self._matrix)

    # -- doubling ------------------------------------------------------------

    def estimate_doubling(self, sample_count=32, rng_seed=0) -> DoublingEstimate:
        """Greedy estimate of the doubling constant over sampled (x, r) pairs.

        Each sample greedily covers ball(x, 2r) with radius-r balls centered
        at member points; the estimate is the running maximum, so it is
        monotone in sample_count for a fixed seed.
        """
        if sample_count < 1:
            raise InvalidArgumentError("sample_count must be >= 1")
        if self.n == 1:
            return DoublingEstimate(1, sample_count, [])
        rng = np.random.default_rng(rng_seed)
        diam = self.diameter()
        gap = self.min_positive_distance()
        lo, hi = np.log(max(gap, 1e-300)), np.log(max(diam / 2.0, gap * 2.0))
        best = 1
        radii = []
        for _ in range(sample_count):
            x = int(rng.integers(self.n))
            r = float(np.exp(rng.uniform(lo, hi)))
            radii.append(r)
            members = self.ball_members(x, 2.0 * r)
            count = self._greedy_ball_cover_count(members, r)
            best = max(best, count)
        return DoublingEstimate(best, sample_count, radii)

    def _greedy_ball_cover_count(self, members, r) -> int:
        remaining = list(members)
        remaining_set = set(remaining)
        count = 0
        for p in remaining:
            if p not in remaining_set:
                continue
            count += 1
            row = self.row(p)
            for q in list(remaining_set):
                if row[q] < r:
                    remaining_set.discard(q)
            if not remaining_set:
                break
        return count


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
    try:
        if kind in ("euclidean", "snowflake"):
            pts = doc.get("points")
            if not pts:
                raise PointsFileError("field 'points': empty or missing")
            desc = MetricDescriptor(kind, epsilon=float(m.get("epsilon", 1.0)),
                                    scale=float(m.get("scale", 1.0)))
            return MetricSpace(desc, coords=np.asarray(pts, dtype=np.float64))
        if kind == "ultrametric":
            pts = doc.get("points")
            if not pts:
                raise PointsFileError("field 'points': empty or missing")
            desc = MetricDescriptor(kind, arity=int(m["arity"]), base=float(m["base"]),
                                    scale=float(m.get("scale", 1.0)))
            return MetricSpace(desc, strings=[str(s) for s in pts])
        if kind == "matrix":
            tri = m.get("matrix")
            if tri is None:
                raise PointsFileError("field 'metric.matrix': missing for matrix kind")
            full = _matrix_from_lower_triangular(tri)
            desc = MetricDescriptor(kind, scale=float(m.get("scale", 1.0)))
            space = MetricSpace(desc, matrix=full)
            _spot_check_triangle(space)
            return space
    except KeyError as exc:
        raise PointsFileError(f"field 'metric.{exc.args[0]}': missing") from exc
    except (TypeError, ValueError, InvalidArgumentError) as exc:
        raise PointsFileError(f"invalid points document: {exc}") from exc
    raise PointsFileError(f"field 'metric.kind': unknown kind {kind!r}")


def _matrix_from_lower_triangular(tri):
    tri = list(tri)
    # solve k(k-1)/2 = len for k
    n = int((1 + np.sqrt(1 + 8 * len(tri))) / 2)
    if n * (n - 1) // 2 != len(tri):
        raise PointsFileError("field 'metric.matrix': length is not a triangular number")
    full = np.zeros((n, n), dtype=np.float64)
    pos = 0
    for i in range(1, n):
        for j in range(i):
            full[i, j] = full[j, i] = float(tri[pos])
            pos += 1
    return full


def _spot_check_triangle(space, samples=10000, seed=0):
    """Probabilistic triangle-inequality check for matrix-supplied metrics."""
    if space.n < 3:
        return
    rng = np.random.default_rng(seed)
    m = space._matrix
    idx = rng.integers(space.n, size=(samples, 3))
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
        tri = []
        for i in range(1, space.n):
            tri.extend(float(space._matrix[i, j]) for j in range(i))
        doc["metric"]["matrix"] = tri
        doc["points"] = list(range(space.n))
    # json.dumps runs the C encoder; json.dump streams through the Python one
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
