"""Nets, nearest centers, rows and balls against the kernels they replaced.

Coordinate nets, nearest centers, balls, closest pairs and least positive
distances in two or more dimensions come from the cells of one
``kernels.CellIndex``; 1-D nets, nearest centers and balls from runs of the
sorted coordinates; and ultrametric nets, nearest centers, rows and balls
from prefix runs of the sorted strings. None builds an n x n matrix or
scans the admitted centers, and a matrix net blocks each admitted
center's row. The oracles here are
the computations those replaced: the greedy scan that compares each
candidate with every admitted center, the argmin over all centers, the
SciPy cKDTree kernels that the cell index replaced (``tree_*`` below) and,
for ultrametrics, a distance matrix filled from the old row formula (every
string compared with the query string); 1-D answers are also compared with
the cell index on the same points. A diameter's oracle is the largest
entry of the oracle distance matrix over the set, and the least gap's is
its least entry between distinct points: a diameter is a distance, with
the distance's rounding. Nets, parent indices, labels, nearest-center
indices and distance bits, row bytes, balls, diameters and the net check's
separation witness must agree bit for bit on small random spaces:
ultrametrics with duplicate strings, snowflake exponents and scales, and
coordinate lattices in one to five dimensions whose pairs sit exactly at
the separation, some with repeated points or moved 1e8 from the origin.
On a line and in an ultrametric, the rank run that ``ball_run`` gives for
a radius, alone or in an array of radii, must hold exactly the ball's
members.

Every index answers one range query, ``balls``: each pair of a center and
a point closer to it than a radius. A brute-force scan of ``pairs`` over
every such pair is its oracle on all four kinds, with radii on pair
distances and one ulp either side, repeated points, unsorted and repeated
centers, every point a center, and rescaled and snowflaked clones. The
inner-ball check's pairs (``inner_balls``) are the balls, and on
coordinates the tree's pair query at a widened radius is their oracle too;
where every point is a center, in id order, each center's ball is taken to
hold itself and the lowest id at its place, with no look in the cells. In
an ultrametric the greedy cover's blocks are
read off prefix runs; the ball-by-ball greedy loop they replaced is their
oracle, with targets that repeat an id. A
rescaled or snowflaked clone shares its source's sorted order and answers
as a space built afresh under the clone's descriptor.

A line net admits the points whose sorted neighbours are both at the
separation or beyond with no scan, and scans the rest a chunk at a time;
the per-point scan it replaced (``old_line_net``) is its oracle, for full
and partial scans at separations on each neighbour gap and an ulp either
side. On a line, every block of the ball-by-ball greedy loop is one run of
the target's distinct ids in rank order, and the line's ``cover_runs``
reads the blocks off those runs; the loop is its oracle, with a block
grown at a radius on a pair distance.
"""

import json
from bisect import bisect_left, bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.spatial import cKDTree
from hypothesis import strategies as st
from conftest import write_cubes_doc
from test_cube_oracles import oracle_grow_set

from cubedim import GeneratorSpec, MetricDescriptor, MetricSpace, generate, kernels
from cubedim.covering import greedy_cover_count
from cubedim.cubes import build_adjacent_family, build_system, load_family, save_family
from cubedim.errors import StaleCubesError
from cubedim.metric import CoordIndex, LineIndex
from cubedim.nets import NetLevel, NetParams, scan_order, verify_net

EXAMPLES = 40
# base ** 2 underflows to 0: distances at different prefix lengths tie
TINY_BASES = (1 / 16, 0.2, 0.5, 1e-200)


def scan_net_coords(coords, order, threshold):
    """The greedy scan: admit a point iff it is >= threshold from every admitted one."""
    thr2 = threshold * threshold
    chosen = np.empty(coords.shape[0], dtype=np.int64)
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


# -- the cKDTree kernels that kernels.CellIndex replaced ----------------------

TIE_RTOL = 1e-7  # the relative slack the tree kernels widened their queries by


def tree_net_coords(coords, order, threshold):
    """The greedy net by kd-tree blocking: each admitted point blocks the points
    a tree query finds within the widened threshold, decided by squared distance."""
    tree = cKDTree(coords)
    thr2 = threshold * threshold
    blocked = np.zeros(coords.shape[0], dtype=bool)
    chosen = []
    for cand in order:
        if blocked[cand]:
            continue
        chosen.append(cand)
        near = tree.query_ball_point(coords[cand], threshold * (1.0 + TIE_RTOL),
                                     return_sorted=False)
        if len(near) > 1:
            near = np.asarray(near, dtype=np.int64)
            blocked[near[kernels.squared_distances(coords[near], coords[cand]) < thr2]] = True
    return np.asarray(chosen, dtype=np.int64)


def tree_nearest_coords(query_coords, center_coords):
    """The nearest center per query from a tree over the centers; where the
    second-nearest lies within TIE_RTOL of the nearest, re-decided exactly."""
    q = np.asarray(query_coords, dtype=np.float64)
    cc = np.asarray(center_coords, dtype=np.float64)
    best_idx = np.zeros(q.shape[0], dtype=np.int64)
    if q.shape[0] and cc.shape[0] > 1:
        tree = cKDTree(cc)
        d, nearest = tree.query(q, k=2)
        best_idx[:] = nearest[:, 0]
        close = np.flatnonzero(d[:, 1] <= d[:, 0] * (1.0 + TIE_RTOL))
        if close.size:
            cand = tree.query_ball_point(q[close], d[close, 0] * (1.0 + TIE_RTOL))
            counts = np.fromiter(map(len, cand), dtype=np.int64, count=close.size)
            cols = np.concatenate(cand).astype(np.int64)
            starts = np.cumsum(counts) - counts
            dsq = kernels.squared_distances(q[np.repeat(close, counts)], cc[cols])
            tied = dsq == np.repeat(np.minimum.reduceat(dsq, starts), counts)
            best_idx[close] = np.minimum.reduceat(np.where(tied, cols, cc.shape[0]), starts)
    return best_idx, np.sqrt(kernels.squared_distances(q, cc[best_idx]))


def tree_balls_coords(coords, center_coords, radius):
    """(center rows, point rows, distances): one pair query between trees over
    the centers and the points at the widened radius."""
    cc = np.asarray(center_coords, dtype=np.float64)
    pairs = cKDTree(cc).sparse_distance_matrix(cKDTree(coords), radius * (1.0 + TIE_RTOL),
                                               output_type="ndarray")
    centers = pairs["i"].astype(np.int64)
    points = pairs["j"].astype(np.int64)
    return centers, points, np.sqrt(kernels.squared_distances(coords[points], cc[centers]))


def tree_ball(space, x, r):
    """The ball's members from a tree query at the widened base radius, decided
    by ``pairs``."""
    index = space.index
    wide = index.base_radius(r) * (1.0 + TIE_RTOL)
    cand = np.asarray(cKDTree(space.coords).query_ball_point(space.coords[x], wide),
                      dtype=np.int64)
    return np.sort(cand[index.pairs(x, cand) < r])


def tree_closest_pair(space, ids):
    """Every pair near the tree's least distance, decided by ``pairs``; the first
    tied pair in (i, j) order."""
    tree = cKDTree(space.coords[ids])
    near, _ = tree.query(space.coords[ids], k=2)
    cand = tree.query_pairs(float(near[:, 1].min()) * (1.0 + TIE_RTOL), output_type="ndarray")
    d = space.index.pairs(ids[cand[:, 0]], ids[cand[:, 1]])
    tied = np.flatnonzero(d == d.min())
    i, j = cand[tied[np.lexsort((cand[tied, 1], cand[tied, 0]))[0]]]
    return float(d[tied[0]]), (int(ids[i]), int(ids[j]))


def scan_net_matrix(dmat, order, threshold):
    """The greedy scan over a distance matrix: admit a point iff its distances
    to the admitted ones are all >= threshold."""
    chosen = np.empty(dmat.shape[0], dtype=np.int64)
    k = 0
    for cand in order:
        if k == 0 or dmat[cand, chosen[:k]].min() >= threshold:
            chosen[k] = cand
            k += 1
    return chosen[:k].copy()


def _codes(space):
    return np.array([[ord(ch) for ch in s] for s in space.strings], dtype=np.int16)


def old_ultra_row(space, p, codes=None):
    """Distances from p by comparing every string with p's, as ``row`` did."""
    codes = _codes(space) if codes is None else codes
    d = space.descriptor
    neq = codes != codes[p]
    length = codes.shape[1]
    lcp = np.where(neq.any(axis=1), np.argmax(neq, axis=1), length)
    base = np.power(d.base, lcp.astype(np.float64))
    base[lcp == length] = 0.0
    if d.epsilon != 1.0:
        base = np.power(base, d.epsilon)
    if d.scale != 1.0:
        base = base * d.scale
    return base


def old_ultra_matrix(space):
    codes = _codes(space)
    return np.vstack([old_ultra_row(space, p, codes) for p in range(space.n)])


def oracle_diameter(dmat, ids):
    """The largest entry of the oracle distance matrix over ids x ids."""
    return float(dmat[np.ix_(ids, ids)].max())


def _distinct(space, a, b):
    """Whether the points of ids ``a`` and ``b`` differ, elementwise."""
    if space.coords is not None:
        return (space.coords[a] != space.coords[b]).any(axis=1)
    if space.strings is not None:
        strings = np.asarray(space.strings)
        return strings[a] != strings[b]
    return a != b


def oracle_min_gap(space, dmat):
    """The least oracle distance between two distinct points; inf when there are none."""
    a, b = (x.ravel() for x in np.meshgrid(space.ids, space.ids, indexing="ij"))
    distinct = _distinct(space, a, b)
    return float(dmat.ravel()[distinct].min()) if distinct.any() else float("inf")


def old_separation(rows, centers, sep_required):
    """(worst separation ratio, witness) by one row per center, as ``verify_net`` did."""
    worst, witness = float("inf"), None
    for i, c in enumerate(centers[:-1]):
        row = rows(c)[centers[i + 1:]]
        j = int(np.argmin(row))
        if row[j] < worst:
            worst = float(row[j])
            witness = (int(c), int(centers[i + 1 + j]))
    return worst / sep_required, witness


def old_net(space, k, params, seed, dmat=None):
    order = scan_order(space.n, seed, k)
    t = params.separation(k)
    if dmat is None:
        return np.sort(scan_net_coords(space.coords, order, space.index.base_radius(t)))
    return np.sort(scan_net_matrix(dmat, order, t))


def old_nearest(space, centers, query_ids, dmat=None):
    if dmat is None:
        idx, d = kernels.nearest_center_coords(space.coords[query_ids], space.coords[centers])
        return idx, space.descriptor.transform(d)
    return kernels.nearest_center_matrix(dmat, query_ids, centers)


def assert_system_matches_oracle(space, seed, max_level, ultrametric):
    dense_calls = []
    with mock.patch.object(MetricSpace, "distance_matrix", dense_calls.append):
        system = build_system(space, NetParams(), seed=seed, max_level=max_level)
    assert dense_calls == []
    norm = system.space
    dmat = old_ultra_matrix(norm) if ultrametric else None
    levels = [old_net(norm, k, NetParams(), seed, dmat) for k in range(max_level + 1)]
    for level, want in zip(system.levels, levels):
        assert np.array_equal(level.centers, want)
    for k in range(1, max_level + 1):
        pidx, _ = old_nearest(norm, levels[k - 1], levels[k], dmat)
        assert np.array_equal(system.parent_idx[k], pidx)
    labels, _ = old_nearest(norm, levels[-1], norm.ids, dmat)
    for k in range(max_level, -1, -1):
        assert np.array_equal(system.labels[k], labels)
        if k:
            labels = system.parent_idx[k][labels]


@st.composite
def ultra_spaces(draw, bases=(1 / 16, 0.2, 0.25, 0.5)):
    """1 to 60 strings of length 1 to 9 over 2 or 3 symbols, some repeated,
    under a snowflake exponent and a scale."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    n = draw(st.integers(min_value=1, max_value=60))
    arity = draw(st.integers(min_value=2, max_value=3))
    words = rng.integers(0, arity, size=(n, draw(st.integers(min_value=1, max_value=9))))
    if draw(st.booleans()):
        words[rng.integers(n, size=n // 3)] = words[rng.integers(n, size=n // 3)]
    desc = MetricDescriptor("ultrametric", arity=arity,
                            base=draw(st.sampled_from(bases)))
    space = MetricSpace(desc, strings=["".join(map(str, w)) for w in words])
    epsilon = draw(st.sampled_from([1.0, 0.3, 0.7]))
    if epsilon != 1.0:
        space = space.snowflaked(epsilon)
    scale = draw(st.sampled_from([1.0, 0.37, 3.0]))
    return space.rescaled(scale) if scale != 1.0 else space


@st.composite
def lattices(draw, dims=(1, 2, 3, 5)):
    """2 to 60 points in unsorted id order: a 1- to 5-D lattice with spacing
    1/8, some points repeated and, at random, some moved one ulp up; or the
    lattice's rows scaled by 2**-30 or 2**29, where a difference between the
    two clusters rounds away the small one's spread; or uniform floats; or
    either moved 1e8 from the origin, where the grid of the cell index must
    absorb the rounding of the coordinates. At random, a third of the points
    repeat others. Euclidean or snowflaked, at a unit or other scale."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    n = draw(st.integers(min_value=2, max_value=60))
    dim = draw(st.sampled_from(dims))
    kind = draw(st.sampled_from(["lattice", "spread", "uniform"]))
    if kind == "uniform":
        pts = rng.uniform(size=(n, dim))
    else:
        pts = rng.integers(0, 6, size=(n, dim)) / 8.0
        if kind == "spread":
            pts *= 2.0 ** rng.choice([-30, 29], size=(n, 1))
        elif draw(st.booleans()):  # pairs an ulp off the lattice spacings
            bump = (rng.random(pts.shape) < 0.3) & (pts > 0)
            pts[bump] = np.nextafter(pts[bump], np.inf)
    if kind != "spread" and draw(st.booleans()):
        pts += 1e8
    if draw(st.booleans()):
        pts[rng.integers(n, size=n // 3)] = pts[rng.integers(n, size=n // 3)]
    space = MetricSpace(MetricDescriptor("euclidean"), coords=pts)
    epsilon = draw(st.sampled_from([1.0, 0.5, 0.8]))
    if epsilon != 1.0:
        space = space.snowflaked(epsilon)
    scale = draw(st.sampled_from([1.0, 0.37, 3.0]))
    return space.rescaled(scale) if scale != 1.0 else space


def same_bits(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def oracle_ball_greedy(space, E, r):
    """The greedy cover's blocks as the ball loop took them on every kind: each
    start's near set is the index's closed ball over the ids still uncovered,
    taken whole at diameter <= r and grown otherwise."""
    E = np.asarray(E, dtype=np.int64)
    if E.size == 1 or space.diameter(E) <= r:
        return [np.unique(E)]
    live = np.zeros(space.n, dtype=bool)
    live[E] = True
    closed = np.nextafter(r, np.inf)
    sets = []
    for start in np.flatnonzero(live):
        if not live[start]:
            continue
        ball = space.index.ball(start, closed)
        near = ball[live[ball]]
        if near.size == 1 or space.diameter(near) <= r:
            block = near
        else:
            block = oracle_grow_set(space, start, near, r)
        live[block] = False
        sets.append(block)
    return sets


def old_line_net(index, order, t):
    """The line net as it scanned every point of ``order`` in Python: each
    point not yet blocked is admitted and blocks the run of ranks within the
    separation, found by binary search at the widened separation and trimmed
    at both ends by the squared distance."""
    sep = index.base_radius(t)
    sep2 = sep * sep
    wide = sep * (1.0 + kernels.TIE_RTOL)
    xs, rank = index.sorted.tolist(), index.rank.tolist()
    blocked = bytearray(len(xs))
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
        if not near(xs[lo]):
            lo = bisect_left(xs, True, lo, r, key=near)
        hi = bisect_right(xs, c + wide, r + 1)
        if hi > r + 1 and not near(xs[hi - 1]):
            hi = bisect_left(xs, True, r + 1, hi, key=lambda y: not near(y))
        blocked[lo:hi] = b"\x01" * (hi - lo)
    return np.asarray(chosen, dtype=np.int64)


def one_run(space, x, r):
    """(lo, hi) of ``ball_run`` asked for one ball, as one-element arrays."""
    lo, hi = space.index.ball_run(np.array([x], dtype=np.int64), np.array([r], dtype=np.float64))
    return int(lo[0]), int(hi[0])


def assert_ball_run(space, x, r, want):
    """``ball_run`` gives the ranks of the ball's members ``want``, x's among them."""
    lo, hi = one_run(space, x, r)
    assert lo <= space.index.rank[x] < hi
    assert np.array_equal(np.sort(space.index.order[lo:hi]), want)


def assert_ball_runs_of_radii(space, x, radii):
    """An array of radii, each with x, gives the runs of its radii, one by one,
    and so does each radius paired with an id of an array of as many, x and
    its neighbours in id."""
    radii = np.asarray(radii, dtype=np.float64)
    lo, hi = space.index.ball_run(np.full(radii.size, x), radii)
    assert lo.shape == hi.shape == radii.shape
    assert list(zip(lo.tolist(), hi.tolist())) == [one_run(space, x, r) for r in radii]
    xs = (x + np.arange(radii.size)) % space.n
    lo, hi = space.index.ball_run(xs, radii)
    assert list(zip(lo.tolist(), hi.tolist())) == [one_run(space, int(p), r)
                                                   for p, r in zip(xs, radii)]


def _subset(data, n):
    ids = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1,
                             max_size=n, unique=True))
    return np.asarray(ids, dtype=np.int64)


class TestUltrametric:
    @given(space=ultra_spaces(TINY_BASES), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_rows_balls_and_diameters(self, space, data):
        dmat = old_ultra_matrix(space)
        for p in range(space.n):
            assert space.row(p).tobytes() == dmat[p].tobytes()
        a, b = _subset(data, space.n), _subset(data, space.n)
        m = min(a.size, b.size)
        assert space.pair_distances(a[:m], b[:m]).tobytes() == dmat[a[:m], b[:m]].tobytes()
        values = np.unique(dmat)
        for x in range(0, space.n, 7):
            radii = np.ravel([(r, np.nextafter(r, np.inf)) for r in values[values > 0]])
            for radius in radii:
                want = np.flatnonzero(dmat[x] < radius)
                got = space.ball_members(x, radius)
                assert got.dtype == np.int64 and np.array_equal(got, want)
                assert_ball_run(space, x, radius, want)
            assert_ball_runs_of_radii(space, x, radii)
        ids = _subset(data, space.n)
        assert space.diameter(ids) == oracle_diameter(dmat, ids)
        assert space.diameter() == oracle_diameter(dmat, space.ids)
        assert space.min_positive_distance() == oracle_min_gap(space, dmat)
        assert space.distance_matrix().tobytes() == dmat.tobytes()

    @given(space=ultra_spaces(TINY_BASES), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_nets_nearest_centers_and_separation(self, space, data):
        dmat = old_ultra_matrix(space)
        index = space.index
        values = np.unique(dmat)
        seed = data.draw(st.integers(min_value=0, max_value=50))
        for k, t in enumerate(np.concatenate([values[values > 0], [values.max() * 2]])):
            for threshold in (t, np.nextafter(t, np.inf)):
                order = scan_order(space.n, seed, k)
                want = scan_net_matrix(dmat, order, threshold)
                assert np.array_equal(index.net(order, threshold), want)
                assert np.array_equal(kernels.greedy_net_matrix(dmat, order, threshold), want)
        centers = _subset(data, space.n)
        queries = _subset(data, space.n)
        for q in (queries, space.ids):
            idx, dist = index.nearest(q, centers)
            want_idx, want_dist = kernels.nearest_center_matrix(dmat, q, centers)
            assert np.array_equal(idx, want_idx) and dist.tobytes() == want_dist.tobytes()
        if centers.size > 1:
            level = NetLevel(k=1, centers=centers, params=NetParams(), seed=0)
            check = verify_net(space, level)
            want = old_separation(lambda c: dmat[c], centers, NetParams().separation(1))
            assert (check.worst_separation_ratio,
                    check.witnesses["separation_pair"]) == want

    @given(space=ultra_spaces(), seed=st.integers(min_value=0, max_value=50),
           max_level=st.integers(min_value=0, max_value=4))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_system_matches_matrix_kernels(self, space, seed, max_level):
        assert_system_matches_oracle(space, seed, max_level, ultrametric=True)

    @given(space=ultra_spaces(TINY_BASES), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_greedy_cover_takes_each_run_whole(self, space, data):
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        E = np.sort(rng.choice(space.n, size=int(rng.integers(1, space.n + 1)), replace=False))
        repeated = rng.permutation(np.concatenate([E, rng.choice(E, size=3)]))
        values = np.unique(space.index.dist)
        values = values[values > 0]
        # r on a distance of the table and one ulp either side of it
        for r in np.concatenate([values, np.nextafter(values, np.inf),
                                 np.nextafter(values, 0.0)]):
            want = oracle_ball_greedy(space, E, r)
            for target in (E, repeated):
                got = greedy_cover_count(space, target, r, return_sets=True)
                assert len(got) == len(want) == greedy_cover_count(space, target, r)
                assert all(same_bits(g, w) for g, w in zip(got, want))

    @given(space=ultra_spaces(TINY_BASES), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_clones_share_the_sorted_order(self, space, data):
        d = space.descriptor
        raw = MetricSpace(MetricDescriptor("ultrametric", arity=d.arity, base=d.base),
                          strings=space.strings)
        clone = raw.snowflaked(data.draw(st.sampled_from([1.0, 0.3, 0.7]))).rescaled(
            data.draw(st.sampled_from([1.0, 0.37, 3.0])))
        fresh = MetricSpace(clone.descriptor, strings=space.strings)
        assert clone.index.order is raw.index.order and clone.index.rank is raw.index.rank
        assert clone.index.adjacent is raw.index.adjacent
        assert fresh.index.order is not raw.index.order
        a, b = (x.ravel() for x in np.meshgrid(space.ids, space.ids))
        assert same_bits(clone.pair_distances(a, b), fresh.pair_distances(a, b))
        centers = _subset(data, space.n)
        for got, want in zip(clone.index.nearest(space.ids, centers),
                             fresh.index.nearest(space.ids, centers)):
            assert same_bits(got, want)
        values = np.unique(fresh.index.dist)
        radii = np.concatenate([values, np.nextafter(values, np.inf)])
        radii = radii[radii > 0]
        for x in range(0, space.n, 5):
            xs = np.full(radii.size, x)
            for got, want in zip(clone.index.ball_run(xs, radii), fresh.index.ball_run(xs, radii)):
                assert same_bits(got, want)
        ids = np.random.default_rng(space.n).permutation(space.n)
        bounds = np.unique(np.concatenate([[0, space.n], ids[:3]]))  # some runs of one id
        assert same_bits(clone.run_diameters(ids, bounds), fresh.run_diameters(ids, bounds))


class TestMatrix:
    @given(data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_net_matches_scan(self, data):
        # small integer distances: many pairs lie exactly at each threshold
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        n = data.draw(st.integers(min_value=1, max_value=60))
        upper = np.triu(rng.integers(1, 5, size=(n, n)).astype(np.float64), 1)
        dmat = upper + upper.T
        for t in (1.0, 2.0, np.nextafter(2.0, np.inf), 3.0, 4.0, 5.0):
            order = rng.permutation(n)[:data.draw(st.integers(min_value=0, max_value=n))]
            assert np.array_equal(kernels.greedy_net_matrix(dmat, order, t),
                                  scan_net_matrix(dmat, order, t))


class TestCoordinates:
    """Coordinates in one to five dimensions through ``kernels.CellIndex``,
    against the scans above and the tree kernels it replaced; thresholds and
    radii sit on the lattice spacings, on pair distances and one ulp to either
    side of them."""

    @given(space=lattices(dims=(1, 2, 3, 4, 5)), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_net_matches_scan(self, space, data):
        coords = space.coords
        cells = kernels.CellIndex(coords)
        seed = data.draw(st.integers(min_value=0, max_value=50))
        # the kernel's own turn from rows to cells, or the turn forced before the
        # first row, after it, or a few rows in
        rows = data.draw(st.sampled_from([kernels.ROW_PAIRS, 0, 1, 3 * space.n]))
        share = kernels.ROW_SHARE if rows == kernels.ROW_PAIRS else 0
        # lattice spacings and pair distances: many pairs lie exactly at the separation
        ticks = [j / 8.0 for j in range(1, 6)] + [float(np.sqrt(2.0) / 8.0), 2.0]
        ticks += _near_values(np.unique(kernels.pairwise_distances(coords)), 3, data)

        def scan(k):
            order = scan_order(space.n, seed, k)
            if k % 2:  # a partial scan, as the doubling estimate makes
                order = order[:data.draw(st.integers(min_value=0, max_value=space.n))]
            return order

        with mock.patch.object(kernels, "ROW_PAIRS", rows), \
                mock.patch.object(kernels, "ROW_SHARE", share):
            for k, t in enumerate(ticks):
                order = scan(k)
                net = kernels.greedy_net_coords(cells, order, t)
                assert np.array_equal(net, scan_net_coords(coords, order, t))
                assert np.array_equal(net, tree_net_coords(coords, order, t))
            # the index's nets, in the space and a rescaled and snowflaked clone:
            # below, at and an ulp either side of the least gap, where a level is
            # taken whole, and at 0, where every point is admitted
            for sp in (space, space.rescaled(2.0).snowflaked(0.5)):
                index = CoordIndex(sp)
                gap = index.least_gap  # known: the index may take a level whole
                seps = [0.0, *(sp.descriptor.transform(t) for t in ticks)]
                if np.isfinite(gap):
                    seps += [gap / 2.0, np.nextafter(gap, 0.0), gap, np.nextafter(gap, np.inf)]
                for k, t in enumerate(seps):
                    order = scan(k)
                    assert np.array_equal(index.net(order, t),
                                          scan_net_coords(coords, order, index.base_radius(t)))

    def test_a_separation_below_the_least_gap_may_still_block(self):
        # the separation is below the least gap, yet its squared base radius rounds
        # past the pair's squared distance: the kernel blocks the pair, so the level
        # is not taken whole (the least gap's TIE_RTOL margin)
        coords = np.array([[0.0, 0.0], [0.0033582862360620716, 0.0]])
        space = MetricSpace(MetricDescriptor("euclidean"), coords=coords)
        index = CoordIndex(space.snowflaked(0.7).rescaled(1.0999753003745467))
        t = 0.020401651747504437
        assert t < index.least_gap
        sep = index.base_radius(t)
        assert sep * sep > float(kernels.square_sums(coords[1], coords[0]))
        order = np.array([0, 1])
        assert np.array_equal(index.net(order, t), scan_net_coords(coords, order, sep))
        assert index.net(order, t).size == 1

    @given(space=lattices(), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_separation_matches_row_scan(self, space, data):
        centers = _subset(data, space.n)
        if data.draw(st.booleans()):
            net = kernels.greedy_net_coords(kernels.CellIndex(space.coords), space.ids, 1 / 8)
            centers = np.sort(net) if net.size > 1 else centers
        if centers.size < 2:
            return
        k = data.draw(st.integers(min_value=0, max_value=2))
        level = NetLevel(k=k, centers=centers, params=NetParams(), seed=0)
        check = verify_net(space, level)
        want = old_separation(space.row, centers, NetParams().separation(k))
        assert (check.worst_separation_ratio, check.witnesses["separation_pair"]) == want
        assert CoordIndex(space).closest_pair(centers) == tree_closest_pair(space, centers)

    @given(space=lattices(), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_nearest_centers_match_scan_and_tree(self, space, data):
        # centers in drawn order, some at one place: ties go to the lowest row
        coords, index = space.coords, CoordIndex(space)
        centers = _subset(data, space.n)
        for q in (_subset(data, space.n), space.ids):
            idx, dist = index.nearest(q, centers)
            diff = coords[q][:, None, :] - coords[centers][None, :, :]
            dsq = np.einsum("ijk,ijk->ij", diff, diff)
            want = np.argmin(dsq, axis=1)
            assert np.array_equal(idx, want)
            want_dist = space.descriptor.transform(np.sqrt(dsq[np.arange(q.size), want]))
            assert dist.tobytes() == want_dist.tobytes()
            tree_idx, tree_dist = tree_nearest_coords(coords[q], coords[centers])
            assert np.array_equal(idx, tree_idx)
            assert dist.tobytes() == space.descriptor.transform(tree_dist).tobytes()

    @given(space=lattices(), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_inner_balls_match_tree(self, space, data):
        # radii in the base metric, which the tree measures: the points' own
        # Euclidean space answers them. Where every point is a center, in id
        # order, center p's ball is taken to hold p and the lowest id at its
        # place, and no cell is looked in
        coords, centers = space.coords, _subset(data, space.n)
        if data.draw(st.booleans()):  # every point a center, some repeated
            centers = space.ids
        whole = np.array_equal(centers, space.ids)
        _, first, place = np.unique(coords, axis=0, return_index=True, return_inverse=True)
        lowest = first[place.ravel()]
        plain = MetricSpace(MetricDescriptor("euclidean"), coords=coords)
        base = np.unique(kernels.pairwise_distances(coords))
        for r in _near_values(base, 3, data) + [0.125, 1.0]:
            got = CoordIndex(plain).inner_balls(centers, r)
            got = {(int(i), int(p)) for i, p in zip(*got)}
            owner, points, d = tree_balls_coords(coords, coords[centers], r)
            # the tree's widened radius lists a few more
            want = {(int(i), int(p)) for i, p in zip(owner[d < r], points[d < r])}
            if whole:
                assert got == {(p, p) for p in range(space.n)} | {
                    (p, int(lowest[p])) for p in range(space.n)}
                assert got <= want
            else:
                assert got == want

    @given(space=lattices(), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_balls_closest_pairs_and_gaps(self, space, data):
        index = CoordIndex(space)
        dmat = space.distance_matrix()
        for p in np.unique(space.coords, axis=0, return_index=True)[1][:4]:
            for r in _near_values(np.unique(dmat[p]), 4, data) + [0.3, 2.0]:
                want = np.flatnonzero(dmat[p] < r)
                got = index.ball(p, r)
                assert got.dtype == np.int64 and np.array_equal(got, want)
                assert np.array_equal(tree_ball(space, p, r), want)
        ids = _subset(data, space.n)
        if ids.size > 1:
            want = old_separation(lambda c: dmat[c], ids, 1.0)
            assert index.closest_pair(ids) == want == tree_closest_pair(space, ids)
        gaps = dmat[dmat > 0]
        assert index.min_gap() == (gaps.min() if gaps.size else float("inf"))
        among = _subset(data, space.n)
        got = index.least_positive(ids, among)
        want = super(CoordIndex, index).least_positive(ids, among)  # the rows decide
        assert got.tobytes() == want.tobytes()

    @given(space=lattices(), seed=st.integers(min_value=0, max_value=50),
           max_level=st.integers(min_value=0, max_value=3))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_system_matches_scan(self, space, seed, max_level):
        # repeated points make min_positive_distance() 0 on coordinates
        pts = np.unique(space.coords, axis=0)
        if pts.shape[0] > 1:
            space = MetricSpace(space.descriptor, coords=pts)
            assert_system_matches_oracle(space, seed, max_level, ultrametric=False)

    def test_far_centers_widen_the_nearest_search(self, tmp_path):
        # a loaded family whose deepest centers sit in one corner of the square
        # leaves most points far from every center: each point's one look
        # reaches out to the nearest center its probe found, and the reload
        # refuses the file
        space = MetricSpace(MetricDescriptor("euclidean"),
                            coords=np.random.default_rng(5).uniform(size=(400, 2)))
        system = build_system(space, NetParams(), seed=3, max_level=2)
        deepest = system.levels[2].centers
        corner = deepest[space.coords[deepest].sum(axis=1) < 0.5]
        norm = system.space
        idx, dist = norm.index.nearest(norm.ids, corner)
        want_idx, want_dist = tree_nearest_coords(norm.coords, norm.coords[corner])
        assert np.array_equal(idx, want_idx)
        assert dist.tobytes() == norm.descriptor.transform(want_dist).tobytes()
        assert dist.max() > 0.5  # far beyond the centers' own spacing
        path = tmp_path / "cubes.json"
        save_family(build_adjacent_family(space, NetParams(), K_max=1, query_budget=8,
                                          seed=3), path)
        doc = json.loads(path.read_text())
        sdoc = doc["systems"][0]
        deepest = np.asarray(sdoc["levels"][-1]["centers"])
        kept = deepest[space.coords[deepest].sum(axis=1) < 0.5]
        sdoc["levels"][-1]["centers"] = kept.tolist()
        # the deepest level's (child, parent) pairs are the last, one per center
        pairs = sdoc["parents"]
        sdoc["parents"] = pairs[:-deepest.size] + [pair for pair in pairs[-deepest.size:]
                                                   if pair[0] in set(kept.tolist())]
        write_cubes_doc(path, doc)
        with pytest.raises(StaleCubesError):
            load_family(path, space)


def _near_values(values, count, data):
    """Up to ``count`` of the positive ``values``, each also one ulp below and above."""
    values = values[values > 0]
    if values.size == 0:  # every point at one place
        return []
    picks = data.draw(st.lists(st.sampled_from(values), max_size=count, unique=True))
    return [t for v in picks for t in (np.nextafter(v, 0.0), v, np.nextafter(v, np.inf))]


@st.composite
def lines(draw):
    """A ``lattices`` line, or 2 to 60 multiples of 1/8 in random id order,
    where points repeat and many sit at the midpoint of two others, perhaps
    snowflaked or rescaled."""
    if draw(st.booleans()):
        return draw(lattices(dims=(1,)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    n = draw(st.integers(min_value=2, max_value=60))
    x = rng.integers(0, draw(st.sampled_from([4, 16, 64])), size=n) / 8.0
    space = MetricSpace(MetricDescriptor("euclidean"), coords=x)
    eps = draw(st.sampled_from([1.0, 0.5]))
    space = space if eps == 1.0 else space.snowflaked(eps)
    scale = draw(st.sampled_from([1.0, 0.37]))
    return space if scale == 1.0 else space.rescaled(scale)


class TestLine:
    """1-D coordinates read off one sorted order (``LineIndex``), against the
    scan oracles above and against the cell index (``CoordIndex``) built on the
    same space; thresholds and radii sit exactly on member distances and one
    ulp to either side."""

    @given(space=lattices(dims=(1,)), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_net_matches_scan_and_tree(self, space, data):
        index, cells = space.index, CoordIndex(space)
        assert isinstance(index, LineIndex)
        seed = data.draw(st.integers(min_value=0, max_value=50))
        thresholds = _near_values(np.unique(space.distance_matrix()), 6, data)
        for k, t in enumerate(thresholds + [0.125, 0.25, 2.0 * space.diameter() + 1.0]):
            order = scan_order(space.n, seed, k)
            if k % 2:  # a partial scan, as the doubling estimate makes
                order = order[:data.draw(st.integers(min_value=0, max_value=space.n))]
            want = scan_net_coords(space.coords, order, index.base_radius(t))
            assert np.array_equal(index.net(order, t), want)
            assert np.array_equal(cells.net(order, t), want)

    @given(space=lattices(dims=(1,)), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_nearest_centers_match_scan_and_tree(self, space, data):
        # centers in drawn order, some at one coordinate: ties go to the lowest row,
        # between the predecessor and the successor, within a repeated point, and
        # among distinct centers whose differences to a far query round equal
        x, cells = space.coords[:, 0], CoordIndex(space)
        drawn = _subset(data, space.n)
        if data.draw(st.booleans()):  # the first center's repeats, highest id first
            twins = np.setdiff1d(np.flatnonzero(x == x[drawn[0]]), drawn)
            drawn = np.concatenate([drawn, twins[::-1]])
        # every other coordinate puts lattice queries midway between two centers;
        # the points up to the median leave far queries in a spread space
        spaced = [np.isin(x, np.unique(x)[::2]), x <= np.median(x)]
        for centers in [drawn] + [np.asarray(data.draw(st.permutations(np.flatnonzero(c).tolist())),
                                             dtype=np.int64) for c in spaced]:
            for q in (_subset(data, space.n), space.ids):
                idx, dist = space.index.nearest(q, centers)
                diff = x[q][:, None] - x[centers][None, :]
                dsq = diff * diff
                want = np.argmin(dsq, axis=1)  # the first of equal minima: the lowest row
                assert np.array_equal(idx, want)
                want_dist = space.descriptor.transform(np.sqrt(dsq[np.arange(q.size), want]))
                assert dist.tobytes() == want_dist.tobytes()
                cell_idx, cell_dist = cells.nearest(q, centers)
                assert np.array_equal(idx, cell_idx) and dist.tobytes() == cell_dist.tobytes()

    @given(space=lattices(dims=(1,)), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_balls_pairs_gaps_and_diameters(self, space, data):
        dmat = space.distance_matrix()
        cells = CoordIndex(space)
        # one point per coordinate, six at most; radii at each of its distances
        for p in np.unique(space.coords[:, 0], return_index=True)[1][:6]:
            radii = _near_values(np.unique(dmat[p]), space.n, data)
            for r in radii:
                want = np.flatnonzero(dmat[p] < r)
                got = space.ball_members(p, r)
                assert got.dtype == np.int64 and np.array_equal(got, want)
                assert np.array_equal(cells.ball(p, r), want)
                assert_ball_run(space, p, r, want)
            assert_ball_runs_of_radii(space, p, radii)
        ids = _subset(data, space.n)
        for subset in (ids, space.ids):
            if subset.size > 1:
                want = old_separation(lambda c: dmat[c], subset, 1.0)
                assert space.index.closest_pair(subset) == want == cells.closest_pair(subset)
        gaps = dmat[dmat > 0]
        want_gap = gaps.min() if gaps.size else float("inf")
        assert space.min_positive_distance() == want_gap == cells.min_gap()
        # a diameter is the largest distance of the run, as the rows compute it
        cuts = data.draw(st.lists(st.integers(0, ids.size), max_size=4))
        bounds = np.unique(np.concatenate([[0, ids.size], cuts])).astype(np.int64)
        want = [oracle_diameter(dmat, run) for run in np.split(ids, bounds[1:-1])]
        assert space.run_diameters(ids, bounds).tobytes() == np.asarray(want).tobytes()
        assert space.diameter(ids) == oracle_diameter(dmat, ids)


    @given(space=lines(), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_net_matches_the_per_point_scan(self, space, data):
        # separations on each gap between sorted neighbours and one ulp either
        # side; full scans, prefixes of them and ascending subsets, as the
        # doubling estimate passes
        gaps = np.unique(space.pair_distances(space.index.order[:-1], space.index.order[1:]))
        for k, t in enumerate(_near_values(gaps, 6, data) + [2.0 * space.diameter() + 1.0]):
            full = scan_order(space.n, data.draw(st.integers(min_value=0, max_value=50)), k)
            for order in (full, full[:data.draw(st.integers(0, space.n))],
                          _subset(data, space.n)):
                assert same_bits(space.index.net(order, t), old_line_net(space.index, order, t))

    @given(space=lines(), data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_greedy_blocks_are_rank_runs(self, space, data):
        # the ball-by-ball loop's blocks, on targets that are strict subsets or
        # repeat ids and at radii on pair distances and an ulp either side: each
        # is one run of the target's distinct ids in rank order, and the
        # blocks read off those runs are the loop's
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        E = rng.choice(space.n, size=int(rng.integers(1, space.n + 1)),
                       replace=data.draw(st.booleans()))
        by_rank = space.index.rank[np.unique(E)]
        by_rank.sort()
        for r in _near_values(np.unique(space.distance_matrix()), 5, data):
            want = oracle_ball_greedy(space, E, r)
            for block in want:
                at = np.searchsorted(by_rank, space.index.rank[block])
                assert at.max() - at.min() + 1 == block.size
            got = greedy_cover_count(space, E, r, return_sets=True)
            assert len(got) == len(want) == greedy_cover_count(space, E, r)
            assert all(same_bits(g, w) for g, w in zip(got, want))

    def test_greedy_block_grows_at_a_pair_distance(self):
        # r is the distance 1 between id 0 at 1.0 and its neighbours: the near
        # set of id 0 spans 2 and grows by (distance, id), taking id 1 at 0.0
        # and refusing id 2 at 2.0; id 3 repeats id 0's place and comes with it
        space = MetricSpace(MetricDescriptor("euclidean"), coords=[1.0, 0.0, 2.0, 1.0, 2.5])
        want = [[0, 1, 3], [2, 4]]
        assert [b.tolist() for b in oracle_ball_greedy(space, space.ids, 1.0)] == want
        got = greedy_cover_count(space, space.ids, 1.0, return_sets=True)
        assert [b.tolist() for b in got] == want
        assert greedy_cover_count(space, space.ids, 1.0) == 2
        # just below 1, each id stands alone but id 0 with its repeat
        below = np.nextafter(1.0, 0.0)
        assert [b.tolist() for b in greedy_cover_count(space, space.ids, below,
                                                        return_sets=True)] == [
            [0, 3], [1], [2, 4]]


@st.composite
def matrix_spaces(draw):
    """2 to 60 points with distances in [1/2, 1], so any such matrix is a metric;
    at random on multiples of 1/16, where many tie. Under a snowflake exponent
    and a scale."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    n = draw(st.integers(min_value=2, max_value=60))
    upper = np.triu(rng.uniform(0.5, 1.0, size=(n, n)), 1)
    if draw(st.booleans()):
        upper = np.round(upper * 16.0) / 16.0
    space = MetricSpace(MetricDescriptor("matrix"), matrix=upper + upper.T)
    epsilon = draw(st.sampled_from([1.0, 0.3, 0.7]))
    if epsilon != 1.0:
        space = space.snowflaked(epsilon)
    scale = draw(st.sampled_from([1.0, 0.37, 3.0]))
    return space.rescaled(scale) if scale != 1.0 else space


def oracle_balls(space, centers, r):
    """(owner, members): every pair (i, q) with ``pairs(centers[i], q) < r``, by a
    scan over every center and point, by center and then point."""
    owner, q = np.divmod(np.arange(centers.size * space.n), space.n)
    near = space.index.pairs(centers[owner], q) < r
    return owner[near], q[near]


class TestBalls:
    """``balls`` on every kind against the scan over every center and point."""

    @pytest.mark.parametrize("kind", ["ultrametric", "matrix", "line", "coordinates"])
    @given(data=st.data())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_balls_match_the_pair_scan(self, kind, data):
        space = data.draw({"ultrametric": ultra_spaces(TINY_BASES), "matrix": matrix_spaces(),
                           "line": lines(), "coordinates": lattices(dims=(2, 3, 5))}[kind])
        clone = data.draw(st.sampled_from([None, 0.3, 0.5]))
        if clone is not None:  # the clone shares its source's order or cells
            space.index.balls(space.ids, space.diameter())
            space = space.snowflaked(clone).rescaled(1.0 / clone)
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        shape = data.draw(st.sampled_from(["subset", "repeated", "every"]))
        if shape == "every":
            centers = space.ids
        else:  # unsorted, and with repeated ids at random
            centers = rng.choice(space.n, size=int(rng.integers(1, space.n + 1)),
                                 replace=shape == "repeated")
        owner, q = np.divmod(np.arange(centers.size * space.n), space.n)
        values = np.unique(space.pair_distances(centers[owner], q))
        for r in _near_values(values, 6, data) + [2.0 * space.diameter() + 1.0]:
            got_owner, got_members = space.index.balls(centers, r)
            by_pair = np.lexsort((got_members, got_owner))
            want_owner, want_members = oracle_balls(space, centers, r)
            assert same_bits(got_owner[by_pair], want_owner)
            assert same_bits(got_members[by_pair], want_members)
            x = int(centers[0])
            assert same_bits(space.ball_members(x, r), want_members[want_owner == 0])


class TestDiametersAreDistances:
    """A diameter is the distance of the set's farthest pair, and the least
    gap and the closest pair are distances too, each with the rounding of
    ``pair_distances``: on ultrametrics (base 0.2 and snowflake exponents
    among them), snowflaked lattices in one to three dimensions and
    snowflaked matrix spaces."""

    @given(space=st.one_of(ultra_spaces(TINY_BASES), lattices(), matrix_spaces()),
           data=st.data())
    @settings(max_examples=3 * EXAMPLES, deadline=None)
    def test_diameters_gaps_and_closest_pairs_are_distances(self, space, data):
        a, b = (x.ravel() for x in np.meshgrid(space.ids, space.ids, indexing="ij"))
        dmat = space.pair_distances(a, b).reshape(space.n, space.n)
        for p, q in zip(a[::7], b[::7]):
            assert space.diameter([p, q]) == space.distance(p, q)
        ids = _subset(data, space.n)
        assert space.diameter(ids) == oracle_diameter(dmat, ids)
        assert space.diameter() == oracle_diameter(dmat, space.ids)
        assert space.min_positive_distance() == oracle_min_gap(space, dmat)
        if ids.size > 1:
            want = old_separation(lambda c: dmat[c], ids, 1.0)
            assert space.index.closest_pair(ids) == want
        cuts = data.draw(st.lists(st.integers(0, ids.size), max_size=4))
        bounds = np.unique(np.concatenate([[0, ids.size], cuts])).astype(np.int64)
        want = [oracle_diameter(dmat, run) for run in np.split(ids, bounds[1:-1])]
        assert space.run_diameters(ids, bounds).tobytes() == np.asarray(want).tobytes()

    def test_base_two_tenths_pair(self):
        # the scalar 0.2 ** 2 is 0.04000000000000001; the distance is 0.04
        space = generate(GeneratorSpec(kind="ultrametric_cantor", arity=3, base=0.2, depth=7))
        assert space.distance(1034, 1119) == 0.04
        assert space.diameter([1034, 1119]) == space.distance(1034, 1119)
        assert space.run_diameters([1034, 1119], [0, 2])[0] == 0.04
