"""Contracts of the kernels in ``cubedim.kernels``.

Pairwise distances and the matrix greedy net are NumPy loops. The
coordinate greedy net blocks the points it finds in the cells of a
``kernels.CellIndex`` over all points (its scan and tree oracles are in
``test_net_oracles.py``). Nearest-center search reads a cell index over the
centers and decides every candidate exactly; it is checked bit for bit
against a brute-force scan kept here as the oracle, and so is
``CellIndex.nearest`` itself, with and without ``positive``, on repeated
points and on queries off the index; each of its calls makes one look.
Every squared distance is ``square_sums``, which takes one or two
coordinates one at a time; it is held bit for bit to the ``np.einsum`` over
an array of differences that it replaced, on random sets of one to five
coordinates with repeated points, points 1e8 from the origin and scales
near 1e-8.
Dyadic-rational inputs make every distance comparison exact in float64, so
separation, maximality and ties can be checked exactly there, with no
tolerance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubedim import kernels


def dyadic_coords(n, dim, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 257, size=(n, dim)).astype(np.float64) / 256.0


def brute_force_nearest_rows(query, pts, positive=False):
    """``CellIndex.nearest`` by a full scan: per query the lowest row at the
    least squared distance (passing over 0 when ``positive``), -1 and inf
    where no row is left."""
    diff = query[:, None, :] - pts[None, :, :]
    dsq = np.einsum("ijk,ijk->ij", diff, diff)
    if positive:
        dsq = np.where(dsq > 0.0, dsq, np.inf)
    rows = np.argmin(dsq, axis=1)
    best = dsq[np.arange(len(query)), rows]
    rows[best == np.inf] = -1
    return rows, best


def brute_force_nearest(query_coords, center_coords, chunk=512):
    """Nearest center per query by a full scan; ties go to the earlier center row."""
    q = np.asarray(query_coords, dtype=np.float64)
    cc = np.asarray(center_coords, dtype=np.float64)
    n = q.shape[0]
    best_idx = np.empty(n, dtype=np.int64)
    best_d = np.empty(n, dtype=np.float64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = q[start:stop, None, :] - cc[None, :, :]
        dsq = np.einsum("ijk,ijk->ij", diff, diff)
        best_idx[start:stop] = np.argmin(dsq, axis=1)
        best_d[start:stop] = np.sqrt(dsq[np.arange(stop - start), best_idx[start:stop]])
    return best_idx, best_d


@st.composite
def nearest_inputs(draw):
    """(query coords, center coords) over random floats or a dyadic lattice.

    On the lattice the centers sit on the even sublattice, so a query at odd
    coordinates is equidistant from 2 (1-D) up to 4 (2-D) or 8 (3-D) centers.
    Queries are any subset of the points, with repeats, possibly empty.
    """
    dim = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    if draw(st.booleans()):
        side = 9 if dim < 3 else 5
        axes = np.meshgrid(*[np.arange(side)] * dim, indexing="ij")
        ticks = np.column_stack([a.ravel() for a in axes])
        coords = ticks / (side - 1.0)
        even = np.flatnonzero(np.all(ticks % 2 == 0, axis=1))
        size = draw(st.integers(min_value=1, max_value=even.size))
        centers = rng.permutation(even)[:size]
    else:
        n = draw(st.integers(min_value=1, max_value=120))
        coords = rng.uniform(-1.0, 1.0, size=(n, dim)) * 10.0 ** draw(
            st.integers(min_value=-6, max_value=6))
        size = draw(st.integers(min_value=1, max_value=n))
        centers = rng.choice(n, size=size, replace=draw(st.booleans()))
    n = coords.shape[0]
    if draw(st.booleans()):
        queries = np.arange(n)
    else:
        queries = np.asarray(draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                           max_size=60)), dtype=np.int64)
    return coords[queries].reshape(-1, dim), coords[centers]


def assert_separated_and_maximal(coords, order, net, thr):
    pts = coords[net]
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    d[np.diag_indices_from(d)] = np.inf
    assert d.min() >= thr
    rest = np.setdiff1d(order, net)
    diff = coords[rest][:, None, :] - pts[None, :, :]
    dr = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    assert dr.min(axis=1).max() < thr


class TestPairwise:
    def test_symmetric_zero_diagonal(self):
        coords = dyadic_coords(40, 2, 0)
        m = kernels.pairwise_distances(coords)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)


@st.composite
def coordinate_sets(draw):
    """2 to 300 rows of 1 to 5 coordinates: normal or lattice points at a
    scale of 1 or near 1e-8, perhaps moved 1e8 from the origin, and perhaps
    drawn with repeats."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    n = draw(st.integers(min_value=2, max_value=300))
    dim = draw(st.integers(min_value=1, max_value=5))
    scale = draw(st.sampled_from([1.0, 1e-8, 3e-9]))
    if draw(st.booleans()):
        pts = rng.integers(0, 5, size=(n, dim)) * scale
    else:
        pts = rng.normal(size=(n, dim)) * scale
    if draw(st.booleans()):
        pts = pts + rng.choice([-1e8, 1e8], size=dim)
    if draw(st.booleans()):
        pts = pts[rng.integers(n, size=n)]
    return pts, rng


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSquareSums:
    """``square_sums`` against the ``np.einsum`` expressions it replaced: over
    paired rows, over a block of rows against every row, and over the pairs of
    each group of s rows as one group at a time took them."""

    @given(coordinate_sets())
    @settings(max_examples=200, deadline=None)
    def test_matches_einsum_bitwise(self, drawn):
        pts, rng = drawn
        other = pts[rng.permutation(len(pts))]
        diff = pts - other
        assert same_bits(kernels.square_sums(pts, other), np.einsum("ij,ij->i", diff, diff))
        diff = pts[:128, None, :] - pts
        assert same_bits(kernels.square_sums(pts[:128, None, :], pts),
                         np.einsum("ijk,ijk->ij", diff, diff))
        assert same_bits(kernels.square_sums(pts, pts[0]),
                         np.einsum("ij,ij->i", pts - pts[0], pts - pts[0]))
        for s in (2, 3, 7, 128):
            groups = pts[:len(pts) // s * s].reshape(-1, s, pts.shape[1])
            want = [np.einsum("ijk,ijk->ij", g[:, None, :] - g, g[:, None, :] - g)
                    for g in groups]
            assert same_bits(kernels.square_sums(groups[:, :, None], groups[:, None]),
                             np.array(want).reshape(-1, s, s))

    @given(coordinate_sets())
    @settings(max_examples=50, deadline=None)
    def test_pairwise_distances_match_einsum_bitwise(self, drawn):
        pts, _ = drawn
        diff = pts[:, None, :] - pts
        want = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(want, 0.0)
        assert same_bits(kernels.pairwise_distances(pts), want)


class TestNearest:
    @given(nearest_inputs())
    @example((dyadic_coords(30, 2, 1), dyadic_coords(1, 2, 2)))  # one center
    @example((dyadic_coords(0, 2, 1), dyadic_coords(2, 2, 2)))  # zero queries
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_bitwise(self, inputs):
        query, centers = inputs
        idx, dist = kernels.nearest_center_coords(query, centers)
        want_idx, want_dist = brute_force_nearest(query, centers)
        assert idx.dtype == np.int64 and np.array_equal(idx, want_idx)
        assert dist.dtype == np.float64 and dist.tobytes() == want_dist.tobytes()

    def test_lattice_ties_go_to_the_earliest_center_row(self):
        # each query sits at the middle of a lattice cell, equidistant from its
        # four corners; the answer is the corner listed first, in any order
        ticks = np.arange(9) / 8.0
        lattice = np.array([[x, y] for x in ticks for y in ticks])
        mids = lattice[np.all(lattice < 1.0, axis=1)] + 1.0 / 16.0
        for seed in range(3):
            centers = lattice[np.random.default_rng(seed).permutation(len(lattice))]
            idx, dist = kernels.nearest_center_coords(mids, centers)
            for m, i in zip(mids, idx):
                corners = np.flatnonzero(np.all(np.abs(centers - m) == 1.0 / 16.0, axis=1))
                assert corners.size == 4 and i == corners.min()
            assert np.all(dist == np.sqrt(2.0) / 16.0)
        # duplicated center rows: the first copy wins; 0.5 ties with all three
        idx, _ = kernels.nearest_center_coords(np.array([[0.0], [0.5]]),
                                               np.array([[1.0], [0.0], [0.0]]))
        assert list(idx) == [1, 0]

    def test_tie_break_prefers_earlier_center(self):
        coords = np.array([[0.0], [1.0], [0.5]])
        idx, _ = kernels.nearest_center_coords(coords, coords[[0, 1]])
        assert idx[2] == 0
        idx, _ = kernels.nearest_center_coords(coords, coords[[1, 0]])
        assert idx[2] == 0
        dmat = kernels.pairwise_distances(coords)
        idx, _ = kernels.nearest_center_matrix(dmat, np.arange(3), np.array([1, 0]))
        assert idx[2] == 0


class TestNetProperties:
    def test_net_is_separated_and_maximal(self):
        coords = np.random.default_rng(7).uniform(size=(250, 2))
        order = np.arange(250, dtype=np.int64)
        thr = 0.2
        net = kernels.greedy_net_coords(kernels.CellIndex(coords), order, thr)
        assert_separated_and_maximal(coords, order, net, thr)

    @given(st.integers(min_value=0, max_value=119), st.integers(min_value=1, max_value=2))
    @settings(max_examples=15, deadline=None)
    def test_separated_and_maximal_on_random_rotations(self, offset, dim):
        coords = dyadic_coords(120, dim, 4)
        order = np.concatenate([np.arange(offset, 120), np.arange(offset)]).astype(np.int64)
        net = kernels.greedy_net_coords(kernels.CellIndex(coords), order, 1 / 16)
        assert_separated_and_maximal(coords, order, net, 1 / 16)
        dmat = kernels.pairwise_distances(coords)
        assert np.array_equal(kernels.greedy_net_matrix(dmat, order, 1 / 16), net)


def awkward_lattices(dim):
    """Lattice points whose spacings and offsets round: steps of 0.1, 1/3, 0.7
    and 1e-8, some moved 1e8 or more from the origin."""
    rng = np.random.default_rng(dim)
    for step, shift in ((0.1, 1e8), (1 / 3, -1e8), (1e-8, 0.0), (0.125, 3.0), (0.7, 12345.678)):
        yield rng.integers(0, 7, size=(70, dim)) * step + shift


class TestCellIndex:
    """The cells hand out every point a query may need, whatever the rounding
    of the grid: radii sit on pair distances and one ulp above them."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_within_holds_every_pair_up_to_the_radius(self, dim):
        for pts in awkward_lattices(dim):
            cells = kernels.CellIndex(pts)
            diff = pts[:, None, :] - pts[None, :, :]
            dsq = np.einsum("ijk,ijk->ij", diff, diff)
            for t in np.unique(np.sqrt(dsq))[1:]:
                for r in (t, np.nextafter(t, np.inf)):
                    got = np.zeros(dsq.shape, dtype=bool)
                    for qi, rows, near in cells.within(pts, r):
                        got[qi, rows] = True
                        assert near.tobytes() == dsq[qi, rows].tobytes()
                    assert np.array_equal(got, dsq <= r * r)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_nearest_matches_brute_force(self, dim):
        rng = np.random.default_rng(10 + dim)
        for pts in awkward_lattices(dim):
            centers = pts[rng.permutation(pts.shape[0])[:9]]
            queries = np.concatenate([pts, pts + (pts[1] - pts[0]) / 2.0])
            idx, dist = kernels.nearest_center_coords(queries, centers)
            want_idx, want_dist = brute_force_nearest(queries, centers)
            assert np.array_equal(idx, want_idx) and dist.tobytes() == want_dist.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("repeat", [2, 5])
    def test_nearest_rows_match_brute_force(self, dim, repeat):
        # repeated points leave a query's own cell with no positive distance,
        # and identical points leave none at all (-1 and inf); queries off the
        # index sit between lattice points, at random places in the points'
        # box, and 1e8 spans outside it
        rng = np.random.default_rng(30 + dim)
        for pts in [*awkward_lattices(dim), np.full((7, dim), 0.1)]:
            pts = np.repeat(pts, repeat, axis=0)[rng.permutation(pts.shape[0] * repeat)]
            cells = kernels.CellIndex(pts)
            low, span = pts.min(axis=0), np.ptp(pts, axis=0)
            far = 1e8 * (span + 1.0) * rng.choice([-1.0, 1.0], size=(6, dim))
            queries = np.concatenate([pts, pts[:20] + (pts[1] - pts[0]) / 2.0,
                                      low + span * rng.uniform(size=(20, dim)),
                                      pts[:6] + far])
            for positive in (False, True):
                rows, best = cells.nearest(queries, positive=positive)
                want_rows, want_best = brute_force_nearest_rows(queries, pts, positive)
                assert rows.dtype == np.int64 and np.array_equal(rows, want_rows)
                assert best.tobytes() == want_best.tobytes()

    def test_nearest_looks_once(self, monkeypatch):
        # one box per query, bounded before the look: no second round
        looks = []
        boxes = kernels.CellIndex.boxes

        def counted(cells, g, w):
            looks.append(g.shape[1])
            return boxes(cells, g, w)

        monkeypatch.setattr(kernels.CellIndex, "boxes", counted)
        for dim in (1, 2, 3, 5):
            for pts in awkward_lattices(dim):
                for repeat in (1, 2, 5):
                    cells = kernels.CellIndex(np.repeat(pts, repeat, axis=0))
                    for positive in (False, True):
                        looks.clear()
                        cells.nearest(pts, positive=positive)
                        assert looks == [pts.shape[0]]

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_pairs_within_lists_each_close_pair_once(self, dim, monkeypatch):
        # at 7 points at a time, a pair may have its points in two parts
        for points in (kernels.PAIR_POINTS, 7):
            monkeypatch.setattr(kernels, "PAIR_POINTS", points)
            for pts in awkward_lattices(dim):
                cells = kernels.CellIndex(pts)
                diff = pts[:, None, :] - pts[None, :, :]
                dsq = np.einsum("ijk,ijk->ij", diff, diff)
                for t in np.unique(np.sqrt(dsq))[:4]:
                    r = np.nextafter(t, np.inf)
                    seen = np.zeros(dsq.shape, dtype=np.int64)
                    for a, b, near in cells.pairs_within(r):
                        np.add.at(seen, (a, b), 1)
                        np.add.at(seen, (b, a), 1)
                        assert near.tobytes() == dsq[a, b].tobytes()
                    want = (dsq <= r * r) & ~np.eye(len(pts), dtype=bool)
                    assert np.array_equal(seen, want.astype(np.int64))
