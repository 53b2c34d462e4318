"""Work that the exact shortcuts must skip, counted by wrapping functions.

``greedy_cover_count`` takes a near set whole when its diameter is at most
r, and ``circumscribed_cube`` takes R_eff = R when twice the ball's
eccentricity reaches R; on a line and in an ultrametric that eccentricity
comes from two distances, however many members the ball has. The
inner-ball check holds each point of a center's inner ball to that center,
and asks no index for a nearest center, on a damaged system too.
Ultrametric spaces read nets, nearest centers and balls off their sorted
strings and never fill an n x n matrix; a matrix
space transforms its matrix once. Reloading a family queries nearest
centers once per system, for the points that are no deepest center, and
not at all on a plane whose every point is one; ``diams_at`` reads a 1-D
or ultrametric level, the root's too, in one pass with no per-cube
``diameter`` call. The whole space's diameter is its index's: a coordinate
space and its clones take one farthest pair, a matrix index reduces its
matrix once, and a line or an ultrametric reads the two ends of its order,
with no pass over its ids. A
Hausdorff fit finds the cubes meeting E once per level, not once per radius
and exponent, and ``verify`` reads each sandwich check's count off the
ball's local window, with no count of its own.
No pipeline imports SciPy: a line reads nets, nearest centers and balls off
its sorted coordinates, and coordinates in two or more dimensions read them
off the cells of one NumPy cell index. A plane builds that index over its
points once per process, shared by the space's rescaled clones, and
computes one whole-space farthest pair. On a line and in an ultrametric,
``local_windows`` reads every ball as a run of the index's ranks off one
window table, built once per call with each system's level tables built at
most once: it asks for no row, no ``ball_members`` and no digest of a
ball's members. A plane's or a matrix space's windows read one row per
sample point and take no sha256 of a ball's members; each system finds the
containing cubes of all the new balls of a point in one ``_cubes_of`` call,
and levels are counted only for the windows returned; they ask for no least
gap. On a plane and in a matrix space a level measures each
cube of at most 128 points with the others of its size, and only a larger
cube takes a ``diameter`` call. On a line and in an ultrametric, a family's build
keeps each certificate query's ball as its two end ids, from one
``ball_run`` call for all queries, and asks for no ``ball_members``; a
plane's or a matrix space's build asks none either, and takes the balls of
each radius from ``balls`` in slices of about ``_BALL_PAIRS`` pairs. The
box fit reads its ball's radius off one ``run_farthest`` call, with no
row. A sweep takes ``np.polyfit`` only for the windows whose slopes tie
with the greatest, once per distinct fit input. On a plane,
the rows whose squared distances a build, a reload and a window table take
grow at most 2.5x as the points double. In an ultrametric, a reload's
inner-ball check and a greedy cover read prefix runs, with no nearest-center
query beyond the labels' and no ball; the rows whose longest common prefixes
a build, a reload, a window table and a sandwich check take grow at most
2.5x as the points double. On a line, a reload's inner-ball check reads
each center's window of ranks, with no nearest-center query beyond the
labels'; the rows that the line's distances and nearest-center queries
take in a build, a reload, a window table and a sandwich check grow at most
2.5x as the points double. A greedy cover is one ``cover_runs`` call to
the space's index on every kind. A line's greedy cover reads its blocks'
ends off the sorted coordinates, with no ball or diameter, and grows only
a block that must grow, by the shared rule (``_Index.grow``); a line
net's Python scan never visits a point whose sorted neighbours are
both at the separation or beyond. A cubes file's id arrays are written and read as
arrays: a reload hands ``json.loads`` only the small rest of the document,
and the memory a save and a reload hold grows at most 2.5x as the points
double. No command of a pipeline over a line, a plane, an ultrametric or
a matrix space imports ``numpy.ma``.
None of these changes an output, so losing one shows only in the work done
or the memory held; these counts make that fail the test suite.
"""

import functools
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cubedim import (GeneratorSpec, MetricDescriptor, MetricSpace, cli, covering, cubes,
                     generate, kernels, metric, nets)
from cubedim.covering import greedy_cover_count
from cubedim.cubes import (CubeSystem, build_adjacent_family, build_system,
                           circumscribed_cube, load_family, r_grid, save_family,
                           verify_system)
from cubedim.dimensions import (_fit_line, assouad_dim_estimate, box_dim_estimate,
                                hausdorff_dim_estimate, local_windows, sample_points)
from cubedim.errors import InsufficientScalesError
from cubedim.metric import save_points
from cubedim.nets import NetParams
from conftest import random_graph_matrix
from test_cube_oracles import with_near_center


def _grow_starts(monkeypatch, on_line):
    """The start of each block that ``_Index.grow`` grows on a line's index
    (``on_line``) or on any other."""
    calls = []
    grow = metric._Index.grow

    def counting(self, start, candidates, r):
        if isinstance(self, metric.LineIndex) == on_line:
            calls.append(start)
        return grow(self, start, candidates, r)

    monkeypatch.setattr(metric._Index, "grow", counting)
    return calls


@pytest.fixture
def grow_calls(monkeypatch):
    """The start of each block that the shared ball loop grows."""
    return _grow_starts(monkeypatch, on_line=False)


@pytest.fixture
def line_grown(monkeypatch):
    """The start of each block that a line's greedy cover grows."""
    return _grow_starts(monkeypatch, on_line=True)


@pytest.fixture
def diameter_calls(monkeypatch):
    calls = []
    diameter = MetricSpace.diameter

    def counting(self, subset=None):
        calls.append(subset)
        return diameter(self, subset)

    monkeypatch.setattr(MetricSpace, "diameter", counting)
    return calls


@pytest.fixture(scope="module")
def line():
    """129 evenly spaced points on a line, ids in coordinate order."""
    return MetricSpace(MetricDescriptor("euclidean"), coords=np.arange(129.0))


@pytest.fixture(scope="module")
def line_family(line):
    return build_adjacent_family(line, NetParams(), K_max=2, query_budget=50, seed=3)


def test_evenly_spaced_cover_grows_no_block(line_grown):
    space = MetricSpace(MetricDescriptor("euclidean"), coords=np.arange(200.0))
    # the near set of the first uncovered point is it and the next two
    assert greedy_cover_count(space, space.ids, 2.5) == 67
    assert line_grown == []


def test_plane_near_set_of_diameter_r_is_taken_whole(grow_calls):
    # the near set of (0, 0) at r = 5 is it, (3, 4) and (0, 5): diameter 5 exactly
    space = MetricSpace(MetricDescriptor("euclidean"),
                        coords=[[0.0, 0.0], [3.0, 4.0], [0.0, 5.0], [100.0, 0.0]])
    sets = greedy_cover_count(space, space.ids, 5.0, return_sets=True)
    assert [s.tolist() for s in sets] == [[0, 1, 2], [3]]
    assert grow_calls == []


def test_normalized_line_covers_grow_no_block(grid257, line_grown):
    # r between two multiples of the gap: no near set's diameter is close to r
    for k in range(1, 40):
        r = (k + 0.5) / 256.0
        assert greedy_cover_count(grid257, grid257.ids, r) == -(-257 // (k + 1))
    assert line_grown == []


@pytest.fixture
def row_calls(monkeypatch):
    """Full distance rows asked of a space or of its index."""
    calls = []

    def counting(fn):
        def wrapped(self, p):
            calls.append(p)
            return fn(self, p)
        return wrapped

    for cls in (MetricSpace, metric._Index):
        monkeypatch.setattr(cls, "row", counting(cls.row))
    return calls


def test_covers_and_doubling_read_no_row(ultra6, graph40, row_calls):
    rng = np.random.default_rng(5)
    plane = MetricSpace(MetricDescriptor("euclidean"), coords=rng.uniform(size=(300, 2)))
    line = MetricSpace(MetricDescriptor("euclidean"), coords=rng.uniform(size=300))
    for space in (plane, plane.snowflaked(0.5), line, line.snowflaked(0.7), ultra6, graph40):
        diam = space.diameter()
        for r in (diam / 9, diam / 4, diam / 2):
            greedy_cover_count(space, space.ids, r)
            greedy_cover_count(space, space.ids[::2], r, return_sets=True)
        space.estimate_doubling(sample_count=16, rng_seed=7)
    assert row_calls == []


def test_box_fit_reads_no_row(line_family, cantor10_family, ultra6_family, graph40, row_calls):
    # the box ball's radius is E's farthest distance from its first id, one
    # run_farthest call, where it read that id's whole distance row
    plane = MetricSpace(MetricDescriptor("euclidean"),
                        coords=np.random.default_rng(4).uniform(size=(200, 2)))
    families = [line_family, cantor10_family, ultra6_family,
                *(build_adjacent_family(space, NetParams(), K_max=2, query_budget=50, seed=3,
                                        max_level=3) for space in (plane, graph40))]
    for family in families:
        E = family.space.ids[1::2]
        try:
            box_dim_estimate(family, E)
        except InsufficientScalesError:
            pass
    assert row_calls == []


@pytest.fixture
def sweep_work(monkeypatch, row_calls):
    """Rows, member digests, ball queries, window tables and the systems whose
    level tables were built, asked during a test."""
    work = {"rows": row_calls, "digests": 0, "balls": 0, "tables": 0, "level_tables": []}
    sha256, ball_members = hashlib.sha256, MetricSpace.ball_members
    init, level_tables = cubes.RunWindowTable.__init__, cubes.RunWindowTable.level_tables

    def digest(*args):
        work["digests"] += 1
        return sha256(*args)

    def ball(self, x, r):
        work["balls"] += 1
        return ball_members(self, x, r)

    def table(self, family, E):
        work["tables"] += 1
        init(self, family, E)

    def levels(self, system):
        if system.system_id not in self._levels:
            work["level_tables"].append(system.system_id)
        return level_tables(self, system)

    monkeypatch.setattr(hashlib, "sha256", digest)
    monkeypatch.setattr(MetricSpace, "ball_members", ball)
    monkeypatch.setattr(cubes.RunWindowTable, "__init__", table)
    monkeypatch.setattr(cubes.RunWindowTable, "level_tables", levels)
    return work


@pytest.mark.parametrize("fixture", ["cantor10_family", "ultra6_family"])
def test_line_and_ultrametric_sweeps_read_rank_runs(request, fixture, sweep_work):
    family = request.getfixturevalue(fixture)
    sweep_work["balls"] = 0  # those of the family's build
    for seed in (0, 1):
        built = len(sweep_work["level_tables"])
        assert local_windows(family, family.space.ids, sample_budget=64, seed=seed)
        assert sweep_work["tables"] == seed + 1
        new = sweep_work["level_tables"][built:]
        assert len(new) == len(set(new)) <= family.K
    assert sweep_work["rows"] == []
    assert (sweep_work["digests"], sweep_work["balls"]) == (0, 0)


@pytest.fixture
def polyfit_inputs(monkeypatch):
    """The (xs, ys) of each ``np.polyfit`` call during a test."""
    calls = []
    polyfit = np.polyfit

    def counting(x, y, deg, *args, **kwargs):
        calls.append((tuple(x), tuple(y)))
        return polyfit(x, y, deg, *args, **kwargs)

    monkeypatch.setattr(np, "polyfit", counting)
    return calls


@pytest.mark.parametrize("fixture", ["cantor10_family", "ultra6_family"])
def test_sweep_fits_only_the_windows_that_can_hold_the_maximum(request, fixture,
                                                              polyfit_inputs):
    family = request.getfixturevalue(fixture)
    windows = local_windows(family, family.space.ids, sample_budget=64, seed=0)
    log_inv_delta = math.log(1.0 / family.params.delta)
    # each window's levels whose counted cubes fit R_eff, with their counts, and
    # the exact slope of every usable window, fitted here one at a time
    fits = [tuple((m, w.counts[m]) for m in range(1, w.depth + 1) if w.max_diams[m] <= w.R_eff)
            for w in windows]
    slopes = {fit: _fit_line([m * log_inv_delta for m, _ in fit],
                             [math.log(c) for _, c in fit])[0]
              for fit in fits if len(fit) >= 2}
    used = sum(len(fit) >= 2 for fit in fits)
    best = max(slopes.values())
    # the fit inputs whose slopes tie with the greatest, up to its rounding
    tied = {fit for fit, slope in slopes.items() if slope >= best - 1e-9 * max(1.0, abs(best))}
    polyfit_inputs.clear()
    est = assouad_dim_estimate(family, family.space.ids, windows=windows)
    assert est.value == best and est.diagnostics["windows_used"] == used
    assert len(set(polyfit_inputs)) == len(polyfit_inputs) <= len(tied) < used


@pytest.mark.parametrize("fixture", ["line", "ultra6"])
def test_line_and_ultrametric_builds_ask_no_ball(request, fixture, sweep_work):
    # each certificate query keeps its ball's two end ids, from the index's
    # ball_run, where it kept the ball's members; a plane and a matrix space
    # take theirs from balls by radius slices, and ask no ball_members either
    family = build_adjacent_family(request.getfixturevalue(fixture), NetParams(), K_max=3,
                                   query_budget=50, target_ratio=1.0, seed=3)
    assert family.K == 3 and not all(q["degenerate"] for q in family.query_log)
    assert sweep_work["balls"] == 0
    plane = MetricSpace(MetricDescriptor("euclidean"),
                        coords=np.random.default_rng(4).uniform(size=(200, 2)))
    for space in (plane, request.getfixturevalue("graph40")):
        build_adjacent_family(space, NetParams(), K_max=1, query_budget=50, seed=3,
                              max_level=3)
    assert sweep_work["balls"] == 0


@pytest.mark.parametrize("budget, slice_pairs", [(50, None), (400, 1 << 8)])
def test_plane_and_matrix_builds_ask_balls_by_radius_slices(graph40, budget, slice_pairs,
                                                            monkeypatch):
    # the certificate balls of one radius come from balls a slice at a time,
    # each slice about _BALL_PAIRS (ball, member) pairs once its first has
    # given the balls' mean size; 50 queries fit one slice per radius, and
    # 400 take several at a bound of 256 pairs
    plane = MetricSpace(MetricDescriptor("euclidean"),
                        coords=np.random.default_rng(4).uniform(size=(200, 2)))
    calls, asking = [], []
    query_balls = cubes._query_balls

    def tracked(space, xs, Rs):
        asking.append(True)
        try:
            return query_balls(space, xs, Rs)
        finally:
            asking.pop()

    monkeypatch.setattr(cubes, "_query_balls", tracked)
    slice_pairs = slice_pairs or cubes._BALL_PAIRS
    monkeypatch.setattr(cubes, "_BALL_PAIRS", slice_pairs)
    for cls in (metric.CoordIndex, metric.MatrixIndex):
        def counting(self, centers, r, balls=cls.balls):
            owner, members = balls(self, centers, r)
            if asking:
                calls.append((r, centers.size, members.size))
            return owner, members

        monkeypatch.setattr(cls, "balls", counting)
    for space in (plane, graph40):
        calls.clear()
        family = build_adjacent_family(space, NetParams(), K_max=1, query_budget=budget,
                                       seed=3, max_level=3)
        radii = [q["R"] for q in family.query_log]
        assert sum(n for _, n, _ in calls) == budget
        per_radius = {R: [c for c in calls if c[0] == R] for R in set(radii)}
        if budget == 50:
            assert len(calls) == len(per_radius)
        else:
            assert any(len(slices) > 1 for slices in per_radius.values())
        for slices in per_radius.values():
            # after the first, a slice of two balls or more holds at most about
            # slice_pairs pairs, and a radius takes few slices
            assert all(n == 1 or pairs <= 2 * slice_pairs for _, n, pairs in slices[1:])
            assert len(slices) <= 2 + 2 * sum(p for _, _, p in slices) // slice_pairs


@pytest.mark.parametrize("fixture", ["line", "ultra6"])
def test_line_and_ultrametric_builds_ask_one_ball_run(request, fixture, monkeypatch):
    calls = []
    for cls in (metric.LineIndex, metric.PrefixIndex):
        def counting(self, xs, r, ball_run=cls.ball_run):
            calls.append(xs.size)
            return ball_run(self, xs, r)

        monkeypatch.setattr(cls, "ball_run", counting)
    family = build_adjacent_family(request.getfixturevalue(fixture), NetParams(), K_max=3,
                                   query_budget=50, target_ratio=1.0, seed=3)
    assert family.K == 3
    assert calls == [50]


def test_plane_and_matrix_windows_ask_one_cube_query_per_point(graph40, monkeypatch):
    # each system finds the containing cubes of all the new balls of a sample
    # point in one _cubes_of call, from their depth-first extremes, with no
    # _smallest_cubes over their members
    plane = MetricSpace(MetricDescriptor("euclidean"),
                        coords=np.random.default_rng(4).uniform(size=(200, 2)))
    calls, smallest = [], []
    cubes_of = cubes._cubes_of

    def counting(system, first, last):
        calls.append(first.size)
        return cubes_of(system, first, last)

    monkeypatch.setattr(cubes, "_cubes_of", counting)
    monkeypatch.setattr(cubes, "_smallest_cubes", lambda *args: smallest.append(args))
    for space in (plane, graph40):
        family = build_adjacent_family(space, NetParams(), K_max=2, query_budget=50, seed=3,
                                       max_level=3)
        calls.clear()
        windows = local_windows(family, family.space.ids, sample_budget=16, seed=0)
        points = sample_points(family.space, family.space.ids, 16, 0)
        # no more calls than points times systems, more balls than calls
        assert windows and 0 < len(calls) <= points.size * family.K < sum(calls)
        assert smallest == []


def test_plane_and_matrix_windows_count_only_the_windows_they_return(graph40, monkeypatch):
    # a ball whose cube is less than two levels above the deepest gives no
    # window, and no level is counted for it: for each sample point, winning
    # system and level below the shallowest of its cubes, one count over the
    # windows whose cubes lie above that level
    plane = MetricSpace(MetricDescriptor("euclidean"),
                        coords=np.random.default_rng(4).uniform(size=(200, 2)))
    calls = []
    met_by_balls = cubes._met_by_balls

    def counting(system, k, *args):
        calls.append((system.system_id, k, args[-2].size))
        return met_by_balls(system, k, *args)

    monkeypatch.setattr(cubes, "_met_by_balls", counting)
    for space in (plane, graph40):
        family = build_adjacent_family(space, NetParams(), K_max=2, query_budget=50, seed=3,
                                       max_level=3)
        calls.clear()
        windows = local_windows(family, family.space.ids, sample_budget=16, seed=0)
        expect = []
        for x in sorted({w.x for w in windows}):
            for sid in sorted({w.system_id for w in windows if w.x == x}):
                levels = [w.level for w in windows if (w.x, w.system_id) == (x, sid)]
                expect += [(sid, k, sum(level < k for level in levels))
                           for k in range(min(levels) + 1, family.systems[sid].max_level + 1)]
        assert windows and calls == expect


def test_plane_and_matrix_windows_ask_no_least_gap(graph40, tmp_path, monkeypatch):
    # no radius is dropped below the least gap, which a plane finds from its
    # closest pair: a ball below it holds one distinct point and gives no window
    plane = MetricSpace(MetricDescriptor("euclidean"),
                        coords=np.random.default_rng(4).uniform(size=(200, 2)))
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(MetricSpace, "min_positive_distance",
                        counting("min_positive_distance", MetricSpace.min_positive_distance))
    for cls in (metric.CoordIndex, metric.MatrixIndex):
        monkeypatch.setattr(cls, "closest_pair", counting("closest_pair", cls.closest_pair))
    for space in (plane, graph40):
        family = build_adjacent_family(space, NetParams(), K_max=2, query_budget=50, seed=3,
                                       max_level=3)
        path = tmp_path / "cubes.json"
        save_family(family, path)
        loaded = load_family(path, space)  # a new normalized space, which knows no gap
        calls.clear()
        assert local_windows(loaded, loaded.space.ids, sample_budget=16, seed=0)
        assert calls == []


@pytest.fixture
def index_diameter_sizes(monkeypatch):
    """The number of ids of each ``diameter`` asked of a >= 2-D or matrix index."""
    sizes = []

    def counting(fn):
        def wrapped(self, ids):
            sizes.append(ids.size)
            return fn(self, ids)
        return wrapped

    for cls in (metric.CoordIndex, metric.MatrixIndex):
        monkeypatch.setattr(cls, "diameter", counting(cls.diameter))
    return sizes


def test_plane_and_matrix_levels_measure_small_cubes_in_groups(index_diameter_sizes):
    # every cube of at most 128 points is measured with the others of its size;
    # only a larger cube, here the level-1 cube of a dense cluster, takes a
    # diameter call of its own
    rng = np.random.default_rng(5)
    plane = MetricSpace(MetricDescriptor("euclidean"), coords=np.concatenate(
        [rng.uniform(size=(1200, 2)), 0.5 + 1e-3 * rng.uniform(size=(300, 2))]))
    matrix = MetricSpace(MetricDescriptor("matrix"), matrix=random_graph_matrix(300, 2))
    for space in (plane, plane.snowflaked(0.5), matrix):
        system = build_system(space, NetParams(), seed=3, max_level=3)
        index_diameter_sizes.clear()
        for k in range(1, system.max_level + 1):
            system.diams_at(k)
        sizes = np.concatenate([np.diff(system._grouped(k)[1])
                                for k in range(1, system.max_level + 1)])
        assert np.any((sizes > 1) & (sizes <= 128)) and np.any(sizes > 128)
        assert sorted(index_diameter_sizes) == sorted(sizes[sizes > 128].tolist())


def test_plane_and_matrix_sweeps_read_one_row_per_point_and_no_digest(graph40, sweep_work):
    # all the balls of a sample point come from one row, and a ball is keyed
    # on its size and digest of its ids, with no sha256 of its members
    plane = MetricSpace(MetricDescriptor("euclidean"),
                        coords=np.random.default_rng(4).uniform(size=(200, 2)))
    for space in (plane, graph40):
        family = build_adjacent_family(space, NetParams(), K_max=2, query_budget=50, seed=3,
                                       max_level=3)
        xs = sample_points(family.space, family.space.ids, 16, 0)
        radii = np.array([1.0 - 1e-10, *r_grid(family.params.delta, family.max_level)])
        sweep_work["rows"].clear()
        sweep_work["balls"] = 0
        assert cubes.point_windows(family, family.space.ids, xs, radii)
        # each row asked of the space, then of its index
        assert sweep_work["rows"][::2] == sweep_work["rows"][1::2] == xs.tolist()
        assert sweep_work["tables"] == sweep_work["digests"] == sweep_work["balls"] == 0


def test_circumscribed_cube_skips_decided_diameters(line_family, diameter_calls):
    space = line_family.space
    for system in line_family.systems:
        for k in range(system.max_level + 1):
            system.diams_at(k)  # cube diameters are cached; count only ball diameters
    decided = 0
    for x in range(0, space.n, 4):
        for R in r_grid(line_family.params.delta, line_family.max_level):
            members = space.ball_members(x, R)
            ecc = space.row(x)[members].max()
            if members.size < 2 or 2.0 * ecc < R:
                continue
            diameter_calls.clear()
            assert circumscribed_cube(line_family, x, R).R_eff == R
            assert diameter_calls == []
            decided += 1
    assert decided >= 50


def test_plane_ball_at_twice_its_eccentricity_needs_no_diameter(diameter_calls):
    # B((0, 0), 5) holds (1.5, 2) and (-1.5, -2) at 2.5 each: 2 * ecc == R exactly
    space = MetricSpace(MetricDescriptor("euclidean"),
                        coords=[[0.0, 0.0], [1.5, 2.0], [-1.5, -2.0], [100.0, 0.0]])
    family = build_adjacent_family(space, NetParams(), K_max=1, query_budget=4, seed=0)
    space = family.space
    for system in family.systems:
        for k in range(system.max_level + 1):
            system.diams_at(k)
    R = 2.0 * space.distance(0, 1)
    assert space.ball_members(0, R).tolist() == [0, 1, 2]
    assert 2.0 * space.distance(0, 2) == R
    diameter_calls.clear()
    assert circumscribed_cube(family, 0, R).R_eff == R
    assert diameter_calls == []


def test_undecided_ball_takes_its_diameter(ultra6_family, diameter_calls):
    # an ultrametric ball's eccentricity is its diameter, here R/8 at most
    space = ultra6_family.space
    for system in ultra6_family.systems:
        for k in range(system.max_level + 1):
            system.diams_at(k)
    diameter_calls.clear()
    cc = circumscribed_cube(ultra6_family, 0, 0.5)
    assert len(diameter_calls) == 1
    assert cc.R_eff == 2.0 * space.diameter(space.ball_members(0, 0.5)) < 0.5


@pytest.fixture
def cubes_meeting_calls(monkeypatch):
    """The level of each ``CubeSystem.cubes_meeting`` call."""
    calls = []
    cubes_meeting = CubeSystem.cubes_meeting

    def counting(self, k, ids):
        calls.append(k)
        return cubes_meeting(self, k, ids)

    monkeypatch.setattr(CubeSystem, "cubes_meeting", counting)
    return calls


@pytest.mark.parametrize("fixture", ["ultra6_family", "cantor10_family"])
def test_hausdorff_fit_reads_each_level_once(request, fixture, cubes_meeting_calls):
    system = request.getfixturevalue(fixture).systems[0]
    est = hausdorff_dim_estimate(system, system.space.ids)
    assert est.value > 0 and system.max_level >= 3
    assert sorted(cubes_meeting_calls) == list(range(system.max_level + 1))


@pytest.mark.parametrize("name", ["ultra6", "cantor10"])
def test_verify_counts_off_the_local_window(request, name, tmp_path, cubes_meeting_calls,
                                            capsys):
    # the sandwich check counts its one level along the depth-first-sorted
    # target, and asks which cubes meet it of no level
    pts, cubes_file = str(tmp_path / "pts.json"), str(tmp_path / "cubes.json")
    save_points(request.getfixturevalue(name), pts)
    save_family(request.getfixturevalue(name + "_family"), cubes_file)
    assert cli.main(["verify", "--points", pts, "--cubes", cubes_file, "--budget", "16"]) == 0
    assert "sampled=16" in capsys.readouterr().out
    assert cubes_meeting_calls == []


@pytest.fixture
def nearest_center_calls(monkeypatch):
    """Calls of ``nearest_center``, at its home and where cubes imports it."""
    calls = []
    nearest_center = nets.nearest_center

    def counting(*args, **kwargs):
        calls.append(args[1])
        return nearest_center(*args, **kwargs)

    monkeypatch.setattr(nets, "nearest_center", counting)
    monkeypatch.setattr(cubes, "nearest_center", counting)
    return calls


@pytest.fixture
def whole_space_work(monkeypatch):
    """Each kind's passes over every point, one entry per pass: ("pairs", n) for
    a ``_farthest_pair_sq`` over n points, ("max", index) for a matrix index's
    ``matrix.max()``, and ("ranks", index) for a sorted index's reduction over
    the ranks of all its ids (``_run_ends``)."""
    work = []
    farthest_pair_sq, run_ends = metric._farthest_pair_sq, metric._SortedIndex._run_ends
    farthest = metric.MatrixIndex._farthest.func

    def scanning(pts, keys):
        work.append(("pairs", len(pts)))
        return farthest_pair_sq(pts, keys)

    def reducing(self):
        work.append(("max", self))
        return farthest(self)

    def ranking(self, ids, bounds):
        if bounds[-1] == self.ids.size:
            work.append(("ranks", self))
        return run_ends(self, ids, bounds)

    cached = functools.cached_property(reducing)
    cached.__set_name__(metric.MatrixIndex, "_farthest")
    monkeypatch.setattr(metric, "_farthest_pair_sq", scanning)
    monkeypatch.setattr(metric.MatrixIndex, "_farthest", cached)
    monkeypatch.setattr(metric._SortedIndex, "_run_ends", ranking)
    return work


@pytest.mark.parametrize("fixture", ["line_family", "ultra6_family"])
def test_reload_reads_each_level_in_one_pass(request, fixture, tmp_path, monkeypatch,
                                             nearest_center_calls, whole_space_work):
    family = request.getfixturevalue(fixture)
    points = request.getfixturevalue(fixture.removesuffix("_family"))
    nearest_center_calls.clear()  # a family built for this test alone queried them too
    path = tmp_path / "cubes.json"
    save_family(family, path)
    loaded = load_family(path, points)  # the points it was built from, as the CLI reads them
    if family.space.descriptor.kind == "euclidean":
        # the labels' query; the inner-ball check pairs centers and points instead
        assert len(nearest_center_calls) == family.K
    calls = []

    def counting(name, fn):
        def wrapped(self, *args):
            calls.append(name)
            return fn(self, *args)
        return wrapped

    for name in ("diameter", "run_diameters"):
        monkeypatch.setattr(metric._SortedIndex, name,
                            counting(name, getattr(metric._SortedIndex, name)))
    whole_space_work.clear()
    for system in loaded.systems:
        for k in range(system.max_level + 1):
            system.diams_at(k)
    # one pass over the ranks of every id per level, the root's too; no cube
    # takes a diameter call
    levels = sum(system.max_level + 1 for system in loaded.systems)
    assert calls == ["run_diameters"] * levels
    assert whole_space_work == [("ranks", loaded.space.index)] * levels
    calls.clear()
    whole_space_work.clear()
    # the whole space's diameter reads the two ends of the order, and is the root's
    assert [loaded.space.diameter() for _ in loaded.systems] == \
        [system.diams_at(0)[0] for system in loaded.systems]
    assert calls == ["diameter"] * loaded.K and whole_space_work == []


@pytest.mark.parametrize("kind", ["line", "plane", "snowflake", "ultrametric", "matrix"])
def test_root_cubes_share_one_whole_space_diameter(request, kind, tmp_path,
                                                   whole_space_work):
    # a family's systems share one normalized space, whose diameter is the root
    # cube's; each kind's index takes at most one pass over every point for it
    plane = MetricSpace(MetricDescriptor("euclidean"),
                        coords=np.random.default_rng(6).uniform(size=(200, 2)))
    space = {"plane": plane, "snowflake": plane.snowflaked(0.5)}.get(kind)
    if space is None:
        space = request.getfixturevalue({"line": "line", "ultrametric": "ultra6",
                                         "matrix": "graph40"}[kind])
    family = build_adjacent_family(space, NetParams(), K_max=3, query_budget=20,
                                   target_ratio=1.0, seed=3)
    assert family.K == 3
    path = tmp_path / "cubes.json"
    save_family(family, path)
    loaded = load_family(path, space)
    built = list(whole_space_work)
    whole_space_work.clear()
    roots = [system.diams_at(0)[0] for system in loaded.systems]
    levels = list(whole_space_work)
    whole_space_work.clear()
    assert [loaded.space.diameter() for _ in loaded.systems] == roots
    index = loaded.space.index
    if kind in ("plane", "snowflake"):
        # the raw space and its normalized clones share one farthest pair,
        # taken once, before the build
        assert built.count(("pairs", space.n)) == 1
        assert levels == whole_space_work == []
    elif kind == "matrix":
        # each index reduces its matrix at most once; at 40 points the root is
        # measured in its level's blocks, and the whole space's diameter keeps
        # one reduction
        assert len({id(owner) for what, owner in built if what == "max"}) == \
            sum(what == "max" for what, _ in built)
        assert levels == [] and whole_space_work == [("max", index)]
    else:
        # no farthest pair: each root is one run of ranks, read in its level's
        # one pass, and the whole space's diameter reads the order's two ends
        assert not any(what == "pairs" for what, _ in built)
        assert levels == [("ranks", index)] * loaded.K and whole_space_work == []



def test_root_level_is_grouped_without_a_sort(line_family, monkeypatch):
    # every point sits in the one root cube: its grouping is the ids in order,
    # where a stable sort of n zero labels gives the same
    sorted_sizes = []
    argsort = np.argsort

    def counting(a, *args, **kwargs):
        sorted_sizes.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    for system in line_family.systems:
        system._grouped(0)
        assert sorted_sizes == []
        system._grouped(1)
        assert sorted_sizes == [system.space.n]
        sorted_sizes.clear()

@pytest.fixture
def matrix_kernel_calls(monkeypatch):
    """Calls of the dense-matrix path: distance_matrix and the two matrix kernels."""
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(MetricSpace, "distance_matrix",
                        counting("distance_matrix", MetricSpace.distance_matrix))
    for name in ("greedy_net_matrix", "nearest_center_matrix"):
        monkeypatch.setattr(kernels, name, counting(name, getattr(kernels, name)))
    return calls


def test_ultrametric_pipeline_builds_no_matrix(tmp_path, matrix_kernel_calls, capsys):
    pts, cubes_file = str(tmp_path / "pts.json"), str(tmp_path / "cubes.json")
    assert cli.main(["gen", "ultrametric_cantor", "--arity", "2", "--base", "0.0625",
                     "--depth", "6", "--out", pts]) == 0
    assert cli.main(["build", "--points", pts, "--out", cubes_file, "--seed", "3",
                     "--systems", "2", "--budget", "40"]) == 0
    common = ["--points", pts, "--cubes", cubes_file, "--budget", "16"]
    assert cli.main(["verify", *common]) == 0
    for kind in ("box", "assouad"):
        assert cli.main(["estimate", kind, *common, "--out", str(tmp_path / "e.json")]) == 0
    capsys.readouterr()
    assert matrix_kernel_calls == []


def test_matrix_space_still_takes_the_matrix_path(matrix_kernel_calls):
    weights = np.abs(np.subtract.outer(np.arange(12.0), np.arange(12.0)))
    space = MetricSpace(MetricDescriptor("matrix"), matrix=weights)
    build_system(space, NetParams(), seed=0, max_level=2)
    assert {"greedy_net_matrix", "nearest_center_matrix"} <= set(matrix_kernel_calls)
    assert "distance_matrix" not in matrix_kernel_calls


def test_matrix_system_transforms_its_matrix_once(graph40, monkeypatch):
    # the index keeps the transformed matrix: one n x n transform per space,
    # not one per level, per nearest-center query or per row
    shapes = []
    transform = MetricDescriptor.transform

    def counting(self, base):
        shapes.append(np.shape(base))
        return transform(self, base)

    monkeypatch.setattr(MetricDescriptor, "transform", counting)
    system = build_system(graph40, NetParams(), seed=7, max_level=3)
    verify_system(system)
    assert system.max_level == 3
    assert shapes.count((graph40.n, graph40.n)) == 1


def test_ultrametric_system_at_4096_points_stays_small(matrix_kernel_calls):
    # the n x n matrix alone would be 128 MiB
    space = generate(GeneratorSpec(kind="ultrametric_cantor", arity=2, base=0.0625,
                                   depth=12))
    tracemalloc.start()
    try:
        system = build_system(space, NetParams(), seed=7)
        verify_system(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.space.n == 4096 and matrix_kernel_calls == []
    assert peak < 16 * 2 ** 20


# gen, build, verify and two estimates in one fresh process, which reports
# whether SciPy was imported and how often the coordinate kernels ran
PIPELINE = """
import json, sys
from cubedim import cli, kernels

calls = dict.fromkeys(("greedy_net_coords", "nearest_center_coords"), 0)

def counting(name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped

for name in calls:
    setattr(kernels, name, counting(name, getattr(kernels, name)))
common = ["--points", "pts.json", "--cubes", "cubes.json", "--budget", "16"]
codes = [cli.main(["gen", *sys.argv[1:], "--out", "pts.json"]),
         cli.main(["build", "--points", "pts.json", "--out", "cubes.json", "--seed", "3",
                   "--systems", "2", "--budget", "40"]),
         cli.main(["verify", *common]),
         *(cli.main(["estimate", kind, *common, "--out", kind + ".json"])
           for kind in ("box", "assouad"))]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules, "calls": calls}))
"""


@pytest.mark.parametrize("gen,plane", [
    (["sequence", "--p", "1", "--nmax", "400"], False),
    (["sequence", "--p", "1", "--nmax", "400", "--snowflake", "0.5"], False),
    (["ultrametric_cantor", "--arity", "2", "--base", "0.0625", "--depth", "6"], False),
    (["grid", "--dim", "2", "--res", "0.0625"], True),
], ids=["line", "snowflaked-line", "ultrametric", "plane"])
def test_no_pipeline_imports_scipy(gen, plane, tmp_path, cubedim_env):
    # no pipeline imports SciPy now; the plane's alone run the coordinate kernels
    r = subprocess.run([sys.executable, "-c", PIPELINE, *gen], cwd=tmp_path,
                       capture_output=True, text=True, env=cubedim_env)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout.splitlines()[-1])
    # the small plane has too few levels for the two fits, which exit 1 by design
    assert report["codes"] == [0, 0, 0] + ([1, 1] if plane else [0, 0])
    assert report["scipy"] is False
    assert all((count > 0) is plane for count in report["calls"].values()), report


# gen (or a matrix points file), build, verify and the four estimates on a
# line, a plane, an ultrametric and a matrix space, in one fresh process,
# which reports each op's exit code and whether numpy.ma was imported
MASKED = """
import json, sys
from cubedim import cli

n = 60  # the points 1/k of a line as a distance matrix, lower triangle row by row
matrix = {"metric": {"kind": "matrix", "matrix": [1 / (j + 1) - 1 / (i + 1) for i in range(n)
                                                  for j in range(i)]},
          "points": list(range(n))}
with open("matrix.json", "w") as fh:
    json.dump(matrix, fh)
codes = {}
for name, gen in (("line", ["sequence", "--p", "1", "--nmax", "400"]),
                  ("plane", ["grid", "--dim", "2", "--res", "0.0625"]),
                  ("ultrametric", ["ultrametric_cantor", "--depth", "6"]),
                  ("matrix", None)):
    pts = name + ".json"
    common = ["--points", pts, "--cubes", name + "-cubes.json", "--seed", "3",
              "--budget", "16"]
    ops = [] if gen is None else [["gen", *gen, "--out", pts]]
    ops += [["build", "--points", pts, "--out", name + "-cubes.json", "--seed", "3",
             "--systems", "2", "--budget", "40"], ["verify", *common]]
    ops += [["estimate", kind, *common, "--theta", "0.5", "--out", name + kind + ".json"]
            for kind in ("box", "hausdorff", "spectrum", "assouad")]
    codes[name] = [cli.main(argv) for argv in ops]
print(json.dumps({"codes": codes, "masked": "numpy.ma" in sys.modules}))
"""


def test_no_pipeline_imports_masked_arrays(tmp_path, cubedim_env):
    # np.unique and np.intersect1d import numpy.ma on first use (NumPy 2.4):
    # 9 ms of CPU and 1.3 MB of RSS per process that no op needs
    r = subprocess.run([sys.executable, "-c", MASKED], cwd=tmp_path, capture_output=True,
                       text=True, env=cubedim_env)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout.splitlines()[-1])
    for name, codes in report["codes"].items():
        # gen, build and verify pass; a small space may have too few levels
        # for a fit, which exits 1 by design
        assert codes[-6:-4] == [0, 0] and set(codes[-4:]) <= {0, 1}, (name, codes)
    assert report["masked"] is False


def test_plane_ops_scan_the_whole_space_once(tmp_path, monkeypatch, capsys):
    # build and every read op: the raw space, its normalized clone and the
    # estimate's set of every point share one cell index and one farthest pair
    spaces, scans, indexes = [], [], []
    load_points = cli.load_points
    farthest_pair_sq = metric._farthest_pair_sq
    cell_index = kernels.CellIndex.__init__

    def loading(path):
        spaces.append(load_points(path))
        return spaces[-1]

    def scanning(pts, keys):
        if len(pts) == spaces[-1].n:
            scans.append(len(pts))
        return farthest_pair_sq(pts, keys)

    def indexing(self, coords):
        if coords is spaces[-1].coords:
            indexes.append(len(coords))
        cell_index(self, coords)

    monkeypatch.setattr(cli, "load_points", loading)
    monkeypatch.setattr(metric, "_farthest_pair_sq", scanning)
    monkeypatch.setattr(kernels.CellIndex, "__init__", indexing)
    pts, cubes_file = str(tmp_path / "pts.json"), str(tmp_path / "cubes.json")
    assert cli.main(["gen", "grid", "--dim", "2", "--res", "0.03125", "--out", pts]) == 0
    common = ["--points", pts, "--cubes", cubes_file, "--seed", "7", "--budget", "8"]
    ops = [["build", "--points", pts, "--out", cubes_file, "--seed", "7", "--delta",
            "0.08333333333333333", "--levels", "2", "--systems", "2"],
           ["verify", *common]]
    ops += [["estimate", kind, *common, "--out", str(tmp_path / "e.json"), *extra]
            for kind, extra in (("box", []), ("spectrum", ["--theta", "0.5"]),
                                ("assouad", []))]
    for argv in ops:
        spaces.clear()
        scans.clear()
        indexes.clear()
        assert cli.main(argv) in (0, 1)
        assert len(spaces) == 1 and scans == [spaces[0].n] and indexes == [spaces[0].n], argv
    capsys.readouterr()


def test_plane_work_about_doubles_with_the_points(tmp_path, monkeypatch):
    # build, reload and one window table on grids of 1,024 and 2,025 points:
    # the rows whose squared distances are taken grow at most 2.5x, stage by stage
    rows = {}
    squared_distances = kernels.squared_distances

    def counting(a, b):
        rows[stage] = rows.get(stage, 0) + len(a)
        return squared_distances(a, b)

    monkeypatch.setattr(kernels, "squared_distances", counting)
    counts = []
    for steps in (31, 44):
        rows = {}
        space = generate(GeneratorSpec(kind="grid", ambient_dim=2, resolution=1.0 / steps))
        stage = "build"
        family = build_adjacent_family(space, NetParams(delta=1 / 12), K_max=2,
                                       query_budget=40, target_ratio=0.0, seed=7,
                                       max_level=2)
        assert family.K == 2
        stage = "reload"
        path = tmp_path / f"cubes-{steps}.json"
        save_family(family, path)
        loaded = load_family(path, space)
        stage = "windows"
        local_windows(loaded, loaded.space.ids, sample_budget=16, seed=7)
        counts.append(rows)
    assert counts[1].keys() == counts[0].keys() == {"build", "reload", "windows"}
    for stage in counts[0]:
        assert counts[1][stage] <= 2.5 * counts[0][stage], (stage, counts)


@pytest.fixture
def prefix_queries(monkeypatch):
    """The query ids of each ``PrefixIndex.nearest`` call, and a count of ``ball`` calls."""
    calls = {"nearest": [], "ball": 0}
    nearest, ball = metric.PrefixIndex.nearest, metric.PrefixIndex.ball

    def counting_nearest(self, query_ids, centers):
        calls["nearest"].append(query_ids)
        return nearest(self, query_ids, centers)

    def counting_ball(self, x, r):
        calls["ball"] += 1
        return ball(self, x, r)

    monkeypatch.setattr(metric.PrefixIndex, "nearest", counting_nearest)
    monkeypatch.setattr(metric.PrefixIndex, "ball", counting_ball)
    return calls


def test_ultrametric_reload_checks_inner_balls_off_prefix_runs(ultra6, ultra6_family, tmp_path,
                                                              prefix_queries):
    # the labels take one nearest-center query per system, over the points that
    # are no deepest center; the inner-ball check reads each center's run and
    # asks nearest nothing
    path = tmp_path / "cubes.json"
    save_family(ultra6_family, path)
    prefix_queries["nearest"].clear()
    loaded = load_family(path, ultra6)
    assert all(s.report.checks["iii_inner"].ok for s in loaded.systems)
    assert len(prefix_queries["nearest"]) == loaded.K
    for system, query in zip(loaded.systems, prefix_queries["nearest"]):
        others = np.setdiff1d(loaded.space.ids, system.levels[-1].centers)
        assert others.size and np.array_equal(query, others)


@pytest.fixture
def line_queries(monkeypatch):
    """The query ids of each ``LineIndex.nearest`` call."""
    calls = []
    nearest = metric.LineIndex.nearest

    def counting(self, query_ids, centers):
        calls.append(query_ids)
        return nearest(self, query_ids, centers)

    monkeypatch.setattr(metric.LineIndex, "nearest", counting)
    return calls


def test_line_reload_asks_nearest_only_for_the_labels(line, line_family, tmp_path,
                                                      line_queries):
    # the inner-ball check reads each center's window of ranks; only the
    # labels of the points that are no deepest center ask nearest
    path = tmp_path / "cubes.json"
    save_family(line_family, path)
    line_queries.clear()
    loaded = load_family(path, line)
    assert all(s.report.checks["iii_inner"].ok for s in loaded.systems)
    assert len(line_queries) == loaded.K
    for system, query in zip(loaded.systems, line_queries):
        others = np.setdiff1d(loaded.space.ids, system.levels[-1].centers)
        assert others.size and np.array_equal(query, others)


def test_plane_of_deepest_centers_reloads_with_no_nearest_query(tmp_path,
                                                               nearest_center_calls):
    # at level 2 of a 289-point grid every point is a center: each labels itself
    space = generate(GeneratorSpec(kind="grid", ambient_dim=2, resolution=1 / 16))
    family = build_adjacent_family(space, NetParams(delta=1 / 12), K_max=2, query_budget=20,
                                   target_ratio=0.0, seed=7, max_level=2)
    assert family.K == 2
    assert all(s.levels[-1].centers.size == space.n for s in family.systems)
    path = tmp_path / "cubes.json"
    save_family(family, path)
    nearest_center_calls.clear()
    loaded = load_family(path, space)
    assert nearest_center_calls == []
    for built, got in zip(family.systems, loaded.systems):
        assert np.array_equal(got.labels[-1], built.labels[-1])


def test_ultrametric_greedy_cover_asks_no_ball(ultra6, prefix_queries):
    rng = np.random.default_rng(3)
    for space in (ultra6, ultra6.snowflaked(0.5).rescaled(0.3)):
        diam = space.diameter()
        for r in (diam / 300, diam / 9, diam / 2, diam):
            greedy_cover_count(space, space.ids, r)
            greedy_cover_count(space, rng.choice(space.n, size=20), r, return_sets=True)
    assert prefix_queries["ball"] == 0


def test_line_greedy_cover_asks_no_ball_diameter_or_growth(grow_calls, diameter_calls,
                                                          line_grown, monkeypatch):
    # blocks taken whole, grown (r on the distance 1 of id 0 to its neighbours)
    # and over repeated and strict-subset targets: every block's ends come
    # off the sorted coordinates, with no ball or diameter asked of the space
    # or its index, and only the one block that must grow grown
    asked = []

    def counting(name):
        method = getattr(metric.LineIndex, name)

        def wrapped(self, *args):
            asked.append(name)
            return method(self, *args)
        return wrapped

    for name in ("ball", "diameter"):
        monkeypatch.setattr(metric.LineIndex, name, counting(name))
    grown = MetricSpace(MetricDescriptor("euclidean"), coords=[1.0, 0.0, 2.0, 1.0, 2.5])
    assert greedy_cover_count(grown, grown.ids, 1.0) == 2
    assert line_grown == [0]
    rng = np.random.default_rng(3)
    space = generate(GeneratorSpec(kind="sequence", p=1.0, n_max=500))
    for r in (1e-4, 1e-3, 0.01, 0.1, 1.0):
        greedy_cover_count(space, space.ids, r)
        greedy_cover_count(space, rng.choice(space.n, size=200), r, return_sets=True)
    assert line_grown == [0]
    assert asked == [] and grow_calls == [] and diameter_calls == []


def test_greedy_cover_asks_its_index_once(grid257, graph40, ultra6, monkeypatch):
    # on a line, a plane, an ultrametric and a matrix space, one greedy cover
    # is one cover_runs call, with the sets asked for or not
    plane = MetricSpace(MetricDescriptor("euclidean"),
                        coords=np.random.default_rng(4).uniform(size=(200, 2)))
    calls = []

    def counting(cover_runs):
        def wrapped(self, ids, r):
            calls.append(type(self).__name__)
            return cover_runs(self, ids, r)
        return wrapped

    for space in (grid257, plane, ultra6, graph40):
        kind = type(space.index)
        monkeypatch.setattr(kind, "cover_runs", counting(kind.cover_runs))
        calls.clear()
        r = space.diameter() / 7
        assert greedy_cover_count(space, space.ids, r) > 1
        greedy_cover_count(space, space.ids[::3], r, return_sets=True)
        assert calls == [kind.__name__] * 2


@pytest.fixture
def line_scans(monkeypatch):
    """The ranks each ``LineIndex._scan`` call is handed."""
    calls = []
    scan = metric.LineIndex._scan

    def counting(self, ranks, *args):
        calls.extend(ranks)
        return scan(self, ranks, *args)

    monkeypatch.setattr(metric.LineIndex, "_scan", counting)
    return calls


def test_line_net_scans_only_points_with_a_near_neighbour(line_scans):
    # on the sequence {1/k}, the points whose sorted neighbours are both at
    # the separation or beyond admit themselves, and the scan never sees them
    space = generate(GeneratorSpec(kind="sequence", p=1.0, n_max=2000))
    index = space.index
    gap = np.diff(index.sorted)
    for sep in (1e-5, 1e-4, 1e-3, 0.05):
        line_scans.clear()
        order = space.ids[::-1].copy()
        net = index.net(order, sep)
        far = gap * gap >= sep * sep
        alone = np.concatenate([[True], far]) & np.concatenate([far, [True]])
        visited = np.asarray(line_scans, dtype=np.int64)
        assert not alone[visited].any()
        assert visited.size <= np.count_nonzero(~alone) < space.n
        assert np.isin(order[alone[index.rank[order]]], net).all()


def test_ultrametric_work_about_doubles_with_the_points(tmp_path, monkeypatch):
    # build, save and reload, one window table and one sandwich check on
    # ultrametric Cantor sets of depth 9 and 10, with K and the max level held:
    # the rows whose longest common prefixes are taken grow at most 2.5x, stage by stage
    rows = {}
    lcp = metric.PrefixIndex.lcp

    def counting(self, a, b):
        # pairs of rows compared; b may be slice(None), a whole row
        first = self.codes[:, 0]
        rows[stage] = rows.get(stage, 0) + np.broadcast(first[a], first[b]).size
        return lcp(self, a, b)

    monkeypatch.setattr(metric.PrefixIndex, "lcp", counting)
    counts = []
    for depth in (9, 10):
        rows = {}
        space = generate(GeneratorSpec(kind="ultrametric_cantor", arity=2, base=1 / 16,
                                       depth=depth))
        stage = "build"
        family = build_adjacent_family(space, NetParams(), K_max=2, query_budget=40,
                                       target_ratio=0.0, seed=7, max_level=4)
        assert family.K == 2 and family.max_level == 4
        stage = "reload"
        path = tmp_path / f"cubes-{depth}.json"
        save_family(family, path)
        loaded = load_family(path, space)
        stage = "windows"
        local_windows(loaded, loaded.space.ids, sample_budget=16, seed=7)
        stage = "sandwich"
        covering.sandwich_check(loaded, loaded.space.ids, 0, r_grid(loaded.params.delta, 4)[2], 1)
        counts.append(rows)
    assert counts[1].keys() == counts[0].keys() == {"build", "reload", "windows", "sandwich"}
    for stage in counts[0]:
        assert counts[1][stage] <= 2.5 * counts[0][stage], (stage, counts)


def test_line_work_about_doubles_with_the_points(tmp_path, monkeypatch):
    # build, save and reload, one window table and one sandwich check on the
    # sequences {1/k} of 2,001 and 4,001 points, with K and the max level held:
    # the rows whose distances LineIndex.pairs takes, and the query and center
    # rows LineIndex.nearest takes, grow at most 2.5x, stage by stage
    rows = {}
    pairs, nearest = metric.LineIndex.pairs, metric.LineIndex.nearest

    def counting_pairs(self, a, b):
        # pairs of rows compared; b may be slice(None), a whole row
        first = self.coords[:, 0]
        rows[stage] = rows.get(stage, 0) + np.broadcast(first[a], first[b]).size
        return pairs(self, a, b)

    def counting_nearest(self, query_ids, centers):
        rows[stage] = rows.get(stage, 0) + query_ids.size + centers.size
        return nearest(self, query_ids, centers)

    monkeypatch.setattr(metric.LineIndex, "pairs", counting_pairs)
    monkeypatch.setattr(metric.LineIndex, "nearest", counting_nearest)
    counts = []
    for n_max in (2000, 4000):
        rows = {}
        space = generate(GeneratorSpec(kind="sequence", p=1.0, n_max=n_max))
        stage = "build"
        family = build_adjacent_family(space, NetParams(), K_max=2, query_budget=40,
                                       target_ratio=0.0, seed=7, max_level=5)
        assert family.K == 2 and family.max_level == 5
        stage = "reload"
        path = tmp_path / f"cubes-{n_max}.json"
        save_family(family, path)
        loaded = load_family(path, space)
        stage = "windows"
        local_windows(loaded, loaded.space.ids, sample_budget=16, seed=7)
        stage = "sandwich"
        covering.sandwich_check(loaded, loaded.space.ids, 0, r_grid(loaded.params.delta, 5)[2], 1)
        counts.append(rows)
    assert counts[1].keys() == counts[0].keys() == {"build", "reload", "windows", "sandwich"}
    for stage in counts[0]:
        assert counts[1][stage] <= 2.5 * counts[0][stage], (stage, counts)


def test_cubes_file_moves_ids_as_arrays(tmp_path, monkeypatch):
    # save and reload families of the sequences {1/k} of 2,001 and 4,001
    # points, with K and the max level held: json.loads is handed under 4 KB
    # at either size, and the tracemalloc peak grows at most 2.5x
    handed = []
    loads = json.loads

    def counting(s, *args, **kwargs):
        handed.append(len(s))
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    peaks = []
    for n_max in (2000, 4000):
        space = generate(GeneratorSpec(kind="sequence", p=1.0, n_max=n_max))
        family = build_adjacent_family(space, NetParams(), K_max=2, query_budget=40,
                                       target_ratio=0.0, seed=7, max_level=5)
        assert family.K == 2 and family.max_level == 5
        path = tmp_path / f"cubes-{n_max}.json"
        handed.clear()
        tracemalloc.start()
        try:
            save_family(family, path)
            load_family(path, space)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert handed and max(handed) < 4096, (n_max, handed)
    assert peaks[1] <= 2.5 * peaks[0], peaks


@pytest.fixture
def index_nearest_calls(monkeypatch):
    """The query ids of each ``nearest`` call of a cell or matrix index."""
    calls = []
    for index in (metric.CoordIndex, metric.MatrixIndex):
        def counting(self, query_ids, centers, nearest=index.nearest):
            calls.append(query_ids)
            return nearest(self, query_ids, centers)

        monkeypatch.setattr(index, "nearest", counting)
    return calls


def test_plane_and_matrix_inner_checks_ask_no_nearest(graph40, index_nearest_calls):
    # every point of an inner ball is held to the ball's own center
    plane = MetricSpace(MetricDescriptor("euclidean"),
                        coords=np.random.default_rng(6).uniform(size=(300, 2)))
    for space in (plane, plane.snowflaked(0.5), graph40):
        family = build_adjacent_family(space, NetParams(), K_max=2, query_budget=20,
                                       target_ratio=0.0, seed=3, max_level=2)
        assert all(s.levels[-1].centers.size > 1 for s in family.systems)
        index_nearest_calls.clear()
        for system in family.systems:
            check = cubes._check_inner_balls(system)
            assert check.ok and check.worst == 0.0
        assert index_nearest_calls == []


@pytest.mark.parametrize("kind", ["line", "plane", "ultrametric", "matrix"])
def test_inner_ball_check_asks_no_nearest(kind, graph40, ultra6, monkeypatch):
    # a point in two inner balls, as two centers nearer than the inner radius
    # make one, fails by its label, with no nearest-center query
    rng = np.random.default_rng(5)
    space = {"line": MetricSpace(MetricDescriptor("euclidean"), coords=rng.uniform(size=60)),
             "plane": MetricSpace(MetricDescriptor("euclidean"),
                                  coords=rng.uniform(size=(100, 2))),
             "ultrametric": ultra6, "matrix": graph40}[kind]
    system = build_system(space, NetParams(), seed=1, max_level=1)
    tampered = with_near_center(system, rng)
    calls = []
    for index in (metric.LineIndex, metric.CoordIndex, metric.PrefixIndex, metric.MatrixIndex):
        monkeypatch.setattr(index, "nearest", lambda self, *args: calls.append(args))
    assert cubes._check_inner_balls(system).ok
    assert not cubes._check_inner_balls(tampered).ok
    assert calls == []


@pytest.mark.parametrize("kind", ["line", "ultrametric"])
def test_effective_radius_reads_the_ball_ends(kind, monkeypatch):
    # a ball of thousands of members: its eccentricity comes from the members
    # of least and greatest rank, and so does its diameter when R needs one
    space = {"line": MetricSpace(MetricDescriptor("euclidean"),
                                 coords=np.random.default_rng(2).uniform(size=5000)),
             "ultrametric": generate(GeneratorSpec(kind="ultrametric_cantor", arity=2,
                                                   base=1 / 16, depth=12))}[kind]
    index_type = type(space.index)
    pairs = index_type.pairs
    handed = []

    def counting(self, a, b):
        handed.append(np.size(a) + np.size(b))
        return pairs(self, a, b)

    balls = [(R, space.ball_members(7, R)) for R in (0.5, 2.0 * space.diameter())]
    monkeypatch.setattr(index_type, "pairs", counting)
    for R, members in balls:
        assert members.size > 2000
        handed.clear()
        cubes._effective_radius(space, 7, R, members)
        assert 1 <= len(handed) <= 3 and max(handed) == 2, handed


def test_plane_level_of_every_point_asks_no_cells(tmp_path, monkeypatch):
    # at level 2 of a 289-point grid every point is a center: its inner balls
    # are the points at each place, with no look in the cells
    space = generate(GeneratorSpec(kind="grid", ambient_dim=2, resolution=1 / 16))
    family = build_adjacent_family(space, NetParams(delta=1 / 12), K_max=2, query_budget=20,
                                   target_ratio=0.0, seed=7, max_level=2)
    looks = []
    within = kernels.CellIndex.within

    def counting(self, query, r):
        looks.append(len(query))
        return within(self, query, r)

    monkeypatch.setattr(kernels.CellIndex, "within", counting)
    for system in family.systems:
        sizes = [lv.centers.size for lv in system.levels]
        assert sizes[-1] == space.n
        looks.clear()
        assert cubes._check_inner_balls(system).ok
        # one look per level of several centers, short of every point
        assert looks == [size for size in sizes if 1 < size < space.n]


def test_matrix_work_about_doubles_with_the_points(tmp_path, monkeypatch):
    # build, save and reload, one window table and one sandwich check on matrix
    # spaces of the sequences {1/k} of 201 and 401 points, K and the max level held:
    # the matrix elements that nets, nearest centers, balls, diameters and
    # least positive distances read grow at most 4.5x, as the matrix grows 4x
    reads = {}

    class Counted(np.ndarray):
        """The index's matrix, counting the elements each indexing reads."""

        def __getitem__(self, key):
            out = np.asarray(super().__getitem__(key))
            reads[stage] = reads.get(stage, 0) + out.size
            return out

    matrix = metric.MatrixIndex.matrix

    def counted(self):
        return matrix.func(self).view(Counted)

    counted_matrix = functools.cached_property(counted)
    counted_matrix.__set_name__(metric.MatrixIndex, "matrix")
    monkeypatch.setattr(metric.MatrixIndex, "matrix", counted_matrix)
    counts = []
    for n_max in (200, 400):
        reads = {}
        x = generate(GeneratorSpec(kind="sequence", p=1.0, n_max=n_max)).coords[:, 0]
        space = MetricSpace(MetricDescriptor("matrix"), matrix=np.abs(np.subtract.outer(x, x)))
        stage = "build"
        family = build_adjacent_family(space, NetParams(), K_max=2, query_budget=40,
                                       target_ratio=0.0, seed=7, max_level=4)
        assert family.K == 2 and family.max_level == 4
        stage = "reload"
        path = tmp_path / f"cubes-{n_max}.json"
        save_family(family, path)
        loaded = load_family(path, space)
        stage = "windows"
        local_windows(loaded, loaded.space.ids, sample_budget=16, seed=7)
        stage = "sandwich"
        covering.sandwich_check(loaded, loaded.space.ids, 0, r_grid(loaded.params.delta, 4)[2], 1)
        counts.append(reads)
    assert counts[1].keys() == counts[0].keys() == {"build", "reload", "windows", "sandwich"}
    for stage in counts[0]:
        assert counts[1][stage] <= 4.5 * counts[0][stage], (stage, counts)


@pytest.fixture
def plane65():
    """The 65 x 65 grid of grid2d, rescaled as a build with delta = 1/12 rescales it."""
    space = generate(GeneratorSpec(kind="grid", ambient_dim=2, resolution=1 / 64))
    params = NetParams(delta=1 / 12)
    return space.rescaled(cubes._normalizing_factor(space, params)), params


def _counting(monkeypatch, owner, name):
    """The calls to ``owner.name``, each as its positional arguments."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_plane_level_one_net_takes_rows_and_no_cells(plane65, monkeypatch):
    # a row blocks about 90 of the scan's 4,225 points, more than 4,225 / ROW_SHARE: the
    # rows pay to the end
    norm, params = plane65
    looks = _counting(monkeypatch, kernels.CellIndex, "within")
    for seed in range(8):
        assert 70 <= nets.build_net(norm, 1, params, seed).centers.size <= 90
    assert looks == []


def test_level_below_the_least_gap_asks_no_kernel(plane65, monkeypatch):
    # each place's first point in scan order is the net, with no kernel call
    norm, params = plane65
    repeated = MetricSpace(norm.descriptor, coords=np.concatenate([norm.coords,
                                                                   norm.coords[::7]]))
    kernel = _counting(monkeypatch, kernels, "greedy_net_coords")
    for space in (norm, repeated):
        gap = space.min_positive_distance()
        assert params.separation(2) < gap < params.separation(1)
        place = space.index.base.lowest_at_place.tolist()
        for seed in (0, 7):
            order = nets.scan_order(space.n, seed, 2)
            seen, first = set(), []  # each place's first point in scan order
            for q in order.tolist():
                if place[q] not in seen:
                    seen.add(place[q])
                    first.append(q)
            assert np.array_equal(nets.build_net(space, 2, params, seed).centers, np.sort(first))
            # within kernels.TIE_RTOL of the gap the kernel decides, as the squared base
            # radius may round past the least squared distance; below that, no kernel
            assert np.array_equal(space.index.net(order, np.nextafter(gap, 0.0) / 2.0), first)
            assert np.array_equal(space.index.net(order, 0.0), order)
    assert kernel == []
    nets.build_net(norm, 1, params, 0)
    assert len(kernel) == 1


def test_a_net_asked_before_the_least_gap_does_not_compute_it(plane65, monkeypatch):
    # on a 5-D lattice the exact gap costs more than the nets; the build asks for it anyway
    norm, params = plane65
    gaps = _counting(monkeypatch, metric.CoordIndex, "closest_pair")
    before = [nets.build_net(norm, k, params, 7).centers for k in range(3)]
    assert gaps == []
    norm.min_positive_distance()
    assert len(gaps) == 1
    for k in range(3):
        assert np.array_equal(nets.build_net(norm, k, params, 7).centers, before[k])


def test_plane_doubling_nets_measure_rows_over_the_ball_only(plane65, monkeypatch):
    norm, _ = plane65
    scans, measured, looks = [], [], []  # per net: its scan's size, rows measured, cell looks
    net = metric.CoordIndex.net
    square_sums = kernels.square_sums
    within = kernels.CellIndex.within

    def scanning(self, order, t):
        scans.append(order.size)
        try:
            return net(self, order, t)
        finally:
            scans.append(None)

    def measuring(a, b):
        if scans and scans[-1] is not None:
            measured.append((scans[-1], a.shape[0] if a.ndim > 1 else 1))
        return square_sums(a, b)

    def looking(self, query, r):
        if scans and scans[-1] is not None:
            looks.append(len(query))
        return within(self, query, r)

    monkeypatch.setattr(metric.CoordIndex, "net", scanning)
    monkeypatch.setattr(kernels, "square_sums", measuring)
    monkeypatch.setattr(kernels.CellIndex, "within", looking)
    norm.estimate_doubling(sample_count=24, rng_seed=3)
    sizes = scans[::2]
    assert len(sizes) == 24 and min(sizes) < norm.n and measured
    assert looks == []
    # every row of a net's scan is over the ball's members, never all n points
    assert all(rows <= size for size, rows in measured)
