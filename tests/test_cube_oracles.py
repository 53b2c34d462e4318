"""Cube queries on the depth-first arrays against the direct computations.

``CubeSystem.order`` makes every cube a contiguous run, so containment takes
the two ball members of least and greatest rank, and a level's cube count
is one plus the label changes along the depth-first-sorted target. The
oracles here are the computations those replaced: a deep-to-shallow scan
that tests containment member by member (or by the id-range ends on levels
whose cubes are contiguous id ranges), and ``np.unique`` over label slices.
Both must agree bit for bit on random small spaces of every metric kind,
with tied distances.

Two exact shortcuts are held to the computations they skip, with radii
drawn on their decision boundaries: a greedy cover block is its whole near
set when that set's diameter allows, where the old greedy grew every block;
and R_eff is R when twice the eccentricity reaches R, where the old code
took min(R, 2 * diam) from the exact ball diameter every time.

Reloading a family reads each level in one pass: ``diams_at`` takes every
cube's diameter from one sweep of the level's grouped ids, where the old code
called ``diameter`` per cube, and it must match that bit for bit. The
inner-ball check reads each level's centers' inner balls (``inner_balls``)
and asks that every point of center i's ball carry label i, as the paper
states property (iii); its oracle reads one distance row per center, on
tampered systems too: a point moved out of its cube, a point made a center
with no point moved, and two centers nearer than the inner radius, which the
old check, asking a point in two balls for its nearest center, passed. Where
every point of a coordinate space is a center, in id order, the check takes
each point's ball as the points at its place unless two points at distinct
places lie nearer than the inner radius; the old check took it so always,
and missed such a pair. A ``cubes.json``
round trip must reproduce the labels, parents and checks. Each deepest
center labels itself, where the old labels asked every point for its
nearest center, and the outer-ball check takes each cube's farthest member
from the index, where the old check measured every member; the old
computations are oracles here too. Their labels agree unless two deepest centers sit at distance 0
(a tampering added here): the old labels then leave one of them an empty
cube, and the new ones fail the inner-ball check.

On a line and in an ultrametric, every ball is a run of the index's ranks,
and the sweeps read each window off one table of such runs
(``RunWindowTable``), keyed on the run; ``sample_points`` reads each probe's
least positive gap off E's rank order. The row-and-digest window reading
and the row-based ``sample_points`` they replaced are kept here as oracles:
whole windows must match bit for bit, on spaces with repeated points and on
targets E that are strict subsets or repeat an id. Every built cube on a
line or in an ultrametric is one run of the index's order too, so the
table now reads each window's counts off the cubes' runs and its
containing cube off the ball's two end ids, and the family build keeps
each query ball as those two ids; the table that reduced over every
position of a ball (``PositionWindowTable``) and the member-based build
(``oracle_family``) are their oracles, on lines with ties at midpoints and
repeated points and on ultrametrics of arity 3 with tiny bases. The table
now reads all sampled balls in one pass, and a sweep fits exactly only
the windows whose screened slopes are near the greatest; the table that
read one sample point at a time (``per_sample_windows``) and the sweep that
fitted every window (``oracle_sweep_max_slope``) are their oracles.

Every local window counts from m = 0, its containing cube, where the count
is 1. The box fit reads the window of the one ball around E's first id that
holds E, and the sandwich check reads D and the largest counted diameter
at its m off the window of its ball; where each ran its own containing-cube
and counting code, their systems, counts and depth flag are now held to the
same oracles.

On random families of every kind, with repeated points, ``verify_system``
reports the four cube properties holding (Hytönen and Kairema), and the
sandwich check at random (x, R, m) finds N_exact <= D whenever every
counted cube fits the check's radius.

Above one block of 128 points, a >= 2-D diameter keeps only the points
that pass a centre bound, and scans each block of them against the points
that may reach it; the full block scan it replaced is its oracle, on sets
whose convex hull's vertices miss an end of the farthest pair and on
rounded points of a sphere. A >= 2-D or matrix space takes the diameters
of its runs of at most 128 ids by groups of one size, where the old code
called ``diameter`` per run; that loop is their oracle.

``local_windows`` no longer drops the radii below the least gap between
distinct points: such a ball holds one distinct point and gives no window.
Its output with the old filtered radii passed in is the oracle, on random
families of every kind with repeated points.

The greedy cover reads its near sets as closed balls of the index, and the
doubling estimate counts each sample as a greedy net of the index; the
row-based computations they replaced are kept here as their oracles.

The whole space's diameter and least gap are kept by its index alone, and
``diams_at`` reads the root cube through ``run_diameters`` like every level;
every pair's largest and least distance (``oracle_whole_values``) is their
oracle, on coordinates in 1 to 6 dimensions (repeated points, points 1e8
from the origin), strings, matrix spaces, one point, and the rescaled and
snowflaked clones of each. A family build asks the index for an undecided
ball's diameter over its members in the order ``balls`` gives them, so the
diameter of a shuffled id set must be that of the sorted one.

A Hausdorff fit reads every radius off one table of level sums per exponent,
where the old fit recomputed all level sums for each radius; and a family
build decides each query ball once, up front, where the old build filled a
ball cache lazily while evaluating its first system. Both old computations
are kept here as oracles, on spaces with repeated points, so that degenerate
balls occur.

A family build on a plane or in a matrix space reads each query ball's
members and eccentricity off one distance row, where it asked
``ball_members`` and ``_effective_radius`` once per query; that loop
(``oracle_query_balls``) is its oracle, for the R_eff bits and each ball's
member set, on planes in 2, 3 and 5 dimensions, snowflaked ones, matrix
spaces and repeated points, at radii on attained distances. Every
index's ``balls`` groups its pairs by ascending owner, as the build reads
them, held to each center's distance row. The box fit reads the farthest
distance of E from its first id off ``run_farthest``, where it read that
id's distance row; the row is its oracle, for the estimate's bytes.

A cubes file is written from the id arrays' text and read with NumPy, with
``json`` only for the small rest, where the old writer made one
``json.dumps`` of nested lists and the old reader one ``json.load``; both
are oracles here, for the file's bytes and the arrays read from it.

One rule now finds every ball's containing cube and one picks the winning
system: ``_cubes_of`` over arrays of ball ends, and the first system of
least diameter by ``np.argmin`` (``_smallest_cubes``); a family build keeps
each query's running best as arrays. The rules they replaced are kept here
as oracles: the walk from the deepest level per ball and system
(``oracle_cube_of``, ``oracle_circumscribed_in_system``), the pick that let
a later system win only with a strictly smaller diameter
(``oracle_smallest_cube``), the scalar certificate (``oracle_cert_terms``)
and the single-ball window (``oracle_local_window``). A family whose
systems all come from one seed ties every diameter, and its first system
must win every tie.

On a plane and in a matrix space, the windows of a sample point are read
at once off one bucketing of its distance row, each ball keyed on its size
and an order-free digest of its ids and confirmed member by member. The
per-ball loop it replaced, one ball and one sha256 of its ids per radius
(``oracle_local_windows``), is its oracle, bit for bit: on planes in 2, 3
and 5 dimensions, snowflaked ones and matrix spaces, with repeated points,
at radii in no order, repeated, on attained distances and one ulp either
side, past the diameter and inf, for E whole, strided and repeating an id,
and with every digest weight 0, so that all balls of one size share a key.
A level of one cube is grouped without a sort; the stable sort's grouping
is its oracle.
"""

import dataclasses
import hashlib
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from conftest import random_graph_matrix, write_cubes_doc

from cubedim import MetricDescriptor, MetricSpace, cli, cubes, dimensions, metric
from cubedim.covering import dyadic_cover_count, greedy_cover_count, sandwich_check
from cubedim.cubes import (NORMALIZED_DIAMETER, AdjacentFamily, BuildReport,
                           CircumscribedCube, CubeSystem, _check_inner_balls,
                           _effective_radius, build_adjacent_family, build_system,
                           _read_doc, circumscribed_cube, file_hash, load_family,
                           r_grid, save_family, target_in_ball, verify_system)
from cubedim.dimensions import (DimensionEstimate, _fit_line, _met_diameters,
                                box_dim_estimate, hausdorff_dim_estimate,
                                least_admissible_level, local_windows, sample_points)
from cubedim.errors import (ConfigurationError, DegenerateBallError, InsufficientScalesError,
                            InvalidArgumentError, ScaleExhaustedError, StaleCubesError)
from cubedim.metric import load_points, save_points
from cubedim.nets import NetLevel, NetParams, nearest_center

SAMPLE_BUDGET = 8
KINDS = ["euclidean", "snowflake", "ultrametric", "matrix"]


def _shuffled(rng, rows):
    return rows[rng.permutation(len(rows))]


def _shortest_paths(weights):
    d = weights.copy()
    for k in range(d.shape[0]):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


@st.composite
def spaces(draw, kind, repeats=False):
    """A space of ``kind`` with 2 to 60 points, ids in random order. With
    ``repeats``, a coordinate space or an ultrametric one may list a point
    more than once (a matrix space cannot)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    n = draw(st.integers(min_value=2, max_value=60))
    if kind in ("euclidean", "snowflake"):
        dim = draw(st.integers(min_value=1, max_value=3))
        if draw(st.booleans()):  # lattice points: many tied distances
            pts = rng.integers(0, 6, size=(n, dim)).astype(np.float64)
        else:
            pts = rng.uniform(size=(n, dim))
        pts = _shuffled(rng, np.unique(pts, axis=0))
        if repeats:
            pts = pts[rng.integers(len(pts), size=n)]
        space = MetricSpace(MetricDescriptor("euclidean"), coords=pts)
        if kind == "snowflake":
            space = space.snowflaked(draw(st.sampled_from([0.3, 0.5, 0.8])))
        return space
    if kind == "ultrametric":
        arity = draw(st.integers(min_value=2, max_value=3))
        length = draw(st.integers(min_value=1, max_value=6))
        words = np.unique(rng.integers(0, arity, size=(n, length)), axis=0)
        strings = ["".join(str(c) for c in w) for w in _shuffled(rng, words)]
        if len(strings) < 2:
            strings = ["0" * length, "1" * length]
        if repeats:
            strings = [strings[i] for i in rng.integers(len(strings), size=n)]
        desc = MetricDescriptor("ultrametric", arity=arity,
                                base=draw(st.sampled_from([1 / 16, 0.25, 0.5])))
        return MetricSpace(desc, strings=strings)
    # shortest paths over a random graph with small integer weights
    w = np.full((n, n), np.inf)
    edges = rng.random((n, n)) < 0.3
    w[edges] = rng.integers(1, 4, size=int(edges.sum()))
    chain = np.arange(n - 1)
    w[chain, chain + 1] = rng.integers(1, 4, size=n - 1)
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    return MetricSpace(MetricDescriptor("matrix"), matrix=_shortest_paths(w))


def oracle_cube_of(system, first, last):
    """``cubes._cube_of`` as it was: (level, index) of the deepest cube holding
    the ids first and last, walked from the deepest level up."""
    for k in range(system.max_level, 0, -1):
        labels = system.labels[k]
        if labels[first] == labels[last]:
            return k, int(labels[first])
    return 0, 0


def oracle_circumscribed_in_system(system, members):
    """``cubes._circumscribed_in_system`` as it was: the deepest cube holding
    the members of least and greatest depth-first rank."""
    ranks = system.rank[members]
    return oracle_cube_of(system, system.order[ranks.min()], system.order[ranks.max()])


def oracle_smallest_cube(family, cubes_found, R_eff):
    """``cubes._smallest_cube`` as it was: of the cubes (level, index), one per
    system in turn, the one of least diameter; a later system wins only with
    a strictly smaller one."""
    best = None
    for system, (level, index) in zip(family.systems, cubes_found):
        diam = float(system.diams_at(level)[index])
        if best is None or diam < best.diameter:
            best = CircumscribedCube(system.system_id, level, index, diam, R_eff)
    return best


def oracle_cert_terms(params, R_eff, level, diam):
    """``cubes._cert_terms`` as it was, for one ball."""
    up = diam / R_eff
    down = R_eff / diam
    scale = params.c0 * params.delta ** level
    lvl_up = 3.0 * R_eff / scale
    lvl_down = scale / (3.0 * R_eff)
    return max(up, down, lvl_up, lvl_down)


def oracle_local_window(family, E, x, R, members, row):
    """``cubes.local_window`` as it was: R_eff by ``_effective_radius``'s rule
    with the eccentricity off x's distance ``row``, the containing cube from
    the rules above, then each level below it counted along the
    depth-first-sorted target; None when E misses the ball."""
    R_eff = (0.0 if members.size < 2 else R if 2.0 * row[members].max() >= R
             else min(R, 2.0 * family.space.diameter(members)))
    if R_eff == 0.0:
        raise DegenerateBallError(f"ball B({x}, {R:g}) holds fewer than two distinct points")
    cc = oracle_smallest_cube(family, (oracle_circumscribed_in_system(system, members)
                                       for system in family.systems), R_eff)
    target = target_in_ball(family.space, E, members)
    if target.size == 0:
        return None
    system = family.systems[cc.system_id]
    dfs = system.dfs_sorted(target)
    counts, max_diams = [1], [cc.diameter]
    for level in range(cc.level + 1, system.max_level + 1):
        labels = system.labels[level][dfs]
        counts.append(1 + int(np.count_nonzero(labels[1:] != labels[:-1])))
        max_diams.append(float(system.diams_at(level)[labels].max()))
    return cubes.LocalWindow(x=x, R=R, R_eff=cc.R_eff, level=cc.level,
                             system_id=cc.system_id, depth=system.max_level - cc.level,
                             counts=counts, max_diams=max_diams, target_size=int(target.size))


def oracle_diams(system, k):
    """Diameter of each level-k cube from its members by a direct scan."""
    return [system.space.diameter(np.flatnonzero(system.labels[k] == i))
            for i in range(system.levels[k].centers.size)]


def oracle_in_system(system, x, members):
    """(level, index) of the deepest cube of x holding every member, or None."""
    first, last = int(members[0]), int(members[-1])
    for k in range(system.max_level, -1, -1):
        labels = system.labels[k]
        idx = labels[x]
        contiguous = np.count_nonzero(np.diff(labels)) + 1 == system.levels[k].centers.size
        if contiguous:
            if labels[first] == idx and labels[last] == idx:
                return k, int(idx)
        elif labels[first] == idx and labels[last] == idx and np.all(labels[members] == idx):
            return k, int(idx)
    return None


def oracle_circumscribed(family, x, members):
    """(diameter, system id, level, index): the smallest cube over the systems."""
    best = None
    for system in family.systems:
        found = oracle_in_system(system, x, members)
        if found is not None:
            diam = oracle_diams(system, found[0])[found[1]]
            if best is None or diam < best[0]:
                best = (diam, system.system_id) + found
    return best


def oracle_counts(system, target, levels):
    """Per level: number of cubes meeting target and their largest diameter."""
    counts, max_diams = [], []
    for k in levels:
        idx = np.unique(system.labels[k][target])
        counts.append(int(idx.size))
        max_diams.append(float(np.asarray(oracle_diams(system, k))[idx].max()))
    return counts, max_diams


def oracle_sample_points(space, E, budget, seed):
    """``sample_points`` as it was: each probe's least positive gap from its row."""
    E = np.asarray(E, dtype=np.int64)
    extremal = [int(E[0]), int(E[-1])]
    if E.size > 2:
        sub = E
        if E.size > 4096:
            rng = np.random.default_rng([seed, 11])
            sub = np.sort(rng.choice(E, size=4096, replace=False))
        gaps = []
        for p in sub[:: max(1, sub.size // 512)]:
            row = space.row(int(p))[E]
            row = row[row > 0]
            if row.size:
                gaps.append((float(row.min()), int(p)))
        if gaps:
            extremal.append(min(gaps)[1])
            extremal.append(max(gaps)[1])
    if E.size <= budget:
        chosen = E
    else:
        rng = np.random.default_rng([seed, 13])
        chosen = rng.choice(E, size=budget, replace=False)
    return np.unique(np.concatenate([chosen, np.asarray(extremal, dtype=np.int64)]))


def oracle_windows_for_point(family, E, x, radii, seen):
    """The windows of one sample point as they were read on every metric kind:
    a full row, each ball's members from it, keyed on a digest of the ids."""
    row = family.space.row(x)
    out = []
    for R in radii:
        members = np.flatnonzero(row < R)
        key = (int(members.size), hashlib.sha256(members.tobytes()).digest())
        if key in seen:
            continue
        seen.add(key)
        try:
            window = oracle_local_window(family, E, x, float(R), members, row)
        except DegenerateBallError:
            continue
        if window is not None and window.depth >= 2:
            out.append(window)
    return out


def oracle_local_windows(family, E, radii):
    """``local_windows`` as it was, from the two oracles above."""
    out, seen = [], set()
    for x in oracle_sample_points(family.space, np.asarray(E), SAMPLE_BUDGET, 0):
        out.extend(oracle_windows_for_point(family, E, int(x), radii, seen))
    return out


def window_bits(window):
    """A window's fields, each float by its bits."""
    def bits(value):
        if isinstance(value, list):
            return [bits(v) for v in value]
        if isinstance(value, (float, np.floating)):
            return float(value).hex()
        return int(value)
    return [bits(getattr(window, f.name)) for f in dataclasses.fields(window)]


def oracle_windows(family, E, radii):
    """The local windows, recomputed with the oracles and member-set dedupe;
    counts and largest diameters run from the containing level (m = 0). A
    ball whose members all sit at x, one distinct point, has no window."""
    out, seen = [], set()
    for x in oracle_sample_points(family.space, E, SAMPLE_BUDGET, 0):
        row = family.space.row(int(x))
        for R in radii:
            members = np.flatnonzero(row < R)
            if not np.any(row[members] > 0) or tuple(members) in seen:
                continue
            seen.add(tuple(members))
            target = np.intersect1d(E, members)
            if target.size == 0:
                continue
            _, sid, level, _ = oracle_circumscribed(family, int(x), members)
            system = family.systems[sid]
            if system.max_level - level < 2:
                continue
            counts, max_diams = oracle_counts(system, target,
                                              range(level, system.max_level + 1))
            out.append((int(x), float(R), sid, level, counts, max_diams, int(target.size)))
    return out


@st.composite
def families(draw, kind, repeats=False):
    space = draw(spaces(kind, repeats))
    # a low target ratio makes most families take several systems
    fam = build_adjacent_family(space, NetParams(), K_max=3, query_budget=12,
                                target_ratio=draw(st.sampled_from([2.0, 64.0])),
                                seed=draw(st.integers(min_value=0, max_value=50)),
                                max_level=draw(st.integers(min_value=1, max_value=4)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    n = fam.space.n
    E = fam.space.ids if draw(st.booleans()) else np.sort(
        rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    grid = r_grid(fam.params.delta, fam.max_level)
    radii = [1.0 - 1e-10] + sorted(rng.choice(grid, size=min(5, len(grid)), replace=False),
                                   reverse=True)
    return fam, E, [float(R) for R in radii]


class TestDepthFirstArrays:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_oracles_bitwise(self, kind, data):
        fam, E, radii = data.draw(families(kind, repeats=data.draw(st.booleans())))
        space = fam.space
        for system in fam.systems:
            for s in (0.0, 0.37, 1.0):
                expect = []
                for k in range(system.max_level + 1):
                    idx = np.unique(system.labels[k][E])
                    diams = np.asarray(oracle_diams(system, k))
                    expect.append(float(idx.size) if s == 0.0
                                  else float(np.sum(diams[idx] ** s)))
                assert [float(np.sum(d ** s)) for d in _met_diameters(system, E)] == expect
        for x in space.ids[:: max(1, space.n // 6)]:
            for R in radii:
                members = space.ball_members(int(x), R)
                for system in fam.systems:
                    level, index, _ = cubes._cubes_of(
                        system, *cubes._extremes(system, members, np.zeros(1, dtype=np.int64)))
                    assert ((int(level[0]), int(index[0]))
                            == oracle_circumscribed_in_system(system, members)
                            == oracle_in_system(system, int(x), members))
                try:
                    cc = circumscribed_cube(fam, int(x), R)
                except DegenerateBallError:  # one distinct point: every member at x
                    assert not np.any(space.row(int(x))[members] > 0)
                    continue
                expect = oracle_circumscribed(fam, int(x), members)
                assert (cc.diameter, cc.system_id, cc.level, cc.index) == expect
                system = fam.systems[cc.system_id]
                target = np.intersect1d(E, members)
                if target.size == 0:
                    continue
                for m in range(system.max_level - cc.level + 2):
                    try:
                        rep = dyadic_cover_count(fam, E, int(x), R, m)
                    except ScaleExhaustedError:
                        assert cc.level + m > system.max_level
                        continue
                    counts, max_diams = oracle_counts(system, target, [cc.level + m])
                    assert (rep.D, rep.max_cube_diameter) == (counts[0], max_diams[0])
        windows = local_windows(fam, E, sample_budget=SAMPLE_BUDGET, radii=radii)
        got = [(w.x, w.R, w.system_id, w.level, w.counts, w.max_diams, w.target_size)
               for w in windows]
        assert got == oracle_windows(fam, E, radii)
        assert ([window_bits(w) for w in windows]
                == [window_bits(w) for w in oracle_local_windows(fam, E, radii)])
        # an E that repeats an id counts it once
        E_rep = np.sort(np.concatenate([E, E[-1:]]))
        assert ([window_bits(w) for w in local_windows(fam, E_rep, SAMPLE_BUDGET, radii=radii)]
                == [window_bits(w) for w in oracle_local_windows(fam, E_rep, radii)])


def row_window_radii(space, rng):
    """Radii in no order, some twice: attained distances from a few points,
    one ulp either side of each, the radii of a sweep, one past the diameter
    and inf."""
    d = np.unique(np.concatenate([space.row(int(p)) for p in rng.integers(space.n, size=3)]))
    d = rng.choice(d[d > 0], size=min(4, int(np.count_nonzero(d))), replace=False)
    radii = [*d, *np.nextafter(d, 0.0), *np.nextafter(d, np.inf), 1.0 - 1e-10,
             *r_grid(NetParams().delta, 4), 1.5 * space.diameter(), np.inf]
    radii += [radii[i] for i in rng.integers(len(radii), size=3)]
    return [float(R) for R in rng.permutation(radii)]


class TestRowWindows:
    """On a plane and in a matrix space, ``point_windows`` reads all the balls
    of a sample point off one bucketing of its row and keys a ball on its size
    and an order-free digest of its ids, confirmed member by member. The
    per-ball loop it replaced, a row, a ball and a sha256 of its ids per
    radius (``oracle_local_windows``), is its oracle, bit for bit; with every
    digest weight 0, so that all balls of one size share a key, too."""

    @pytest.mark.parametrize("kind", ["plane", "snowflake", "matrix"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_ball_oracle_bitwise(self, kind, data):
        space = data.draw(ball_spaces(kind))
        fam = build_adjacent_family(space, NetParams(), K_max=3, query_budget=12,
                                    target_ratio=data.draw(st.sampled_from([2.0, 64.0])),
                                    seed=data.draw(st.integers(min_value=0, max_value=50)),
                                    max_level=data.draw(st.integers(min_value=2, max_value=4)))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        radii = row_window_radii(fam.space, rng)
        ids = fam.space.ids
        stride = data.draw(st.integers(min_value=2, max_value=4))
        for E in (ids, ids[::stride], np.sort(np.concatenate([ids, ids[-1:]]))):
            want = [window_bits(w) for w in oracle_local_windows(fam, E, radii)]
            event(f"windows: {'some' if want else 'none'}")
            assert [window_bits(w) for w in local_windows(fam, E, SAMPLE_BUDGET,
                                                          radii=radii)] == want
            with mock.patch.object(cubes, "_digest_weights",
                                   lambda n: np.zeros(n, dtype=np.uint64)):
                assert [window_bits(w) for w in local_windows(fam, E, SAMPLE_BUDGET,
                                                              radii=radii)] == want


@st.composite
def run_spaces(draw):
    """A space whose index is sorted: a line of multiples of 1/8, where points
    repeat and many sit at the midpoint of two others, perhaps snowflaked; or
    an ultrametric of arity 3, whose base may take a distance near or past
    underflow (base ** 2 is 0.0 at 1e-200)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    n = draw(st.integers(min_value=2, max_value=60))
    if draw(st.booleans()):
        x = rng.integers(0, draw(st.sampled_from([4, 16, 64])), size=n) / 8.0
        x[0] = x[-1] + 0.125  # two distinct points at least
        space = MetricSpace(MetricDescriptor("euclidean"), coords=x)
        eps = draw(st.sampled_from([1.0, 0.5]))
        return space if eps == 1.0 else space.snowflaked(eps)
    length = draw(st.integers(min_value=1, max_value=4))
    strings = ["".join(map(str, w)) for w in rng.integers(0, 3, size=(n, length))]
    strings[0] = "2" * length if strings[-1] != "2" * length else "0" * length
    desc = MetricDescriptor("ultrametric", arity=3,
                            base=draw(st.sampled_from([0.5, 1 / 16, 1e-100, 1e-200])))
    return MetricSpace(desc, strings=strings)


@st.composite
def run_families(draw):
    """A family built over ``run_spaces``, with E every point, a strict subset
    or n ids drawn with repeats, and radii as in ``families``; None where the
    least gap underflows, which the build refuses."""
    space = draw(run_spaces())
    try:
        fam = build_adjacent_family(space, NetParams(), K_max=3, query_budget=12,
                                    target_ratio=draw(st.sampled_from([2.0, 64.0])),
                                    seed=draw(st.integers(min_value=0, max_value=50)),
                                    max_level=draw(st.integers(min_value=1, max_value=4)))
    except ConfigurationError as exc:
        assert "underflows" in str(exc)
        return None
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    n = fam.space.n
    E = {"all": fam.space.ids,
         "subset": np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False)),
         "repeats": np.sort(rng.integers(n, size=n))}[draw(st.sampled_from(
             ["all", "subset", "repeats"]))]
    grid = r_grid(fam.params.delta, fam.max_level)
    radii = [1.0 - 1e-10] + sorted(rng.choice(grid, size=min(5, len(grid)), replace=False),
                                   reverse=True)
    return fam, E, np.asarray(radii)


def one_run_per_cube(system):
    """Whether the members of every cube have consecutive ranks in the order of
    the space's index, measured cube by cube."""
    rank = system.space.index.rank
    return all(ids.size == 0 or np.ptp(rank[ids]) + 1 == ids.size
               for k in range(system.max_level + 1) for ids in system.cubes_at(k))


class PositionWindowTable:
    """``cubes.RunWindowTable`` as it was before it read cubes as runs: per
    system and level, the last earlier position of E's ids in the same cube
    and that cube's diameter, one entry per position, and each system's
    depth-first ranks over every position of the space; each window reduces
    them over all of the ball's positions."""

    def __init__(self, family, E):
        self.family = family
        self.index = family.space.index
        order = self.index.order
        in_E = np.zeros(family.space.n, dtype=bool)
        in_E[E] = True
        in_E = in_E[order]
        self.ids = order[in_E]
        self.before = np.concatenate([[0], np.cumsum(in_E)])
        self.ranks = np.stack([system.rank[order] for system in family.systems])
        self._levels = {}

    def level_tables(self, system):
        if system.system_id not in self._levels:
            earlier = np.full((system.max_level, self.ids.size), -1, dtype=np.int32)
            diams = np.empty((system.max_level, self.ids.size))
            for k in range(1, system.max_level + 1):
                labels = system.labels[k][self.ids]
                by_cube = np.argsort(labels, kind="stable")
                same = labels[by_cube[1:]] == labels[by_cube[:-1]]
                earlier[k - 1, by_cube[1:][same]] = by_cube[:-1][same]
                diams[k - 1] = system.diams_at(k)[labels]
            self._levels[system.system_id] = earlier, diams
        return self._levels[system.system_id]

    @staticmethod
    def cube_of_ranks(system, least, greatest):
        first, last = system.order[least], system.order[greatest]
        for k in range(system.max_level, 0, -1):
            if system.labels[k][first] == system.labels[k][last]:
                return k, int(system.labels[k][first])
        return 0, 0

    def windows(self, x, radii, seen):
        lo, hi = self.index.ball_run(np.full(radii.size, x), radii)
        new = []
        for i, run in enumerate(zip(lo.tolist(), hi.tolist())):
            if run not in seen:
                seen.add(run)
                new.append(i)
        lo, hi, radii = lo[new], hi[new], radii[new]
        R_eff = np.minimum(radii, 2.0 * self.index.pairs(self.index.order[lo],
                                                         self.index.order[hi - 1]))
        a, b = self.before[lo], self.before[hi]
        systems = self.family.systems
        out = []
        for i in np.flatnonzero((R_eff != 0.0) & (a < b)).tolist():
            run = self.ranks[:, lo[i]:hi[i]]
            cc = oracle_smallest_cube(self.family, map(self.cube_of_ranks, systems,
                                                       run.min(axis=1), run.max(axis=1)),
                                      float(R_eff[i]))
            system = systems[cc.system_id]
            earlier, diams = self.level_tables(system)
            below, at = slice(cc.level, None), slice(a[i], b[i])
            counts = (earlier[below, at] < a[i]).sum(axis=1).tolist()
            max_diams = diams[below, at].max(axis=1).tolist()
            out.append(cubes.LocalWindow(x=x, R=float(radii[i]), R_eff=cc.R_eff,
                                         level=cc.level, system_id=cc.system_id,
                                         depth=system.max_level - cc.level,
                                         counts=[1, *counts],
                                         max_diams=[cc.diameter, *max_diams],
                                         target_size=int(b[i] - a[i])))
        return out


def position_windows(family, E, radii):
    """``local_windows`` on a sorted index as it was, through ``PositionWindowTable``."""
    table, seen, out = PositionWindowTable(family, E), set(), []
    for x in sample_points(family.space, E, SAMPLE_BUDGET, 0):
        out.extend(w for w in table.windows(int(x), radii, seen) if w.depth >= 2)
    return out


def per_sample_windows(family, E, radii):
    """``local_windows`` on a sorted index as it was before it read every
    sampled ball in one pass: ``RunWindowTable.windows`` of one sample point
    at a time, the runs already seen kept in a set, each ball's containing
    cube found system by system (``oracle_cube_of``, ``oracle_smallest_cube``) and its
    counts by one search of the level tables per window."""
    table, seen, out = cubes.RunWindowTable(family, E), set(), []
    index, systems = table.index, family.systems
    for x in sample_points(family.space, E, SAMPLE_BUDGET, 0).tolist():
        lo, hi = index.ball_run(np.full(radii.size, x), radii)
        new = []
        for i, run in enumerate(zip(lo.tolist(), hi.tolist())):
            if run not in seen:
                seen.add(run)
                new.append(i)
        lo, hi, R = lo[new], hi[new], radii[new]
        first, last = index.order[lo], index.order[hi - 1]
        R_eff = np.minimum(R, 2.0 * index.pairs(first, last))
        a, b = table.before[lo], table.before[hi]
        ends = np.stack([a, b - 1], axis=1)
        for i in np.flatnonzero((R_eff != 0.0) & (a < b)).tolist():
            cc = oracle_smallest_cube(family, (oracle_cube_of(s, first[i], last[i])
                                               for s in systems), float(R_eff[i]))
            system = systems[cc.system_id]
            starts, diams = table.level_tables(system)
            runs = starts.searchsorted((table.shift[cc.level:system.max_level, None]
                                        + ends[i]).ravel(), side="right")
            runs[::2] -= 1
            if system.max_level - cc.level >= 2:
                out.append(cubes.LocalWindow(
                    x=x, R=float(R[i]), R_eff=cc.R_eff, level=cc.level,
                    system_id=cc.system_id, depth=system.max_level - cc.level,
                    counts=[1, *(runs[1::2] - runs[::2]).tolist()],
                    max_diams=[cc.diameter, *np.maximum.reduceat(diams, runs)[::2].tolist()],
                    target_size=int(b[i] - a[i])))
    return out


def oracle_window_slope(window, bound, log_inv_delta):
    """``dimensions._window_slope`` as it was: the window's slope over its
    levels whose counted cubes fit the bound, from ``np.polyfit``; the number
    of those levels; and whether the deepest is one of them."""
    ms = [m for m in range(1, window.depth + 1) if window.max_diams[m] <= bound]
    if len(ms) < 2:
        return None, len(ms), False
    xs = [m * log_inv_delta for m in ms]
    ys = [math.log(window.counts[m]) for m in ms]
    slope, _, _ = _fit_line(xs, ys)
    return slope, len(ms), ms[-1] == window.depth


def oracle_sweep_max_slope(family, windows, bound_fn, kind, theta, seed):
    """``dimensions._sweep_max_slope`` as it was: one exact fit per window, in order."""
    log_inv_delta = math.log(1.0 / family.params.delta)
    best = witness = None
    truncated = False
    usable = singleton_only = 0
    for w in windows:
        slope, n_adm, hits_depth = oracle_window_slope(w, bound_fn(w), log_inv_delta)
        truncated = truncated or hits_depth
        if slope is None:
            if n_adm == 1:
                singleton_only += 1
            continue
        usable += 1
        if best is None or slope > best:
            best = slope
            witness = {"x": w.x, "R": w.R, "system_id": w.system_id}
    if best is None:
        reason = ("depth too small for the admissible windows"
                  if singleton_only else
                  f"cube-diameter bound too tight (C_delta_hat={family.C_delta_hat:g}, "
                  f"C_tilde={family.C_tilde:g})")
        raise InsufficientScalesError(
            f"{kind}: no (x, R) window with >= 2 admissible levels; {reason}")
    flags = family.flags()
    if truncated:
        flags.append("depth-limited")
    return DimensionEstimate(kind=kind, value=float(best), theta=theta,
                             window=[0, family.max_level], slope=float(best),
                             seed=seed, flags=flags,
                             diagnostics={"windows_used": usable, "witness": witness})


def sweep_outcome(sweep, family, windows, bound_fn, kind, theta):
    """What a sweep gives: its estimate's fields, the value's bits and its
    diagnostics, or the message of its ``InsufficientScalesError``."""
    try:
        est = sweep(family, windows, bound_fn, kind, theta, 5)
    except InsufficientScalesError as exc:
        return str(exc)
    return est.to_json(), est.flags, float(est.value).hex(), est.diagnostics


class TestWindowRadii:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_radii_below_the_least_gap_add_no_window(self, kind, data):
        fam, E, _ = data.draw(families(kind, repeats=True))
        gap = fam.space.min_positive_distance()
        filtered = [1.0 - 1e-10] + [R for R in r_grid(fam.params.delta, fam.max_level)
                                    if not math.isfinite(gap) or R >= gap]
        for seed in (0, 1):
            assert [window_bits(w) for w in local_windows(fam, E, SAMPLE_BUDGET, seed)] == [
                window_bits(w) for w in local_windows(fam, E, SAMPLE_BUDGET, seed,
                                                      radii=filtered)]


class TestWindowsAndSweepsAsArrays:
    """On a line and in an ultrametric, ``RunWindowTable.windows`` reads every
    sampled ball in one pass, where the old table read one sample point at a
    time (``per_sample_windows``); a sweep screens every window's slope as
    arrays and fits exactly only the windows near the greatest, where the old
    sweep fitted each in turn (``oracle_sweep_max_slope``). Window lists here
    repeat windows, so that slopes tie at the maximum, and move a window's
    bound onto one of its largest diameters or one ulp to either side, so
    that one level is admitted or not."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_windows_match_the_per_sample_table(self, data):
        drawn = data.draw(run_families())
        if drawn is None:
            return
        fam, E, radii = drawn
        assert [window_bits(w) for w in local_windows(fam, E, SAMPLE_BUDGET, radii=radii)] == [
            window_bits(w) for w in per_sample_windows(fam, E, radii)]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_sweeps_match_the_window_loop(self, data):
        drawn = data.draw(run_families())
        if drawn is None:
            return
        fam, E, radii = drawn
        windows = local_windows(fam, E, SAMPLE_BUDGET, radii=radii)
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        # ties: copies of windows among them, at random places
        tied = list(windows)
        for w in rng.choice(len(windows), size=min(len(windows), 4)).tolist() if windows else []:
            tied.insert(int(rng.integers(len(tied) + 1)), dataclasses.replace(windows[w]))
        # edges: each bound on one of its window's largest diameters, or one ulp
        # either side of it
        edges = []
        for w in windows:
            diam = w.max_diams[int(rng.integers(1, w.depth + 1))]
            edges.append(dataclasses.replace(w, R_eff=float(
                [np.nextafter(diam, 0.0), diam, np.nextafter(diam, np.inf)][rng.integers(3)])))
        theta = data.draw(st.sampled_from([0.1, 0.5, 0.9]))
        for listed in (windows, tied, edges, tied[::-1]):
            for bound_fn, kind, th in ((lambda w: w.R_eff, "assouad", None),
                                       (lambda w: w.R_eff ** (1.0 / theta), "assouad_theta",
                                        theta)):
                got = sweep_outcome(dimensions._sweep_max_slope, fam, listed, bound_fn, kind, th)
                assert got == sweep_outcome(oracle_sweep_max_slope, fam, listed, bound_fn,
                                            kind, th)
                event(got.split("; ")[1].split(" (")[0] if isinstance(got, str) else "an estimate")


class TestCubesAreRuns:
    """On a line and in an ultrametric every built cube is one run of the
    index's order; the window table and the build's certificate queries read
    cubes as runs, from each ball's two end ids, where the old ones reduced
    over each ball's positions or members (``PositionWindowTable``,
    ``oracle_family``)."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_built_cube_is_one_run(self, data):
        drawn = data.draw(run_families())
        if drawn is None:
            return
        fam = drawn[0]
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        for system in fam.systems:
            assert one_run_per_cube(system) and cubes._split_cube(system) is None
            # a point moved to another cube below the root: the check agrees with
            # the cube-by-cube measure, and names a cube that is not one run
            k = int(rng.integers(1, system.max_level + 1))
            labels = [lab.copy() for lab in system.labels]
            labels[k][rng.integers(fam.space.n)] = rng.integers(system.levels[k].centers.size)
            moved = with_labels(system, labels)
            split = cubes._split_cube(moved)
            assert (split is None) == one_run_per_cube(moved)
            if split is not None:
                members = np.flatnonzero(labels[split["level"]] == np.searchsorted(
                    system.levels[split["level"]].centers, split["center"]))
                assert np.ptp(fam.space.index.rank[members]) + 1 > members.size

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_windows_match_the_position_table(self, data):
        drawn = data.draw(run_families())
        if drawn is None:
            return
        fam, E, radii = drawn
        got = local_windows(fam, E, sample_budget=SAMPLE_BUDGET, radii=radii)
        assert [window_bits(w) for w in got] == [
            window_bits(w) for w in position_windows(fam, E, radii)]

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_certificates_match_the_member_queries(self, data):
        space = data.draw(run_spaces())
        args = dict(K_max=3, query_budget=24,
                    target_ratio=data.draw(st.sampled_from([2.0, 64.0])),
                    seed=data.draw(st.integers(min_value=0, max_value=50)),
                    max_level=data.draw(st.integers(min_value=1, max_value=4)))
        try:
            want = oracle_family(space, NetParams(), **args)
        except ConfigurationError:  # the least gap underflows
            with pytest.raises(ConfigurationError, match="underflows"):
                build_adjacent_family(space, NetParams(), **args)
            return
        got = build_adjacent_family(space, NetParams(), **args)
        assert family_to_json(got) == family_to_json(want)
        assert got.query_log == want.query_log


def tie_space(kind):
    """A small space of each metric kind, and a line: 60 points."""
    rng = np.random.default_rng(17)
    if kind == "line":
        return MetricSpace(MetricDescriptor("euclidean"), coords=rng.uniform(size=60))
    if kind in ("euclidean", "snowflake"):
        space = MetricSpace(MetricDescriptor("euclidean"), coords=rng.uniform(size=(60, 2)))
        return space if kind == "euclidean" else space.snowflaked(0.5)
    if kind == "ultrametric":
        words = np.unique(rng.integers(0, 3, size=(60, 5)), axis=0)
        return MetricSpace(MetricDescriptor("ultrametric", arity=3, base=0.25),
                           strings=["".join(map(str, w)) for w in words])
    return MetricSpace(MetricDescriptor("matrix"), matrix=random_graph_matrix(60, 17))


class TestTies:
    """A family whose systems all come from one seed has identical systems, so
    every ball's containing cubes tie in diameter across them; the first
    system wins each tie in ``circumscribed_cube``, in ``local_windows`` and
    in the build's query log."""

    @pytest.mark.parametrize("kind", ["line", *KINDS])
    def test_first_system_wins_every_tie(self, kind):
        build = cubes.build_system

        def one_seed(*args, seed, **kwargs):
            return build(*args, seed=3, **kwargs)

        with mock.patch.object(cubes, "build_system", one_seed):
            fam = build_adjacent_family(tie_space(kind), NetParams(), K_max=3,
                                        query_budget=40, target_ratio=1.0, seed=3,
                                        max_level=3)
        assert fam.K == 3 and fam.systems[2].seed == 3
        live = [q for q in fam.query_log if not q["degenerate"]]
        assert live and {q["system_id"] for q in live} == {0}
        windows = local_windows(fam, fam.space.ids, sample_budget=SAMPLE_BUDGET)
        assert windows and {w.system_id for w in windows} == {0}
        asked = 0
        for x in range(0, fam.space.n, 7):
            for R in r_grid(fam.params.delta, fam.max_level):
                try:
                    assert circumscribed_cube(fam, x, R).system_id == 0
                except DegenerateBallError:
                    continue
                asked += 1
        assert asked


class TestSamplePoints:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_row_oracle(self, kind, data):
        space = data.draw(spaces(kind, repeats=True))
        n = space.n
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        strict = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        for E in (space.ids, strict, np.sort(rng.integers(n, size=n))):
            for budget, seed in ((4, 0), (64, 3)):
                assert np.array_equal(sample_points(space, E, budget, seed),
                                      oracle_sample_points(space, E, budget, seed))


def oracle_box_window(family, E):
    """The box fit's ball B(x, R) around E's first id, read with the oracles:
    its smallest containing cube's system id, the counts at m = 0..depth
    below that cube, and the number of ids of E in the ball."""
    space = family.space
    x = int(E[0])
    R = float(space.row(x)[E].max()) * (1.0 + 1e-9)
    members = space.ball_members(x, R)
    _, sid, level, _ = oracle_circumscribed(family, x, members)
    system = family.systems[sid]
    target = np.intersect1d(E, members)
    counts, _ = oracle_counts(system, target, range(level, system.max_level + 1))
    return sid, counts, int(target.size)


class TestBoxWindow:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_box_fit_matches_oracles(self, kind, data):
        # repeated points leave cubes at the deepest level holding several ids
        fam, E, _ = data.draw(families(kind, repeats=data.draw(st.booleans())))
        # None asks for every level from m_E down; a list is clipped to them
        asked = data.draw(st.none() | st.lists(st.integers(0, 5), min_size=1, max_size=6,
                                               unique=True).map(sorted))
        diam_E = fam.space.diameter(E)
        if diam_E == 0.0:
            assert box_dim_estimate(fam, E, asked).value == 0.0
            return
        sid, counts, target_size = oracle_box_window(fam, E)
        assert counts[0] == 1  # at m = 0 the containing cube holds the ball
        m_E = least_admissible_level(fam.params.delta, diam_E)
        window = [m for m in (asked or range(len(counts))) if m_E <= m < len(counts)]
        if len(window) < 3:
            with pytest.raises(InsufficientScalesError):
                box_dim_estimate(fam, E, asked)
            return
        est = box_dim_estimate(fam, E, asked)
        assert est.window == window
        assert est.system_id == sid
        assert est.diagnostics["counts"] == [counts[m] for m in window]
        assert ("depth-limited" in est.flags) == (counts[window[-1]] == target_size)


class TestCubeProperties:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_four_checks_and_sandwich_hold(self, kind, data):
        fam, E, radii = data.draw(families(kind, repeats=data.draw(st.booleans())))
        for system in fam.systems:
            checks = verify_system(system)
            assert all(c.ok for c in checks.values()), {
                name: c.witness for name, c in checks.items() if not c.ok}
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        radii.append(float(rng.uniform(0.0, 1.0)))
        for _ in range(8):
            x = int(rng.integers(fam.space.n))
            R = radii[int(rng.integers(len(radii)))]
            m = int(rng.integers(fam.max_level + 1))
            try:
                rep = sandwich_check(fam, E, x, R, m)
            except (DegenerateBallError, InvalidArgumentError, ScaleExhaustedError):
                continue
            # every counted cube fits r, so the counted cubes are one admissible cover
            if rep.N_exact is not None and rep.max_cube_diameter <= rep.r_effective:
                assert rep.N_exact <= rep.D
            assert ("sandwich-violated" in rep.flags) == (
                rep.N_exact is not None and rep.N_exact > rep.D)


def oracle_grow_set(space, start, candidates, r):
    """Grow a diameter-<=r set from ``start`` by ascending (distance, id)."""
    row_start = space.row(int(start))[candidates]
    order = np.lexsort((candidates, row_start))
    maxd = row_start.copy()
    chosen = [int(start)]
    for pos in order:
        cand = int(candidates[pos])
        if cand == start:
            continue
        if maxd[pos] <= r:
            chosen.append(cand)
            np.maximum(maxd, space.row(cand)[candidates], out=maxd)
    return np.asarray(sorted(chosen), dtype=np.int64)


def oracle_greedy_sets(space, E, r):
    """The greedy cover with every block grown from its near set."""
    E = np.asarray(E, dtype=np.int64)
    if E.size == 1 or space.diameter(E) <= r:
        return [np.sort(E)]
    uncovered = np.sort(E)
    sets = []
    while uncovered.size:
        start = int(uncovered[0])
        near = uncovered[space.row(start)[uncovered] <= r]
        sets.append(oracle_grow_set(space, start, near, r))
        uncovered = np.setdiff1d(uncovered, sets[-1], assume_unique=True)
    return sets


def oracle_R_eff(space, x, R, members):
    return min(R, 2.0 * space.diameter(members))


def boundary(values, rel):
    """Each value times 1 + each relative offset."""
    return [float(v) * (1.0 + e) for v in values for e in rel]


class TestDecidedByBound:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_greedy_cover_matches_grown_blocks(self, kind, data):
        space = data.draw(spaces(kind))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        n = space.n
        E = space.ids if data.draw(st.booleans()) else np.sort(
            rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        a, b = rng.integers(n, size=(2, 6))
        d = space.pair_distances(a[a != b], b[a != b])
        # r on a pairwise distance, and a relative 1e-9 above one, where the
        # whole-block test once had a margin
        radii = boundary(d, (-1e-15, 0.0, 1e-15)) + boundary(d / (1 - 1e-9), (-1e-15, 0.0))
        for r in radii:
            expect = oracle_greedy_sets(space, E, r)
            assert greedy_cover_count(space, E, r) == len(expect)
            got = greedy_cover_count(space, E, r, return_sets=True)
            assert [(g.dtype, g.tobytes()) for g in got] == [
                (e.dtype, e.tobytes()) for e in expect]

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_R_eff_equals_clamp_by_diameter(self, kind, data):
        fam, E, radii = data.draw(families(kind))
        space = fam.space
        for x in space.ids[:: max(1, space.n // 5)]:
            x = int(x)
            row = space.row(x)
            # twice each distance level from x, on it and either side of it
            levels = np.unique(row[row > 0])[:6]
            for R in boundary(2.0 * levels, (-2e-12, -1e-12, 0.0, 1e-12, 2e-12)) + radii:
                members = space.ball_members(x, R)
                if members.size < 2:
                    continue
                cc = circumscribed_cube(fam, x, R)
                assert cc.R_eff == oracle_R_eff(space, x, R, members)
        windows = local_windows(fam, E, sample_budget=SAMPLE_BUDGET,
                                radii=sorted(boundary(2.0 * np.asarray(radii), (0.0, 1e-12))
                                             + radii, reverse=True))
        for w in windows:
            members = np.flatnonzero(space.row(w.x) < w.R)
            assert w.R_eff == oracle_R_eff(space, w.x, w.R, members)

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_family_matches_clamp_by_diameter(self, kind, data):
        space = data.draw(spaces(kind))
        seed = data.draw(st.integers(min_value=0, max_value=50))

        def build():
            fam = build_adjacent_family(space, NetParams(), K_max=3, query_budget=24,
                                        target_ratio=2.0, seed=seed, max_level=3)
            return family_to_json(fam), fam.query_log

        got = build()
        # the balls asked one at a time, each R_eff the clamp by the diameter
        with mock.patch.object(cubes, "_effective_radius", oracle_R_eff), \
                mock.patch.object(cubes, "_query_balls", oracle_query_balls):
            assert got == build()


def oracle_level_sums(system, E, s):
    """Per level: sum of |Q|^s over the cubes meeting E, one level at a time."""
    out = []
    for k in range(system.max_level + 1):
        idx = system.cubes_meeting(k, E)
        if s == 0.0:
            out.append(float(idx.size))
        else:
            out.append(float(np.sum(system.diams_at(k)[idx] ** s)))
    return out


def oracle_cubic_measure(system, E, s, r):
    """The least level sum over the levels admissible at r, all sums recomputed."""
    p = system.params
    admissible = [m for m in range(system.max_level + 1)
                  if 4.0 * p.C0 * p.delta ** m <= r * (1 + 1e-12)]
    sums = oracle_level_sums(system, E, s)
    return sums[min(admissible, key=lambda m: (sums[m], m))]


def oracle_measure_slope(system, E, s, r_schedule):
    xs, ys = [], []
    for r in r_schedule:
        value = oracle_cubic_measure(system, E, s, r)
        if value > 0:
            xs.append(math.log(1.0 / r))
            ys.append(math.log(value))
    if len(xs) < 2 or len(set(xs)) < 2:
        return None
    return _fit_line(xs, ys)[0]


def oracle_hausdorff(system, E):
    """The Hausdorff fit with one cubic measure per radius and the usable filter."""
    E = np.asarray(E, dtype=np.int64)
    p = system.params
    r_schedule = [4.0 * p.C0 * p.delta ** j for j in range(1, system.max_level + 1)]
    usable = [r for r in r_schedule
              if any(4.0 * p.C0 * p.delta ** m <= r * (1 + 1e-12)
                     for m in range(system.max_level + 1))]
    if len(usable) < 3:
        raise InsufficientScalesError(
            f"hausdorff fit needs >= 3 resolvable scales, got {len(usable)} "
            f"(max_level={system.max_level})")
    doubling = system.space.estimate_doubling(sample_count=16, rng_seed=7)
    hi = max(1.0, math.log2(max(2, doubling.C_d_hat)))

    def grows(s):
        slope = oracle_measure_slope(system, E, s, usable)
        return slope is not None and slope > dimensions.HAUSDORFF_SLOPE_TOL

    if not grows(1e-9):
        value = 0.0
    elif grows(hi):
        value = hi
    else:
        a, b = 0.0, hi
        for _ in range(dimensions.BISECTION_STEPS):
            mid = 0.5 * (a + b)
            if grows(mid):
                a = mid
            else:
                b = mid
            if b - a < dimensions.BISECTION_TOL:
                break
        value = 0.5 * (a + b)
    grid = [round(value * f, 6) for f in (0.5, 0.8, 1.0, 1.2, 1.5) if value > 0]
    slopes = [oracle_measure_slope(system, E, s, usable) for s in grid]
    known = [sl for sl in slopes if sl is not None]
    flags = ["unstable"] if any(b > a + 1e-9 for a, b in zip(known, known[1:])) else []
    return DimensionEstimate(kind="hausdorff", value=float(value),
                             window=[float(usable[0]), float(usable[-1])],
                             slope=value, system_id=system.system_id, seed=system.seed,
                             flags=flags,
                             diagnostics={f"slope@s={s:g}": sl for s, sl in zip(grid, slopes)})


def oracle_family(space, params, K_max, query_budget, target_ratio, seed, max_level):
    """The family build with each query's ball computed lazily, into a cache,
    while the first system is evaluated, and each query evaluated in each
    system in turn by the rules as they were; the log names the system that
    gave each query's certificate."""
    scale = space.normalizing_factor(NORMALIZED_DIAMETER * min(1.0, params.c0))
    norm = space.rescaled(scale)
    probe = build_system(norm, params, seed=seed, max_level=max_level, system_id=0,
                         pre_normalized=True)
    L = probe.max_level
    rng = np.random.default_rng([seed, 104729])
    radii = r_grid(params.delta, L)
    queries = []
    for _ in range(query_budget):
        x = int(rng.integers(norm.n))
        queries.append((x, radii[int(rng.integers(len(radii)))]))
    systems = [probe]
    best_cert = np.full(len(queries), np.inf)
    best_diam = np.full(len(queries), np.inf)
    best_system = {}
    ball_cache = {}

    def eval_system(system):
        for qi, (x, R) in enumerate(queries):
            if qi not in ball_cache:
                m = norm.ball_members(x, R)
                R_eff = 0.0 if m.size < 2 else _effective_radius(norm, x, R, m)
                if R_eff == 0.0:
                    ball_cache[qi] = None
                    best_cert[qi] = 1.0
                    best_diam[qi] = 0.0
                    continue
                ball_cache[qi] = (m, R_eff)
            if ball_cache[qi] is None:
                continue
            members, R_eff = ball_cache[qi]
            level, index = oracle_circumscribed_in_system(system, members)
            diam = system.diams_at(level)[index]
            if diam < best_diam[qi]:
                best_diam[qi] = diam
                best_cert[qi] = oracle_cert_terms(params, R_eff, level, diam)
                best_system[qi] = system.system_id

    eval_system(probe)
    while float(np.max(best_cert, initial=1.0)) > target_ratio and len(systems) < K_max:
        t = len(systems)
        systems.append(build_system(norm, params, seed=seed + t, max_level=L, system_id=t,
                                    pre_normalized=True))
        eval_system(systems[-1])
    finite = best_cert[np.isfinite(best_cert)]
    worst = float(finite.max()) if finite.size else 1.0
    C_delta_hat = max(1.0, worst)
    query_log = [{"x": x, "R": R, "degenerate": ball_cache.get(qi) is None,
                  "cert": float(best_cert[qi]) if np.isfinite(best_cert[qi]) else None,
                  "system_id": best_system.get(qi)}
                 for qi, (x, R) in enumerate(queries)]
    return AdjacentFamily(norm, params, systems, C_delta_hat,
                          12.0 * params.C0 * C_delta_hat / params.c0, worst > target_ratio,
                          target_ratio, query_budget, seed, query_log, scale)


def estimate_bytes(est):
    return json.dumps(est.to_json(), sort_keys=True, separators=(",", ":"))


class TestReadOnce:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_hausdorff_matches_per_radius_fit(self, kind, data):
        space = data.draw(spaces(kind, repeats=True))
        system = build_system(space, NetParams(),
                              seed=data.draw(st.integers(min_value=0, max_value=50)),
                              max_level=data.draw(st.integers(min_value=2, max_value=5)))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        n = system.space.n
        E = system.space.ids if data.draw(st.booleans()) else np.sort(
            rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        try:
            want = oracle_hausdorff(system, E)
        except InsufficientScalesError as exc:
            with pytest.raises(InsufficientScalesError, match=re.escape(str(exc))):
                hausdorff_dim_estimate(system, E)
            return
        got = hausdorff_dim_estimate(system, E)
        assert estimate_bytes(got) == estimate_bytes(want)
        assert got.diagnostics == want.diagnostics

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_family_matches_lazy_ball_cache(self, kind, data):
        space = data.draw(spaces(kind, repeats=True))
        args = dict(K_max=3, query_budget=24,
                    target_ratio=data.draw(st.sampled_from([2.0, 64.0])),
                    seed=data.draw(st.integers(min_value=0, max_value=50)),
                    max_level=data.draw(st.integers(min_value=1, max_value=4)))
        got = build_adjacent_family(space, NetParams(), **args)
        want = oracle_family(space, NetParams(), **args)
        assert family_to_json(got) == family_to_json(want)
        assert got.query_log == want.query_log


def oracle_query_balls(space, xs, Rs):
    """The family build's query balls asked one at a time: each ball's
    ascending members from ``ball_members`` and its R_eff from
    ``_effective_radius``, as (R_eff, ids, starts)."""
    balls = [space.ball_members(x, R) for x, R in zip(xs.tolist(), Rs.tolist())]
    R_eff = [cubes._effective_radius(space, x, R, members)
             for x, R, members in zip(xs.tolist(), Rs.tolist(), balls)]
    sizes = np.array([members.size for members in balls])
    return np.array(R_eff), np.concatenate(balls), np.cumsum(sizes) - sizes


def same_query_balls(got, want):
    """The same R_eff bits, ball sizes and member set per ball."""
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[2], want[2])
    assert all(np.array_equal(np.sort(a), b)
               for a, b in zip(np.split(got[1], got[2][1:]), np.split(want[1], want[2][1:])))


@st.composite
def ball_spaces(draw, kind):
    """A space whose index has no ``ball_run`` (``kind`` "plane", "snowflake"
    or "matrix") or one whose index has (``kind`` "line" or "ultrametric"):
    coordinates in 2, 3 or 5 dimensions (in 1 on a line), on a lattice or
    uniform, perhaps listing a point more than once; or the shortest paths
    of a random graph."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_value=2, max_value=80))
    if kind == "ultrametric":
        return draw(spaces(kind, repeats=True))
    if kind == "matrix":
        return MetricSpace(MetricDescriptor("matrix"), matrix=random_graph_matrix(n, seed))
    dim = 1 if kind == "line" else draw(st.sampled_from([2, 3, 5]))
    if draw(st.booleans()):
        pts = rng.integers(0, 4, size=(n, dim)).astype(np.float64)
    else:
        pts = rng.uniform(size=(n, dim))
    if draw(st.booleans()):
        pts = pts[rng.integers(n, size=n)]
    space = MetricSpace(MetricDescriptor("euclidean"), coords=pts)
    if kind == "snowflake":
        space = space.snowflaked(draw(st.sampled_from([0.3, 0.5, 0.8])))
    return space


def ball_radii(space, rng):
    """Distances the space attains, where the strict < of a ball decides,
    one a relative 1e-12 either side of one, and radii past the diameter,
    where a ball holds every point and may need its diameter."""
    a, b = rng.integers(space.n, size=(2, 8))
    d = np.unique(space.pair_distances(a[a != b], b[a != b]))
    d = d[d > 0]
    diam = space.diameter()
    if diam == 0.0:  # every point at one place
        return []
    return [float(v) for v in d] + boundary(d[:1], (-1e-12, 1e-12)) + [
        1.5 * diam, 2.5 * diam]


class TestQueryBalls:
    @pytest.mark.parametrize("kind", ["plane", "snowflake", "matrix"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_balls_match_one_query_at_a_time(self, kind, data):
        space = data.draw(ball_spaces(kind))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        radii = ball_radii(space, rng)
        if not radii:
            return
        size = data.draw(st.integers(min_value=1, max_value=60))
        xs = rng.integers(space.n, size=size)
        Rs = np.array(radii)[rng.integers(len(radii), size=size)]
        same_query_balls(cubes._query_balls(space, xs, Rs), oracle_query_balls(space, xs, Rs))

    @pytest.mark.parametrize("kind, index", [("line", metric.LineIndex),
                                             ("plane", metric.CoordIndex),
                                             ("ultrametric", metric.PrefixIndex),
                                             ("matrix", metric.MatrixIndex)])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_balls_come_grouped_by_ascending_owner(self, kind, index, data):
        space = data.draw(ball_spaces(kind))
        assert type(space.index) is index
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        centers = rng.integers(space.n, size=data.draw(st.integers(min_value=1, max_value=40)))
        for r in ball_radii(space, rng)[::3]:
            owner, members = space.index.balls(centers, r)
            assert np.all(np.diff(owner) >= 0)
            bounds = np.searchsorted(owner, np.arange(centers.size + 1))
            for i, c in enumerate(centers.tolist()):
                assert np.array_equal(np.sort(members[bounds[i]:bounds[i + 1]]),
                                      np.flatnonzero(space.row(c) < r))


def oracle_run_farthest(index, ids, bounds, centers):
    """Each run's largest distance from its center read off the center's
    distance row, as the box fit read its radius; 0.0 for an empty run."""
    return np.array([index.row(c)[ids[a:b]].max() if b > a else 0.0
                     for c, a, b in zip(centers.tolist(), bounds[:-1].tolist(),
                                        bounds[1:].tolist())])


class TestBoxRadius:
    @pytest.mark.parametrize("kind", ["line", "plane", "ultrametric", "matrix"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_box_estimate_matches_the_row_radius(self, kind, data):
        space = data.draw(ball_spaces(kind))
        fam = build_adjacent_family(space, NetParams(), K_max=2, query_budget=12,
                                    seed=data.draw(st.integers(min_value=0, max_value=50)),
                                    max_level=data.draw(st.integers(min_value=1, max_value=4)))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        E = fam.space.ids if data.draw(st.booleans()) else np.sort(
            rng.choice(space.n, size=int(rng.integers(1, space.n + 1)), replace=False))

        def estimate():
            try:
                return estimate_bytes(box_dim_estimate(fam, E))
            except InsufficientScalesError as exc:
                return str(exc)

        got = estimate()
        event("fitted" if got.startswith("{") else "refused")
        with mock.patch.object(type(fam.space.index), "run_farthest", oracle_run_farthest):
            assert estimate() == got


def oracle_row_greedy(space, E, r, return_sets=False):
    """The greedy cover as it read full distance rows: each near set is the
    start's row over the still-uncovered ids, and a grown block is marked
    covered through its rows in the near set."""
    E = np.asarray(E, dtype=np.int64)
    if E.size == 1 or space.diameter(E) <= r:
        return [np.sort(E)] if return_sets else 1
    uncovered = np.sort(E)
    sets = []
    count = 0
    while uncovered.size:
        start = int(uncovered[0])
        in_block = space.row(start)[uncovered] <= r
        near = uncovered[in_block]
        if near.size == 1 or space.diameter(near) <= r * (1 - 1e-9):
            block = near
        else:
            block = oracle_grow_set(space, start, near, r)
            rows = np.flatnonzero(in_block)
            in_block[:] = False
            in_block[rows[np.searchsorted(near, block)]] = True
        count += 1
        if return_sets:
            sets.append(block)
        uncovered = uncovered[~in_block]
    return sets if return_sets else count


def oracle_ball_cover_count(space, members, r):
    """Greedy r-balls over ``members``: a Python-set sweep, one row per centre."""
    remaining = list(members)
    remaining_set = set(remaining)
    count = 0
    for p in remaining:
        if p not in remaining_set:
            continue
        count += 1
        row = space.row(p)
        for q in list(remaining_set):
            if row[q] < r:
                remaining_set.discard(q)
        if not remaining_set:
            break
    return count


def oracle_doubling_samples(space, sample_count, rng_seed):
    """The (2r-ball members, r, greedy count) of each doubling sample."""
    rng = np.random.default_rng(rng_seed)
    gap = space.min_positive_distance()
    if gap == float("inf"):  # one distinct point: no sample
        return []
    lo, hi = np.log(max(gap, 1e-300)), np.log(max(space.diameter() / 2.0, gap * 2.0))
    out = []
    for _ in range(sample_count):
        x = int(rng.integers(space.n))
        r = float(np.exp(rng.uniform(lo, hi)))
        members = space.ball_members(x, 2.0 * r)
        out.append((members, r, oracle_ball_cover_count(space, members, r)))
    return out


def same_blocks(got, want):
    return [(g.dtype, g.tobytes()) for g in got] == [(w.dtype, w.tobytes()) for w in want]


class TestIndexCovers:
    """The greedy cover and the doubling estimate read closed balls and
    greedy nets off the index; the row-based versions they replaced decide
    the same, on lattices with radii at pair distances and repeated points."""

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_greedy_cover_matches_row_greedy(self, kind, data):
        space = data.draw(spaces(kind, repeats=True))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        n = space.n
        E = space.ids if data.draw(st.booleans()) else np.sort(
            rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        repeated = np.sort(np.concatenate([E, rng.choice(E, size=3)]))
        a, b = rng.integers(n, size=(2, 6))
        d = space.pair_distances(a, b)
        radii = boundary(d[d > 0], (-1e-15, 0.0, 1e-15)) + [float(space.diameter()) / 3]
        for r in filter(lambda r: r > 0, radii):
            expect = oracle_row_greedy(space, E, r, return_sets=True)
            assert greedy_cover_count(space, E, r) == len(expect)
            assert same_blocks(greedy_cover_count(space, E, r, return_sets=True), expect)
            # a repeated id is covered once: the cover of E without repeats
            assert greedy_cover_count(space, repeated, r) == len(expect)
            assert same_blocks(greedy_cover_count(space, repeated, r, return_sets=True),
                               expect)

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_doubling_matches_set_greedy(self, kind, data):
        space = data.draw(spaces(kind, repeats=True))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 16))
        samples = oracle_doubling_samples(space, 8, seed)
        for members, r, count in samples:
            assert space.index.net(members, r).size == count
        est = space.estimate_doubling(sample_count=8, rng_seed=seed)
        assert est.C_d_hat == max([1] + [count for _, _, count in samples])
        # on these kinds the net decides d < r off the same distances as a
        # row, so radii on pair distances agree too; a coordinate net decides
        # by squared distances, and a random r lands on a tie with chance 0
        if kind in ("ultrametric", "matrix") and space.diameter() > 0:
            rng = np.random.default_rng(seed)
            x = int(rng.integers(space.n))
            members = space.ball_members(x, float(space.diameter()) * 2)
            row = space.row(x)
            for r in np.unique(row[row > 0]):
                assert space.index.net(members, r).size == \
                    oracle_ball_cover_count(space, members, r)


class TestUltrametricMatrix:
    def test_equals_stacked_rows(self):
        strings = ["".join(w) for w in np.random.default_rng(3).choice(
            list("012"), size=(200, 7))]
        desc = MetricDescriptor("ultrametric", epsilon=0.6, arity=3, base=0.25, scale=1.7)
        space = MetricSpace(desc, strings=sorted(set(strings)))
        rows = np.vstack([space.row(i) for i in range(space.n)])
        dmat = space.distance_matrix()
        assert dmat.dtype == rows.dtype and dmat.tobytes() == rows.tobytes()

    def test_builds_one_n_by_n_array(self):
        strings = [format(i, "09b") for i in range(512)]
        desc = MetricDescriptor("ultrametric", arity=2, base=0.0625, scale=1.3)
        space = MetricSpace(desc, strings=strings)
        tracemalloc.start()
        try:
            space.distance_matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * space.n ** 2 * 8


def oracle_level_diams(system, k):
    """Level-k cube diameters one ``diameter`` call per cube, as ``diams_at`` took them."""
    return np.array([system.space.diameter(m) if m.size else 0.0
                     for m in system.cubes_at(k)])


def oracle_inner_balls(system):
    """(ok, worst, witness) of the inner-ball check as the paper states it, one
    distance row per center: every point p with d(c_i, p) < c0 d^k / 3 carries
    label i. A failing level's witness is its least point in the ball of a
    center whose cube does not hold it, with the least such center; the
    deepest failing level's is kept."""
    worst, witness = 0.0, None
    for k in range(system.max_level + 1):
        centers = system.levels[k].centers
        inner = system.params.separation(k) / 3.0 * (1.0 - 1e-9)
        bad = []  # (point, center index, distance)
        for i, c in enumerate(centers.tolist()):
            row = system.space.row(c)
            bad += [(p, i, row[p]) for p in
                    np.flatnonzero((row < inner) & (system.labels[k] != i)).tolist()]
        if bad:
            p, i, _ = min(bad)
            witness = {"level": k, "point": p, "ball_center": int(centers[i]),
                       "assigned_center": int(centers[system.labels[k][p]])}
            worst = max(worst, *(float(d / inner) for _, _, d in bad))
    return witness is None, worst, witness


def whole_level_near_pair(system):
    """Whether the system has a level whose centers are every point, in id
    order, on coordinates, with two points at distinct places nearer than
    the level's inner radius. There the old check took each point's inner
    ball as the points at its place and missed the pair
    (``test_whole_level_pair_nearer_than_the_inner_radius_fails``)."""
    space = system.space
    if not isinstance(space.index, metric.CoordIndex):
        return False
    a, b = np.triu_indices(space.n, 1)
    apart = np.any(space.coords[a] != space.coords[b], axis=1)
    d = space.pair_distances(a[apart], b[apart])
    return any(np.array_equal(lv.centers, space.ids)
               and np.any(d < system.params.separation(lv.k) / 3.0 * (1.0 - 1e-9))
               for lv in system.levels)


def oracle_derive_labels(space, levels, parent_idx):
    """Per-level labels from a nearest-center query over every point, deepest
    centers included, then the parent chains."""
    assign, _ = nearest_center(space, levels[-1].centers)
    labels = [None] * len(levels)
    labels[-1] = assign.astype(np.int64)
    for k in range(len(levels) - 2, -1, -1):
        labels[k] = parent_idx[k + 1][labels[k + 1]]
    return labels


def oracle_outer_balls(system):
    """(ok, worst, witness) of the outer-ball check from every member's distance
    to its cube's center."""
    worst = 0.0
    witness = None
    for k in range(system.max_level + 1):
        outer = 2.0 * system.params.covering(k)
        centers = system.levels[k].centers
        order, bounds = cubes._group_by_label(system.labels[k], centers.size)
        d = system.space.pair_distances(centers[system.labels[k][order]], order)
        sizes = np.diff(bounds)
        filled = np.flatnonzero(sizes)
        cube_max = np.maximum.reduceat(d, bounds[filled])
        checked = sizes[filled] > 1
        if not checked.any():
            continue
        ratios = cube_max[checked] / outer
        j = int(np.argmax(ratios))
        if ratios[j] > worst:
            worst = float(ratios[j])
            if worst > 1.0 + 1e-9:
                cube_i = int(filled[checked][j])
                lo, hi = bounds[cube_i], bounds[cube_i + 1]
                witness = {"level": k, "center": int(centers[cube_i]),
                           "point": int(order[lo + int(np.argmax(d[lo:hi]))])}
    return witness is None, worst, witness


def with_labels(system, labels, levels=None, parent_idx=None):
    return CubeSystem(system.system_id, system.space, system.params, system.seed,
                      system.levels if levels is None else levels, labels,
                      system.parent_idx if parent_idx is None else parent_idx, BuildReport())


def relabelled(system, rng):
    """The system with one point of a level-k inner ball moved to another cube."""
    k = int(rng.integers(system.max_level + 1))
    centers = system.levels[k].centers
    if centers.size < 2:
        return None
    i = int(rng.integers(centers.size))
    members = np.flatnonzero(system.labels[k] == i)
    d = system.space.pair_distances(np.full(members.size, centers[i]), members)
    inside = members[d < system.params.separation(k) / 3.0 * (1.0 - 1e-9)]
    labels = [lab.copy() for lab in system.labels]
    labels[k][rng.choice(inside)] = (i + 1 + int(rng.integers(centers.size - 1))) % centers.size
    return with_labels(system, labels)


def with_center(system, k, q, pos):
    """The system with point q made a level-k center at position ``pos`` of the
    center list; q takes the parent of its cube, and no point moves."""
    levels = list(system.levels)
    levels[k] = NetLevel(k=k, centers=np.insert(levels[k].centers, pos, q),
                         params=system.params, seed=system.seed)
    labels = [lab.copy() for lab in system.labels]
    labels[k] = labels[k] + (labels[k] >= pos)  # the centers after pos moved up one
    parent_idx = list(system.parent_idx)
    if k < system.max_level:
        parent_idx[k + 1] = parent_idx[k + 1] + (parent_idx[k + 1] >= pos)
    if k > 0:
        parent_idx[k] = np.insert(parent_idx[k], pos, labels[k - 1][q])
    return with_labels(system, labels, levels, parent_idx)


def with_added_center(system, rng):
    """The system with the non-center point nearest a level-k center made a
    center too, at a random position in the center list."""
    k = int(rng.integers(system.max_level + 1))
    centers = system.levels[k].centers
    others = np.setdiff1d(system.space.ids, centers)
    if others.size == 0:
        return None
    c = centers[int(rng.integers(centers.size))]
    q = others[int(np.argmin(system.space.pair_distances(np.full(others.size, c), others)))]
    return with_center(system, k, q, int(rng.integers(centers.size + 1)))


def near_pairs(system):
    """(center, point) pairs of the deepest level: each point no center, at a
    positive distance below the inner radius from the center."""
    k = system.max_level
    centers = system.levels[k].centers
    inner = system.params.separation(k) / 3.0 * (1.0 - 1e-9)
    others = np.setdiff1d(system.space.ids, centers)
    c, q = np.repeat(centers, others.size), np.tile(others, centers.size)
    d = system.space.pair_distances(c, q)
    near = (d > 0.0) & (d < inner)
    return c[near], q[near]


def with_near_center(system, rng):
    """The system that a reload derives once a point in the inner ball of a
    deepest center, at a positive distance, is made a deepest center too, at
    its place in the ascending center list: the two centers each label
    themselves. None when there is no such point."""
    _, q = near_pairs(system)
    if q.size == 0:
        return None
    q = int(rng.choice(q))
    k = system.max_level
    s = with_center(system, k, q, int(np.searchsorted(system.levels[k].centers, q)))
    return with_labels(s, cubes._derive_labels(s.space, s.levels, s.parent_idx))


def with_repeated_deepest_center(system, rng):
    """The system with a point at distance 0 from a deepest center made a
    deepest center too, at a random position; None when there is no such point."""
    k = system.max_level
    centers = system.levels[k].centers
    others = np.setdiff1d(system.space.ids, centers)
    pairs = np.repeat(centers, others.size), np.tile(others, centers.size)
    twins = pairs[1][system.space.pair_distances(*pairs) == 0.0]
    if twins.size == 0:
        return None
    return with_center(system, k, int(rng.choice(twins)), int(rng.integers(centers.size + 1)))


def random_runs(rng, n):
    """Ids grouped into runs by random labels, some runs empty: (ids, bounds)."""
    n_runs = int(rng.integers(1, n + 3))
    return cubes._group_by_label(rng.integers(n_runs, size=n), n_runs)


def with_tiny_base(space):
    """The strings of an ultrametric space under base 1e-200: base ** 2 underflows."""
    d = space.descriptor
    return MetricSpace(MetricDescriptor("ultrametric", d.epsilon, d.arity, 1e-200, d.scale),
                       strings=space.strings)


def same_bits(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def oracle_scan_diameter(space, ids):
    """The largest squared difference over every pair of the coordinates, in
    128-row blocks, as every >= 2-D diameter of up to 2,048 points was taken."""
    pts = space.coords[ids]
    d2 = 0.0
    for start in range(0, len(pts), 128):
        diff = pts[start:start + 128, None, :] - pts[None, :, :]
        d2 = max(d2, float(np.einsum("ijk,ijk->ij", diff, diff).max()))
    return float(space.descriptor.transform(np.sqrt(d2)))


@st.composite
def hull_sets(draw):
    """129 to 600 points in 2 to 6 dimensions, more than one block of the
    scan: a lattice cube or simplex with spacing 1/8, some points repeated
    and some moved one ulp up, where a convex hull's vertices often miss an
    end of the farthest pair; that lattice moved by 2**20 to 2**30, where the
    coordinates' ulps are large against their spread; an unmoved lattice's
    rows scaled by 2**-30 or 2**29; uniform floats; points on a line through
    the origin, which span no full-dimensional hull; or rounded points of a
    sphere, all of them hull vertices. Euclidean or snowflaked, at a unit or
    other scale."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    n = draw(st.integers(min_value=129, max_value=600))
    dim = draw(st.sampled_from([2, 3, 4, 5, 6]))
    kind = draw(st.sampled_from(["lattice", "translated", "spread", "uniform", "collinear",
                                 "cospherical"]))
    if kind == "uniform":
        pts = rng.uniform(size=(n, dim))
    elif kind == "collinear":
        pts = rng.integers(0, 40, size=(n, 1)) / 8.0 * rng.uniform(-1.0, 1.0, size=dim)
    elif kind == "cospherical":
        pts = rng.normal(size=(n, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    else:
        pts = rng.integers(0, draw(st.sampled_from([4, 6])), size=(n, dim))
        if draw(st.booleans()):  # a simplex, which the centre bound barely thins
            pts = np.diff(np.sort(pts, axis=1), axis=1, prepend=0)
        pts = pts / 8.0
        if kind == "spread":
            pts *= 2.0 ** rng.choice([-30, 29], size=(n, 1))
        else:  # pairs an ulp off the lattice spacings
            if kind == "translated":
                pts += 2.0 ** draw(st.integers(min_value=20, max_value=30))
            bump = (rng.random(pts.shape) < 0.3) & (pts > 0)
            pts[bump] = np.nextafter(pts[bump], np.inf)
    space = MetricSpace(MetricDescriptor("euclidean"), coords=pts)
    epsilon = draw(st.sampled_from([1.0, 0.5, 0.8]))
    if epsilon != 1.0:
        space = space.snowflaked(epsilon)
    scale = draw(st.sampled_from([1.0, 0.37, 3.0]))
    return space.rescaled(scale) if scale != 1.0 else space


class TestHullDiameter:
    """Above one block, a >= 2-D diameter keeps only the points that pass
    the centre bound, and scans each block of them against the points that
    may reach it; it must equal the full scan, on the sets of ``hull_sets``."""

    @given(space=hull_sets(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_scan(self, space, data):
        ids = space.ids
        if data.draw(st.booleans()):
            rng = np.random.default_rng(data.draw(st.integers(min_value=0,
                                                              max_value=2 ** 32 - 1)))
            ids = rng.choice(space.n, size=int(rng.integers(129, space.n + 1)),
                             replace=False)
        assert space.diameter(ids) == oracle_scan_diameter(space, ids)

    def test_keeps_a_point_that_is_not_a_hull_vertex(self):
        # a right triangle of a 4 x 4 lattice, some coordinates an ulp up: the
        # centre bound keeps more than a block, and the convex hull's vertices
        # miss an end of the farthest pair
        rng = np.random.default_rng(3)
        pts = np.diff(np.sort(rng.integers(0, 4, size=(600, 2)), axis=1), axis=1,
                      prepend=0) / 8.0
        bump = (rng.random(pts.shape) < 0.3) & (pts > 0)
        pts[bump] = np.nextafter(pts[bump], np.inf)
        space = MetricSpace(MetricDescriptor("euclidean"), coords=pts)
        assert space.diameter(space.ids) == oracle_scan_diameter(space, space.ids) \
            == np.sqrt(0.2812500000000001)

    def test_bound_keeps_ends_it_meets_exactly(self):
        # a 6 x 6 lattice, some coordinates an ulp up: in real arithmetic the
        # ends of the farthest pair meet the centre bound exactly, and rounded
        # they fall short of it, which the bound's slack absorbs
        rng = np.random.default_rng(8)
        pts = rng.integers(0, 6, size=(300, 2)) / 8.0
        bump = (rng.random(pts.shape) < 0.3) & (pts > 0)
        pts[bump] = np.nextafter(pts[bump], np.inf)
        space = MetricSpace(MetricDescriptor("euclidean"), coords=pts)
        assert space.diameter(space.ids) == oracle_scan_diameter(space, space.ids) \
            == 0.8838834764831845

    def test_flat_set_has_no_hull(self):
        # rounded points of a circle in a plane of 3-D space all pass the
        # centre bound and span no 3-D hull; all of them are scanned
        from scipy.spatial import ConvexHull, QhullError

        t = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
        pts = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
        with pytest.raises(QhullError):
            ConvexHull(pts - pts[0])
        space = MetricSpace(MetricDescriptor("euclidean"), coords=pts)
        assert space.diameter(space.ids) == oracle_scan_diameter(space, space.ids)

    def test_far_from_the_origin(self):
        # a 3-D lattice simplex moved by 2**24, some coordinates an ulp up,
        # whose ulps are large against the simplex's spread
        rng = np.random.default_rng(2)
        pts = np.diff(np.sort(rng.integers(0, 6, size=(300, 3)), axis=1), axis=1,
                      prepend=0) / 8.0 + 2.0 ** 24
        bump = rng.random(pts.shape) < 0.3
        pts[bump] = np.nextafter(pts[bump], np.inf)
        space = MetricSpace(MetricDescriptor("euclidean"), coords=pts)
        assert space.diameter(space.ids) == oracle_scan_diameter(space, space.ids) \
            == 0.8838834817515404

    def test_keeps_only_the_corners_of_a_5d_grid(self, monkeypatch):
        # the centre bound leaves only the 32 corners of a 5-D grid
        g = np.arange(5) / 4.0
        pts = np.stack(np.meshgrid(*[g] * 5, indexing="ij"), axis=-1).reshape(-1, 5)
        space = MetricSpace(MetricDescriptor("euclidean"), coords=pts)
        calls = []
        farthest_sq = metric._farthest_sq
        monkeypatch.setattr(metric, "_farthest_sq",
                            lambda a, b: calls.append((len(a), len(b))) or farthest_sq(a, b))
        assert space.diameter(space.ids) == np.sqrt(5.0)
        assert calls == [(32, 32)]

    def test_prunes_the_blocks_of_a_5d_ball(self, monkeypatch):
        # a 5-D lattice ball cut by the lattice's faces keeps thousands of
        # points past the centre bound; each block is scanned against only
        # the points that may reach the largest distance from it
        g = np.arange(7) / 6.0
        pts = np.stack(np.meshgrid(*[g] * 5, indexing="ij"), axis=-1).reshape(-1, 5)
        pts = pts[np.einsum("ij,ij->i", pts - 0.25, pts - 0.25) < 0.5]  # 3,744 points
        space = MetricSpace(MetricDescriptor("euclidean"), coords=pts)
        calls = []
        farthest_sq = metric._farthest_sq
        monkeypatch.setattr(metric, "_farthest_sq",
                            lambda a, b: calls.append((len(a), len(b))) or farthest_sq(a, b))
        assert space.diameter(space.ids) == oracle_scan_diameter(space, space.ids)
        scanned = sum(rows * cols for rows, cols in calls)
        kept = sum(rows for rows, _ in calls)
        assert kept > 3000 and scanned < 0.6 * kept ** 2

    def test_scans_under_half_the_pairs_of_a_rounded_sphere(self, monkeypatch):
        # every rounded point of a sphere passes the centre bound and has a
        # near-antipode; each block is still scanned against only the points
        # that may reach the largest distance so far, not against all m
        pts = np.random.default_rng(0).normal(size=(5000, 3))
        pts = np.round(pts / np.linalg.norm(pts, axis=1, keepdims=True), 6)
        space = MetricSpace(MetricDescriptor("euclidean"), coords=pts)
        calls = []
        farthest_sq = metric._farthest_sq
        monkeypatch.setattr(metric, "_farthest_sq",
                            lambda a, b: calls.append((len(a), len(b))) or farthest_sq(a, b))
        assert space.diameter() == oracle_scan_diameter(space, space.ids)
        assert sum(rows * cols for rows, cols in calls) < space.n ** 2 / 2


def oracle_run_diameters(space, ids, bounds):
    """``run_diameters`` of a >= 2-D or matrix space as it was: each run's
    ``diameter`` in turn, 0.0 below two ids."""
    out = np.zeros(bounds.size - 1)
    for i in np.flatnonzero(np.diff(bounds) > 1):
        out[i] = space.index.diameter(ids[bounds[i]:bounds[i + 1]])
    return out


def sized_runs(rng, n):
    """(ids, bounds): runs of ids drawn with repeats, of sizes from 0 to 200,
    around one block of 128 among them, often several runs of one size."""
    sizes = rng.choice([0, 1, 2, 3, 5, 16, 64, 127, 128, 129, 200],
                       size=int(rng.integers(1, 12)))
    sizes = np.repeat(sizes, rng.integers(1, 4, size=sizes.size))
    return rng.integers(n, size=int(sizes.sum())), np.concatenate([[0], np.cumsum(sizes)])


class TestGroupedDiameters:
    """A >= 2-D or matrix space takes the diameters of its runs of 2 to 128
    ids a group of one size at a time, over (runs, s, s) blocks, and a larger
    run's alone. Every one must be the run's ``diameter``, as the per-run loop
    took it (``oracle_run_diameters``), bit for bit: on the sets of
    ``hull_sets``, in 2 to 6 dimensions, snowflaked and rescaled, and on
    random matrix spaces."""

    @given(space=hull_sets(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_coordinates_match_the_per_run_loop(self, space, data):
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        ids, bounds = sized_runs(rng, space.n)
        assert same_bits(space.run_diameters(ids, bounds),
                         oracle_run_diameters(space, ids, bounds))

    @given(n=st.integers(min_value=2, max_value=300),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           epsilon=st.sampled_from([1.0, 0.5]), scale=st.sampled_from([1.0, 0.37]))
    @settings(max_examples=30, deadline=None)
    def test_matrix_matches_the_per_run_loop(self, n, seed, epsilon, scale):
        space = MetricSpace(MetricDescriptor("matrix"), matrix=random_graph_matrix(n, seed))
        space = space.snowflaked(epsilon).rescaled(scale)
        ids, bounds = sized_runs(np.random.default_rng(seed), n)
        assert same_bits(space.run_diameters(ids, bounds),
                         oracle_run_diameters(space, ids, bounds))


def oracle_whole_values(space):
    """(diameter, least gap) of the whole space over every pair's distance, as
    the space kept them: the largest distance, 0.0 below two points, and the
    least between distinct points, inf with none. Points are distinct when
    their coordinates or strings differ; a matrix space's ids all are."""
    if space.n == 1:
        return 0.0, float("inf")
    a, b = np.triu_indices(space.n, 1)
    d = space.pair_distances(a, b)
    if space.coords is not None:
        distinct = np.any(space.coords[a] != space.coords[b], axis=1)
    elif space.strings is not None:
        strings = np.array(space.strings)
        distinct = strings[a] != strings[b]
    else:
        distinct = np.ones(a.size, dtype=bool)
    return float(d.max()), float(d[distinct].min()) if distinct.any() else float("inf")


def root_system(space):
    """A system of one level over ``space``: the root cube, as every system's level 0."""
    params = NetParams()
    return CubeSystem(0, space, params, 0, [NetLevel(0, np.array([0]), params, 0)],
                      [np.zeros(space.n, dtype=np.int64)], [np.array([-1])], BuildReport())


def same_float(got, want):
    return np.float64(got).tobytes() == np.float64(want).tobytes()


@st.composite
def whole_spaces(draw):
    """A space of every kind, of 1 to 300 points: coordinates in 1 to 5
    dimensions, uniform or on a lattice of spacing 1/8 with repeated points and
    coordinates an ulp up, either of them moved 1e8 from the origin; the sets
    of ``hull_sets``; strings with repeats; or a random matrix space."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    n = draw(st.sampled_from([1, 2, 3]) | st.integers(min_value=4, max_value=300))
    kind = draw(st.sampled_from(["coordinates", "far", "hull", "ultrametric", "matrix"]))
    if kind == "hull":
        return draw(hull_sets())
    if kind == "ultrametric":
        arity = draw(st.integers(min_value=2, max_value=3))
        words = rng.integers(0, arity, size=(n, draw(st.integers(min_value=1, max_value=8))))
        desc = MetricDescriptor("ultrametric", arity=arity,
                                base=draw(st.sampled_from([1 / 16, 0.25, 0.5])))
        return MetricSpace(desc, strings=["".join(map(str, w)) for w in words])
    if kind == "matrix":
        return MetricSpace(MetricDescriptor("matrix"),
                           matrix=random_graph_matrix(min(n, 200), int(rng.integers(2 ** 32))))
    dim = draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        pts = rng.uniform(size=(n, dim))
    else:
        pts = rng.integers(0, 6, size=(n, dim)) / 8.0
        bump = (rng.random(pts.shape) < 0.3) & (pts > 0)
        pts[bump] = np.nextafter(pts[bump], np.inf)
    if kind == "far":
        pts += 1e8
    return MetricSpace(MetricDescriptor("euclidean"), coords=pts)


class TestWholeSpaceValues:
    """The whole space's diameter and least gap are its index's alone: a
    coordinate space's farthest pair is kept by the base its clones share, a
    matrix index keeps its matrix's largest entry, a line or an ultrametric
    reads the two ends of its order, and the least gap is each index's
    ``least_gap``. ``space.diameter()``, the root cube's ``diams_at(0)``, and
    ``min_positive_distance()`` must be every pair's largest and least
    distance (``oracle_whole_values``), bit for bit, on the space and on
    clones made after its values were read; ``index.diameter`` of an id set
    must not depend on the order of the ids."""

    @given(space=whole_spaces(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_match_every_pair_on_the_space_and_its_clones(self, space, data):
        epsilon = data.draw(st.sampled_from([0.5, 0.8]))
        scale = data.draw(st.sampled_from([0.37, 3.0, 1e-3]))
        for step in ("raw", "rescaled", "snowflaked", "rescaled"):
            if step == "rescaled":
                space = space.rescaled(scale)
            elif step == "snowflaked":
                space = space.snowflaked(epsilon)
            diam, gap = oracle_whole_values(space)
            assert same_float(space.diameter(), diam)
            assert same_float(root_system(space).diams_at(0)[0], diam)
            assert same_float(space.min_positive_distance(), gap)
            assert same_float(space.diameter(space.ids.copy()), diam)

    @given(space=whole_spaces(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_index_diameter_ignores_the_order_of_ids(self, space, data):
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        subset = np.sort(rng.choice(space.n, size=int(rng.integers(1, space.n + 1)),
                                    replace=False))
        for ids in (space.ids, space.ids.copy(), subset):
            if ids.size > 1:
                want = space.index.diameter(ids)
                assert same_float(space.index.diameter(rng.permutation(ids)), want)
                assert same_float(space.diameter(rng.permutation(ids)), want)

    @pytest.mark.parametrize("n", [1, 2, 129, 1000])
    def test_root_grouping_is_the_sorted_one(self, n):
        # a one-cube level is grouped without a sort; the stable sort's
        # grouping is its oracle, dtypes too
        labels = np.zeros(n, dtype=np.int64)
        order = np.argsort(labels, kind="stable")
        want = order, np.searchsorted(labels[order], np.arange(2))
        got = cubes._group_by_label(labels, 1)
        assert [(g.dtype, g.tolist()) for g in got] == [(w.dtype, w.tolist()) for w in want]


class TestLevelPasses:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_diams_at_matches_per_cube_diameters(self, kind, data):
        fam, _, _ = data.draw(families(kind))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        systems = list(fam.systems)
        if kind == "ultrametric":
            # the same cubes under a base whose powers underflow to 0.0
            tiny = with_tiny_base(fam.space)
            systems += [CubeSystem(s.system_id, tiny, s.params, s.seed, s.levels, s.labels,
                                   s.parent_idx, BuildReport()) for s in fam.systems]
        for system in systems:
            for k in range(system.max_level + 1):
                assert same_bits(system.diams_at(k), oracle_level_diams(system, k))
            space = system.space
            ids, bounds = random_runs(rng, space.n)
            want = np.array([space.diameter(ids[lo:hi]) if hi > lo else 0.0
                             for lo, hi in zip(bounds[:-1], bounds[1:])])
            assert same_bits(space.run_diameters(ids, bounds), want)

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_inner_ball_check_matches_full_query(self, kind, data):
        # tampered: a point moved out of its center's inner ball, a point made
        # a center with no point moved, and a point in a deepest center's inner
        # ball made a center as a reload derives it, which the old check passed
        fam, _, _ = data.draw(families(kind))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        for system in fam.systems:
            tampered = [system, relabelled(system, rng), with_added_center(system, rng),
                        with_near_center(system, rng)]
            for s in tampered:
                if s is None:
                    continue
                if whole_level_near_pair(s):
                    event("whole level with a near pair")
                check = _check_inner_balls(s)
                assert (check.ok, check.worst, check.witness) == oracle_inner_balls(s)
            for s in (tampered[1], tampered[3]):  # each holds a point in another cube's ball
                if s is not None:
                    assert not _check_inner_balls(s).ok

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_labels_and_outer_check_match_full_queries(self, kind, data):
        # deepest centers label themselves, and each cube's farthest member comes
        # from the index; where two deepest centers sit at distance 0, the old
        # labels emptied the later one's cube and the new ones fail the inner check
        fam, _, _ = data.draw(families(kind, repeats=data.draw(st.booleans())))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        systems = list(fam.systems)
        if kind == "ultrametric":
            tiny = with_tiny_base(fam.space)
            systems += [CubeSystem(s.system_id, tiny, s.params, s.seed, s.levels, s.labels,
                                   s.parent_idx, BuildReport()) for s in fam.systems]
        for system in systems:
            for s in (system, relabelled(system, rng), with_added_center(system, rng),
                      with_repeated_deepest_center(system, rng)):
                if s is None:
                    continue
                check = cubes._check_outer_balls(s)
                assert (check.ok, check.worst, check.witness) == oracle_outer_balls(s)
                got = cubes._derive_labels(s.space, s.levels, s.parent_idx)
                want = oracle_derive_labels(s.space, s.levels, s.parent_idx)
                deepest = s.levels[-1].centers
                a, b = np.triu_indices(deepest.size, 1)
                if np.any(s.space.pair_distances(deepest[a], deepest[b]) == 0.0):
                    assert not verify_system(with_labels(s, want))["ii_partition"].ok
                    check = _check_inner_balls(with_labels(s, got))
                    assert not check.ok and check.witness["level"] == s.max_level
                else:
                    assert all(same_bits(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("kind", ["line", "plane", "ultrametric", "matrix"])
    def test_two_centers_in_one_inner_ball_fail(self, kind):
        # a point in a deepest center's inner ball made a center too: each of
        # the two labels itself, as a reload derives them, so the inner ball
        # holds a point of another cube; the old check asked the point's
        # nearest center, itself, and passed
        rng = np.random.default_rng(5)
        space = {"line": lambda: MetricSpace(MetricDescriptor("euclidean"),
                                             coords=rng.uniform(size=40)),
                 "plane": lambda: MetricSpace(MetricDescriptor("euclidean"),
                                              coords=rng.uniform(size=(100, 2))),
                 "ultrametric": lambda: MetricSpace(
                     MetricDescriptor("ultrametric", arity=2, base=1 / 16),
                     strings=[format(i, "06b") for i in range(64)]),
                 "matrix": lambda: MetricSpace(MetricDescriptor("matrix"),
                                               matrix=random_graph_matrix(40, 1))}[kind]()
        system = build_system(space, NetParams(), seed=1, max_level=1)
        assert near_pairs(system)[0].size
        s = with_near_center(system, rng)
        assert not np.array_equal(s.levels[-1].centers, s.space.ids)
        check = _check_inner_balls(s)
        assert not check.ok and check.witness["level"] == 1
        assert (check.ok, check.worst, check.witness) == oracle_inner_balls(s)
        assert not verify_system(s)["iii_inner"].ok

    @pytest.mark.parametrize("dim", [1, 2])
    def test_whole_level_pair_nearer_than_the_inner_radius_fails(self, dim):
        # 30 points far apart at level 2 and one 1e-6 from the first: made a
        # center, it leaves every point a center, in id order
        rng = np.random.default_rng(3)
        coords = np.round(rng.uniform(size=(30, dim)) * 16.0) / 16.0
        coords = np.unique(coords, axis=0)
        coords = np.concatenate([coords, coords[:1] + 1e-6])
        space = MetricSpace(MetricDescriptor("euclidean"), coords=coords)
        system = build_system(space, NetParams(), seed=0, max_level=2)
        assert system.levels[-1].centers.size == space.n - 1
        s = with_near_center(system, rng)
        assert np.array_equal(s.levels[-1].centers, s.space.ids) and whole_level_near_pair(s)
        assert not oracle_inner_balls(s)[0]
        assert not _check_inner_balls(s).ok

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ultrametric_inner_ball_check_on_shrunk_repeated_strings(self, data):
        # shrunk, the centers share runs at the inner radius: the failure path
        fam, _, _ = data.draw(families("ultrametric", repeats=True))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        shrunk = fam.space.snowflaked(0.5).rescaled(data.draw(st.sampled_from([0.3, 0.02])))
        for system in fam.systems:
            for s in (system, relabelled(system, rng), with_added_center(system, rng)):
                if s is None:
                    continue
                for t in (s, CubeSystem(s.system_id, shrunk, s.params, s.seed, s.levels,
                                        s.labels, s.parent_idx, BuildReport())):
                    check = _check_inner_balls(t)
                    assert (check.ok, check.worst, check.witness) == oracle_inner_balls(t)

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_nearest_center_within_matches_full_query(self, kind, data):
        # the inner balls are every pair of a center and a point nearer than the
        # radius, so each point's nearest center within the radius (the full
        # query) owns a pair of it; where every point of a coordinate space is
        # a center, in id order, and no two points at distinct places are
        # nearer than the radius, center p's ball is taken to hold p and the
        # lowest id at its place, pairs of the full scan
        space = data.draw(spaces(kind, repeats=data.draw(st.booleans())))
        scale = data.draw(st.sampled_from([1.0, 0.37, 3.0]))
        space = space.rescaled(scale) if scale != 1.0 else space
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        centers = rng.choice(space.n, size=int(rng.integers(1, space.n + 1)), replace=False)
        if data.draw(st.booleans()):
            centers = np.sort(centers)
        if data.draw(st.booleans()):  # every point a center, perhaps repeated
            centers = space.ids
        shortcut = (isinstance(space.index, metric.CoordIndex)
                    and np.array_equal(centers, space.ids))
        idx, dist = nearest_center(space, centers)
        values = np.unique(dist[dist > 0])
        values = values[rng.permutation(values.size)[:6]]
        owner, q = np.divmod(np.arange(centers.size * space.n), space.n)
        scan = space.pair_distances(centers[owner], q)
        # radii on a nearest-center distance and one ulp either side of it
        for r in np.concatenate([values, np.nextafter(values, np.inf),
                                 np.nextafter(values, 0.0), [1.0, 3.0]]):
            got = space.index.inner_balls(centers, float(r))
            got = {(int(i), int(p)) for i, p in zip(*got)}
            full = {(int(i), int(p)) for i, p in zip(owner[scan < r], q[scan < r])}
            if shortcut and all(np.array_equal(space.coords[i], space.coords[p])
                                for i, p in full):
                _, first, place = np.unique(space.coords, axis=0, return_index=True,
                                            return_inverse=True)
                lowest = first[place.ravel()]
                assert got == {(p, p) for p in range(space.n)} | {
                    (p, int(lowest[p])) for p in range(space.n)}
                assert got <= full
            else:
                assert got == full
                close = np.flatnonzero(dist < r)
                assert {(int(idx[p]), int(p)) for p in close} <= got


def family_to_json(family, points_hash=""):
    """The cubes document as the old writer built it, with nested lists."""
    systems = []
    for s in family.systems:
        levels = [{"k": lv.k, "centers": lv.centers.tolist()} for lv in s.levels]
        parents = []  # (center, parent center) pairs, level by level
        for k in range(1, s.max_level + 1):
            parent_centers = s.levels[k - 1].centers[s.parent_idx[k]]
            parents += np.column_stack([s.levels[k].centers, parent_centers]).tolist()
        systems.append({"seed": s.seed, "levels": levels, "parents": parents})
    return {
        "params": {"delta": family.params.delta, "c0": family.params.c0,
                   "C0": family.params.C0, "seed": family.seed,
                   "target_ratio": family.target_ratio,
                   "query_budget": family.query_budget},
        "systems": systems,
        "C_delta_hat": family.C_delta_hat,
        "C_tilde": family.C_tilde,
        "best_effort": family.best_effort,
        "scale": family.scale,
        "points_hash": points_hash,
    }


def oracle_file_bytes(family, points_hash=""):
    """The cubes file as the old writer wrote it: one ``json.dumps`` of the document."""
    return (json.dumps(family_to_json(family, points_hash), sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


def oracle_read_doc(path):
    """The cubes document as the old reader read it: ``json.load``, then each
    id list through ``np.asarray``."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for sdoc in doc["systems"]:
        for lv in sdoc["levels"]:
            lv["centers"] = np.asarray(lv["centers"], dtype=np.int64)
        sdoc["parents"] = np.asarray(sdoc["parents"], dtype=np.int64).reshape(-1, 2)
    return doc


def same_doc(got, want):
    """Equal documents, with arrays equal in dtype, shape and bits."""
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.shape == want.shape
                and same_bits(got, want))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_doc(got[key], want[key]) for key in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(same_doc, got, want)))
    return type(got) is type(want) and got == want


class TestCubesFile:
    """The writer splices each id array's text into ``json.dumps`` of the
    small rest, and the reader reads the arrays with NumPy and the rest with
    ``json.loads``; the old writer and reader, one ``json.dumps`` and one
    ``json.load`` of the whole document, are their oracles."""

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_bytes_arrays_and_family_match_the_old_file(self, kind, data):
        space = data.draw(spaces(kind, repeats=kind != "matrix"))
        fam = build_adjacent_family(space, NetParams(), K_max=3, query_budget=12,
                                    target_ratio=data.draw(st.sampled_from([2.0, 64.0])),
                                    seed=data.draw(st.integers(min_value=0, max_value=50)),
                                    max_level=data.draw(st.integers(min_value=1, max_value=4)))
        points_hash = data.draw(st.sampled_from(["", "h1", 'a "centers":0 \\ \u00e9']))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cubes.json"
            save_family(fam, path, points_hash=points_hash)
            assert path.read_bytes() == oracle_file_bytes(fam, points_hash)
            assert same_doc(_read_doc(path), oracle_read_doc(path))
            loaded = load_family(path, space)
        assert family_to_json(loaded, points_hash) == family_to_json(fam, points_hash)
        for built, got in zip(fam.systems, loaded.systems):
            assert [lv.k for lv in got.levels] == [lv.k for lv in built.levels]
            for k in range(built.max_level + 1):
                assert same_bits(got.labels[k], built.labels[k])
                if k:
                    assert same_bits(got.parent_idx[k], built.parent_idx[k])

    @pytest.mark.parametrize("key,refusal", [("centers", "not a list of point ids"),
                                             ("\\u0063enters", "not in the compact form")])
    def test_a_slot_is_never_read_from_a_value(self, ultra6, ultra6_family, tmp_path, key,
                                               refusal):
        # the root's array under a key the reader does not read, and a
        # literal 0, slot 0, where the root's centers belong, under a key
        # that is "centers" written plainly or with an escape: the literal is
        # refused, not taken for the array's slot
        path = tmp_path / "cubes.json"
        save_family(ultra6_family, path)
        doc = json.loads(path.read_text())
        doc["params"]["centers"] = doc["systems"][0]["levels"][0]["centers"]
        doc["systems"][0]["levels"][0]["centers"] = 0
        write_cubes_doc(path, doc)
        path.write_text(path.read_text().replace('"levels":[{"centers":0',
                                                 f'"levels":[{{"{key}":0', 1))
        with pytest.raises(StaleCubesError, match=refusal):
            load_family(path, ultra6)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_cubes_file_round_trip_and_estimate_bytes(self, kind, data):
        space = data.draw(spaces(kind))
        seed = data.draw(st.integers(min_value=0, max_value=50))
        with tempfile.TemporaryDirectory() as tmp:
            pts, cubes_file = str(Path(tmp) / "pts.json"), str(Path(tmp) / "cubes.json")
            save_points(space, pts)
            space = load_points(pts)
            fam = build_adjacent_family(space, NetParams(), K_max=3, query_budget=12,
                                        target_ratio=2.0, seed=seed, max_level=3)
            checks = [verify_system(s) for s in fam.systems]
            save_family(fam, cubes_file, points_hash=file_hash(pts))
            loaded = load_family(cubes_file, space, points_hash=file_hash(pts))
            assert json.loads(Path(cubes_file).read_text()) == json.loads(
                json.dumps(family_to_json(loaded, file_hash(pts))))
            assert loaded.K == fam.K
            for built, got, want_checks in zip(fam.systems, loaded.systems, checks):
                for k in range(built.max_level + 1):
                    assert same_bits(got.labels[k], built.labels[k])
                    if k:
                        assert same_bits(got.parent_idx[k], built.parent_idx[k])
                assert got.report.checks == want_checks
            for estimate in ("box", "assouad"):
                outs = []
                for i in (1, 2):
                    out = Path(tmp) / f"{estimate}{i}.json"
                    rc = cli.main(["estimate", estimate, "--points", pts, "--cubes", cubes_file,
                                   "--budget", "8", "--out", str(out)])
                    outs.append((rc, out.read_bytes() if out.exists() else None))
                assert outs[0] == outs[1]
