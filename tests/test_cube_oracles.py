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
called ``diameter`` per cube, and the inner-ball check pairs each level's
centers with the points within the inner radius, where the old code ran a
nearest-center query over every point. Both must match the old computation
bit for bit, on tampered systems too, and a ``cubes.json`` round trip must
reproduce the labels, parents and checks.

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

The greedy cover reads its near sets as closed balls of the index, and the
doubling estimate counts each sample as a greedy net of the index; the
row-based computations they replaced are kept here as their oracles.

A Hausdorff fit reads every radius off one table of level sums per exponent,
where the old fit recomputed all level sums for each radius; and a family
build decides each query ball once, up front, where the old build filled a
ball cache lazily while evaluating its first system. Both old computations
are kept here as oracles, on spaces with repeated points, so that degenerate
balls occur.
"""

import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubedim import MetricDescriptor, MetricSpace, cli, cubes, dimensions
from cubedim.covering import dyadic_cover_count, greedy_cover_count, sandwich_check
from cubedim.cubes import (NORMALIZED_DIAMETER, AdjacentFamily, BuildReport, CubeSystem,
                           _cert_terms, _check_inner_balls, _circumscribed_in_system,
                           _effective_radius, build_adjacent_family, build_system,
                           circumscribed_cube, family_to_json, file_hash, load_family,
                           r_grid, save_family, verify_system)
from cubedim.dimensions import (DimensionEstimate, _fit_line, _met_diameters,
                                box_dim_estimate, hausdorff_dim_estimate,
                                least_admissible_level, local_windows, sample_points)
from cubedim.errors import (DegenerateBallError, InsufficientScalesError, InvalidArgumentError,
                            ScaleExhaustedError)
from cubedim.metric import load_points, save_points
from cubedim.nets import NetLevel, NetParams, nearest_center, nearest_center_within

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


def oracle_windows(family, E, radii):
    """The local windows, recomputed with the oracles and member-set dedupe;
    counts and largest diameters run from the containing level (m = 0)."""
    out, seen = [], set()
    for x in sample_points(family.space, E, SAMPLE_BUDGET, 0):
        row = family.space.row(int(x))
        for R in radii:
            members = np.flatnonzero(row < R)
            if members.size < 2 or tuple(members) in seen:
                continue
            seen.add(tuple(members))
            target = members if E.size == family.space.n else np.intersect1d(E, members)
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
        fam, E, radii = data.draw(families(kind))
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
                    assert (_circumscribed_in_system(system, members)
                            == oracle_in_system(system, int(x), members))
                try:
                    cc = circumscribed_cube(fam, int(x), R)
                except DegenerateBallError:
                    assert members.size < 2
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
        got = [(w.x, w.R, w.system_id, w.level, w.counts, w.max_diams, w.target_size)
               for w in local_windows(fam, E, sample_budget=SAMPLE_BUDGET, radii=radii)]
        assert got == oracle_windows(fam, E, radii)


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


def oracle_R_eff(space, x, R, members, row=None):
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
        # r on a pairwise distance, and on the edge of the whole-block margin
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
            # twice each distance level from x, on and either side of the margin
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
        with mock.patch.object(cubes, "_effective_radius", oracle_R_eff):
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
    while the first system is evaluated."""
    raw_diam = space.diameter()
    norm = space.normalized(NORMALIZED_DIAMETER * min(1.0, params.c0))
    scale = 1.0 if raw_diam == 0 else (NORMALIZED_DIAMETER * min(1.0, params.c0)) / raw_diam
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
            found = _circumscribed_in_system(system, members)
            if found is None:
                continue
            level, index = found
            diam = system.diams_at(level)[index]
            if diam < best_diam[qi]:
                best_diam[qi] = diam
                best_cert[qi] = _cert_terms(params, R_eff, level, diam)

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
                  "cert": float(best_cert[qi]) if np.isfinite(best_cert[qi]) else None}
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
    """(ok, worst, witness) of the inner-ball check from a nearest-center query
    over every point at every level."""
    worst, witness, ok = 0.0, None, True
    for k in range(system.max_level + 1):
        inner = system.params.separation(k) / 3.0 * (1.0 - 1e-9)
        idx, dist = nearest_center(system.space, system.levels[k].centers)
        bad = (dist < inner) & (idx != system.labels[k])
        if np.any(bad):
            ok = False
            p = int(np.flatnonzero(bad)[0])
            witness = {"level": k, "point": p,
                       "nearest_center": int(system.levels[k].centers[idx[p]]),
                       "assigned_center": int(system.levels[k].centers[system.labels[k][p]])}
            worst = max(worst, float((dist[bad] / inner).max()))
    return ok, worst, witness


def with_labels(system, labels, levels=None):
    return CubeSystem(system.system_id, system.space, system.params, system.seed,
                      system.levels if levels is None else levels, labels,
                      system.parent_idx, BuildReport())


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
    pos = int(rng.integers(centers.size + 1))
    levels = list(system.levels)
    levels[k] = NetLevel(k=k, centers=np.insert(centers, pos, q), params=system.params,
                         seed=system.seed)
    labels = [lab.copy() for lab in system.labels]
    labels[k] = labels[k] + (labels[k] >= pos)  # the centers after pos moved up one
    return with_labels(system, labels, levels)


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
        fam, _, _ = data.draw(families(kind))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        for system in fam.systems:
            tampered = [system, relabelled(system, rng), with_added_center(system, rng)]
            for s in tampered:
                if s is None:
                    continue
                check = _check_inner_balls(s)
                assert (check.ok, check.worst, check.witness) == oracle_inner_balls(s)
            if tampered[1] is not None:
                assert not _check_inner_balls(tampered[1]).ok

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_nearest_center_within_matches_full_query(self, kind, data):
        space = data.draw(spaces(kind))
        scale = data.draw(st.sampled_from([1.0, 0.37, 3.0]))
        space = space.rescaled(scale) if scale != 1.0 else space
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
        centers = rng.choice(space.n, size=int(rng.integers(1, space.n + 1)), replace=False)
        if data.draw(st.booleans()):
            centers = np.sort(centers)
        idx, dist = nearest_center(space, centers)
        values = np.unique(dist[dist > 0])
        values = values[rng.permutation(values.size)[:6]]
        # radii on a nearest-center distance and one ulp either side of it
        for r in np.concatenate([values, np.nextafter(values, np.inf),
                                 np.nextafter(values, 0.0), [1.0, 3.0]]):
            got = nearest_center_within(space, centers, float(r))
            close = dist < r
            want = (space.ids[close], idx[close], dist[close])
            assert all(same_bits(g, w) for g, w in zip(got, want))


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
