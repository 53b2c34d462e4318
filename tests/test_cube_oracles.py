"""Cube queries on the depth-first arrays against the direct computations.

``CubeSystem.order`` makes every cube a contiguous run, so containment takes
the two ball members of least and greatest rank, and a level's cube count
is one plus the label changes along the depth-first-sorted target. The
oracles here are the computations those replaced: a deep-to-shallow scan
that tests containment member by member (or by the id-range ends on levels
whose cubes are contiguous id ranges), and ``np.unique`` over label slices.
Both must agree bit for bit on random small spaces of every metric kind,
with tied distances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubedim import MetricDescriptor, MetricSpace
from cubedim.covering import dyadic_cover_count
from cubedim.cubes import (_circumscribed_in_system, build_adjacent_family,
                           circumscribed_cube, r_grid)
from cubedim.dimensions import local_windows, sample_points
from cubedim.errors import DegenerateBallError, ScaleExhaustedError
from cubedim.nets import NetParams

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
def spaces(draw, kind):
    """A space of ``kind`` with 2 to 60 points, ids in random order."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    n = draw(st.integers(min_value=2, max_value=60))
    if kind in ("euclidean", "snowflake"):
        dim = draw(st.integers(min_value=1, max_value=3))
        if draw(st.booleans()):  # lattice points: many tied distances
            pts = rng.integers(0, 6, size=(n, dim)).astype(np.float64)
        else:
            pts = rng.uniform(size=(n, dim))
        pts = _shuffled(rng, np.unique(pts, axis=0))
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
    """The local windows, recomputed with the oracles and member-set dedupe."""
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
                                              range(level + 1, system.max_level + 1))
            out.append((int(x), float(R), sid, level, counts, max_diams, int(target.size)))
    return out


@st.composite
def families(draw, kind):
    space = draw(spaces(kind))
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
                assert system.level_sums(E, s) == expect
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
                    idx = np.unique(system.labels[cc.level + m][target])
                    assert (rep.D, rep.max_cube_diameter) == (counts[0], max_diams[0])
                    assert rep.witnesses["cube_centers"] == [
                        int(c) for c in system.levels[cc.level + m].centers[idx]]
        got = [(w.x, w.R, w.system_id, w.level, w.counts, w.max_diams, w.target_size)
               for w in local_windows(fam, E, sample_budget=SAMPLE_BUDGET, radii=radii)]
        assert got == oracle_windows(fam, E, radii)
