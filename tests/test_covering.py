from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubedim import (GeneratorSpec, InvalidArgumentError, MetricDescriptor,
                     MetricSpace, generate)
from cubedim.covering import (dyadic_cover_count, exact_cover_count,
                              greedy_cover_count, sandwich_check)
from cubedim.cubes import build_adjacent_family
from cubedim.nets import NetParams


def euclid(coords):
    return MetricSpace(MetricDescriptor("euclidean"), coords=np.asarray(coords, dtype=float))


def brute_min_cover(space, E, r):
    """Independent oracle: try every family of diameter-<=r subsets, smallest first."""
    E = list(E)
    n = len(E)
    subsets = []
    for size in range(1, n + 1):
        for combo in combinations(E, size):
            if space.diameter(np.array(combo)) <= r:
                subsets.append(frozenset(combo))
    full = frozenset(E)
    for count in range(1, n + 1):
        for chosen in combinations(subsets, count):
            merged = frozenset().union(*chosen)
            if merged == full:
                return count
    return n


class TestGreedyCover:
    def test_singleton(self):
        sp = euclid([0.0, 1.0])
        assert greedy_cover_count(sp, [1], 0.1) == 1

    def test_radius_above_diameter(self):
        sp = euclid([0.0, 0.4, 1.0])
        assert greedy_cover_count(sp, [0, 1, 2], 1.0) == 1

    def test_five_point_line(self):
        # diameter-0.3 sets: {0,1/4} {1/2,3/4} {1} is optimal
        sp = euclid([0.0, 0.25, 0.5, 0.75, 1.0])
        E = [0, 1, 2, 3, 4]
        greedy = greedy_cover_count(sp, E, 0.3)
        exact = exact_cover_count(sp, E, 0.3)
        assert exact == 3
        assert exact == brute_min_cover(sp, E, 0.3)
        assert greedy >= exact
        assert greedy == 3

    def test_empty_rejected(self):
        sp = euclid([0.0])
        with pytest.raises(InvalidArgumentError):
            greedy_cover_count(sp, [], 0.5)

    def test_repeated_ids_cover_each_point_once(self):
        # the grown block {0, 1, 2} covers both copies of id 0
        sp = euclid([0.0, 1.0, 2.0, 3.0])
        assert greedy_cover_count(sp, [0, 0, 1, 2, 3], 2.0) == 2
        assert greedy_cover_count(sp, [0, 1, 2, 3], 2.0) == 2
        sets = greedy_cover_count(sp, [3, 0, 0, 1, 2], 2.0, return_sets=True)
        assert [s.tolist() for s in sets] == [[0, 1, 2], [3]]
        assert [s.tolist() for s in greedy_cover_count(sp, [1, 1], 2.0, return_sets=True)] \
            == [[1]]

    def test_sets_have_bounded_diameter(self):
        rng = np.random.default_rng(0)
        sp = euclid(rng.uniform(size=(40, 2)))
        for r in (0.15, 0.4):
            sets = greedy_cover_count(sp, list(range(40)), r, return_sets=True)
            for block in sets:
                assert sp.diameter(block) <= r * (1 + 1e-12)
            covered = np.sort(np.concatenate(sets))
            assert np.array_equal(covered, np.arange(40))


class TestExactCover:
    def test_singleton(self):
        sp = euclid([0.7])
        assert exact_cover_count(sp, [0], 0.2) == 1

    def test_three_collinear(self):
        sp = euclid([0.0, 0.5, 1.0])
        assert exact_cover_count(sp, [0, 1, 2], 0.6) == 2

    def test_cantor_depth4_at_ninth(self):
        sp = generate(GeneratorSpec(kind="cantor", ratio=1 / 3, depth=4))
        got = exact_cover_count(sp, list(range(sp.n)), 3.0 ** -2)
        assert got == 4

    def test_cap_returns_none(self):
        sp = euclid(np.linspace(0, 1, 30))
        assert exact_cover_count(sp, list(range(30)), 0.1) is None

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(1)
        for trial in range(8):
            n = int(rng.integers(4, 9))
            sp = euclid(rng.uniform(size=(n, 1)))
            r = float(rng.uniform(0.1, 0.6))
            got = exact_cover_count(sp, list(range(n)), r)
            assert got == brute_min_cover(sp, list(range(n)), r), (trial, n, r)

    def test_never_exceeds_greedy(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(5, 16))
            sp = euclid(rng.uniform(size=(n, 2)))
            r = float(rng.uniform(0.2, 0.8))
            exact = exact_cover_count(sp, list(range(n)), r)
            greedy = greedy_cover_count(sp, list(range(n)), r)
            assert exact <= greedy

    def test_monotone_in_r(self):
        rng = np.random.default_rng(3)
        sp = euclid(rng.uniform(size=(12, 1)))
        E = list(range(12))
        values = [exact_cover_count(sp, E, r) for r in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=10,
                    unique=True),
           st.floats(min_value=0.05, max_value=1.2))
    @settings(max_examples=40, deadline=None)
    def test_exact_never_exceeds_greedy_or_size(self, values, r):
        sp = euclid(sorted(values))
        E = list(range(len(values)))
        exact = exact_cover_count(sp, E, r)
        greedy = greedy_cover_count(sp, E, r)
        assert 1 <= exact <= greedy <= len(values)


class TestDyadicCount:
    def test_single_point_E(self, ultra6_family):
        rep = dyadic_cover_count(ultra6_family, [7], 7, 0.9999999999, 2)
        assert rep.D == 1

    def test_ultrametric_full_space_powers(self, ultra6_family):
        E = ultra6_family.space.ids
        for m in (1, 2, 3, 4):
            rep = dyadic_cover_count(ultra6_family, E, 0, 0.9999999999, m)
            assert rep.D == 2 ** m

    def test_monotone_in_m(self, cantor10_family):
        E = cantor10_family.space.ids
        values = []
        for m in range(1, cantor10_family.max_level + 1):
            values.append(dyadic_cover_count(cantor10_family, E, 0, 0.9999999999, m).D)
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_cantor_counts_track_similarity_exponent(self):
        import math

        sp = generate(GeneratorSpec(kind="cantor", ratio=1 / 3, depth=12))
        fam = build_adjacent_family(sp, NetParams(), K_max=2, query_budget=100,
                                    target_ratio=64.0, seed=5)
        E = fam.space.ids
        alpha = math.log(2) / math.log(3)
        for m in (1, 2, 3, 4):
            D = dyadic_cover_count(fam, E, 0, 0.9999999999, m).D
            ideal = 16.0 ** (m * alpha)
            assert ideal / 6.0 <= D <= 6.0 * ideal, (m, D, ideal)

    def test_equals_bruteforce_set_cover_over_cubes(self, ultra6_family):
        # on a partition the minimal subcover is exactly the intersecting cubes
        space = ultra6_family.space
        E = np.arange(0, space.n, 3)
        rep = dyadic_cover_count(ultra6_family, E, 0, 0.9999999999, 2)
        system = ultra6_family.systems[rep.system_id]
        # the level-(L_R + 2) cubes inside the circumscribed cube of point 0
        root = system.labels[rep.level][0]
        cubes = [members for members in system.cubes_at(rep.level + 2)
                 if system.labels[rep.level][members[0]] == root]
        assert len(cubes) <= 20
        universe = frozenset(int(e) for e in E)
        best = None
        for count in range(1, len(cubes) + 1):
            for chosen in combinations(cubes, count):
                merged = frozenset().union(*(set(int(v) for v in c) for c in chosen))
                if universe <= merged:
                    best = count
                    break
            if best:
                break
        assert rep.D == best


class TestSandwich:
    def test_singleton_E(self, ultra6_family):
        rep = sandwich_check(ultra6_family, [3], 3, 0.9999999999, 2)
        assert rep.D == 1 and rep.N_exact == 1
        assert rep.N_greedy == 1

    def test_ultrametric_m2(self, ultra6_family):
        E = np.arange(0, ultra6_family.space.n, 4)
        rep = sandwich_check(ultra6_family, E, 0, 0.9999999999, 2)
        assert rep.D == 4
        assert rep.N_exact is not None and rep.N_exact <= rep.D
        assert "sandwich-violated" not in rep.flags

    def test_hundred_configs_no_violation(self, cantor10_family):
        space = cantor10_family.space
        rng = np.random.default_rng(4)
        checked = 0
        tries = 0
        while checked < 100 and tries < 3000:
            tries += 1
            x = int(rng.integers(space.n))
            R = float(16.0 ** -rng.integers(1, 3) * rng.uniform(0.6, 1.8))
            m = int(rng.integers(1, 3))
            try:
                rep = sandwich_check(cantor10_family, space.ids, x, R, m)
            except Exception:
                continue
            if rep.N_exact is None:
                continue
            checked += 1
            assert rep.N_exact <= rep.D, (x, R, m)
            assert "sandwich-violated" not in rep.flags
        assert checked >= 100

    def test_r_effective_formula(self, ultra6_family):
        rep = sandwich_check(ultra6_family, ultra6_family.space.ids, 0,
                             0.9999999999, 2)
        expect = ultra6_family.C_tilde * ultra6_family.params.delta ** 2 * rep.R_eff
        assert rep.r_effective == pytest.approx(expect)

    def test_cube_diameters_within_r_effective(self, cantor10_family):
        space = cantor10_family.space
        rng = np.random.default_rng(5)
        for _ in range(60):
            x = int(rng.integers(space.n))
            R = float(16.0 ** -rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            try:
                rep = sandwich_check(cantor10_family, space.ids, x, R, m)
            except Exception:
                continue
            assert rep.max_cube_diameter <= rep.r_effective * (1 + 1e-9)

    def test_ball_computed_once(self, ultra6_family, monkeypatch):
        calls = []
        ball_members = MetricSpace.ball_members

        def counting(self, x, r):
            calls.append((x, r))
            return ball_members(self, x, r)

        monkeypatch.setattr(MetricSpace, "ball_members", counting)
        space = ultra6_family.space
        for x, R, m in [(0, 0.9999999999, 2), (5, 0.3, 1), (17, 0.3, 2)]:
            calls.clear()
            sandwich_check(ultra6_family, space.ids, x, R, m)
            assert calls == [(x, R)]

    def test_report_carries_m0(self, ultra6_family):
        rep = sandwich_check(ultra6_family, ultra6_family.space.ids, 0,
                             0.9999999999, 2)
        denom = rep.N_exact if rep.N_exact is not None else rep.N_greedy
        assert rep.M0_hat == pytest.approx(rep.D / denom)
