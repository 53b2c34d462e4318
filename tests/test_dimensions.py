import math

import numpy as np
import pytest

from cubedim import (DegenerateBallError, GeneratorSpec, MetricDescriptor, MetricSpace,
                     ScaleExhaustedError, generate)
from cubedim.cubes import (build_adjacent_family, build_system, circumscribed_cube,
                           target_in_ball)
from cubedim.dimensions import (assouad_dim_estimate, assouad_spectrum_estimate,
                                box_dim_estimate, cubic_measure, h_greedy_sum,
                                hausdorff_dim_estimate, local_windows)
from cubedim.nets import NetParams

LOG2_16 = math.log(2) / math.log(16)  # 0.25


class TestCubicMeasure:
    def test_singleton_s0_counts_one_cube(self, ultra6_system):
        mv = cubic_measure(ultra6_system, [9], 0.0, 0.5)
        assert mv.value == 1.0

    def test_ultrametric_critical_exponent_flat(self, ultra6_system):
        # at s = log2/log16 every level sum is count * diam^s = ~1
        for r in (0.25, 0.1, 0.01):
            mv = cubic_measure(ultra6_system, ultra6_system.space.ids, LOG2_16, r)
            assert mv.value == pytest.approx(1.0, rel=1e-3)

    def test_ultrametric_supercritical_decays_to_depth(self, ultra6, params):
        system = build_system(ultra6, params, seed=0, max_level=5)
        assert system.max_level == 5
        mv = cubic_measure(system, system.space.ids, 0.5, 0.2)
        # level-m sum is 2^m * (16^-m)^(1/2) = 2^-m, minimized at the deepest level
        assert mv.m_star == 5
        assert mv.value == pytest.approx(2.0 ** -5, rel=1e-3)

    def test_monotone_in_r_exact(self, ultra6_system, cantor10_family):
        system = cantor10_family.systems[0]
        E = system.space.ids
        for s in (0.3, 0.6):
            values = [cubic_measure(system, E, s, r).value
                      for r in (0.5, 0.2, 0.05, 0.01)]
            assert all(a <= b for a, b in zip(values, values[1:])), values

    def test_scale_exhausted(self, ultra6_system):
        with pytest.raises(ScaleExhaustedError):
            cubic_measure(ultra6_system, [0], 0.5, 1e-12)


class TestHausdorff:
    def test_ultrametric_quarter(self, ultra6_family):
        est = hausdorff_dim_estimate(ultra6_family.systems[0],
                                     ultra6_family.space.ids)
        assert est.value == pytest.approx(0.25, abs=0.02)

    def test_singleton_is_zero(self, ultra6_family):
        est = hausdorff_dim_estimate(ultra6_family.systems[0], [4])
        assert est.value == 0.0

    def test_cantor_near_similarity_dimension(self, cantor10_family):
        E = cantor10_family.space.ids
        hd = hausdorff_dim_estimate(cantor10_family.systems[0], E)
        assert hd.value == pytest.approx(math.log(2) / math.log(3), abs=0.05)


class TestBox:
    def test_singleton_zero(self, ultra6_family):
        assert box_dim_estimate(ultra6_family, [3]).value == 0.0

    def test_ultrametric_quarter_exact_counts(self, ultra6_family):
        est = box_dim_estimate(ultra6_family, ultra6_family.space.ids)
        assert est.value == pytest.approx(0.25, abs=0.01)
        assert est.diagnostics["counts"][:4] == [1, 2, 4, 8]

    def test_sequence_half(self):
        sp = generate(GeneratorSpec(kind="sequence", p=1.0, n_max=2000))
        fam = build_adjacent_family(sp, NetParams(), K_max=4, query_budget=150,
                                    target_ratio=64.0, seed=5)
        est = box_dim_estimate(fam, fam.space.ids)
        assert est.value == pytest.approx(0.5, abs=0.07)


class TestLocalSweeps:
    def test_singleton_zero(self, ultra6_family):
        est = assouad_spectrum_estimate(ultra6_family, [5], theta=0.5)
        assert est.value == 0.0
        assert assouad_dim_estimate(ultra6_family, [5]).value == 0.0

    def test_ultrametric_flat_spectrum(self, ultra6_family):
        E = ultra6_family.space.ids
        wins = local_windows(ultra6_family, E, sample_budget=128, seed=1)
        values = [assouad_spectrum_estimate(ultra6_family, E, th, windows=wins).value
                  for th in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert max(values) - min(values) <= 0.02
        assert all(v == pytest.approx(0.25, abs=0.02) for v in values)

    def test_theta_out_of_range(self, ultra6_family):
        from cubedim import InvalidArgumentError

        with pytest.raises(InvalidArgumentError):
            assouad_spectrum_estimate(ultra6_family, ultra6_family.space.ids, 1.0)

    def test_monotone_in_theta(self, cantor10_family):
        E = cantor10_family.space.ids
        wins = local_windows(cantor10_family, E, sample_budget=128, seed=1)
        values = [assouad_spectrum_estimate(cantor10_family, E, th, windows=wins).value
                  for th in np.linspace(0.1, 0.9, 9)]
        assert all(a <= b + 0.02 for a, b in zip(values, values[1:])), values

    def test_spectrum_bounded_by_assouad(self, cantor10_family):
        E = cantor10_family.space.ids
        wins = local_windows(cantor10_family, E, sample_budget=128, seed=1)
        asd = assouad_dim_estimate(cantor10_family, E, windows=wins).value
        for th in (0.3, 0.6, 0.9):
            sp = assouad_spectrum_estimate(cantor10_family, E, th, windows=wins).value
            assert sp <= asd + 1e-9

    def test_theta_small_matches_box(self, ultra6_family, cantor10_family):
        for fam in (ultra6_family, cantor10_family):
            E = fam.space.ids
            bx = box_dim_estimate(fam, E).value
            sp = assouad_spectrum_estimate(fam, E, 0.1, sample_budget=128, seed=1).value
            assert abs(sp - bx) <= 0.1

    def test_sequence_accumulation_dominates(self):
        sp = generate(GeneratorSpec(kind="sequence", p=1.0, n_max=3000))
        fam = build_adjacent_family(sp, NetParams(), K_max=4, query_budget=150,
                                    target_ratio=64.0, seed=5)
        E = fam.space.ids
        wins = local_windows(fam, E, sample_budget=256, seed=1)
        asd = assouad_dim_estimate(fam, E, windows=wins)
        bx = box_dim_estimate(fam, E).value
        assert asd.value >= bx + 0.2  # the zoomed-in windows see higher density
        assert "depth-limited" in asd.flags


class TestWindowDedup:
    def test_distinct_balls_with_equal_id_statistics_get_one_window_each(self):
        # B(1, R) = {0, 1, 4, 5} and B(2, R) = {0, 2, 3, 5} share their first and
        # last id, size and id sum; only a key on the member set tells them apart
        d = np.full((6, 6), 1.5)
        for a, near, far in ((2, (0, 3, 5), (1, 4)), (1, (0, 4, 5), (3,))):
            d[a, list(near)] = d[list(near), a] = 1.0
            d[a, list(far)] = d[list(far), a] = 1.9
        np.fill_diagonal(d, 0.0)
        space = MetricSpace(MetricDescriptor("matrix"), matrix=d)
        fam = build_adjacent_family(space, NetParams(), K_max=2, query_budget=50,
                                    seed=0, max_level=3)
        R = 0.7
        balls = {x: tuple(fam.space.ball_members(x, R)) for x in range(6)}
        assert balls[1] == (0, 1, 4, 5) and balls[2] == (0, 2, 3, 5)
        windows = local_windows(fam, fam.space.ids, radii=[R])
        assert [w.x for w in windows] == list(range(6))
        assert windows[2].target_size == 4


class TestWholeSpaceTarget:
    def test_only_the_ids_in_order_skip_the_intersection(self, ultra6_family):
        space = ultra6_family.space
        members = space.ball_members(0, 0.1)
        assert target_in_ball(space, space.ids, members) is members
        E = space.ids.copy()
        E[1] = 0  # n ids, one repeated and id 1 missing
        assert np.array_equal(target_in_ball(space, E, members), np.intersect1d(E, members))
        windows = local_windows(ultra6_family, E, sample_budget=8, radii=[1.0 - 1e-10])
        assert [w.target_size for w in windows] == [space.n - 1]


class TestRepeatedPoint:
    def test_ball_of_one_repeated_point_is_degenerate(self):
        space = MetricSpace(MetricDescriptor("euclidean"),
                            coords=np.array([0.0, 0.0, 0.25, 0.5, 0.75, 1.0]))
        fam = build_adjacent_family(space, NetParams(), K_max=2, query_budget=50,
                                    seed=0, max_level=3)
        assert any(q["degenerate"] and q["x"] < 2 and q["R"] > 0.01 for q in fam.query_log)
        R = 0.1
        assert fam.space.ball_members(0, R).tolist() == [0, 1]
        with pytest.raises(DegenerateBallError):
            circumscribed_cube(fam, 0, R)
        assert local_windows(fam, fam.space.ids, radii=[R]) == []


class TestOrderingChain:
    @pytest.mark.parametrize("fixture", ["ultra6_family", "cantor10_family"])
    def test_chain(self, request, fixture):
        fam = request.getfixturevalue(fixture)
        E = fam.space.ids
        hd = hausdorff_dim_estimate(fam.systems[0], E).value
        bx = box_dim_estimate(fam, E).value
        wins = local_windows(fam, E, sample_budget=128, seed=1)
        asd = assouad_dim_estimate(fam, E, windows=wins).value
        slack = 0.05 + 1e-9
        assert hd <= bx + slack
        for th in (0.3, 0.6, 0.9):
            sp = assouad_spectrum_estimate(fam, E, th, windows=wins).value
            assert bx <= sp + slack
            assert sp <= asd + slack


class TestComparability:
    def test_m_dominates_greedy_h_below_dimension(self, cantor10_family, ultra6_family):
        for fam in (cantor10_family, ultra6_family):
            system = fam.systems[0]
            E = fam.space.ids
            p = fam.params
            d = box_dim_estimate(fam, E).value
            for s in (0.3 * d, 0.5 * d):
                ratios = []
                for j in range(1, system.max_level + 1):
                    r = 4.0 * p.C0 * p.delta ** j
                    M = cubic_measure(system, E, s, r).value
                    H = h_greedy_sum(fam.space, E, s, r)
                    assert M >= H * (1 - 1e-9)
                    ratios.append(M / H)
                assert max(ratios) <= 2.0 * min(ratios)


class TestSystemIndependence:
    def test_cross_seed_agreement(self, cantor10):
        params = NetParams()
        famA = build_adjacent_family(cantor10, params, K_max=2, query_budget=100,
                                     target_ratio=64.0, seed=5)
        famB = build_adjacent_family(cantor10, params, K_max=2, query_budget=100,
                                     target_ratio=64.0, seed=905)
        EA, EB = famA.space.ids, famB.space.ids
        assert abs(hausdorff_dim_estimate(famA.systems[0], EA).value
                   - hausdorff_dim_estimate(famB.systems[0], EB).value) <= 0.05
        assert abs(box_dim_estimate(famA, EA).value
                   - box_dim_estimate(famB, EB).value) <= 0.05


class TestSnowflakeScaling:
    def test_dimensions_divide_by_epsilon(self):
        base = generate(GeneratorSpec(kind="cantor", ratio=1 / 3, depth=10))
        snow = base.snowflaked(0.5)
        fam = build_adjacent_family(snow, NetParams(delta=1 / 12), K_max=4,
                                    query_budget=150, target_ratio=64.0, seed=5)
        est = box_dim_estimate(fam, fam.space.ids)
        assert est.value == pytest.approx(2 * math.log(2) / math.log(3), abs=0.1)


def test_estimate_json_round_trip(ultra6_family):
    import json

    est = box_dim_estimate(ultra6_family, ultra6_family.space.ids)
    doc = json.loads(json.dumps(est.to_json()))
    assert doc["kind"] == "box" and doc["value"] == pytest.approx(0.25, abs=0.01)
