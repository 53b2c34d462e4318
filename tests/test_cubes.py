import json
import math

import numpy as np
import pytest
from conftest import write_cubes_doc

from cubedim import (DegenerateBallError, InvalidArgumentError, MetricDescriptor,
                     MetricSpace, ScaleExhaustedError, StaleCubesError,
                     dyadic_cover_count)
from cubedim.cubes import (MAX_LEVEL_CAP, _check_ball_monotone, _check_outer_balls,
                           build_adjacent_family, build_system, circumscribed_cube,
                           default_max_level, load_family, save_family, verify_system)
from cubedim.nets import NetParams


class TestBuildSystem:
    def test_single_point_space(self):
        sp = MetricSpace(MetricDescriptor("euclidean"), coords=[[0.0]])
        system = build_system(sp, NetParams(), seed=0, max_level=3)
        for k in range(4):
            cubes = system.cubes_at(k)
            assert len(cubes) == 1 and list(cubes[0]) == [0]

    def test_ultrametric_levels_are_cylinders(self, ultra6_system):
        system = ultra6_system
        strings = system.space.strings
        for k in range(system.max_level + 1):
            cubes = system.cubes_at(k)
            assert len(cubes) == 2 ** k
            for members in cubes:
                prefixes = {strings[m][:k] for m in members}
                assert len(prefixes) == 1

    def test_grid_level1_cubes_contiguous(self, grid257, params):
        system = build_system(grid257, params, seed=0)
        for members in system.cubes_at(1):
            assert np.array_equal(members, np.arange(members[0], members[-1] + 1))

    def test_center_belongs_to_own_cube(self, ultra6_system):
        for k in range(ultra6_system.max_level + 1):
            centers = ultra6_system.levels[k].centers
            for center, members in zip(centers, ultra6_system.cubes_at(k)):
                assert center in members

    def test_default_max_level_tracks_resolution(self, grid257, params):
        # smallest gap 1/256 resolves levels with delta^L >= 1/256 (delta = 1/16)
        assert default_max_level(grid257.rescaled(grid257.normalizing_factor()), params.delta) == 2

    def test_default_max_level_unchanged_where_the_inverse_gap_is_finite(self):
        # the level of every gap whose inverse is finite is the one log(1 / gap)
        # gives; below that, -log(gap) gives a level past the cap
        class Gap:
            def __init__(self, gap):
                self.gap = gap

            def min_positive_distance(self):
                return self.gap

        gaps = [2.0 ** -e for e in range(0, 1075)] + [1.0 / 12 ** k for k in range(1, 286)]
        gaps += [np.nextafter(g, side) for g in gaps for side in (0.0, 1.0)]
        for delta in (1 / 16, 1 / 12, 0.08333333333333333, 0.05):
            for gap in map(float, gaps):
                if not 0.0 < gap < 1.0:
                    continue
                got = default_max_level(Gap(gap), delta)
                if math.isfinite(1.0 / gap):
                    level = int(math.floor(math.log(1.0 / gap) / math.log(1.0 / delta) + 1e-9))
                    assert got == max(1, min(MAX_LEVEL_CAP, level)), (gap, delta)
                else:
                    assert got == MAX_LEVEL_CAP, (gap, delta)

    def test_deep_max_level_warns(self, grid257, params):
        system = build_system(grid257, params, seed=0, max_level=5)
        assert any("resolution" in w for w in system.report.warnings)


class TestVerifySystem:
    def test_all_properties_pass(self, ultra6_system, grid257, params):
        for system in (ultra6_system, build_system(grid257, params, seed=1)):
            checks = verify_system(system)
            for name, chk in checks.items():
                assert not chk.applicable or chk.ok, (name, chk.witness)

    def test_tampered_assignment_fails_inner_ball(self, ultra6, params):
        system = build_system(ultra6, params, seed=0)
        k = system.max_level
        # move one deepest-level point into a sibling cube
        labels = system.labels[k].copy()
        victim = int(system.levels[k].centers[0])
        labels[victim] = (labels[victim] + 1) % system.levels[k].centers.size
        system.labels[k] = labels
        checks = verify_system(system)
        assert not checks["iii_inner"].ok
        assert checks["iii_inner"].witness is not None

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("level, label", [("deepest", "past"), (2, "past"),
                                              ("deepest", -1)])
    def test_label_naming_no_cube_fails_partition(self, dim, level, label, params):
        # the label-reading checks would index with it, so partition decides
        # it first, and they stand failed and not applicable
        space = MetricSpace(MetricDescriptor("euclidean"),
                            coords=np.random.default_rng(4).uniform(size=(300, dim)))
        system = build_system(space, params, seed=0, max_level=3)
        k = system.max_level if level == "deepest" else level
        labels = system.labels[k].copy()
        labels[17] = system.levels[k].centers.size if label == "past" else label
        system.labels[k] = labels
        checks = verify_system(system)
        assert not checks["ii_partition"].ok
        assert checks["ii_partition"].witness == {"level": k, "point": 17}
        for name in ("i_nesting", "iii_inner", "iii_outer"):
            assert not checks[name].ok and not checks[name].applicable
        assert checks["iv_ball_monotone"].ok

    def test_tampered_parent_fails_ball_monotonicity(self, ultra6, params):
        system = build_system(ultra6, params, seed=0)
        k = 3
        # reparent one level-3 cube to a center on the far side of the space
        pidx = system.parent_idx[k].copy()
        far = 0 if pidx[0] != 0 else 1
        victim = int(np.argmax(pidx != far))
        pidx[victim] = far
        system.parent_idx[k] = pidx
        for lvl in range(k - 1, -1, -1):
            system.labels[lvl] = system.parent_idx[lvl + 1][system.labels[lvl + 1]]
        checks = verify_system(system)
        assert not checks["iv_ball_monotone"].ok

    def test_depth_limited_nesting_not_applicable(self):
        sp = MetricSpace(MetricDescriptor("euclidean"), coords=[[0.0], [1.0]])
        system = build_system(sp, NetParams(), seed=0, max_level=0)
        checks = verify_system(system)
        assert not checks["i_nesting"].applicable


def reference_outer_balls(system):
    """(worst, witness) of the outer-ball check, one ``row`` per cube."""
    worst, witness = 0.0, None
    for k in range(system.max_level + 1):
        outer = 2.0 * system.params.covering(k)
        for cube_i, center in enumerate(system.levels[k].centers):
            members = np.flatnonzero(system.labels[k] == cube_i)
            if members.size <= 1:
                continue
            d = system.space.row(int(center))[members]
            ratio = float(d.max()) / outer
            if ratio > worst:
                worst = ratio
                if ratio > 1.0 + 1e-9:
                    witness = {"level": k, "center": int(center),
                               "point": int(members[int(np.argmax(d))])}
    return worst, witness


def reference_ball_monotone(system):
    """(worst, witness) of the ball-monotonicity check, one ``distance`` per child."""
    worst, witness = 0.0, None
    for k in range(1, system.max_level + 1):
        parents = system.levels[k - 1].centers[system.parent_idx[k]]
        for c, p in zip(system.levels[k].centers, parents):
            lhs = system.space.distance(int(c), int(p)) + 2.0 * system.params.covering(k)
            ratio = lhs / (2.0 * system.params.covering(k - 1))
            if ratio > worst:
                worst = ratio
                if ratio > 1.0 + 1e-9:
                    witness = {"level": k, "child_center": int(c), "parent_center": int(p)}
    return worst, witness


class TestCheckEquivalence:
    """The vectorized outer-ball and ball-monotone checks against per-cube loops,
    on 1-D and 2-D coordinate spaces."""

    @pytest.fixture(params=[1, 2])
    def system(self, request):
        coords = np.random.default_rng(request.param).uniform(size=(400, request.param))
        sp = MetricSpace(MetricDescriptor("euclidean"), coords=coords)
        return build_system(sp, NetParams(), seed=3, max_level=2)

    def test_untampered_worst_is_bit_identical(self, system):
        outer = _check_outer_balls(system)
        mono = _check_ball_monotone(system)
        assert outer.ok and mono.ok
        assert (outer.worst, outer.witness) == reference_outer_balls(system)
        assert (mono.worst, mono.witness) == reference_ball_monotone(system)
        assert outer.worst > 0.0 and mono.worst > 0.0

    def test_tampered_label_fails_outer_ball(self, system):
        k = 1
        centers = system.levels[k].centers
        space = system.space
        labels = system.labels[k].copy()
        # move a non-center point into the cube whose center is farthest from it
        victim = int(np.setdiff1d(space.ids, centers)[17])
        labels[victim] = int(np.argmax(space.row(victim)[centers]))
        system.labels[k] = labels
        check = _check_outer_balls(system)
        worst, witness = reference_outer_balls(system)
        assert not check.ok and check.worst > 1.0
        assert check.worst == worst and check.witness == witness
        assert witness == {"level": k, "center": int(centers[labels[victim]]),
                           "point": victim}
        assert verify_system(system)["iii_outer"].witness == witness

    def test_tampered_parent_fails_ball_monotone(self, system):
        k = 2
        pidx = system.parent_idx[k].copy()
        child = system.levels[k].centers[5]
        # reparent one level-2 center to the level-1 center farthest from it
        pidx[5] = int(np.argmax(system.space.row(int(child))[system.levels[k - 1].centers]))
        system.parent_idx[k] = pidx
        check = _check_ball_monotone(system)
        worst, witness = reference_ball_monotone(system)
        assert not check.ok and check.worst > 1.0
        assert check.worst == worst and check.witness == witness
        assert witness["level"] == k and witness["child_center"] == int(child)


class TestCubeQueries:
    """Cubes as arrays: ``labels[k][x]`` is the level-k cube of x, ``cubes_at(k)``
    its members and ``order`` the depth-first order the cubes are runs of."""

    def test_cube_of_root(self, ultra6_system):
        root = int(ultra6_system.labels[0][5])
        assert root == 0 and ultra6_system.cubes_at(0)[root].size == ultra6_system.space.n

    def test_cube_of_prefix(self, ultra6_system):
        x = ultra6_system.space.strings.index("011000")
        members = ultra6_system.cubes_at(2)[ultra6_system.labels[2][x]]
        assert x in members
        assert {ultra6_system.space.strings[m][:2] for m in members} == {"01"}

    def test_parent_consistency(self, ultra6_system):
        system = ultra6_system
        for x in (0, 17, 40):
            for k in range(system.max_level):
                child = system.labels[k + 1][x]
                parent = system.labels[k][x]
                assert system.parent_idx[k + 1][child] == parent
                assert np.setdiff1d(system.cubes_at(k + 1)[child],
                                    system.cubes_at(k)[parent]).size == 0

    def test_level_out_of_range(self, ultra6_system):
        with pytest.raises(InvalidArgumentError):
            ultra6_system.cubes_at(ultra6_system.max_level + 1)
        ultra6_system.diams_at(ultra6_system.max_level)
        with pytest.raises(InvalidArgumentError):
            ultra6_system.diams_at(-1)

    def test_descendants_identity(self, ultra6_system):
        # every cube at every level is one contiguous run of the depth-first order
        system = ultra6_system
        assert np.array_equal(np.sort(system.order), system.space.ids)
        assert np.array_equal(system.order[system.rank], system.space.ids)
        for k in range(system.max_level + 1):
            for members in system.cubes_at(k):
                ranks = np.sort(system.rank[members])
                assert np.array_equal(ranks, np.arange(ranks[0], ranks[-1] + 1))

    def test_descendants_cylinder_count(self, ultra6_system):
        root_members = ultra6_system.cubes_at(0)[0]
        assert ultra6_system.cubes_meeting(3, root_members).size == 8

    def test_descendants_partition_members(self, ultra6_system):
        system = ultra6_system
        cube = system.cubes_at(1)[system.labels[1][0]]
        desc = [system.cubes_at(3)[i] for i in system.cubes_meeting(3, cube)]
        merged = np.sort(np.concatenate(desc))
        assert np.array_equal(merged, cube)
        assert sum(d.size for d in desc) == cube.size

    def test_descendants_depth_overflow(self, ultra6_family):
        E = ultra6_family.space.ids
        cc = circumscribed_cube(ultra6_family, 0, 0.05)
        with pytest.raises(ScaleExhaustedError) as err:
            dyadic_cover_count(ultra6_family, E, 0, 0.05, 20)
        system = ultra6_family.systems[cc.system_id]
        assert err.value.deepest_available == system.max_level - cc.level


class TestAdjacentFamily:
    def test_single_point_family(self):
        sp = MetricSpace(MetricDescriptor("euclidean"), coords=[[0.0]])
        fam = build_adjacent_family(sp, NetParams(), K_max=4, query_budget=10,
                                    target_ratio=16.0, seed=0, max_level=1)
        assert fam.K == 1 and fam.C_delta_hat == 1.0

    def test_ultrametric_single_system_suffices(self, ultra6_family):
        assert ultra6_family.K == 1
        assert ultra6_family.C_delta_hat <= 16.0
        assert not ultra6_family.best_effort

    def test_c_tilde_formula(self, ultra6_family):
        p = ultra6_family.params
        expect = 12.0 * p.C0 * ultra6_family.C_delta_hat / p.c0
        assert ultra6_family.C_tilde == pytest.approx(expect)

    def test_determinism(self, ultra6, params):
        a = build_adjacent_family(ultra6, params, K_max=3, query_budget=50,
                                  target_ratio=8.0, seed=3)
        b = build_adjacent_family(ultra6, params, K_max=3, query_budget=50,
                                  target_ratio=8.0, seed=3)
        assert a.K == b.K and a.C_delta_hat == b.C_delta_hat
        for sa, sb in zip(a.systems, b.systems):
            for la, lb in zip(sa.levels, sb.levels):
                assert np.array_equal(la.centers, lb.centers)

    def test_grid257_certificate_bounded(self, grid257, params):
        fam = build_adjacent_family(grid257, params, K_max=8, query_budget=300,
                                    target_ratio=64.0, seed=5)
        assert fam.C_delta_hat <= 64.0
        good = [q for q in fam.query_log if not q["degenerate"]]
        assert good and all(q["cert"] is not None for q in good)


class TestCircumscribed:
    def test_whole_space_ball_is_root(self, ultra6_family):
        cc = circumscribed_cube(ultra6_family, 0, 0.9999999999)
        assert cc.level == 0 and cc.index == 0
        system = ultra6_family.systems[cc.system_id]
        assert system.cubes_at(0)[cc.index].size == ultra6_family.space.n
        assert cc.diameter == system.diams_at(0)[0] == ultra6_family.space.diameter()

    def test_cylinder_balls(self, ultra6_family):
        space = ultra6_family.space
        x = 11
        for j in (1, 2, 3):
            cc = circumscribed_cube(ultra6_family, x, 1.5 * 16.0 ** -j)
            assert cc.level == j
            prefix = space.strings[x][:j]
            members = ultra6_family.systems[cc.system_id].cubes_at(j)[cc.index]
            assert {space.strings[m][:j] for m in members} == {prefix}

    def test_ball_contained_in_cube(self, cantor10_family):
        space = cantor10_family.space
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = int(rng.integers(space.n))
            R = float(16.0 ** -rng.integers(1, 4) * rng.uniform(0.5, 2.0))
            try:
                cc = circumscribed_cube(cantor10_family, x, R)
            except DegenerateBallError:
                continue
            members = space.ball_members(x, R)
            system = cantor10_family.systems[cc.system_id]
            cube = system.cubes_at(cc.level)[cc.index]
            assert np.setdiff1d(members, cube).size == 0
            assert cc.diameter == space.diameter(cube)
            # no system has a smaller cube holding the ball
            for other in cantor10_family.systems:
                for k in range(other.max_level + 1):
                    i = other.labels[k][x]
                    if np.all(other.labels[k][members] == i):
                        assert other.diams_at(k)[i] >= cc.diameter

    def test_degenerate_ball_rejected(self, cantor10_family):
        gap = cantor10_family.space.min_positive_distance()
        with pytest.raises(DegenerateBallError):
            circumscribed_cube(cantor10_family, 0, gap * 0.5)

    def test_level_independent_of_x_within_one(self, cantor10_family):
        space = cantor10_family.space
        rng = np.random.default_rng(9)
        for j in (1, 2, 3):
            R = float(space.descriptor.scale) * 16.0 ** -j
            levels = set()
            for x in rng.integers(space.n, size=40):
                try:
                    levels.add(circumscribed_cube(cantor10_family, int(x), R).level)
                except DegenerateBallError:
                    continue
            if levels:
                assert max(levels) - min(levels) <= 1, (j, levels)


class TestSerialization:
    def test_round_trip(self, ultra6, ultra6_family, tmp_path):
        path = tmp_path / "cubes.json"
        save_family(ultra6_family, path, points_hash="h1")
        back = load_family(path, ultra6, points_hash="h1")
        assert back.K == ultra6_family.K
        assert back.C_delta_hat == ultra6_family.C_delta_hat
        for sa, sb in zip(back.systems, ultra6_family.systems):
            for k in range(sa.max_level + 1):
                assert np.array_equal(sa.labels[k], sb.labels[k])

    def test_hash_mismatch_rejected(self, ultra6, ultra6_family, tmp_path):
        path = tmp_path / "cubes.json"
        save_family(ultra6_family, path, points_hash="h1")
        with pytest.raises(StaleCubesError):
            load_family(path, ultra6, points_hash="other")

    @pytest.mark.parametrize("dim", [1, 2])
    def test_deepest_centers_at_one_point_refused(self, dim, tmp_path):
        # every point listed twice: a deepest center's twin made a center too,
        # with the same parent; each labels itself, and the inner-ball check
        # finds the later twin nearer the earlier one
        coords = np.random.default_rng(2).uniform(size=(30, dim))
        space = MetricSpace(MetricDescriptor("euclidean"), coords=np.repeat(coords, 2, axis=0))
        path = tmp_path / "cubes.json"
        save_family(build_adjacent_family(space, NetParams(), K_max=1, query_budget=8,
                                          seed=3), path)
        doc = json.loads(path.read_text())
        system = doc["systems"][0]
        deepest = system["levels"][-1]["centers"]
        first = len(system["parents"]) - len(deepest)
        c, parent = system["parents"][first]
        twin = c ^ 1  # ids 2i and 2i + 1 are one point
        deepest.insert(0 if twin < c else 1, twin)
        system["parents"].insert(first + (twin > c), [twin, parent])
        write_cubes_doc(path, doc)
        with pytest.raises(StaleCubesError, match="fails property"):
            load_family(path, space)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_every_point_a_deepest_center_with_twins_refused(self, dim, tmp_path):
        # every point listed twice, and each twin of a deepest center made a
        # center too, so that every point is one: each labels itself, and the
        # inner-ball check, which reads each point's nearest center off the
        # lowest id at its place, finds the later twin nearer the earlier one
        coords = np.random.default_rng(2).uniform(size=(30, dim))
        space = MetricSpace(MetricDescriptor("euclidean"), coords=np.repeat(coords, 2, axis=0))
        path = tmp_path / "cubes.json"
        # far below the resolution, every distinct point is a deepest center
        save_family(build_adjacent_family(space, NetParams(), K_max=1, query_budget=8,
                                          seed=3, max_level=6), path)
        doc = json.loads(path.read_text())
        system = doc["systems"][0]
        deepest = system["levels"][-1]["centers"]
        assert len(deepest) == 30
        first = len(system["parents"]) - len(deepest)
        parent = dict(system["parents"][first:])
        system["levels"][-1]["centers"] = list(range(60))
        system["parents"][first:] = [[i, parent.get(i, parent.get(i ^ 1))] for i in range(60)]
        write_cubes_doc(path, doc)
        with pytest.raises(StaleCubesError, match="fails property iii_inner"):
            load_family(path, space)

    def test_corrupted_file_refused(self, ultra6, ultra6_family, tmp_path):
        path = tmp_path / "cubes.json"
        save_family(ultra6_family, path, points_hash="h1")
        doc = json.loads(path.read_text())
        # swap two deepest-level centers between sibling cubes
        levels = doc["systems"][0]["levels"]
        deepest = levels[-1]["centers"]
        deepest[0], deepest[1] = deepest[1], deepest[0]
        write_cubes_doc(path, doc)
        with pytest.raises(StaleCubesError):
            load_family(path, ultra6, points_hash="h1")
