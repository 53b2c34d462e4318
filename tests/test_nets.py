import dataclasses

import numpy as np
import pytest

from cubedim import ConfigurationError, MetricDescriptor, MetricSpace
from cubedim.nets import NetLevel, NetParams, build_net, nearest_center, verify_net


class TestParams:
    def test_default_satisfies_constraint(self):
        NetParams()

    def test_constraint_violation_named(self):
        with pytest.raises(ConfigurationError, match=r"12\*C0\*delta"):
            NetParams(delta=0.2, c0=1.0, C0=1.0)

    def test_c0_above_C0_rejected(self):
        with pytest.raises(ConfigurationError):
            NetParams(c0=2.0, C0=1.0)

    def test_delta_range(self):
        with pytest.raises(ConfigurationError):
            NetParams(delta=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"delta": float("nan")}, {"c0": float("nan")}, {"C0": float("nan")},
        {"delta": float("inf")}, {"c0": float("inf"), "C0": float("inf")},
    ])
    def test_non_finite_rejected(self, kwargs):
        # every comparison with nan is false, and inf <= inf holds
        with pytest.raises(ConfigurationError):
            NetParams(**kwargs)

    def test_replace_is_checked(self):
        with pytest.raises(ConfigurationError, match=r"12\*C0\*delta"):
            dataclasses.replace(NetParams(), delta=0.2)


class TestBuildNet:
    def test_single_point(self):
        sp = MetricSpace(MetricDescriptor("euclidean"), coords=[[0.25]])
        net = build_net(sp, 3, NetParams(), seed=9)
        assert list(net.centers) == [0]

    def test_grid257_level1_count(self, grid257):
        # 1/16-separated maximal subsets of the unit-interval grid
        for seed in range(6):
            net = build_net(grid257, 1, NetParams(), seed=seed)
            assert 16 <= net.centers.size <= 17

    def test_ultrametric_level2_one_per_prefix(self, ultra4):
        norm = ultra4.rescaled(ultra4.normalizing_factor())
        net = build_net(norm, 2, NetParams(), seed=1)
        assert net.centers.size == 4
        prefixes = {norm.strings[c][:2] for c in net.centers}
        assert prefixes == {"00", "01", "10", "11"}

    def test_determinism(self, grid257):
        a = build_net(grid257, 2, NetParams(), seed=11)
        b = build_net(grid257, 2, NetParams(), seed=11)
        assert np.array_equal(a.centers, b.centers)

    def test_distinct_seeds_distinct_nets(self, grid257):
        nets = {tuple(build_net(grid257, 1, NetParams(), seed=s).centers)
                for s in range(8)}
        assert len(nets) > 1

    def test_constraint_checked(self, grid257):
        with pytest.raises(ConfigurationError):
            build_net(grid257, 1, NetParams(delta=0.5), seed=0)


class TestVerifyNet:
    def test_built_nets_pass(self, grid257, ultra4):
        for space in (grid257, ultra4.rescaled(ultra4.normalizing_factor())):
            for k in (0, 1, 2):
                net = build_net(space, k, NetParams(), seed=3)
                chk = verify_net(space, net)
                assert chk.separation_ok and chk.covering_ok
                assert chk.worst_covering_ratio <= 1.0 + 1e-9

    def test_handcrafted_separation_violation(self, grid257):
        # two centers at half the required separation
        params = NetParams()
        bad = NetLevel(k=1, centers=np.array([0, 8]), params=params, seed=0)
        chk = verify_net(grid257, bad)
        assert not chk.separation_ok
        assert chk.worst_separation_ratio < 1.0

    def test_grid_covering_ratio(self, grid257):
        net = build_net(grid257, 1, NetParams(), seed=2)
        chk = verify_net(grid257, net)
        assert chk.worst_covering_ratio <= 1.0

    def test_mismatched_space_rejected(self, grid257):
        from cubedim import InvalidArgumentError

        bad = NetLevel(k=0, centers=np.array([400]), params=NetParams(), seed=0)
        with pytest.raises(InvalidArgumentError):
            verify_net(grid257, bad)


class TestMaximality:
    def test_every_noncenter_within_separation(self, grid257):
        params = NetParams()
        for k in (1, 2):
            net = build_net(grid257, k, params, seed=4)
            _, dist = nearest_center(grid257, net.centers)
            noncenters = np.setdiff1d(np.arange(grid257.n), net.centers)
            if noncenters.size:
                assert float(dist[noncenters].max()) < params.separation(k) * (1 + 1e-9)
