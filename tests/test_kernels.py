"""Contracts of the NumPy kernels in ``cubedim.kernels``.

Dyadic-rational inputs make every distance comparison exact in float64, so
separation and maximality can be checked exactly there, with no tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cubedim import kernels


def dyadic_coords(n, dim, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 257, size=(n, dim)).astype(np.float64) / 256.0


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


class TestNearest:
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
        net = kernels.greedy_net_coords(coords, order, thr)
        assert_separated_and_maximal(coords, order, net, thr)

    @given(st.integers(min_value=0, max_value=119), st.integers(min_value=1, max_value=2))
    @settings(max_examples=15, deadline=None)
    def test_separated_and_maximal_on_random_rotations(self, offset, dim):
        coords = dyadic_coords(120, dim, 4)
        order = np.concatenate([np.arange(offset, 120), np.arange(offset)]).astype(np.int64)
        net = kernels.greedy_net_coords(coords, order, 1 / 16)
        assert_separated_and_maximal(coords, order, net, 1 / 16)
        dmat = kernels.pairwise_distances(coords)
        assert np.array_equal(kernels.greedy_net_matrix(dmat, order, 1 / 16), net)
