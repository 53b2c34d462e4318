import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubedim import (InvalidArgumentError, MetricDescriptor, MetricSpace,
                     PointsFileError, load_points, save_points)


def euclid(coords):
    return MetricSpace(MetricDescriptor("euclidean"), coords=np.asarray(coords, dtype=float))


class TestDistance:
    def test_same_id_is_zero(self):
        sp = euclid([[0.0, 0.0], [3.0, 4.0]])
        assert sp.distance(1, 1) == 0.0

    def test_pythagorean(self):
        sp = euclid([[0.0, 0.0], [3.0, 4.0]])
        assert sp.distance(0, 1) == 5.0

    def test_ultrametric_lcp(self):
        strings = ["0110", "0101"]
        sp = MetricSpace(MetricDescriptor("ultrametric", arity=2, base=1 / 16),
                         strings=strings)
        # lcp("0110", "0101") = 2
        assert sp.distance(0, 1) == pytest.approx(16.0 ** -2)
        assert sp.distance(0, 1) == 0.00390625

    def test_unknown_id_rejected(self):
        sp = euclid([[0.0], [1.0]])
        with pytest.raises(InvalidArgumentError):
            sp.distance(0, 5)

    @pytest.mark.parametrize("upper", [1.0 + 2 ** -52])
    def test_asymmetric_matrix_rejected(self, upper):
        m = np.array([[0.0, upper], [1.0, 0.0]])
        with pytest.raises(InvalidArgumentError, match="symmetric"):
            MetricSpace(MetricDescriptor("matrix"), matrix=m)

    @pytest.mark.parametrize("upper", [np.nan, np.inf])
    def test_non_finite_matrix_entry_rejected(self, upper):
        # refused as non-finite before any other check: a NaN also breaks symmetry
        m = np.array([[0.0, upper], [1.0, 0.0]])
        with pytest.raises(InvalidArgumentError, match="finite"):
            MetricSpace(MetricDescriptor("matrix"), matrix=m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(InvalidArgumentError, match="finite"):
            euclid([[0.0, 0.0], [bad, 1.0]])

    @pytest.mark.parametrize("entry", [0.0, -0.0, -1.0])
    def test_nonpositive_off_diagonal_rejected(self, entry):
        m = np.array([[0.0, 1.0, entry], [1.0, 0.0, 1.0], [entry, 1.0, 0.0]])
        with pytest.raises(InvalidArgumentError, match="positive"):
            MetricSpace(MetricDescriptor("matrix"), matrix=m)

    def test_negative_zero_diagonal_accepted(self):
        m = np.array([[-0.0, 1.0], [1.0, 0.0]])
        assert MetricSpace(MetricDescriptor("matrix"), matrix=m).distance(0, 1) == 1.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        sp = euclid(rng.uniform(size=(40, 3)))
        for p, q in rng.integers(40, size=(100, 2)):
            assert sp.distance(int(p), int(q)) == sp.distance(int(q), int(p))


def paired_spaces():
    """One small space of each metric kind, each with a non-trivial transform."""
    from cubedim import GeneratorSpec, generate

    rng = np.random.default_rng(8)
    pts = rng.uniform(size=(40, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    matrix = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    ultra = generate(GeneratorSpec(kind="ultrametric_cantor", arity=2, base=1 / 16, depth=5))
    return {
        "euclidean": euclid(rng.uniform(size=(40, 3))).rescaled(1.7),
        "snowflake": euclid(rng.uniform(size=(40, 1))).snowflaked(0.6).rescaled(3.0),
        "ultrametric": ultra.snowflaked(0.5).rescaled(0.9),
        "matrix": MetricSpace(MetricDescriptor("matrix"), matrix=matrix).rescaled(1.3),
    }


class TestPairDistances:
    @pytest.mark.parametrize("kind", ["euclidean", "snowflake", "ultrametric", "matrix"])
    @pytest.mark.parametrize("dense_first", [True, False])
    def test_bitwise_equal_to_distance(self, kind, dense_first):
        # the space builds its index on first use: by distance_matrix(), or
        # by pair_distances() with the dense matrix taken last
        sp = paired_spaces()[kind]
        assert sp.descriptor.kind == kind
        dense = sp.distance_matrix() if dense_first else None
        rng = np.random.default_rng(9)
        a = rng.integers(sp.n, size=300)
        b = rng.integers(sp.n, size=300)
        b[:30] = a[:30]  # include a == b
        got = sp.pair_distances(a, b)
        assert got.dtype == np.float64 and got.shape == (300,)
        one_by_one = np.array([sp.distance(int(p), int(q)) for p, q in zip(a, b)])
        by_row = np.array([sp.row(int(p))[q] for p, q in zip(a, b)])
        assert got.tobytes() == one_by_one.tobytes()
        assert got.tobytes() == by_row.tobytes()
        if dense is None:
            dense = sp.distance_matrix()
        assert got.tobytes() == dense[a, b].tobytes()
        assert np.all(got[:30] == 0.0)


class TestBallMembers:
    def test_whole_space_for_large_radius(self):
        sp = euclid([[0.0], [0.3], [0.9]])
        assert list(sp.ball_members(0, 10.0)) == [0, 1, 2]

    def test_singleton_space(self):
        sp = euclid([[0.5]])
        assert list(sp.ball_members(0, 0.01)) == [0]

    def test_line_grid_example(self):
        sp = euclid([0.0, 0.25, 0.5, 0.75, 1.0])
        members = sp.ball_members(2, 0.3)
        assert [float(sp.coords[m, 0]) for m in members] == [0.25, 0.5, 0.75]

    def test_strict_inequality(self):
        sp = euclid([0.0, 1.0])
        assert list(sp.ball_members(0, 1.0)) == [0]

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(1)
        sp = euclid(rng.uniform(size=(60, 2)))
        for x in range(0, 60, 7):
            prev = set()
            for r in [0.05, 0.1, 0.2, 0.5, 1.0, 2.0]:
                cur = set(sp.ball_members(x, r))
                assert prev <= cur
                prev = cur

    def test_tree_path_matches_row_path(self):
        """Coordinate balls come from a cKDTree at every n; the oracle scans a row
        computed as ``row`` computes it, with radii exactly at member distances."""
        rng = np.random.default_rng(2)
        lattice = rng.integers(0, 9, size=(300, 2)) / 8.0
        for sp in (euclid(rng.uniform(size=(300, 2))), euclid(lattice),
                   euclid(lattice).snowflaked(0.5).rescaled(3.0)):
            for x in (0, 17, 255):
                diff = sp.coords - sp.coords[x]
                row = sp.descriptor.transform(np.sqrt(np.einsum("ij,ij->i", diff, diff)))
                for r in (0.05, 0.3, 0.9, *np.unique(row)[1:40:3]):
                    for radius in (r, np.nextafter(r, np.inf)):
                        want = np.flatnonzero(row < radius)
                        got = sp.ball_members(x, radius)
                        assert got.dtype == np.int64 and np.array_equal(got, want)


class TestDiameter:
    def test_singleton(self):
        sp = euclid([[0.0], [1.0]])
        assert sp.diameter([0]) == 0.0

    def test_endpoints(self):
        sp = euclid([0.0, 1.0])
        assert sp.diameter([0, 1]) == 1.0

    def test_ultrametric_full_depth3(self):
        from cubedim import GeneratorSpec, generate

        sp = generate(GeneratorSpec(kind="ultrametric_cantor", arity=2, base=1 / 16, depth=3))
        assert sp.diameter() == 1.0

    def test_empty_rejected(self):
        sp = euclid([0.0, 1.0])
        with pytest.raises(InvalidArgumentError):
            sp.diameter([])

    def test_2d_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(size=(50, 2))
        sp = euclid(coords)
        ids = np.arange(50)
        brute = max(np.linalg.norm(coords[i] - coords[j])
                    for i in range(50) for j in range(i + 1, 50))
        assert sp.diameter(ids) == pytest.approx(brute, rel=1e-12)

    def test_collinear_2d_above_hull_threshold(self):
        # more than 2048 points on the line y = x have no 2-D convex hull
        t = np.linspace(0.0, 1.0, 3000)
        sp = euclid(np.column_stack([t, t]))
        assert sp.diameter() == sp.distance(0, 2999)


class TestTransforms:
    @given(st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_snowflake_pointwise(self, eps):
        rng = np.random.default_rng(4)
        sp = euclid(rng.uniform(size=(20, 2)))
        snow = sp.snowflaked(eps)
        for p in range(0, 20, 3):
            for q in range(0, 20, 5):
                assert snow.distance(p, q) == pytest.approx(sp.distance(p, q) ** eps,
                                                            rel=1e-12)

    def test_snowflake_identity(self):
        sp = euclid([[0.0], [0.6]])
        assert sp.snowflaked(1.0).distance(0, 1) == sp.distance(0, 1)

    def test_rescale(self):
        sp = euclid([[0.0], [0.5]])
        assert sp.rescaled(2.0).distance(0, 1) == pytest.approx(1.0)

    def test_normalized_diameter(self):
        rng = np.random.default_rng(5)
        sp = euclid(rng.uniform(size=(30, 2)) * 7.0)
        norm = sp.normalized()
        assert norm.diameter() == pytest.approx(1.0 - 1e-9, rel=1e-9)

    def test_triangle_inequality_10k_triples(self, ultra4):
        rng = np.random.default_rng(6)
        spaces = [euclid(rng.uniform(size=(30, 2))),
                  euclid(rng.uniform(size=(30, 1))).snowflaked(0.5),
                  ultra4]
        for space in spaces:
            m = space.distance_matrix()
            ids = rng.integers(space.n, size=(10000, 3))
            p, q, s = ids[:, 0], ids[:, 1], ids[:, 2]
            lhs = m[p, q]
            rhs = m[p, s] + m[s, q]
            assert np.all(lhs <= rhs * (1 + 1e-12))

    def test_ultrametric_strong_triangle(self, ultra4):
        m = ultra4.distance_matrix()
        rng = np.random.default_rng(7)
        ids = rng.integers(ultra4.n, size=(2000, 3))
        p, q, s = ids[:, 0], ids[:, 1], ids[:, 2]
        assert np.all(m[p, q] <= np.maximum(m[p, s], m[s, q]) * (1 + 1e-12))


class TestMinGap:
    def test_coordinates_exact_least_distance(self):
        # the kd-tree's own distances round differently in the last ulp
        rng = np.random.default_rng(11)
        for _ in range(400):
            n = int(rng.integers(2, 30))
            pts = rng.uniform(size=(n, int(rng.integers(2, 4))))
            if rng.random() < 0.5:  # repeated points are not distinct
                pts = pts[rng.integers(n, size=n + 3)]
            sp = euclid(pts)
            if rng.random() < 0.5:
                sp = sp.snowflaked(0.5)
            d = sp.distance_matrix()
            assert sp.min_positive_distance() == d[d > 0].min()

    def test_one_distinct_point_has_no_gap(self):
        assert euclid([[0.5, 1.0]] * 3).min_positive_distance() == float("inf")


class TestDoubling:
    def test_single_point(self):
        sp = euclid([[0.0]])
        est = sp.estimate_doubling(sample_count=4, rng_seed=0)
        assert est.C_d_hat == 1

    def test_grid_1024_bounded(self):
        sp = euclid(np.arange(1024) / 1023.0)
        est = sp.estimate_doubling(sample_count=24, rng_seed=1)
        assert 1 <= est.C_d_hat <= 5

    def test_ultrametric_depth4_bounded(self, ultra4):
        est = ultra4.estimate_doubling(sample_count=24, rng_seed=1)
        assert 1 <= est.C_d_hat <= 16

    def test_monotone_in_samples(self):
        sp = euclid(np.arange(200) / 199.0)
        small = sp.estimate_doubling(sample_count=8, rng_seed=3)
        large = sp.estimate_doubling(sample_count=32, rng_seed=3)
        assert large.C_d_hat >= small.C_d_hat


class TestPointsFiles:
    def test_round_trip_euclidean(self, tmp_path):
        sp = euclid([[0.0, 0.0], [0.25, 0.5]])
        path = tmp_path / "pts.json"
        save_points(sp, path)
        back = load_points(path)
        assert back.n == 2
        assert back.distance(0, 1) == sp.distance(0, 1)

    def test_round_trip_ultrametric(self, tmp_path, ultra4):
        path = tmp_path / "u.json"
        save_points(ultra4, path)
        back = load_points(path)
        assert back.distance(0, 3) == ultra4.distance(0, 3)

    @pytest.mark.parametrize("kind", ["euclidean", "snowflake", "ultrametric", "matrix"])
    def test_round_trip_keeps_descriptor(self, tmp_path, kind):
        like = paired_spaces()[kind]
        desc = MetricDescriptor(kind, epsilon=0.6, arity=like.descriptor.arity,
                                base=like.descriptor.base, scale=1.7)
        sp = MetricSpace(desc, coords=like.coords, strings=like.strings,
                         matrix=like.distance_matrix() if kind == "matrix" else None)
        path = tmp_path / "pts.json"
        save_points(sp, path)
        back = load_points(path)
        assert back.descriptor == desc
        assert back.distance_matrix().tobytes() == sp.distance_matrix().tobytes()

    def test_matrix_kind(self, tmp_path):
        doc = {"metric": {"kind": "matrix", "matrix": [1.0, 2.0, 1.5]}, "points": [0, 1, 2]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        sp = load_points(path)
        assert sp.distance(1, 0) == 1.0
        assert sp.distance(2, 1) == 1.5
        resaved, again = tmp_path / "m2.json", tmp_path / "m3.json"
        save_points(sp, resaved)
        assert json.loads(resaved.read_text())["metric"]["matrix"] == [1.0, 2.0, 1.5]
        save_points(load_points(resaved), again)
        assert again.read_bytes() == resaved.read_bytes()

    @pytest.mark.parametrize("entry", ["a", None, [1.0]])
    def test_matrix_malformed_entry_rejected(self, tmp_path, entry):
        doc = {"metric": {"kind": "matrix", "matrix": [1.0, entry, 1.5]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PointsFileError):
            load_points(path)

    def test_matrix_triangle_violation_rejected(self, tmp_path):
        doc = {"metric": {"kind": "matrix", "matrix": [1.0, 10.0, 1.0]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PointsFileError):
            load_points(path)

    def test_malformed_file_diagnostic(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text("{not json")
        with pytest.raises(PointsFileError, match="cannot parse"):
            load_points(path)

    def test_missing_points_field(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"metric": {"kind": "euclidean"}}))
        with pytest.raises(PointsFileError, match="points"):
            load_points(path)
