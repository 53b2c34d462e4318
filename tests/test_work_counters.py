"""Work that the exact shortcuts must skip, counted by wrapping functions.

``greedy_cover_count`` takes a near set whole when its diameter is at most
r, and ``circumscribed_cube`` takes R_eff = R when twice the ball's
eccentricity reaches R. Ultrametric spaces read nets, nearest centers, rows
and balls off their sorted strings and never fill an n x n matrix; a matrix
space transforms its matrix once. Reloading
a family queries nearest centers once per system, and ``diams_at`` reads a
1-D or ultrametric level in one pass with no per-cube ``diameter`` call. A
Hausdorff fit finds the cubes meeting E once per level, not once per radius
and exponent, and ``verify`` reads each sandwich check's count off the
ball's local window, with no count of its own.
A 1-D or ultrametric pipeline never imports ``scipy.spatial``: a line reads
nets, nearest centers and balls off its sorted coordinates.
None of these changes an output, so losing one shows only in the work done
or the memory held; these counts make that fail the test suite.
"""

import json
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
from cubedim.dimensions import hausdorff_dim_estimate
from cubedim.metric import save_points
from cubedim.nets import NetParams


@pytest.fixture
def grow_calls(monkeypatch):
    calls = []
    grow_set = covering._grow_set

    def counting(*args):
        calls.append(args[1])
        return grow_set(*args)

    monkeypatch.setattr(covering, "_grow_set", counting)
    return calls


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
def line_family():
    """129 evenly spaced points on a line, ids in coordinate order."""
    space = MetricSpace(MetricDescriptor("euclidean"), coords=np.arange(129.0))
    return build_adjacent_family(space, NetParams(), K_max=2, query_budget=50, seed=3)


def test_evenly_spaced_cover_grows_no_block(grow_calls):
    space = MetricSpace(MetricDescriptor("euclidean"), coords=np.arange(200.0))
    # the near set of the first uncovered point is it and the next two
    assert greedy_cover_count(space, space.ids, 2.5) == 67
    assert grow_calls == []


def test_normalized_line_covers_grow_no_block(grid257, grow_calls):
    # r between two multiples of the gap: no near set's diameter is close to r
    for k in range(1, 40):
        r = (k + 0.5) / 256.0
        assert greedy_cover_count(grid257, grid257.ids, r) == -(-257 // (k + 1))
    assert grow_calls == []


@pytest.fixture
def row_calls(monkeypatch):
    """Full distance rows asked of a space or of its index."""
    calls = []

    def counting(fn):
        def wrapped(self, p):
            calls.append(p)
            return fn(self, p)
        return wrapped

    for cls in (MetricSpace, metric._Index, metric.PrefixIndex):
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
            if members.size < 2 or 2.0 * ecc < R * (1 + 1e-12):
                continue
            diameter_calls.clear()
            assert circumscribed_cube(line_family, x, R).R_eff == R
            assert diameter_calls == []
            decided += 1
    assert decided >= 50


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
    # the sandwich check reads D from the estimators' window, not from its own count
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


@pytest.mark.parametrize("fixture", ["line_family", "ultra6_family"])
def test_reload_reads_each_level_in_one_pass(request, fixture, tmp_path,
                                             nearest_center_calls, diameter_calls):
    family = request.getfixturevalue(fixture)
    path = tmp_path / "cubes.json"
    save_family(family, path)
    loaded = load_family(path, family.space)
    if family.space.descriptor.kind == "euclidean":
        # the labels' query; the inner-ball check pairs centers and points instead
        assert len(nearest_center_calls) == family.K
    diameter_calls.clear()
    for system in loaded.systems:
        for k in range(system.max_level + 1):
            system.diams_at(k)
    assert diameter_calls == []


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
# whether scipy.spatial was imported and how often the tree kernels ran
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
print(json.dumps({"codes": codes, "scipy": "scipy.spatial" in sys.modules, "calls": calls}))
"""


@pytest.mark.parametrize("gen,tree", [
    (["sequence", "--p", "1", "--nmax", "400"], False),
    (["sequence", "--p", "1", "--nmax", "400", "--snowflake", "0.5"], False),
    (["ultrametric_cantor", "--arity", "2", "--base", "0.0625", "--depth", "6"], False),
    (["grid", "--dim", "2", "--res", "0.0625"], True),
], ids=["line", "snowflaked-line", "ultrametric", "plane"])
def test_only_plane_pipelines_import_scipy(gen, tree, tmp_path, cubedim_env):
    r = subprocess.run([sys.executable, "-c", PIPELINE, *gen], cwd=tmp_path,
                       capture_output=True, text=True, env=cubedim_env)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout.splitlines()[-1])
    # the small plane has too few levels for the two fits, which exit 1 by design
    assert report["codes"] == [0, 0, 0] + ([1, 1] if tree else [0, 0])
    assert report["scipy"] is tree
    assert all((count > 0) is tree for count in report["calls"].values()), report
