import hashlib
import json
import subprocess
import sys

import pytest

from cubedim import cli, cubes, load_points, save_points
from cubedim.dimensions import local_windows

BASE = [sys.executable, "-m", "cubedim"]


@pytest.fixture(scope="module")
def run(cubedim_env):
    def run(*args, cwd):
        return subprocess.run(BASE + list(args), cwd=cwd, capture_output=True,
                              text=True, env=cubedim_env)
    return run


@pytest.fixture(scope="module")
def workspace(run, tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    r = run("gen", "ultrametric_cantor", "--arity", "2", "--base", "0.0625",
            "--depth", "5", "--out", "pts.json", cwd=ws)
    assert r.returncode == 0, r.stderr
    r = run("build", "--points", "pts.json", "--out", "cubes.json",
            "--seed", "3", "--systems", "4", "--budget", "120", cwd=ws)
    assert r.returncode == 0, r.stderr
    return ws


class TestGen:
    def test_cantor_gen(self, run, tmp_path):
        r = run("gen", "cantor", "--ratio", "0.3333333", "--depth", "4",
                "--out", "c.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        doc = json.loads((tmp_path / "c.json").read_text())
        assert len(doc["points"]) == 16

    def test_snowflake_flag(self, run, tmp_path):
        r = run("gen", "grid", "--dim", "1", "--res", "0.125",
                "--snowflake", "0.5", "--out", "g.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc["metric"]["kind"] == "snowflake"

    @pytest.mark.parametrize("args", [
        pytest.param(("grid", "--res", "0"), id="grid-res-0"),
        pytest.param(("grid", "--dim", "0"), id="grid-dim-0"),
        pytest.param(("grid", "--dim", "2", "--res", "nan"), id="grid-res-nan"),
        pytest.param(("ultrametric_cantor", "--depth", "-1"), id="ultrametric-depth-neg"),
        pytest.param(("ifs", "--maps", "[[0.5,0.1],[0.5,0.2,0.3]]"), id="ifs-mixed-maps"),
        pytest.param(("cantor", "--depth", "-2"), id="cantor-depth-neg"),
        pytest.param(("ifs", "--maps", "[[0.5]]"), id="ifs-map-without-offset"),
        pytest.param(("sequence", "--p", "nan"), id="sequence-p-nan"),
        pytest.param(("ifs", "--maps", "[0.5]"), id="ifs-map-not-a-list"),
        pytest.param(("ifs", "--maps", '[[0.5,"a"]]'), id="ifs-map-entry-not-a-number"),
    ])
    def test_bad_arguments_exit2_and_write_nothing(self, tmp_path, capsys, args):
        out = tmp_path / "x.json"
        assert cli.main(["gen", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "generator arguments" in err, err
        assert not out.exists()


# Python's json reads NaN and Infinity; a points file must not hold them
NON_FINITE = {
    "nan-1d": '{"metric": {"kind": "euclidean"}, "points": [[0.0], [NaN], [1.0]]}',
    "inf-1d": '{"metric": {"kind": "euclidean"}, "points": [[0.0], [Infinity], [1.0]]}',
    "nan-2d": ('{"metric": {"kind": "euclidean"}, '
               '"points": [[0.0, 0.0], [NaN, 1.0], [1.0, 1.0]]}'),
    "nan-matrix": '{"metric": {"kind": "matrix", "matrix": [1.0, NaN, 1.0]}}',
    "nan-scale": '{"metric": {"kind": "euclidean", "scale": NaN}, "points": [[0.0], [1.0]]}',
}


class TestBuild:
    @pytest.mark.parametrize("command", ["build", "doubling"])
    @pytest.mark.parametrize("name", sorted(NON_FINITE))
    def test_non_finite_points_exit2(self, tmp_path, capsys, name, command):
        pts, out = tmp_path / "pts.json", tmp_path / "cubes.json"
        pts.write_text(NON_FINITE[name])
        argv = [command, "--points", str(pts)]
        if command == "build":
            argv += ["--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err, err
        assert not out.exists()

    def test_build_reports_constants(self, run, workspace):
        r = run("build", "--points", "pts.json", "--out", "cubes2.json",
                "--seed", "3", "--systems", "2", "--budget", "60", cwd=workspace)
        assert r.returncode == 0, r.stderr
        assert "C_delta_hat=" in r.stdout and "C_tilde=" in r.stdout

    def test_constraint_violation_exit2(self, run, workspace):
        r = run("build", "--points", "pts.json", "--out", "bad.json",
                "--delta", "0.2", cwd=workspace)
        assert r.returncode == 2
        assert "12*C0*delta" in r.stderr

    def test_empty_points_file_exit2(self, run, tmp_path):
        (tmp_path / "empty.json").write_text("")
        r = run("build", "--points", "empty.json", "--out", "x.json", cwd=tmp_path)
        assert r.returncode == 2

    def test_repeated_point_builds(self, run, tmp_path):
        # the least gap is between distinct points: 0.5, not the repeat's 0
        (tmp_path / "dup.json").write_text(json.dumps(
            {"metric": {"kind": "euclidean"}, "points": [[0.0], [0.0], [0.5], [1.0]]}))
        r = run("build", "--points", "dup.json", "--out", "dup_cubes.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run("verify", "--points", "dup.json", "--cubes", "dup_cubes.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        # four points give too few levels for a fit: refused, not crashed
        for kind in ("box", "assouad"):
            r = run("estimate", kind, "--points", "dup.json", "--cubes", "dup_cubes.json",
                    cwd=tmp_path)
            assert r.returncode == 1 and r.stderr.startswith("error:"), r.stderr

    def test_coincident_points_box_is_zero(self, tmp_path, capsys):
        pts, cubes_file = str(tmp_path / "same.json"), str(tmp_path / "same_cubes.json")
        (tmp_path / "same.json").write_text(json.dumps(
            {"metric": {"kind": "euclidean"}, "points": [[0.5], [0.5], [0.5]]}))
        assert cli.main(["build", "--points", pts, "--out", cubes_file]) == 0
        assert cli.main(["verify", "--points", pts, "--cubes", cubes_file]) == 0
        capsys.readouterr()
        assert cli.main(["estimate", "box", "--points", pts, "--cubes", cubes_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["value"], doc["window"]) == (0.0, [0, 0])
        assert cli.main(["doubling", "--points", pts]) == 0
        assert json.loads(capsys.readouterr().out)["C_d_hat"] == 1

    def test_underflowing_gap_exit2(self, run, tmp_path):
        # base ** 2 underflows to 0.0 between distinct strings
        r = run("gen", "ultrametric_cantor", "--base", "1e-200", "--depth", "3",
                "--out", "tiny.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run("build", "--points", "tiny.json", "--out", "tiny_cubes.json", cwd=tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "underflows" in r.stderr, r.stderr


class TestEstimate:
    def test_box_value(self, run, workspace):
        r = run("estimate", "box", "--points", "pts.json", "--cubes", "cubes.json",
                cwd=workspace)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["kind"] == "box"
        assert abs(doc["value"] - 0.25) < 0.02

    def test_spectrum_requires_theta(self, run, workspace):
        r = run("estimate", "spectrum", "--points", "pts.json",
                "--cubes", "cubes.json", cwd=workspace)
        assert r.returncode == 2

    def test_spectrum_value(self, run, workspace):
        r = run("estimate", "spectrum", "--theta", "0.5", "--points", "pts.json",
                "--cubes", "cubes.json", cwd=workspace)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["theta"] == 0.5
        assert abs(doc["value"] - 0.25) < 0.02

    def test_byte_identical_reruns(self, run, workspace):
        for i in (1, 2):
            r = run("estimate", "hausdorff", "--points", "pts.json",
                    "--cubes", "cubes.json", "--out", f"est{i}.json", cwd=workspace)
            assert r.returncode == 0, r.stderr
        a = (workspace / "est1.json").read_bytes()
        b = (workspace / "est2.json").read_bytes()
        assert a == b

    def test_dump_csv(self, run, workspace):
        r = run("estimate", "assouad", "--points", "pts.json", "--cubes", "cubes.json",
                "--dump", "counts.csv", "--out", "est.json", cwd=workspace)
        assert r.returncode == 0, r.stderr
        lines = (workspace / "counts.csv").read_text().splitlines()
        assert lines[0] == "x_id,R,m,D,max_cube_diameter"
        assert len(lines) > 2

    def test_dump_is_the_estimates_window_table(self, tmp_path, capsys):
        # 128 points, so a budget of 80 samples fewer than all of them
        pts, cubes_file = str(tmp_path / "pts.json"), str(tmp_path / "cubes.json")
        assert cli.main(["gen", "cantor", "--depth", "7", "--out", pts]) == 0
        assert cli.main(["build", "--points", pts, "--out", cubes_file, "--seed", "1",
                         "--systems", "2", "--budget", "40"]) == 0
        dump = tmp_path / "counts.csv"
        assert cli.main(["estimate", "assouad", "--points", pts, "--cubes", cubes_file,
                         "--budget", "80", "--seed", "5", "--dump", str(dump)]) == 0
        capsys.readouterr()
        family = cubes.load_family(cubes_file, load_points(pts))
        want = [f"{w.x},{w.R:.12g},{m},{w.counts[m]},{w.max_diams[m]:.12g}"
                for w in local_windows(family, family.space.ids, 80, 5)
                for m in range(1, w.depth + 1)]
        assert dump.read_text().splitlines()[1:] == want

    def test_snowflaked_ultrametric_keeps_its_exponent(self, tmp_path, capsys):
        # d = (16^-lcp)^(1/2) halves the box dimension of the binary tree: 0.5
        pts, cubes_file = str(tmp_path / "snow.json"), str(tmp_path / "snow_cubes.json")
        assert cli.main(["gen", "ultrametric_cantor", "--arity", "2", "--base", "0.0625",
                         "--depth", "8", "--snowflake", "0.5", "--out", pts]) == 0
        assert cli.main(["build", "--points", pts, "--out", cubes_file]) == 0
        capsys.readouterr()
        assert cli.main(["estimate", "box", "--points", pts, "--cubes", cubes_file]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.5

    def test_stale_cubes_exit2(self, run, workspace, tmp_path):
        r = run("gen", "cantor", "--depth", "3", "--out", "other.json", cwd=workspace)
        assert r.returncode == 0, r.stderr
        r = run("estimate", "box", "--points", "other.json", "--cubes", "cubes.json",
                cwd=workspace)
        assert r.returncode == 2
        assert "different points file" in r.stderr


class TestMatrixKind:
    # no benchmark workload has a matrix space; these digests were recorded
    # when the matrix kind still ran through a dense distance cache
    CUBES_SHA256 = "9a78f496c24c52007a33d9840667c05d157309f99008c95b9cf62656c8ea4d3f"
    BOX_SHA256 = "4395070fa1e0f6463cb715de94801b12562c106a3a627afe9e02a1513a9c75c8"

    def test_build_and_box_bytes_are_pinned(self, graph40, tmp_path, capsys):
        pts, cubes_file, box = (str(tmp_path / name)
                                for name in ("pts.json", "cubes.json", "box.json"))
        save_points(graph40, pts)
        assert cli.main(["build", "--points", pts, "--out", cubes_file, "--seed", "7",
                         "--systems", "3", "--budget", "40", "--target-ratio", "1.5"]) == 0
        assert cli.main(["estimate", "box", "--points", pts, "--cubes", cubes_file,
                         "--out", box]) == 0
        capsys.readouterr()
        digests = [hashlib.sha256(open(path, "rb").read()).hexdigest()
                   for path in (cubes_file, box)]
        assert digests == [self.CUBES_SHA256, self.BOX_SHA256]


class TestVerify:
    def test_fresh_build_passes(self, run, workspace):
        r = run("verify", "--points", "pts.json", "--cubes", "cubes.json",
                "--budget", "30", cwd=workspace)
        assert r.returncode == 0, r.stdout + r.stderr
        assert "FAIL" not in r.stdout
        assert "sandwich_N_le_D | pass" in r.stdout

    def test_shuffled_parent_list_refused(self, run, workspace):
        doc = json.loads((workspace / "cubes.json").read_text())
        deepest = doc["systems"][0]["levels"][-1]["centers"]
        deepest[0], deepest[1] = deepest[1], deepest[0]
        (workspace / "tampered.json").write_text(json.dumps(doc))
        r = run("verify", "--points", "pts.json", "--cubes", "tampered.json",
                cwd=workspace)
        assert r.returncode == 2

    def test_decimated_net_fails_property_check(self, run, workspace):
        doc = json.loads((workspace / "cubes.json").read_text())
        system = doc["systems"][0]
        deepest = system["levels"][-1]["centers"]
        n_deep = len(deepest)
        survivors = deepest[::2]
        # parents are stored level by level with the deepest children last
        prefix = system["parents"][:len(system["parents"]) - n_deep]
        deep_pairs = system["parents"][len(system["parents"]) - n_deep:]
        by_child = {c: [c, p] for c, p in deep_pairs}
        system["levels"][-1]["centers"] = survivors
        system["parents"] = prefix + [by_child[c] for c in survivors]
        (workspace / "decimated.json").write_text(json.dumps(doc))
        r = run("verify", "--points", "pts.json", "--cubes", "decimated.json",
                cwd=workspace)
        assert r.returncode == 2
        assert "fails property" in r.stderr


def _drop_key(doc):
    del doc["C_tilde"]


def _truncate_parents(doc):
    doc["systems"][0]["parents"].pop()


def _unknown_parent(doc):
    system = doc["systems"][0]
    shallower = set(system["levels"][-2]["centers"])
    system["parents"][-1][1] = min(set(range(64)) - shallower)


def _center_out_of_range(doc):
    system = doc["systems"][0]
    deepest = system["levels"][-1]["centers"]
    # the space has 32 points; the deepest level's first center's pair is
    # the first of the deepest level's pairs
    system["parents"][len(system["parents"]) - len(deepest)][0] = deepest[0] = 32


def _root_only(doc):
    for system in doc["systems"]:
        system["levels"] = system["levels"][:1]
        system["parents"] = []


def _two_roots(doc):
    # the 32 ids are the binary strings of length 5 in order: id // 16 is the top branch
    system = doc["systems"][0]
    (root,) = system["levels"][0]["centers"]
    level1 = system["levels"][1]["centers"]
    other = [c for c in level1 if c // 16 != root // 16]
    system["levels"][0]["centers"] = sorted([root, other[0]])
    for pair in system["parents"][:len(level1)]:
        if pair[0] in other:
            pair[1] = other[0]


# how a cubes file is damaged: None leaves no file, a string replaces the text,
# a function edits the parsed document of a good file
DAMAGES = {
    "missing-file": None,
    "invalid-json": '{"systems": [',
    "missing-key": _drop_key,
    "truncated-parents": _truncate_parents,
    "unknown-parent": _unknown_parent,
    "center-out-of-range": _center_out_of_range,
    "root-only": _root_only,
    "two-roots": _two_roots,
}


def _write_damaged(workspace, damage):
    how = DAMAGES[damage]
    path = workspace / f"damaged-{damage}.json"
    if isinstance(how, str):
        path.write_text(how)
    elif how is not None:
        doc = json.loads((workspace / "cubes.json").read_text())
        how(doc)
        path.write_text(json.dumps(doc))
    return path


class TestDamagedCubesFile:
    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_verify_exit2_without_traceback(self, run, workspace, damage):
        path = _write_damaged(workspace, damage)
        r = run("verify", "--points", "pts.json", "--cubes", path.name, cwd=workspace)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error:"), r.stderr
        assert "Traceback" not in r.stderr

    def test_two_roots_refused_by_estimate(self, run, workspace):
        # every containing-cube query ends at the one level-0 cube
        path = _write_damaged(workspace, "two-roots")
        r = run("estimate", "box", "--points", "pts.json", "--cubes", path.name,
                cwd=workspace)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error:") and "level 0" in r.stderr, r.stderr


class TestDoubling:
    def test_doubling_report(self, run, workspace):
        r = run("doubling", "--points", "pts.json", "--budget", "16", cwd=workspace)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert 1 <= doc["C_d_hat"] <= 16


class TestEdgeSurfaces:
    def test_explicit_window(self, run, workspace):
        r = run("estimate", "box", "--points", "pts.json", "--cubes", "cubes.json",
                "--window", "1", "4", cwd=workspace)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["window"] == [1, 2, 3, 4]
        assert abs(doc["value"] - 0.25) < 0.02

    def test_system_index_out_of_range(self, run, workspace):
        r = run("estimate", "hausdorff", "--points", "pts.json",
                "--cubes", "cubes.json", "--system", "99", cwd=workspace)
        assert r.returncode == 2
        assert "out of range" in r.stderr

    @pytest.mark.parametrize("flag,args", [
        ("--theta", ("estimate", "spectrum", "--theta", "1.5", "--cubes", "cubes.json")),
        ("--budget", ("doubling", "--budget", "0")),
        # a sandwich pass with no sample behind it, and a sampler asked for -1 points
        ("--budget", ("verify", "--budget", "0", "--cubes", "cubes.json")),
        ("--budget", ("estimate", "spectrum", "--theta", "0.5", "--budget", "-1",
                      "--cubes", "cubes.json")),
        ("--budget", ("estimate", "assouad", "--budget", "-1", "--cubes", "cubes.json")),
        # NumPy's seed sequences refuse a negative seed
        ("--seed", ("build", "--seed", "-1", "--out", "seeded.json")),
        ("--seed", ("verify", "--seed", "-1", "--cubes", "cubes.json")),
        ("--seed", ("doubling", "--seed", "-1")),
        ("--seed", ("estimate", "assouad", "--seed", "-1", "--budget", "4",
                    "--cubes", "cubes.json", "--out", "seeded.json")),
    ])
    def test_out_of_range_argument_exit2(self, run, workspace, flag, args):
        before = sorted(p.name for p in workspace.iterdir())
        r = run(*args, "--points", "pts.json", cwd=workspace)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and flag in r.stderr, r.stderr
        assert r.stdout == "" and sorted(p.name for p in workspace.iterdir()) == before

    @pytest.mark.parametrize("args", [
        ("estimate", "box", "--delta", "0.05"),
        ("verify", "--c0", "1"),
    ])
    def test_net_params_are_build_only(self, run, workspace, args):
        # estimate and verify take delta, c0 and C0 from the cubes file
        r = run(*args, "--points", "pts.json", "--cubes", "cubes.json", cwd=workspace)
        assert r.returncode == 2
        assert "unrecognized arguments" in r.stderr, r.stderr

    def test_gen_bad_arguments_exit2(self, run, tmp_path):
        r = run("gen", "ifs", "--out", "x.json", cwd=tmp_path)
        assert r.returncode == 2
        assert "generator arguments" in r.stderr

    def test_levels_hard_cap_exit2(self, run, workspace):
        r = run("build", "--points", "pts.json", "--out", "deep.json",
                "--levels", "50", cwd=workspace)
        assert r.returncode == 2
        assert "hard cap" in r.stderr

    def test_levels_zero_exit2(self, run, workspace):
        # a family samples its queries below the root: level 0 alone has none
        r = run("build", "--points", "pts.json", "--out", "flat.json",
                "--levels", "0", cwd=workspace)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "max_level >= 1" in r.stderr, r.stderr

    def test_singleton_space_pipeline(self, run, tmp_path):
        (tmp_path / "one.json").write_text(
            json.dumps({"metric": {"kind": "euclidean"}, "points": [[0.5]]}))
        r = run("build", "--points", "one.json", "--out", "one_cubes.json",
                cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run("estimate", "box", "--points", "one.json",
                "--cubes", "one_cubes.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["value"] == 0.0


class TestSingleCheckPass:
    def test_build_and_verify_check_each_system_once(self, tmp_path, monkeypatch,
                                                     capsys):
        calls = []
        check = cubes._check_inner_balls

        def counted(system):
            calls.append(system.system_id)
            return check(system)

        monkeypatch.setattr(cubes, "_check_inner_balls", counted)
        pts, cubes_file = str(tmp_path / "pts.json"), str(tmp_path / "cubes.json")
        assert cli.main(["gen", "ultrametric_cantor", "--arity", "2", "--base", "0.0625",
                         "--depth", "5", "--out", pts]) == 0
        # an unreachable target ratio makes the family take all K_max systems
        assert cli.main(["build", "--points", pts, "--out", cubes_file, "--seed", "3",
                         "--systems", "3", "--budget", "120",
                         "--target-ratio", "4"]) == 0
        K = len(json.loads((tmp_path / "cubes.json").read_text())["systems"])
        assert K == 3
        assert sorted(calls) == list(range(K))

        calls.clear()
        capsys.readouterr()
        assert cli.main(["verify", "--points", pts, "--cubes", cubes_file,
                         "--budget", "30"]) == 0
        assert sorted(calls) == list(range(K))
        out = capsys.readouterr().out
        for sid in range(K):
            assert f"system-{sid} | iii_inner | pass" in out
