import hashlib
import json
import subprocess
import sys

import pytest
from conftest import write_cubes_doc

from cubedim import MetricDescriptor, MetricSpace, cli, cubes, load_points, save_points
from cubedim.dimensions import local_windows
from cubedim.nets import NetParams

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
        pytest.param(("ultrametric_cantor", "--arity", "37", "--depth", "2"),
                     id="ultrametric-arity-37"),
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

    @pytest.mark.parametrize("command", [["build", "--out", "x.json"], ["doubling"],
                                         ["verify", "--cubes", "x.json"],
                                         ["estimate", "box", "--cubes", "x.json"]],
                             ids=lambda c: c[0])
    def test_points_without_axes_exit2(self, tmp_path, capsys, command):
        pts = tmp_path / "pts.json"
        pts.write_text('{"metric": {"kind": "euclidean"}, "points": [[], [], []]}')
        assert cli.main([command[0], "--points", str(pts), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "axis" in err, err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("metric", [
        pytest.param('"kind": "ultrametric", "arity": 2.9, "base": 0.5', id="arity-fraction"),
        pytest.param('"kind": "ultrametric", "arity": true, "base": 0.5', id="arity-true"),
        pytest.param('"kind": "ultrametric", "arity": 2, "base": "0.5"', id="base-string"),
        pytest.param('"kind": "euclidean", "epsilon": true', id="epsilon-true"),
        pytest.param('"kind": "euclidean", "scale": "2"', id="scale-string"),
        pytest.param('"kind": "matrix", "matrix": [1.0, "1.0", 1.0]', id="matrix-string"),
        pytest.param('"kind": "matrix", "matrix": [1.0, true, 1.0]', id="matrix-true"),
    ])
    def test_points_fields_not_numbers_exit2(self, tmp_path, capsys, metric):
        # before, float() and int() turned each of these into a number
        points = '["0", "1"]' if "ultrametric" in metric else "[[0.0], [1.0]]"
        pts = tmp_path / "pts.json"
        pts.write_text(f'{{"metric": {{{metric}}}, "points": {points}}}')
        assert cli.main(["doubling", "--points", str(pts)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not a" in err, err

    @pytest.mark.parametrize("points", [
        pytest.param('[["0.5"], [true], [0]]', id="string-and-true"),
        pytest.param("[[0.5], [1.0], [false]]", id="false"),
        pytest.param('[[0.5, 1.0], [2.0, "3"]]', id="string-in-2d"),
        pytest.param('[0.5, "1.0"]', id="bare-string"),
        pytest.param("[[0.5], [null]]", id="null"),
    ])
    def test_coordinates_not_numbers_exit2(self, tmp_path, capsys, points):
        # np.asarray read each string and bool as a number before
        pts = tmp_path / "pts.json"
        pts.write_text(f'{{"metric": {{"kind": "euclidean"}}, "points": {points}}}')
        assert cli.main(["doubling", "--points", str(pts)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is not a number" in err, err

    @pytest.mark.parametrize("points", ["[1, 2]", '[["0"], ["1"]]'], ids=["numbers", "lists"])
    def test_ultrametric_points_not_strings_exit2(self, tmp_path, capsys, points):
        pts, out = tmp_path / "pts.json", tmp_path / "cubes.json"
        pts.write_text('{"metric": {"kind": "ultrametric", "arity": 2, "base": 0.5}, '
                       f'"points": {points}}}')
        assert cli.main(["build", "--points", str(pts), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "entry 0" in err and "string" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        pytest.param(("--c0", "nan"), id="c0-nan"),
        pytest.param(("--C0", "nan"), id="C0-nan"),
        pytest.param(("--c0", "inf", "--C0", "inf"), id="c0-C0-inf"),
        pytest.param(("--target-ratio", "nan"), id="target-ratio-nan"),
    ])
    def test_non_finite_parameter_exit2(self, workspace, capsys, args):
        out = workspace / "non-finite.json"
        argv = ["build", "--points", str(workspace / "pts.json"), "--out", str(out),
                "--systems", "2", *args]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == "", captured.err
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

    def test_subnormal_gap_builds_to_the_level_cap(self, run, tmp_path):
        # base ** 3 = 1e-315 is subnormal, and 1.0 / 1e-315 overflows to inf:
        # the least gap asks for more levels than the cap, not for a traceback
        r = run("gen", "ultrametric_cantor", "--arity", "3", "--base", "1e-105",
                "--depth", "4", "--out", "sub.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run("build", "--points", "sub.json", "--out", "sub_cubes.json", "--seed", "7",
                cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert f"max_level={cubes.MAX_LEVEL_CAP} " in r.stdout, r.stdout
        read = ["--points", "sub.json", "--cubes", "sub_cubes.json", "--seed", "7"]
        for op in (["verify"], ["estimate", "box"], ["estimate", "assouad"]):
            r = run(*op, *read, cwd=tmp_path)
            assert r.returncode == 0, (op, r.stderr)


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


class TestThreeDimensionalGrid:
    # no benchmark workload is 3-D; these digests were recorded when every
    # diameter of up to 2,048 points scanned all pairs. The whole space and
    # the largest windows hold more than 128 points, so they now take the
    # centre bound and the pruned block scan.
    CUBES_SHA256 = "37dd9bedc8809063121ba64ace6502b89d6b19878b7a7675e9a437a9a33278bf"
    ASSOUAD_SHA256 = "387df07dc5717a831bb6f548ee9bbcd72f50e543084c7acdbed9e08de8fae9e2"

    def test_build_and_assouad_bytes_are_pinned(self, tmp_path, capsys):
        pts, cubes_file, assouad = (str(tmp_path / name)
                                    for name in ("pts.json", "cubes.json", "assouad.json"))
        assert cli.main(["gen", "grid", "--dim", "3", "--res", "0.125", "--out", pts]) == 0
        assert cli.main(["build", "--points", pts, "--out", cubes_file, "--seed", "7",
                         "--delta", "0.08333333333333333", "--levels", "2"]) == 0
        assert cli.main(["estimate", "assouad", "--points", pts, "--cubes", cubes_file,
                         "--seed", "7", "--budget", "8", "--out", assouad]) == 0
        capsys.readouterr()
        digests = [hashlib.sha256(open(path, "rb").read()).hexdigest()
                   for path in (cubes_file, assouad)]
        assert digests == [self.CUBES_SHA256, self.ASSOUAD_SHA256]


class TestLineAndUltrametricSweeps:
    """Sweep bytes on a line and in an ultrametric, where every window is read
    off a rank run of the index. The digests were recorded when each window
    was read off a full distance row and keyed on a digest of its members:
    per seed, spectrum at theta 0.25, 0.5 and 0.75, assouad, and the --dump
    CSV of the assouad run."""
    SHA256 = {
        "sequence": {
            "7": ("f90b56facf967438c9db0be85d10b2c0b08b8fd38cbed190128f94c5acfbaf1f",
                  "9b5a08e2e94bd33e0f42fda56c5c9dff74176b84535a42534dc95a983694f362",
                  "9cff332c51416fca4b2c29707d0562862a4b379825fc2123b0c2b6d70220abdf",
                  "bec394bed0c2f6f009071aae010e2f6fb553be536382ff720807ab860000945d",
                  "e0fee42c1caa65cbd905e8c3d50945aa5738c8ceb3a2282a41887973085f4248"),
            "3": ("49049cf2d2d7667d3cd7d6acf870e080102439a628ee669d5f289fad6bb28dc8",
                  "33a7a3224517ca3f8a031ba57f58f52377005900dd7ea24109da1525b682385a",
                  "05e7c02e69dea24fd2334c85fc5e163488a9034d911992d5ad823a1235acd95f",
                  "423149a9394408e5a5acf35a4148c1e002e82b41c21b2235b6fdae1d20665784",
                  "855cf90b9f1f5c00fc65d244d7333200f564740b16ee6ccc3dc6cadf68aa59c2"),
        },
        "ultrametric": {
            "7": ("320cf386706b0e0cc50beb1dd59d9e0c6b896dc3d7e5d134d5d3e2af8ddcdc50",
                  "b8128e00270cd51b10168bb9a644511b631efa69d78f4be1b1cbb2fe67e2259b",
                  "a81c34b5d3512e7fe2fe97eed16ab1dcde857d5a8b28368caa0e95177acb4330",
                  "accb8bc72af1654d1940f4ef096ceacbcf038b90b70ace1237a6b8c54ce6c2d9",
                  "a3f4bf871170001578dd77d95321e5ccb6e70df85e041440cf6f1198d6841459"),
            "3": ("b3deb744271722c48619e65ef2f0c54ddfb4104e5a93788b9bf922a0de1dcb38",
                  "9db77a1f38fb177ff62554caf37e9178c7241158e9ebbc348ba235a5fe7d4af1",
                  "04839ebf2196c5028d076b95579f2e7ebf7fc879215c5cedb2d5a79c570a66aa",
                  "d24f12af24afb308783c382ae61cdb18355ddad176ed18dbebe222b288afd2db",
                  "bc5e3de045872a3e51b656ca26edf985bb75ce5cd8ca0384ac6ead12b222c2e2"),
        },
    }
    GEN = {"sequence": ["sequence", "--p", "1", "--nmax", "2000"],
           "ultrametric": ["ultrametric_cantor", "--arity", "2", "--base", "0.0625",
                           "--depth", "10"]}

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        out = {}
        for name, gen in self.GEN.items():
            d = tmp_path_factory.mktemp(name)
            pts, cubes_file = str(d / "pts.json"), str(d / "cubes.json")
            assert cli.main(["gen", *gen, "--out", pts]) == 0
            assert cli.main(["build", "--points", pts, "--out", cubes_file, "--seed", "7"]) == 0
            out[name] = d, pts, cubes_file
        return out

    @pytest.mark.parametrize("name", ["sequence", "ultrametric"])
    @pytest.mark.parametrize("seed", ["7", "3"])
    def test_bytes_are_pinned(self, built, name, seed, capsys):
        d, pts, cubes_file = built[name]
        common = ["--points", pts, "--cubes", cubes_file, "--seed", seed, "--budget", "32"]
        files = []
        for theta in ("0.25", "0.5", "0.75"):
            files.append(d / f"spectrum{theta}_{seed}.json")
            assert cli.main(["estimate", "spectrum", *common, "--theta", theta,
                             "--out", str(files[-1])]) == 0
        files += [d / f"assouad_{seed}.json", d / f"dump_{seed}.csv"]
        assert cli.main(["estimate", "assouad", *common, "--out", str(files[-2]),
                         "--dump", str(files[-1])]) == 0
        capsys.readouterr()
        digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files)
        assert digests == self.SHA256[name][seed]


class TestVerify:
    def test_fresh_build_passes(self, run, workspace):
        r = run("verify", "--points", "pts.json", "--cubes", "cubes.json",
                "--budget", "30", cwd=workspace)
        assert r.returncode == 0, r.stdout + r.stderr
        assert "FAIL" not in r.stdout
        assert "sandwich_N_le_D | pass" in r.stdout

    def test_sandwich_without_samples_is_not_applicable(self, tmp_path, capsys):
        # a 2-point space has no ball the sandwich check can sample
        pts, cubes_file = str(tmp_path / "pts.json"), str(tmp_path / "cubes.json")
        assert cli.main(["gen", "cantor", "--depth", "1", "--out", pts]) == 0
        assert cli.main(["build", "--points", pts, "--out", cubes_file]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "--points", pts, "--cubes", cubes_file]) == 0
        out = capsys.readouterr().out
        assert "family | sandwich_N_le_D | n/a | sampled=0" in out, out

    def test_shuffled_parent_list_refused(self, run, workspace):
        doc = json.loads((workspace / "cubes.json").read_text())
        deepest = doc["systems"][0]["levels"][-1]["centers"]
        deepest[0], deepest[1] = deepest[1], deepest[0]
        write_cubes_doc(workspace / "tampered.json", doc)
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
        write_cubes_doc(workspace / "decimated.json", doc)
        r = run("verify", "--points", "pts.json", "--cubes", "decimated.json",
                cwd=workspace)
        assert r.returncode == 2
        assert "fails property" in r.stderr


    def test_two_centers_in_one_inner_ball_refused(self, run, tmp_path):
        # a point in a deepest center's inner ball made a deepest center too:
        # each of the two labels itself on reload, so the ball holds a point of
        # another cube
        r = run("gen", "sequence", "--p", "1", "--nmax", "300", "--out", "pts.json",
                cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run("build", "--points", "pts.json", "--out", "cubes.json", "--levels", "2",
                cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        family = cubes.load_family(tmp_path / "cubes.json", load_points(tmp_path / "pts.json"))
        system = family.systems[0]
        centers = system.levels[-1].centers
        inner = system.params.separation(system.max_level) / 3.0 * (1.0 - 1e-9)
        c, q = next((int(c), int(q)) for c in centers
                    for q in family.space.ball_members(int(c), inner)
                    if q not in centers and family.space.distance(int(c), int(q)) > 0.0)
        doc = json.loads((tmp_path / "cubes.json").read_text())
        sdoc = doc["systems"][0]
        deepest = sdoc["levels"][-1]["centers"]
        first = len(sdoc["parents"]) - len(deepest)
        parent = dict(sdoc["parents"][first:])[c]
        pos = sum(center < q for center in deepest)
        deepest.insert(pos, q)
        sdoc["parents"].insert(first + pos, [q, parent])
        write_cubes_doc(tmp_path / "tampered.json", doc)
        r = run("verify", "--points", "pts.json", "--cubes", "tampered.json", cwd=tmp_path)
        assert r.returncode == 2
        assert "fails property iii_inner on reload" in r.stderr, r.stderr


def _drop_key(doc):
    del doc["C_tilde"]


def _drop_target_ratio(doc):
    del doc["params"]["target_ratio"]


def _setting(key, value):
    """A damage that sets one top-level field."""
    def damage(doc):
        doc[key] = value
    return damage


def _param(key, value):
    """A damage that sets one build setting."""
    def damage(doc):
        doc["params"][key] = value
    return damage


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


def _deepest_center_twice(doc):
    # the first deepest center listed again after itself, with its parent pair
    system = doc["systems"][0]
    deepest = system["levels"][-1]["centers"]
    first = len(system["parents"]) - len(deepest)
    deepest.insert(1, deepest[0])
    system["parents"].insert(first + 1, list(system["parents"][first]))


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


def _deepest_center(value):
    """A damage that sets the first deepest center of the first system, in
    its level and in its parent pair."""
    def damage(doc):
        system = doc["systems"][0]
        deepest = system["levels"][-1]["centers"]
        deepest[0] = system["parents"][len(system["parents"]) - len(deepest)][0] = value(
            deepest[0])
    return damage


def _pair_of_three(doc):
    pair = doc["systems"][0]["parents"][-1]
    pair.append(pair[1])


def _centers_not_an_array(doc):
    doc["systems"][0]["levels"][-1]["centers"] = 3


def _system_seed(doc):
    doc["systems"][0]["seed"] = "x"


def _level_out_of_place(doc):
    doc["systems"][0]["levels"][2]["k"] = 7


def _level_centers_reversed(doc):
    # level 2's centers and their parent pairs, both in descending id order:
    # the nets, labels and checks are those of the file as written
    system = doc["systems"][0]
    start, level2 = len(system["levels"][1]["centers"]), system["levels"][2]["centers"]
    level2.reverse()
    system["parents"][start:start + len(level2)] = system["parents"][
        start:start + len(level2)][::-1]


class TextEdit:
    """A damage that edits the text of a good file."""

    def __init__(self, edit):
        self.edit = edit


# how a cubes file is damaged: None leaves no file, a string replaces the text,
# a TextEdit edits the text of a good file, a function edits its parsed document
DAMAGES = {
    "missing-file": None,
    "invalid-json": '{"systems": [',
    "missing-key": _drop_key,
    "truncated-parents": _truncate_parents,
    "unknown-parent": _unknown_parent,
    "center-out-of-range": _center_out_of_range,
    "deepest-center-twice": _deepest_center_twice,
    "root-only": _root_only,
    "two-roots": _two_roots,
    "missing-target-ratio": _drop_target_ratio,
    "C_tilde-not-a-number": _setting("C_tilde", "x"),
    "C_tilde-negative": _setting("C_tilde", -5.0),
    "C_delta_hat-below-1": _setting("C_delta_hat", 0.5),
    "C_delta_hat-infinite": _setting("C_delta_hat", float("inf")),
    "best_effort-not-a-bool": _setting("best_effort", "no"),
    "scale-zero": _setting("scale", 0.0),
    "scale-not-the-normalizing-factor": _setting("scale", 2.0),
    "seed-not-an-int": _param("seed", "x"),
    "query_budget-negative": _param("query_budget", -5),
    "float-id": _deepest_center(lambda c: c + 0.4),
    "true-id": _deepest_center(lambda c: True),
    "negative-id": _deepest_center(lambda c: -1),
    "pair-of-three": _pair_of_three,
    "unbalanced-brackets": TextEdit(lambda text: text.replace("]]", "]", 1)),
    "pretty-printed": TextEdit(lambda text: json.dumps(json.loads(text), indent=1)),
    "leading-zero-id": TextEdit(lambda text: text.replace('"centers":[', '"centers":[0', 1)),
    "centers-not-an-array": _centers_not_an_array,
    "system-seed-not-an-int": _system_seed,
    "level-k-out-of-place": _level_out_of_place,
    "level-centers-reversed": _level_centers_reversed,
}


def _write_damaged(workspace, damage):
    how = DAMAGES[damage]
    path = workspace / f"damaged-{damage}.json"
    if isinstance(how, str):
        path.write_text(how)
    elif isinstance(how, TextEdit):
        path.write_text(how.edit((workspace / "cubes.json").read_text()))
    elif how is not None:
        doc = json.loads((workspace / "cubes.json").read_text())
        how(doc)
        write_cubes_doc(path, doc)
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


    def test_parent_list_splitting_a_run_refused(self, run, tmp_path):
        # five points of a line; at level 1 the centers 0.0, 0.2 and 1.0, at
        # level 2 every point. The parents of 0.09 and 0.11 are swapped: each
        # lies outside both inner balls (1/36) and inside both outer balls (1/6),
        # so the four checks pass, but the cube of 0.0 holds 0.0 and 0.11, with
        # 0.09 of the cube of 0.2 between them
        save_points(MetricSpace(MetricDescriptor("euclidean"),
                                coords=[0.0, 0.09, 0.11, 0.2, 1.0]), tmp_path / "pts.json")
        r = run("build", "--points", "pts.json", "--out", "cubes.json", "--delta",
                "0.08333333333333333", "--levels", "2", "--systems", "1", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        doc = json.loads((tmp_path / "cubes.json").read_text())
        levels = [[0], [0, 3, 4], [0, 1, 2, 3, 4]]
        doc["systems"] = [{"seed": 7, "levels": [{"k": k, "centers": c}
                                                 for k, c in enumerate(levels)],
                           "parents": [[0, 0], [3, 0], [4, 0], [0, 0], [1, 0], [2, 3], [3, 3],
                                       [4, 4]]}]
        for name, swap in (("good.json", False), ("split.json", True)):
            if swap:
                doc["systems"][0]["parents"][4:6] = [[1, 3], [2, 0]]
            write_cubes_doc(tmp_path / name, doc)
            r = run("verify", "--points", "pts.json", "--cubes", name, cwd=tmp_path)
            assert r.returncode == (2 if swap else 0), r.stdout + r.stderr
        assert "FAIL" not in run("verify", "--points", "pts.json", "--cubes", "good.json",
                                 cwd=tmp_path).stdout
        assert r.stderr.startswith("error: cubes file fails property runs"), r.stderr
        # the split family, its labels derived as a reload derives them, passes the four checks
        space = load_points(tmp_path / "pts.json").rescaled(doc["scale"])
        params = NetParams(delta=1 / 12)
        _, levels, parent_idx = cubes._nets_from_json(
            cubes._read_doc(tmp_path / "split.json")["systems"][0], space.n, params)
        system = cubes.CubeSystem(0, space, params, 7, levels,
                                  cubes._derive_labels(space, levels, parent_idx), parent_idx,
                                  cubes.BuildReport())
        assert all(c.ok for c in cubes.verify_system(system).values())
        assert cubes._split_cube(system) == {"level": 1, "center": 0}


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
