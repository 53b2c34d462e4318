"""The benchmark's workloads and the CLI pipeline every workload runs.

A workload is one generated points file plus the ``build`` flags it needs.
Every run drives the same closed-loop pipeline through ``cubedim.cli.main``:
one client, one CLI command at a time. The workload seed goes to
``verify`` and ``estimate``; ``build`` gets BUILD_SEED and the generators
take no seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# --budget of verify and estimate: sandwich samples and sweep points. At 64
# one seq10k or grid2d pipeline took up to 55 s on a 2-vCPU Xeon host, too
# long for the runs the benchmark must fit into its time limit; 32 keeps
# every code path and halves the sampled work.
BUDGET = "32"
# The family is built with one fixed seed. The build seed sets how many
# systems the family needs (K = 2 to 4 on seq10k over seeds 1, 2, 3, 7), and every
# later stage costs in proportion to K, so a build seed taken from the
# workload seed would swamp a run-to-run comparison. The workload seed
# drives the sampling of verify and estimate instead.
BUILD_SEED = 7
SEED_FREE_OPS = ("gen", "build")  # ops whose outputs no workload seed changes


@dataclass(frozen=True)
class Workload:
    gen: list
    build: list = field(default_factory=list)
    # exit code an op must return when no pin exists for the seed
    expect_rc: dict = field(default_factory=dict)


WORKLOADS = {
    # 10 001 1-D points, above cache_limit: brute-force nearest-center, O(n)
    # MetricSpace.row in the checks and greedy covers, np.unique over labels.
    "seq10k": Workload(gen=["sequence", "--p", "1", "--nmax", "10000"]),
    # 4 225 2-D points at the acceptance-suite settings: exact ball diameters
    # under circumscribed_cube dominate; two levels are too few for a
    # Hausdorff fit, so that estimate is refused by design (exit 1).
    "grid2d": Workload(gen=["grid", "--dim", "2", "--res", "0.015625"],
                       build=["--delta", "0.08333333333333333", "--levels", "2"],
                       expect_rc={"hausdorff": 1}),
    # 4 096 = cache_limit ultrametric points: the only dense-matrix workload.
    "ultra12": Workload(gen=["ultrametric_cantor", "--arity", "2", "--base", "0.0625",
                             "--depth", "12"]),
    # 64 points, for the self-test only.
    "ultra6": Workload(gen=["ultrametric_cantor", "--arity", "2", "--base", "0.0625",
                            "--depth", "6"]),
}

# end-to-end stage -> the ops whose CPU times it sums
STAGES = {
    "build_s": ("build",),
    "verify_s": ("verify",),
    "fit_s": ("box", "hausdorff"),
    "sweep_s": ("spectrum", "assouad"),
}
ESTIMATES = ("box", "hausdorff", "spectrum", "assouad")


def gen_argv(wl: Workload, points: str) -> list:
    return ["gen", *wl.gen, "--out", points]


def pipeline_ops(wl: Workload, seed: int, points: str, cubes: str, outdir: str) -> list:
    """(op name, argv, output file or None) for build, verify and the estimates."""
    common = ["--points", points, "--cubes", cubes, "--seed", str(seed),
              "--budget", BUDGET]
    ops = [("build", ["build", "--points", points, "--out", cubes,
                      "--seed", str(BUILD_SEED), *wl.build], cubes),
           ("verify", ["verify", *common], None)]
    for kind in ESTIMATES:
        out = f"{outdir}/{kind}.json"
        extra = ["--theta", "0.5"] if kind == "spectrum" else []
        ops.append((kind, ["estimate", kind, *common, *extra, "--out", out], out))
    return ops
