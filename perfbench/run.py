"""CLI-pipeline benchmark of cubedim, end to end and layer by layer.

    python3 perfbench/run.py --workload seq10k --seed 7 --seconds 20 --trace 0

Run it from anywhere; it tests the checkout it sits in (``src/cubedim``).
A run with ``--trace 0`` measures set-up (import plus ``cubedim gen``) in
several fresh processes and reports the median. It then runs the pipeline
``gen``, ``build``, ``verify``, ``estimate box|hausdorff|spectrum|assouad``
once, in one more fresh process, and reports the build and read sides
(verify and the estimates), their total and the process's peak RSS. Times
are the CPU seconds of the single-threaded process (pipeline.py says why).
A run with ``--trace 1`` runs the pipeline once untraced and once under
the outside-in layer trace (tracer.py), each in its own process. It
reports the per-layer metrics, the untraced stage times and the tracing
overhead.

Every CLI command is an op. An op fails when its exit code, or the sha256
of the file it writes (points, ``cubes.json``, estimate JSON), differs
from pins.json. ``gen`` and ``build`` do not depend on the workload seed,
so their pins hold for every seed. For a seed without pins, the other ops
fail when the exit code differs from the workload's expected one,
``verify`` reports a failed check, or two runs of the op in one benchmark
run disagree.

The last stdout line is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``. Exits 2 without that line when the checkout has no
cubedim sources or a process fails.

``--write-pins`` stores this run's outcomes as the pins of its seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_specs
from workloads import ESTIMATES, SEED_FREE_OPS, STAGES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 5     # set-up processes per run; setup_s is their median
TIME_LIMIT_S = 170  # a run, with all its processes, ends within 180 s

E2E_METRICS = [("setup_s", "s"), ("build_s", "s"), ("read_s", "s"), ("total_s", "s"),
               ("peak_rss_mb", "MB")]
READ_STAGES = ("verify_s", "fit_s", "sweep_s")  # the ops that load a cubes file
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    """Single-threaded numeric libraries, fixed hashing, no CUBEDIM_THREADS.

    The thread count is pinned through the environment, not ``--threads``,
    so the ops do not depend on a flag the CLI may drop.
    """
    env = {k: v for k, v in os.environ.items() if k != "CUBEDIM_THREADS"}
    env.update({var: "1" for var in THREAD_VARS}, PYTHONHASHSEED="0")
    return env


class Children:
    """Starts the run's processes one after another, under one deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = child_env()

    def run(self, mode, workload, workdir, *extra) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next process")
        argv = [sys.executable, str(HERE / "pipeline.py"), mode, workload, str(workdir),
                *extra]
        with open(workdir / f"{mode}.log", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                                      env=self.env, cwd=ROOT, timeout=remaining,
                                      check=False)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{mode} process killed after {exc.timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}; "
                             f"see {workdir / f'{mode}.log'}")
        with open(workdir / "result.json", encoding="utf-8") as fh:
            return json.load(fh)


def count_failed(workload, outcomes, pins) -> list:
    """Descriptions of the failed ops; ``pins`` maps op -> pinned outcome."""
    expect_rc = WORKLOADS[workload].expect_rc
    first = {}
    failed = []
    for o in outcomes:
        pin = pins.get(o["op"])
        if pin is not None:
            bad = [k for k in pin if o.get(k) != pin[k]]
        else:
            bad = [] if o["rc"] == expect_rc.get(o["op"], 0) else ["rc"]
            seen = first.setdefault(o["op"], o)
            bad += [k for k in ("rc", "sha256") if o.get(k) != seen.get(k)]
        if o.get("verdict", "pass") != "pass":
            bad.append("verdict")
        if bad:
            failed.append(f"{o['op']}: {', '.join(sorted(set(bad)))} "
                          f"(rc={o['rc']}, sha256={o.get('sha256')})")
    return failed


def pins_for(all_pins, workload, seed) -> dict:
    """The seed's pins; gen and build take no workload seed, so every seed's serve."""
    by_seed = all_pins.get(workload, {})
    pins = {op: pin for pinned in by_seed.values() for op, pin in pinned.items()
            if op in SEED_FREE_OPS}
    pins.update(by_seed.get(str(seed), {}))
    return pins


def pins_from(outcomes) -> dict:
    pins = {}
    for o in outcomes:
        pins.setdefault(o["op"], {k: o[k] for k in ("rc", "sha256") if k in o})
    return pins


def code_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/."""
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def measure(args, children, work) -> tuple:
    """(metrics, outcomes, environment) of an untraced run."""
    setups = [children.run("setup", args.workload, work / "setup")
              for _ in range(SETUP_REPS)]
    main = children.run("pipeline", args.workload, work / "pipeline",
                        "--seed", str(args.seed))
    values = dict(main["stages"])
    print(f"perfbench: stages (CPU s) {stage_line(values)}; wall s "
          + " ".join(f"{o['op']}={o['wall_s']:.3f}" for o in main["outcomes"]))
    values["read_s"] = sum(values[s] for s in READ_STAGES)
    values["total_s"] = sum(main["stages"].values())
    values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    values["peak_rss_mb"] = main["peak_rss_mb"]
    outcomes = [o for s in setups for o in s["outcomes"]] + main["outcomes"]
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}, \
        outcomes, main["env"]


def trace(args, children, work) -> tuple:
    """(metrics, outcomes, environment) of a traced pipeline and an untraced one.

    The untraced one gives the ``cli.<stage>`` times and the baseline of
    ``trace.overhead_s``.
    """
    seed = ["--seed", str(args.seed)]
    plain = children.run("pipeline", args.workload, work / "plain", *seed)
    traced = children.run("pipeline", args.workload, work / "traced", *seed, "--trace")
    print(f"perfbench: untraced stages (CPU s) {stage_line(plain['stages'])}; "
          f"traced {stage_line(traced['stages'])}")
    values = dict(traced["trace"], **{f"cli.{stage}": plain["stages"][stage]
                                      for stage in STAGES})
    values["trace.overhead_s"] = (sum(traced["stages"].values())
                                  - sum(plain["stages"].values()))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in metric_specs()}
    return metrics, plain["outcomes"] + traced["outcomes"], traced["env"]


def stage_line(stages) -> str:
    return " ".join(f"{stage}={stages[stage]:.3f}" for stage in STAGES)


def main() -> int:
    ap = argparse.ArgumentParser(description="cubedim CLI-pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="accepted for the benchmark contract; a run makes one "
                         "pipeline pass, however long it takes")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "cubedim" / "__init__.py").is_file():
        print(f"perfbench: no cubedim sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    children = Children()
    try:
        metrics, outcomes, env = (trace if args.trace else measure)(args, children, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    all_pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    if args.write_pins:
        all_pins.setdefault(args.workload, {})[str(args.seed)] = pins_from(outcomes)
        PINS.write_text(json.dumps(all_pins, indent=1, sort_keys=True) + "\n")
    pins = pins_for(all_pins, args.workload, args.seed)
    pinned = str(args.seed) in all_pins.get(args.workload, {})
    failed = count_failed(args.workload, outcomes, pins)

    print(f"perfbench: env {json.dumps(dict(env, **code_identity()), sort_keys=True)}")
    values = {o["op"]: o.get("value", f"refused (exit {o['rc']})")
              for o in outcomes if o["op"] in ESTIMATES}
    print(f"perfbench: {args.workload} seed={args.seed} pinned={pinned} estimates "
          + " ".join(f"{kind}={values.get(kind)}" for kind in ESTIMATES))
    for line in failed:
        print(f"perfbench: FAILED {line}")
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
