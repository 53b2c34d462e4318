"""One fresh process of a benchmark run: a set-up, or the CLI pipeline.

run.py starts these processes; they are not meant to be run by hand:

    python3 perfbench/pipeline.py setup WORKLOAD WORKDIR
    python3 perfbench/pipeline.py pipeline WORKLOAD WORKDIR --seed N [--trace]

cubedim is imported from the ``src/`` directory of the checkout this file
sits in, by absolute path, and any other copy is refused. Every CLI
command runs in-process through ``cubedim.cli.main(argv)`` with its stdout
and stderr sent to files in WORKDIR. The result goes to WORKDIR/result.json.

Each op is timed by the CPU time of this process (user plus system, from
``time.process_time``). The process is single-threaded, so that is the
op's own work, and unlike wall time it does not grow while the process
waits for a core that other processes on the host hold.

CPU time still grows when the core itself runs slower. On a shared host a
fixed piece of work took up to 1.6 to 1.9 times as long for spells of
seconds to minutes. A calibration kernel run between the ops did not track
those spells (it moved by a third while the ops it bracketed held within a
few percent), so the times are reported as measured. The wall time is kept
alongside, for the log.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from workloads import ESTIMATES, STAGES, WORKLOADS, gen_argv, pipeline_ops

SRC = Path(__file__).resolve().parent.parent / "src"


def import_cubedim():
    sys.path.insert(0, str(SRC))
    import cubedim
    import cubedim.cli

    where = Path(cubedim.__file__).resolve()
    if SRC not in where.parents:
        sys.exit(f"perfbench: cubedim was imported from {where}, outside {SRC}")
    return cubedim


def sha256_of(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_op(cli, name, argv, out, workdir):
    """Run one CLI command; its exit code, CPU and wall time, output digest."""
    if out is not None and os.path.exists(out):
        os.remove(out)
    log = f"{workdir}/{name}.out"
    with open(log, "w", encoding="utf-8") as so, \
            open(f"{workdir}/{name}.err", "w", encoding="utf-8") as se, \
            contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects flags by exiting
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this op; the run goes on
            traceback.print_exc()
            rc = -1
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    outcome = {"op": name, "rc": rc, "seconds": cpu, "wall_s": wall}
    if out is not None:
        outcome["sha256"] = sha256_of(out)
    if name == "verify":
        with open(log, encoding="utf-8") as fh:
            clean = "FAIL" not in fh.read()
        outcome["verdict"] = "pass" if rc == 0 and clean else "fail"
    if name in ESTIMATES and rc == 0:
        with open(out, encoding="utf-8") as fh:
            outcome["value"] = json.load(fh)["value"]
    return outcome


def environment(cubedim) -> dict:
    return {"backend": cubedim.kernels.BACKEND,
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def do_setup(args):
    """Import cubedim and generate the workload's points file."""
    start = time.process_time()
    cubedim = import_cubedim()
    import_s = time.process_time() - start
    points = f"{args.workdir}/points.json"
    gen = run_op(cubedim.cli, "gen", gen_argv(WORKLOADS[args.workload], points),
                 points, args.workdir)
    return {"env": environment(cubedim), "outcomes": [gen],
            "setup_s": import_s + gen["seconds"]}


def do_pipeline(args):
    """gen, build, verify and the four estimates, once, in WORKDIR."""
    cubedim = import_cubedim()
    wl = WORKLOADS[args.workload]
    workdir = args.workdir
    points, cubes = f"{workdir}/points.json", f"{workdir}/cubes.json"
    ops = [("gen", gen_argv(wl, points), points),
           *pipeline_ops(wl, args.seed, points, cubes, workdir)]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        outcomes = [run_op(cubedim.cli, name, argv, out, workdir) for name, argv, out in ops]
    seconds = {o["op"]: o["seconds"] for o in outcomes}
    result = {"env": environment(cubedim), "outcomes": outcomes,
              "stages": {stage: sum(seconds[op] for op in names)
                         for stage, names in STAGES.items()},
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.metrics(sum(seconds.values()))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["setup", "pipeline"])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("workdir")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    result = do_setup(args) if args.mode == "setup" else do_pipeline(args)
    with open(f"{args.workdir}/result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
