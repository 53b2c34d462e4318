"""Self-test of the benchmark on a 64-point ultrametric space; takes seconds.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json prints with its name and unit,
that a corrupted pin is counted as a failed op, and that trace spans nest:
self time never exceeds total time and each child span lies inside its
parent. Exits 1 when a check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from pipeline import import_cubedim, run_op
from run import PINS, ROOT, WORK, child_env, count_failed, pins_for
from tracer import Tracer
from workloads import WORKLOADS, gen_argv, pipeline_ops

WORKLOAD = "ultra6"
SEED = 7
# sites where a traced function is imported by name into another module
NAMED_SITES = [("cubedim.cubes", "build_net"), ("cubedim.cubes", "nearest_center"),
               ("cubedim.dimensions", "circumscribed_cube"),
               ("cubedim.covering", "circumscribed_cube"),
               ("cubedim.dimensions", "greedy_cover_count"),
               ("cubedim.cli", "build_adjacent_family"), ("cubedim.cli", "load_family"),
               ("cubedim.cli", "save_family"), ("cubedim.cli", "verify_system")]


def bench(*extra) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", WORKLOAD, "--seed", str(SEED), "--seconds", "1",
                           *extra], capture_output=True, text=True, env=child_env(),
                          timeout=170, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(extra)} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(failures):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        result = bench("--trace", trace)
        want = [(m["name"], m["unit"]) for m in spec[group]]
        got = [(name, m["unit"]) for name, m in result["metrics"].items()]
        if got != want:
            failures.append(f"--trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                            f"differ from BENCHMARK.json {group}")
        if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
            failures.append(f"--trace {trace}: a metric value is not a number")
        if not result["correct"] or result["failed"]:
            failures.append(f"--trace {trace}: {result['failed']} of "
                            f"{result['attempted']} ops failed against the pins")


def traced_pipeline(failures) -> tuple:
    """(tracer, outcomes) of one in-process pipeline under a span-keeping trace."""
    cubedim = import_cubedim()
    wl = WORKLOADS[WORKLOAD]
    workdir = WORK / "selftest" / "spans"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    points, cubes = f"{workdir}/points.json", f"{workdir}/cubes.json"
    ops = [("gen", gen_argv(wl, points), points),
           *pipeline_ops(wl, SEED, points, cubes, str(workdir))]
    originals = {name: getattr(sys.modules[mod], name) for mod, name in NAMED_SITES}
    with Tracer(keep_spans=True) as tracer:
        outcomes = [run_op(cubedim.cli, name, argv, out, workdir) for name, argv, out in ops]
    if any(getattr(sys.modules[mod], name) is not originals[name]
           for mod, name in NAMED_SITES):
        failures.append("spans: a patched site was not restored")
    return tracer, outcomes


def check_corrupted_pin(failures, outcomes):
    pins = json.loads(PINS.read_text())
    clean = count_failed(WORKLOAD, outcomes, pins_for(pins, WORKLOAD, SEED))
    if clean:
        failures.append(f"pins: ops failed against the true pins: {clean}")
    pins[WORKLOAD][str(SEED)]["box"]["sha256"] = "0" * 64
    corrupt = count_failed(WORKLOAD, outcomes, pins_for(pins, WORKLOAD, SEED))
    if len(corrupt) < 1:
        failures.append("pins: a corrupted box pin was not counted as a failed op")


def check_spans(failures, tracer):
    for site in NAMED_SITES:
        if (site[0], site[1]) not in tracer.sites:
            failures.append(f"spans: {site[0]}.{site[1]} was not patched")
    for key, start, end, parent in tracer.spans:
        if end < start:
            failures.append(f"spans: {key} ends before it starts")
        if parent is not None:
            pkey, pstart, pend, _ = tracer.spans[parent]
            if not (pstart <= start and end <= pend):
                failures.append(f"spans: {key} lies outside its parent {pkey}")
    for key in tracer.calls:
        if tracer.self_time[key] > tracer.total[key] + 1e-9:
            failures.append(f"spans: {key} self {tracer.self_time[key]:.6f} s > "
                            f"total {tracer.total[key]:.6f} s")
    if not tracer.spans:
        failures.append("spans: no spans recorded")


def main() -> int:
    failures = []
    check_metrics(failures)
    report("check_metrics", failures, 0)
    before = len(failures)
    tracer, outcomes = traced_pipeline(failures)
    check_corrupted_pin(failures, outcomes)
    report("check_corrupted_pin", failures, before)
    before = len(failures)
    check_spans(failures, tracer)
    report("check_spans", failures, before)
    for line in failures[:40]:
        print(f"  {line}")
    return 1 if failures else 0


def report(check, failures, before):
    print(f"{'PASS' if len(failures) == before else 'FAIL'} {check}")


if __name__ == "__main__":
    sys.exit(main())
