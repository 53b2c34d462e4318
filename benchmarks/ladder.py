"""Size ladder of cubedim: each op's CPU time and peak RSS on spaces of growing size.

    python3 benchmarks/ladder.py [--out BENCH_ladder.json]

Run it from anywhere; it runs the checkout it sits in (``src/cubedim``).
Each rung is one points file: the lines {1/k} of 20,001 to 160,001 points,
ultrametric Cantor sets of depth 14 to 18, grids of 2, 3 and 5 dimensions
and 10,000 rounded points of the unit sphere. A rung runs ``gen`` (for the
sphere, a small script), then ``build --seed 7``, ``verify``, ``estimate
box`` and ``estimate assouad``, each read op with ``--seed 7 --budget 32``.
Every op runs in its own fresh ``python -m cubedim`` process, one at a
time, and its CPU time (user plus system) and peak RSS are read from
``os.wait4``. A child's ``ru_maxrss`` starts at the RSS of the process it
was forked from, so this driver imports nothing but the standard library
and holds no large object.

The record holds, per rung and op, the CPU seconds, the peak RSS, the exit
code and the sha256 of the op's output (its stdout, then the file it
writes: ``pts.json``, ``cubes.json``, ``box.json`` or ``assouad.json``), so
two records show rung by rung whether two checkouts wrote the same bytes;
and the family's K and max level from ``build``'s summary line; per
rung, each op's cost ratio to the rung below it in its series (the line,
the ultrametric or the 2-D grid), raw and per unit of K x (max level + 1);
and the git commit of the checkout, with a digest of its sources. A raw
ratio above 3 on a doubling of n prints a warning; it fails nothing. An op
that exited non-zero on either rung gets no ratio, and a warning. The
ladder takes about 37 s of wall time on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRID = ["--delta", "0.08333333333333333", "--levels", "2"]  # grid2d's build flags
READS = ["verify", "box", "assouad"]
# name, series, generator argv (None: the sphere script), build flags
RUNGS = [
    *((f"sequence {n // 1000}k", "sequence", ["sequence", "--p", "1", "--nmax", str(n)], [])
      for n in (20000, 40000, 80000, 160000)),
    *((f"ultrametric depth {d}", "ultrametric",
       ["ultrametric_cantor", "--arity", "2", "--base", "0.0625", "--depth", str(d)], [])
      for d in (14, 16, 18)),
    *((f"grid 2-D 1/{s}", "grid 2-D", ["grid", "--dim", "2", "--res", str(1 / s)], GRID)
      for s in (64, 128, 256)),
    ("grid 3-D 1/32", "grid 3-D", ["grid", "--dim", "3", "--res", str(1 / 32)], GRID),
    ("grid 5-D 1/8", "grid 5-D", ["grid", "--dim", "5", "--res", str(1 / 8)], GRID),
    ("sphere 10,000", "sphere", None, ["--systems", "4", "--levels", "3"]),
]
SPHERE = """
import sys
import numpy as np
from cubedim import MetricDescriptor, MetricSpace, save_points
pts = np.random.default_rng(0).normal(size=(10000, 3))
pts = np.round(pts / np.linalg.norm(pts, axis=1, keepdims=True), 6)
save_points(MetricSpace(MetricDescriptor("euclidean"), coords=pts), sys.argv[1])
print(f"wrote {len(pts)} points to {sys.argv[1]}")
"""


def child(argv: list, cwd: str, writes: str | None = None) -> dict:
    """Run one op in a fresh process: its exit code, stdout, CPU seconds and
    peak RSS, the last two read from ``os.wait4``, and the sha256 of its
    stdout followed by the bytes of the file ``writes`` it writes in ``cwd``,
    if it wrote one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryFile("w+") as out:
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        stdout = out.read()
    digest = hashlib.sha256(stdout.encode())
    written = Path(cwd, writes) if writes else None
    if written is not None and written.exists():
        digest.update(written.read_bytes())
    return {"exit": proc.returncode, "stdout": stdout,
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),  # KiB on Linux
            "sha256": digest.hexdigest()}


def run_rung(name: str, gen, build: list) -> dict:
    """Every op of one rung, in a scratch directory of its own."""
    with tempfile.TemporaryDirectory(prefix="ladder-") as work:
        made = child(["-m", "cubedim", "gen", *gen, "--out", "pts.json"] if gen
                     else ["-c", SPHERE, "pts.json"], work, "pts.json")
        read = ["--points", "pts.json", "--cubes", "cubes.json", "--seed", "7", "--budget", "32"]
        # each op's argv and the file it writes
        argvs = {"build": (["build", "--points", "pts.json", "--out", "cubes.json",
                            "--seed", "7", *build], "cubes.json"),
                 "verify": (["verify", *read], None),
                 "box": (["estimate", "box", *read, "--out", "box.json"], "box.json"),
                 "assouad": (["estimate", "assouad", *read, "--out", "assouad.json"],
                             "assouad.json")}
        ops = {"gen": made}
        for op, (argv, writes) in argvs.items():
            ops[op] = child(["-m", "cubedim", *argv], work, writes)
    summary = re.search(r"K=(\d+) .*max_level=(\d+)", ops["build"]["stdout"])
    points = re.search(r"wrote (\d+) points", made["stdout"])
    for result in ops.values():
        del result["stdout"]
    return {"name": name, "n": int(points[1]) if points else None,
            "K": int(summary[1]) if summary else None,
            "max_level": int(summary[2]) if summary else None, "ops": ops}


def ratios(rungs: list, series: list) -> list:
    """Each rung's cost ratio to the rung below it in its series, per op, raw
    and per unit of K x (max level + 1); warnings for a raw ratio above 3 on
    a doubling of n, and for each op left without a ratio because it exited
    non-zero on either rung."""
    warnings, below = [], {}
    for rung, kind in zip(rungs, series):
        prev = below.get(kind)
        below[kind] = rung
        if prev is None or None in (rung["K"], prev["K"]):
            continue
        units = (rung["K"] * (rung["max_level"] + 1)) / (prev["K"] * (prev["max_level"] + 1))
        rung["ratios"] = {"below": prev["name"], "n": round(rung["n"] / prev["n"], 3)}
        for op in ["build", *READS]:
            failed = [r["name"] for r in (prev, rung) if r["ops"][op]["exit"] != 0]
            if failed:
                warnings.append(f"{prev['name']} -> {rung['name']}: no {op} ratio, "
                                f"{op} exited non-zero on {' and '.join(failed)}")
                continue
            raw = rung["ops"][op]["cpu_s"] / max(prev["ops"][op]["cpu_s"], 1e-3)
            rung["ratios"][op] = {"raw": round(raw, 3), "per_unit": round(raw / units, 3)}
            if raw > 3.0 and rung["n"] <= 2.1 * prev["n"]:
                warnings.append(f"{prev['name']} -> {rung['name']}: {op} CPU x{raw:.2f} "
                                f"on a doubling of n")
    return warnings


def git_commit() -> dict:
    """The checkout's commit, whether ``src`` or ``benchmarks`` differ from it,
    and a sha256 over the package's sources, which names uncommitted code too."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cubedim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "src", "benchmarks")),
            "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_ladder.json"))
    args = ap.parse_args(argv)
    start = time.monotonic()
    rungs = [run_rung(name, gen, build) for name, _, gen, build in RUNGS]
    warnings = ratios(rungs, [series for _, series, _, _ in RUNGS])
    record = {"commit": git_commit(), "python": platform.python_version(),
              "cpus": os.cpu_count(), "wall_s": round(time.monotonic() - start, 1),
              "rungs": rungs, "warnings": warnings}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for rung in rungs:
        cells = []
        for op in ["build", *READS]:
            res = rung["ops"][op]
            cells.append(f"{op} {res['cpu_s']} s {res['peak_rss_mb']} MB"
                         + ("" if res["exit"] == 0 else f" exit {res['exit']}"))
        print(f"{rung['name']:>21}  n={rung['n']} K={rung['K']} L={rung['max_level']}  "
              + ", ".join(cells))
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wall {record['wall_s']} s; wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
