"""The size ladder's instrument (``benchmarks/ladder.py``), without its rungs.

An op's exit code, CPU time and peak RSS come from ``os.wait4`` on its own
process, and each rung's cost ratios to the rung below it in its series are
raw and per unit of K x (max level + 1), with a warning for a raw ratio
above 3 on a doubling of n. An op that exited non-zero on either rung gets
no ratio, and a warning that names it. Each op's sha256 covers its stdout
and then the bytes of the file it writes, so two records compare outputs.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

LADDER = Path(__file__).resolve().parent.parent / "benchmarks" / "ladder.py"


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_child_reports_its_own_exit_time_and_memory(ladder, tmp_path):
    busy = "import sys; b = bytearray(96 * 2 ** 20); sum(range(3 * 10 ** 6)); sys.exit(3)"
    got = ladder.child(["-c", busy], str(tmp_path))
    assert got["exit"] == 3 and got["cpu_s"] > 0.0
    assert got["peak_rss_mb"] >= 96.0


def test_child_digests_its_stdout_and_the_file_it_writes(ladder, tmp_path):
    # the digest covers the stdout, then the written file's bytes
    write = "import sys; print('hi'); open(sys.argv[1], 'wb').write(b'xyz')"
    got = ladder.child(["-c", write, "out.bin"], str(tmp_path), "out.bin")
    assert got["exit"] == 0 and got["stdout"] == "hi\n"
    assert got["sha256"] == hashlib.sha256(b"hi\nxyz").hexdigest()
    # no file named, or none written: the stdout alone
    for writes in (None, "absent.bin"):
        got = ladder.child(["-c", "print('hi')"], str(tmp_path), writes)
        assert got["sha256"] == hashlib.sha256(b"hi\n").hexdigest()
    # another file's bytes give another digest
    (tmp_path / "out.bin").write_bytes(b"xyw")
    got = ladder.child(["-c", "print('hi')"], str(tmp_path), "out.bin")
    assert got["sha256"] == hashlib.sha256(b"hi\nxyw").hexdigest()


def rung(name, n, K, L, cpu):
    ops = {op: {"cpu_s": cpu[op], "peak_rss_mb": 1.0, "exit": 0}
           for op in ("build", "verify", "box", "assouad")}
    return {"name": name, "n": n, "K": K, "max_level": L, "ops": ops}


def test_ratios_run_within_a_series(ladder):
    cpu = dict.fromkeys(("build", "verify", "box", "assouad"), 1.0)
    rungs = [rung("a", 100, 2, 3, cpu), rung("other", 50, 1, 1, cpu),
             rung("b", 200, 4, 3, {**cpu, "verify": 3.5}),
             rung("c", 800, 4, 3, {**cpu, "verify": 14.0})]
    warnings = ladder.ratios(rungs, ["line", "grid", "line", "line"])
    assert "ratios" not in rungs[0] and "ratios" not in rungs[1]
    assert rungs[2]["ratios"]["below"] == "a" and rungs[2]["ratios"]["n"] == 2.0
    # K doubles at the same max level: twice the units
    assert rungs[2]["ratios"]["verify"] == {"raw": 3.5, "per_unit": 1.75}
    assert rungs[3]["ratios"]["verify"]["raw"] == 4.0
    # only the doubling of n warns; c quadruples it
    assert warnings == ["a -> b: verify CPU x3.50 on a doubling of n"]


def test_ratios_skip_an_op_that_failed_on_either_rung(ladder):
    cpu = dict.fromkeys(("build", "verify", "box", "assouad"), 1.0)
    rungs = [rung("a", 100, 2, 3, cpu), rung("b", 200, 2, 3, {**cpu, "box": 0.01}),
             rung("c", 400, 2, 3, cpu)]
    rungs[1]["ops"]["box"]["exit"] = 1
    warnings = ladder.ratios(rungs, ["line"] * 3)
    # the failed op has no ratio on either side of the failing rung; the others do
    for got in rungs[1:]:
        assert "box" not in got["ratios"]
        assert got["ratios"]["verify"] == {"raw": 1.0, "per_unit": 1.0}
    assert warnings == ["a -> b: no box ratio, box exited non-zero on b",
                        "b -> c: no box ratio, box exited non-zero on b"]
