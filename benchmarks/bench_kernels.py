"""Benchmark the compiled kernels against the pure NumPy reference.

Runs the three hot paths (pairwise distances, greedy net construction,
nearest-center assignment) on synthetic workloads, checks both backends
agree, and prints a timing table. Without the compiled extension it prints
the pure timings alone.

Usage: python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import sys
import time

import numpy as np

from cubedim import _reference as pure

try:
    from cubedim import _kernels as compiled
except ImportError:
    compiled = None


def timed(fn, *args, repeat=3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def compare(name, rows, label, *args, same=np.array_equal):
    """Time the pure kernel and, when built, the compiled one; they must agree."""
    ref, t_p = timed(getattr(pure, name), *args)
    t_c = None
    if compiled is not None:
        out, t_c = timed(getattr(compiled, name), *args)
        assert same(out, ref), f"backends disagree on {name}"
    rows.append((label(ref), t_c, t_p))


def bench(quick=False):
    if compiled is None:
        print("compiled kernels not built (needs `pip install -e .` with Cython "
              "and a C compiler); timing the pure kernels only")

    n_pair = 1500 if quick else 3000
    n_net = 6000 if quick else 20000
    rng = np.random.default_rng(42)
    rows = []

    coords2 = rng.uniform(size=(n_pair, 2))
    compare("pairwise_distances", rows, lambda _: f"pairwise_distances n={n_pair}",
            coords2, same=np.allclose)

    coords = rng.uniform(size=(n_net, 2))
    order = np.arange(n_net, dtype=np.int64)
    for thr in (0.05, 0.01):
        compare("greedy_net_coords", rows,
                lambda net: f"greedy_net n={n_net} thr={thr} (|net|={net.size})",
                coords, order, thr)

    centers = np.sort(rng.choice(n_net, size=400, replace=False))
    compare("nearest_center_coords", rows,
            lambda _: f"nearest_center n={n_net} centers=400",
            coords, coords[centers], same=lambda a, b: np.array_equal(a[0], b[0]))

    dmat = pure.pairwise_distances(rng.uniform(size=(1200, 1)))
    order_m = np.arange(1200, dtype=np.int64)
    compare("greedy_net_matrix", rows, lambda _: "greedy_net_matrix n=1200 thr=0.01",
            dmat, order_m, 0.01)

    width = max(len(r[0]) for r in rows)
    print(f"{'workload':<{width}}  {'compiled':>10}  {'pure':>10}  {'speedup':>8}")
    for name, t_c, t_p in rows:
        if t_c is None:
            print(f"{name:<{width}}  {'-':>10}  {t_p * 1e3:>8.1f}ms  {'-':>8}")
        else:
            print(f"{name:<{width}}  {t_c * 1e3:>8.1f}ms  {t_p * 1e3:>8.1f}ms  "
                  f"{t_p / t_c:>7.1f}x")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    sys.exit(bench(quick=ap.parse_args().quick))
