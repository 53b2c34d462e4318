"""Outside-in layer trace of the cubedim package.

The tracer wraps public functions of each package module from outside the
package: nothing under ``src/`` changes. Every wrapped call is a span. A
span's self time is its duration minus the time its child spans cover; a
function's total time counts only its outermost active call, so recursion
is not counted twice. Spans are timed in CPU seconds of the process, the
clock of the end-to-end metrics. A function that another cubedim module
imported by name is patched at that site too, or calls made through it
would escape.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from workloads import STAGES

# (metric key, module under cubedim, attribute path in that module)
TRACED = [
    ("metric.load_points", "metric", "load_points"),
    ("metric.row", "metric", "MetricSpace.row"),
    ("metric.distance", "metric", "MetricSpace.distance"),
    ("metric.distance_matrix", "metric", "MetricSpace.distance_matrix"),
    ("metric.diameter", "metric", "MetricSpace.diameter"),
    ("metric.ball_members", "metric", "MetricSpace.ball_members"),
    ("kernels.pairwise_distances", "kernels", "pairwise_distances"),
    ("kernels.greedy_net_coords", "kernels", "greedy_net_coords"),
    ("kernels.greedy_net_matrix", "kernels", "greedy_net_matrix"),
    ("kernels.nearest_center_coords", "kernels", "nearest_center_coords"),
    ("kernels.nearest_center_matrix", "kernels", "nearest_center_matrix"),
    ("nets.build_net", "nets", "build_net"),
    ("nets.nearest_center", "nets", "nearest_center"),
    ("cubes.build_adjacent_family", "cubes", "build_adjacent_family"),
    ("cubes.build_system", "cubes", "build_system"),
    ("cubes.verify_system", "cubes", "verify_system"),
    ("cubes.load_family", "cubes", "load_family"),
    ("cubes.save_family", "cubes", "save_family"),
    ("cubes.circumscribed_cube", "cubes", "circumscribed_cube"),
    ("cubes.CubeSystem.cubes_at", "cubes", "CubeSystem.cubes_at"),
    ("covering.sandwich_check", "covering", "sandwich_check"),
    ("covering.greedy_cover_count", "covering", "greedy_cover_count"),
    ("covering.exact_cover_count", "covering", "exact_cover_count"),
    ("dimensions.local_windows", "dimensions", "local_windows"),
    ("dimensions.cubic_measure", "dimensions", "cubic_measure"),
    ("dimensions.box_dim_estimate", "dimensions", "box_dim_estimate"),
    ("dimensions.hausdorff_dim_estimate", "dimensions", "hausdorff_dim_estimate"),
    ("dimensions.assouad_spectrum_estimate", "dimensions", "assouad_spectrum_estimate"),
    ("dimensions.assouad_dim_estimate", "dimensions", "assouad_dim_estimate"),
    ("cli.cmd_gen", "cli", "cmd_gen"),
    ("cli.cmd_build", "cli", "cmd_build"),
    ("cli.cmd_verify", "cli", "cmd_verify"),
    ("cli.cmd_estimate", "cli", "cmd_estimate"),
    ("generators.generate", "generators", "generate"),
]


def _diameter_points(args, kwargs, result):
    # diameter(None) recurses into diameter(ids) unless cached; count that call
    subset = args[1] if len(args) > 1 else kwargs.get("subset")
    return 0 if subset is None else len(subset)


def _matrix_rebuild_bytes(args, kwargs, result):
    space = args[0]  # reads the cache slot: a call that finds it empty rebuilds
    return 8 * space.n * space.n if space._dmat is None else 0


def _windows_used(args, kwargs, result):
    return result.diagnostics["windows_used"]


# metric key -> [(counter, amount function, taken before the call)]
COUNTERS = {
    "metric.diameter": [("metric.diameter.points", _diameter_points, True)],
    "metric.distance_matrix": [("metric.distance_matrix.bytes", _matrix_rebuild_bytes,
                                True)],
    "kernels.nearest_center_coords": [
        ("kernels.nearest_center_coords.pairs", lambda a, k, r: len(a[0]) * len(a[1]),
         True)],
    "kernels.nearest_center_matrix": [
        ("kernels.nearest_center_matrix.pairs", lambda a, k, r: len(a[1]) * len(a[2]),
         True)],
    "nets.build_net": [("nets.build_net.centers", lambda a, k, r: int(r.centers.size),
                        False)],
    "covering.exact_cover_count": [
        ("covering.exact_cover_count.answers", lambda a, k, r: int(r is not None), False)],
    "dimensions.local_windows": [("dimensions.local_windows.windows",
                                  lambda a, k, r: len(r), False)],
    "dimensions.assouad_spectrum_estimate": [("dimensions.windows_used", _windows_used,
                                              False)],
    "dimensions.assouad_dim_estimate": [("dimensions.windows_used", _windows_used, False)],
}

# (metric name, unit, better) of every counter and ratio the trace reports
COUNTER_METRICS = [
    ("metric.diameter.points", "count", "lower"),
    ("metric.distance_matrix.bytes", "bytes", "lower"),
    ("kernels.nearest_center_coords.pairs", "count", "lower"),
    ("kernels.nearest_center_matrix.pairs", "count", "lower"),
    ("nets.build_net.centers", "count", "lower"),
    ("covering.exact_cover_count.answered_frac", "fraction", "higher"),
    ("dimensions.local_windows.windows", "count", "lower"),
    ("dimensions.windows_used_frac", "fraction", "higher"),
    ("trace.covered_frac", "fraction", "higher"),
]

# filled by run.py from the untraced pipeline that accompanies a traced one:
# the CPU time of each cli stage, and traced minus untraced total_s
UNTRACED_METRICS = [(f"cli.{stage}", "s", "lower") for stage in STAGES] + [
    ("trace.overhead_s", "s", "lower")]


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for key, _, _ in TRACED:
        out += [(f"{key}.calls", "count", "lower"), (f"{key}.total_s", "s", "lower"),
                (f"{key}.self_s", "s", "lower")]
    return out + COUNTER_METRICS + UNTRACED_METRICS


class Tracer:
    """Spans and counters for the functions in TRACED, kept in memory.

    Use as a context manager around the traced work; leaving it restores
    every patched attribute. With ``keep_spans`` every span is recorded as
    (key, start, end, parent index), for checking that spans nest.
    """

    def __init__(self, keep_spans: bool = False):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.covered = 0.0  # time inside outermost spans below the cli layer
        self.spans = [] if keep_spans else None
        self.sites = []  # (owner, attribute) pairs patched, for the self-test
        self._stack = []  # open spans: [key, time in child spans, span index]
        self._depth = defaultdict(int)
        self._saved = []

    def __enter__(self):
        import cubedim.cli  # noqa: F401  (loads every submodule that can hold a site)

        for key, module, path in TRACED:
            owner = sys.modules[f"cubedim.{module}"]
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapped = self._wrap(key, original)
            sites = [(owner, attr)]
            if not cls_name:
                sites += [(mod, name) for mod_name, mod in sorted(sys.modules.items())
                          if mod_name.split(".")[0] == "cubedim" and mod is not owner
                          for name, value in vars(mod).items() if value is original]
            for site_owner, name in sites:
                self._saved.append((site_owner, name, original))
                setattr(site_owner, name, wrapped)
                self.sites.append((getattr(site_owner, "__name__", ""), name))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return False

    def _wrap(self, key, fn):
        before = [(name, amount) for name, amount, first in COUNTERS.get(key, []) if first]
        after = [(name, amount) for name, amount, first in COUNTERS.get(key, []) if not first]
        is_cli = key.startswith("cli.")
        stack, depth = self._stack, self._depth
        clock = time.process_time  # the clock of the end-to-end metrics

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for name, amount in before:
                self.counts[name] += amount(args, kwargs, None)
            index = None
            if self.spans is not None:
                index = len(self.spans)
                self.spans.append(None)
            frame = [key, 0.0, index]
            parent = stack[-1][2] if stack else None
            stack.append(frame)
            depth[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[key] -= 1
                duration = end - start
                self.calls[key] += 1
                self.self_time[key] += duration - frame[1]
                if depth[key] == 0:
                    self.total[key] += duration
                if stack:
                    stack[-1][1] += duration
                if not is_cli and (not stack or stack[-1][0].startswith("cli.")):
                    self.covered += duration
                if index is not None:
                    self.spans[index] = (key, start, end, parent)
            for name, amount in after:
                self.counts[name] += amount(args, kwargs, result)
            return result

        return traced

    def metrics(self, traced_s: float) -> dict:
        """Per-layer values by metric name, except UNTRACED_METRICS."""
        out = {}
        for key, _, _ in TRACED:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.total_s"] = self.total[key]
            out[f"{key}.self_s"] = self.self_time[key]
        for name, unit, _ in COUNTER_METRICS:
            if unit in ("count", "bytes"):
                out[name] = self.counts[name]
        calls = self.calls["covering.exact_cover_count"]
        out["covering.exact_cover_count.answered_frac"] = (
            self.counts["covering.exact_cover_count.answers"] / calls if calls else 0.0)
        windows = self.counts["dimensions.local_windows.windows"]
        out["dimensions.windows_used_frac"] = (
            self.counts["dimensions.windows_used"] / windows if windows else 0.0)
        out["trace.covered_frac"] = self.covered / traced_s if traced_s > 0 else 0.0
        return out
