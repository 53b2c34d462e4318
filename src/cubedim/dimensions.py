"""Dimension estimators on top of cube systems and covering counts.

Hausdorff dimension comes from the scaling of the cubic measure; Minkowski
(box) dimension from a least-squares fit of log dyadic counts; the Assouad
spectrum and Assouad dimension from the maximum local log-count slope over
admissible zoom windows. All estimators are deterministic given seeds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .covering import greedy_cover_count
# circumscribed_cube is not called here; perfbench's self-test patches it by name
# in this module, so the name stays
from .cubes import (DIAMETER_SLACK, AdjacentFamily, CubeSystem, LocalWindow,  # noqa: F401
                    circumscribed_cube, local_counts, point_windows, r_grid)
from .errors import InsufficientScalesError, InvalidArgumentError, ScaleExhaustedError
from .kernels import distinct

HAUSDORFF_SLOPE_TOL = 0.005
BISECTION_STEPS = 20
BISECTION_TOL = 1e-3
# a window's slope is fitted exactly when its screened slope is within
# SCREEN_RTOL * max(1, |greatest|) of the greatest screened slope
SCREEN_RTOL = 1e-9


@dataclass
class MeasureValue:
    s: float
    r: float
    value: float
    m_star: int
    flags: list = field(default_factory=list)


@dataclass
class DimensionEstimate:
    kind: str
    value: float
    theta: float | None = None
    window: list = field(default_factory=list)
    slope: float = 0.0
    intercept: float = 0.0
    residual: float = 0.0
    system_id: int = 0
    seed: int = 0
    flags: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "value": round(float(self.value), 12),
            "window": list(self.window),
            "slope": round(float(self.slope), 12),
            "intercept": round(float(self.intercept), 12),
            "residual": round(float(self.residual), 12),
            "system_id": self.system_id,
            "seed": self.seed,
            "flags": sorted(self.flags),
        }
        if self.theta is not None:
            out["theta"] = self.theta
        return out


def _fit_line(xs, ys):
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return float(slope), float(intercept), resid


# -- cubic measure and Hausdorff dimension -----------------------------------


def _met_diameters(system: CubeSystem, E: np.ndarray) -> list:
    """Per level k = 0..max_level: the diameters of the level-k cubes meeting E,
    in cube order. Same-level cubes partition the space, so the cubes meeting
    E are the least level-k cover of E, and ``np.sum(d ** s)`` over one entry
    is its sum of |Q|^s."""
    return [system.diams_at(k)[system.cubes_meeting(k, E)]
            for k in range(system.max_level + 1)]


def cubic_measure(system: CubeSystem, E, s: float, r: float) -> MeasureValue:
    """min over levels m with 4*C0*delta^m <= r of the |Q|^s sum over cubes meeting E."""
    E = system.space.subset(E)
    if not (s >= 0 and r > 0):
        raise InvalidArgumentError(f"cubic_measure needs s >= 0 and r > 0, got s={s!r}, r={r!r}")
    p = system.params
    admissible = [m for m in range(system.max_level + 1)
                  if 4.0 * p.C0 * p.delta ** m <= r * (1 + 1e-12)]
    if not admissible:
        raise ScaleExhaustedError(
            f"no admissible level: 4*C0*delta^m <= {r:g} needs m > {system.max_level}",
            deepest_available=system.max_level)
    sums = [float(np.sum(d ** s)) for d in _met_diameters(system, E)]
    best_m = min(admissible, key=lambda m: (sums[m], m))
    value = sums[best_m]
    flags = ["saturated-at-depth"] if (value == 0.0 and s > 0) else []
    return MeasureValue(s=s, r=r, value=float(value), m_star=best_m, flags=flags)


def h_greedy_sum(space, E, s: float, r: float) -> float:
    """Greedy arbitrary-set comparison value for the Hausdorff pre-measure."""
    sets = greedy_cover_count(space, E, r, return_sets=True)  # which checks E
    return float(sum(space.diameter(block) ** s for block in sets))


def _measure_slope(met, s, log_inv_r):
    """Fitted slope of log M^s_r against log(1/r) over the radii r_j, j >= 1;
    None when underdetermined.

    At r_j = 4*C0*delta^j the admissible levels are exactly m >= j, so
    M^s_{r_j} is the least level sum from level j down: a suffix minimum.
    """
    sums = [float(np.sum(d ** s)) for d in met]
    least = np.minimum.accumulate(sums[::-1])[::-1]
    xs, ys = [], []
    for x, value in zip(log_inv_r, least[1:]):
        if value > 0:
            xs.append(x)
            ys.append(math.log(value))
    if len(xs) < 2 or len(set(xs)) < 2:
        return None
    slope, _, _ = _fit_line(xs, ys)
    return slope


def hausdorff_dim_estimate(system: CubeSystem, E) -> DimensionEstimate:
    """Critical exponent of the cubic measure via bisection on the fitted slope.

    Measures grow as r shrinks below the critical exponent and flatten or
    decay above it; the estimate is the crossing point. The radii are
    4*C0*delta^j for j = 1..max_level, and the bisection runs up to the
    log2 of a 16-sample doubling estimate (seed 7). The cubes meeting E are
    found once per level, for every exponent the bisection tries.
    """
    E = system.space.subset(E)
    p = system.params
    L = system.max_level
    if L < 3:
        raise InsufficientScalesError(
            f"hausdorff fit needs >= 3 resolvable scales, got {L} (max_level={L})")
    radii = [4.0 * p.C0 * p.delta ** j for j in range(1, L + 1)]
    log_inv_r = [math.log(1.0 / r) for r in radii]

    doubling = system.space.estimate_doubling(sample_count=16, rng_seed=7)
    hi = max(1.0, math.log2(max(2, doubling.C_d_hat)))
    lo = 0.0
    met = _met_diameters(system, E)

    def grows(s):
        slope = _measure_slope(met, s, log_inv_r)
        if slope is None:
            return False
        return slope > HAUSDORFF_SLOPE_TOL

    if not grows(lo + 1e-9):
        value = 0.0
    elif grows(hi):
        value = hi
    else:
        a, b = lo, hi
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (a + b)
            if grows(mid):
                a = mid
            else:
                b = mid
            if b - a < BISECTION_TOL:
                break
        value = 0.5 * (a + b)

    diagnostics = {}
    flags = []
    grid = [round(value * f, 6) for f in (0.5, 0.8, 1.0, 1.2, 1.5) if value > 0]
    slopes = []
    for s in grid:
        sl = _measure_slope(met, s, log_inv_r)
        diagnostics[f"slope@s={s:g}"] = sl
        slopes.append(sl)
    known = [sl for sl in slopes if sl is not None]
    if any(b > a + 1e-9 for a, b in zip(known, known[1:])):
        flags.append("unstable")

    return DimensionEstimate(kind="hausdorff", value=float(value),
                             window=[float(radii[0]), float(radii[-1])],
                             slope=value, system_id=system.system_id,
                             seed=system.seed, flags=flags, diagnostics=diagnostics)


# -- box dimension ------------------------------------------------------------


def least_admissible_level(delta: float, diam: float) -> int:
    """Smallest m >= 0 with delta^m <= diam (with float slack)."""
    if diam <= 0:
        return 0
    m = 0
    while delta ** m > diam * DIAMETER_SLACK:
        m += 1
    return m


def box_dim_estimate(family: AdjacentFamily, E, m_window=None) -> DimensionEstimate:
    """Least-squares slope of log D(E, m) against m*log(1/delta).

    The counts are those of the local window of the ball B(x, R) around x,
    the first id of E, whose radius R just exceeds x's farthest distance in
    E, so the ball holds E. At m = 0 the window's one cube holds E.
    """
    space = family.space
    E = space.subset(E)
    diam_E = space.diameter(E)
    if diam_E == 0.0:  # one point, perhaps repeated
        return DimensionEstimate(kind="box", value=0.0, window=[0, 0],
                                 flags=family.flags())
    x = int(E[0])
    R = float(space.index.run_farthest(E, np.array([0, E.size]),
                                       np.array([x]))[0]) * (1.0 + 1e-9)
    window = local_counts(family, E, x, R, space.ball_members(x, R))

    m_E = least_admissible_level(family.params.delta, diam_E)
    if m_window is None:
        m_window = list(range(m_E, window.depth + 1))
    m_window = [m for m in m_window if m_E <= m <= window.depth]
    if len(m_window) < 3:
        raise InsufficientScalesError(
            f"box fit needs >= 3 levels, window has {len(m_window)} "
            f"(m_E={m_E}, depth={window.depth})")

    counts = [window.counts[m] for m in m_window]
    log_inv_delta = math.log(1.0 / family.params.delta)
    xs = [m * log_inv_delta for m in m_window]
    ys = [math.log(c) for c in counts]
    slope, intercept, resid = _fit_line(xs, ys)

    flags = family.flags()
    if counts[-1] == window.target_size:
        flags.append("depth-limited")
    return DimensionEstimate(kind="box", value=float(slope), window=list(m_window),
                             slope=float(slope), intercept=float(intercept),
                             residual=resid, system_id=window.system_id,
                             seed=family.systems[window.system_id].seed, flags=flags,
                             diagnostics={"counts": counts})


# -- local sweeps: Assouad spectrum and Assouad dimension ---------------------


def sample_points(space, E, budget: int, seed: int) -> np.ndarray:
    """Up to ``budget`` seeded sample points of E plus the extremal ids.

    Extremal = lexicographic extremes plus the points with the smallest and
    largest nearest-neighbor gap inside E; zoom behavior concentrates there.
    """
    E = space.subset(E)
    if not budget >= 1:
        raise InvalidArgumentError(f"sample budget must be >= 1, got {budget!r}")
    extremal = [int(E[0]), int(E[-1])]
    if E.size > 2:
        sub = E
        if E.size > 4096:
            rng = np.random.default_rng([seed, 11])
            sub = np.sort(rng.choice(E, size=4096, replace=False))
        probes = sub[:: max(1, sub.size // 512)]
        least = space.index.least_positive(probes, E)
        kept = ~np.isnan(least)
        gaps = list(zip(least[kept].tolist(), probes[kept].tolist()))
        if gaps:
            extremal.append(min(gaps)[1])
            extremal.append(max(gaps)[1])
    if E.size <= budget:
        chosen = E
    else:
        rng = np.random.default_rng([seed, 13])
        chosen = rng.choice(E, size=budget, replace=False)
    return distinct(np.concatenate([chosen, np.asarray(extremal, dtype=np.int64)]))


def local_windows(family: AdjacentFamily, E, sample_budget: int = 512,
                  seed: int = 0, radii=None) -> list:
    """Precompute per-(x, R) dyadic counts and cube diameters for the sweeps.

    The same table serves every theta and the Assouad sweep; admissibility
    filters are applied afterwards. The radii are ``r_grid``'s, after one just
    below 1; a ball below the least gap between distinct points holds one
    distinct point and gives no window, so no radius is dropped beforehand.
    Sampled points are visited in ascending id order, and a ball whose member
    set was already seen adds no window; only windows of depth 2 or more are
    counted (``point_windows``). A NaN radius, which no ball order can place,
    raises ``InvalidArgumentError``.
    """
    E = family.space.subset(E)
    if radii is None:
        # a radius just below 1 keeps whole-space windows in every sweep,
        # which pins the small-theta end of the spectrum to the global counts
        radii = [1.0 - 1e-10, *r_grid(family.params.delta, family.max_level)]
    radii = np.asarray(radii, dtype=np.float64)
    if np.isnan(radii).any():
        raise InvalidArgumentError("window radii must be numbers, got nan")
    return point_windows(family, E, sample_points(family.space, E, sample_budget, seed), radii)


def _fit_input(window: LocalWindow, bound: float):
    """The levels m >= 1 whose counted cubes all have diameter at most the
    bound, and the window's counts at them: the points of its local fit."""
    levels = tuple(m for m in range(1, window.depth + 1) if window.max_diams[m] <= bound)
    return levels, tuple(window.counts[m] for m in levels)


def _sweep_max_slope(family, windows, bound_fn, kind, theta, seed):
    """The greatest local slope over the windows: the least-squares slope of
    log counts against m * log(1/delta) over each window's ``_fit_input``,
    for every window with two levels or more; the first window in order to
    reach it is the witness.

    The levels, counts and largest diameters of all windows are laid out in
    flat arrays, window after window, and each window's admissible levels and
    slope are found for all at once. That slope, from NumPy's ``log``, only
    screens: ``np.polyfit`` over ``math.log`` counts gives the exact slope, and
    it is taken only for the windows screened within ``SCREEN_RTOL`` of the
    greatest, once per distinct fit input. Any other window's slope falls short
    of theirs by far more than either computation's rounding.
    """
    log_inv_delta = math.log(1.0 / family.params.delta)
    size = np.fromiter((w.depth + 1 for w in windows), dtype=np.int64, count=len(windows))
    ends = np.cumsum(size)
    of = np.repeat(np.arange(size.size), size)  # the window of each entry
    level = np.arange(of.size) - np.repeat(ends - size, size)
    diams = np.fromiter(chain.from_iterable(w.max_diams for w in windows), dtype=np.float64,
                        count=of.size)
    counts = np.fromiter(chain.from_iterable(w.counts for w in windows), dtype=np.float64,
                         count=of.size)
    bounds = [bound_fn(w) for w in windows]
    admitted = (level >= 1) & (diams <= np.asarray(bounds, dtype=np.float64)[of])
    sums = functools.partial(np.bincount, of, minlength=size.size)  # a sum per window
    n_admitted = sums(weights=admitted)
    usable = n_admitted >= 2
    if not usable.any():
        reason = ("depth too small for the admissible windows"
                  if np.any(n_admitted == 1) else
                  f"cube-diameter bound too tight (C_delta_hat={family.C_delta_hat:g}, "
                  f"C_tilde={family.C_tilde:g})")
        raise InsufficientScalesError(
            f"{kind}: no (x, R) window with >= 2 admissible levels; {reason}")
    # the slope over the admitted levels, centred on their mean level
    centred = (level - (sums(weights=level * admitted) / np.maximum(n_admitted, 1))[of]) * admitted
    screened = np.full(size.size, -np.inf)
    screened[usable] = (sums(weights=centred * np.log(counts))[usable]
                        / (sums(weights=centred * centred)[usable] * log_inv_delta))
    top = float(screened.max())
    best = witness = None
    fitted = {}
    for i in np.flatnonzero(screened >= top - SCREEN_RTOL * max(1.0, abs(top))).tolist():
        w = windows[i]
        fit = _fit_input(w, bounds[i])
        if fit not in fitted:
            levels, window_counts = fit
            fitted[fit] = _fit_line([m * log_inv_delta for m in levels],
                                    [math.log(c) for c in window_counts])[0]
        if best is None or fitted[fit] > best:
            best = fitted[fit]
            witness = {"x": w.x, "R": w.R, "system_id": w.system_id}
    flags = family.flags()
    # a usable window whose deepest level is admitted
    if np.any(usable & admitted[ends - 1]):
        flags.append("depth-limited")
    return DimensionEstimate(kind=kind, value=float(best), theta=theta,
                             window=[0, family.max_level], slope=float(best),
                             seed=seed, flags=flags,
                             diagnostics={"windows_used": int(usable.sum()),
                                          "witness": witness})


def assouad_spectrum_estimate(family: AdjacentFamily, E, theta: float,
                              sample_budget: int = 512, seed: int = 0,
                              windows=None) -> DimensionEstimate:
    """Max over (x, R) of the fitted local slope over theta-admissible levels.

    A level m is admissible for (x, R) when every counted cube at that level
    has diameter at most R_eff^(1/theta); admissible sets grow with theta,
    so the estimate is monotone up to fit noise.
    """
    E = family.space.subset(E)
    if not (0.0 < theta < 1.0):
        raise InvalidArgumentError("theta must be in (0, 1)")
    if windows is None:
        windows = local_windows(family, E, sample_budget, seed)
    est = _sweep_max_slope(family, windows,
                           lambda w: w.R_eff ** (1.0 / theta),
                           "assouad_theta", theta, seed)
    return est


def assouad_dim_estimate(family: AdjacentFamily, E, sample_budget: int = 512,
                         seed: int = 0, windows=None) -> DimensionEstimate:
    """Same sweep with the zoom constraint relaxed to diameters <= R_eff."""
    E = family.space.subset(E)
    if windows is None:
        windows = local_windows(family, E, sample_budget, seed)
    return _sweep_max_slope(family, windows, lambda w: w.R_eff,
                            "assouad", None, seed)
