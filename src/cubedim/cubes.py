"""Dyadic cube hierarchies, adjacent families, and circumscribed-cube queries.

A system is built from one net per level: every point is assigned to its
nearest deepest-level center, each level-(k+1) center to its nearest level-k
center, and a level-k cube collects the points whose ancestor chain passes
through its center. Nesting and partition hold by construction; the ball
sandwich and ball monotonicity are checked, not assumed.

An adjacent family holds several systems built from consecutive seeds and a
measured two-sided comparability certificate for circumscribed-cube queries.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, DegenerateBallError, InvalidArgumentError,
                     StaleCubesError)
from .kernels import distinct
from .metric import MetricSpace
from .nets import NetLevel, NetParams, build_net, nearest_center

MAX_LEVEL_CAP = 12   # default depth cap for resolution-derived levels
HARD_LEVEL_CAP = 24  # explicit requests beyond this are configuration errors
NORMALIZED_DIAMETER = 1.0 - 1e-9
DIAMETER_SLACK = 1.0 + 1e-6


@dataclass
class PropertyCheck:
    name: str
    ok: bool
    applicable: bool = True
    worst: float | None = None
    witness: object = None


@dataclass
class BuildReport:
    warnings: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)


def _normalizing_factor(space: MetricSpace, params: NetParams) -> float:
    """The factor that rescales the space to diameter NORMALIZED_DIAMETER * min(1, c0)."""
    return space.normalizing_factor(NORMALIZED_DIAMETER * min(1.0, params.c0))


def default_max_level(space: MetricSpace, delta: float) -> int:
    """Deepest level whose scale stays at or above the smallest point gap."""
    gap = space.min_positive_distance()
    if not math.isfinite(gap):
        return 1
    if gap == 0.0:
        raise ConfigurationError(
            "the least distance between distinct points underflows to 0.0; "
            "rescale the metric")
    inverse = 1.0 / gap  # inf below about 5.6e-309, where -log(gap) gives a level past the cap
    scale = math.log(inverse) if math.isfinite(inverse) else -math.log(gap)
    level = int(math.floor(scale / math.log(1.0 / delta) + 1e-9))
    return max(1, min(MAX_LEVEL_CAP, level))


class CubeSystem:
    """One delta-dyadic hierarchy over a diameter-normalized space.

    The diameter stays below c0, so level 0 is one root cube: the space.
    ``labels[k][x]`` is the index of the level-k cube holding point x and
    ``parent_idx[k][i]`` the level-(k-1) parent of level-k cube i. ``order``
    sorts the points by their label chains (labels[0], ..., labels[L]), a
    depth-first order in which every cube at every level is one contiguous
    run; ``rank`` is its inverse.
    """

    def __init__(self, system_id, space, params, seed, levels, labels, parent_idx,
                 report):
        self.system_id = system_id
        self.space = space
        self.params = params
        self.seed = seed
        self.levels = levels
        self.labels = labels
        self.parent_idx = parent_idx
        self.report = report
        self.max_level = len(levels) - 1
        self.order = np.lexsort(labels[::-1])
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(self.order.size)
        self._diams = {}

    # -- cube access ----------------------------------------------------------

    def _grouped(self, k):
        """``_group_by_label`` of level k: ids ordered by cube, and each cube's bounds."""
        if not (0 <= k <= self.max_level):
            raise InvalidArgumentError(f"level {k} out of range 0..{self.max_level}")
        return _group_by_label(self.labels[k], self.levels[k].centers.size)

    def cubes_at(self, k) -> list:
        """Member ids of each level-k cube, ascending, indexed like the centers."""
        order, bounds = self._grouped(k)
        return np.split(order, bounds[1:-1])

    def diams_at(self, k) -> np.ndarray:
        """Cube diameters at level k, indexed like the level's center list.

        One ``run_diameters`` pass over the level's cubes, the root's included;
        an empty cube has diameter 0.
        """
        if k not in self._diams:
            self._diams[k] = self.space.run_diameters(*self._grouped(k))
        return self._diams[k]

    def dfs_sorted(self, ids) -> np.ndarray:
        """``ids`` in depth-first order: the ids of each cube form one run."""
        return self.order[np.sort(self.rank[ids])]

    def cubes_meeting(self, k, ids) -> np.ndarray:
        """Ascending indices of the level-k cubes that hold some of ``ids``."""
        hit = np.bincount(self.labels[k][ids], minlength=self.levels[k].centers.size)
        return np.flatnonzero(hit)

    def cubes_along(self, k, dfs: np.ndarray):
        """(count, labels) of level k along the depth-first-sorted ids ``dfs``:
        each cube is one run of them, so it meets one plus the label changes."""
        labels = self.labels[k][dfs]
        return 1 + int(np.count_nonzero(labels[1:] != labels[:-1])), labels


def _group_by_label(labels: np.ndarray, n_cubes: int):
    """Point ids ordered by cube, and each cube's slice bounds in that order.

    Cube i holds ``order[bounds[i]:bounds[i + 1]]``; the stable sort keeps
    those ids ascending.
    """
    if n_cubes == 1:  # the root: what the sort gives, without it
        return np.arange(labels.size), np.array([0, labels.size])
    order = np.argsort(labels, kind="stable")
    return order, np.searchsorted(labels[order], np.arange(n_cubes + 1))


def _derive_labels(space: MetricSpace, levels: list, parent_idx: list) -> list:
    """Per-level cube labels: nearest deepest center, then the parent chains.

    A deepest center labels itself, and only the other points ask for their
    nearest center. In a net no other center is at distance 0 from a center,
    so that is the center ``nearest_center`` would give. Two deepest centers
    at distance 0 each keep their own label, where ``nearest_center`` would
    give both the lower row; the inner-ball check refuses them.
    """
    centers = levels[-1].centers
    assign = np.full(space.n, -1, dtype=np.int64)
    assign[centers] = np.arange(centers.size)
    others = np.flatnonzero(assign < 0)
    if others.size:
        assign[others] = nearest_center(space, centers, query_ids=others)[0]
    labels = [None] * len(levels)
    labels[-1] = assign
    for k in range(len(levels) - 2, -1, -1):
        labels[k] = parent_idx[k + 1][labels[k + 1]]
    return labels


def build_system(space: MetricSpace, params: NetParams, seed: int = 0,
                 max_level: int | None = None, system_id: int = 0,
                 pre_normalized: bool = False) -> CubeSystem:
    """Build one cube system. The space is diameter-normalized first.

    Nesting and partition hold by construction; the build does not check the
    ball sandwich or ball monotonicity. Call ``verify_system`` for that; its
    result is also left on ``system.report.checks``.
    """
    norm = space if pre_normalized else space.rescaled(_normalizing_factor(space, params))
    if max_level is not None and max_level < 0:
        raise ConfigurationError("max_level must be >= 0")
    if max_level is not None and max_level > HARD_LEVEL_CAP:
        raise ConfigurationError(
            f"max_level {max_level} exceeds the hard cap {HARD_LEVEL_CAP}")

    report = BuildReport()
    resolution_level = default_max_level(norm, params.delta)
    if max_level is None:
        max_level = resolution_level
    if max_level > resolution_level:
        report.warnings.append(
            f"max_level {max_level} is below the sample resolution "
            f"(nets repeat beyond level {resolution_level})")

    levels = [build_net(norm, k, params, seed) for k in range(max_level + 1)]

    parent_idx = [None]
    for k in range(1, max_level + 1):
        pidx, _ = nearest_center(norm, levels[k - 1].centers, query_ids=levels[k].centers)
        parent_idx.append(pidx)
    labels = _derive_labels(norm, levels, parent_idx)
    return CubeSystem(system_id, norm, params, seed, levels, labels, parent_idx, report)


def _check_inner_balls(system: CubeSystem) -> PropertyCheck:
    """B(center, c0 d^k / 3) must lie inside the center's cube, every level:
    each point of center i's inner ball (``inner_balls``) carries label i. The
    witness is the deepest failing level's least point in another cube's
    center's ball, with the least such center."""
    worst = 0.0
    witness = None
    for k in range(system.max_level + 1):
        centers = system.levels[k].centers
        if centers.size == 1:  # every label 0
            continue
        inner = system.params.separation(k) / 3.0 * (1.0 - 1e-9)
        owner, members = system.space.index.inner_balls(centers, inner)
        bad = system.labels[k][members] != owner
        if bad.any():
            owner, members = owner[bad], members[bad]
            first = np.lexsort((owner, members))[0]
            p = int(members[first])
            witness = {"level": k, "point": p, "ball_center": int(centers[owner[first]]),
                       "assigned_center": int(centers[system.labels[k][p]])}
            dist = system.space.pair_distances(centers[owner], members)
            worst = max(worst, float((dist / inner).max()))
    return PropertyCheck("iii_inner", witness is None, worst=worst, witness=witness)


def _check_outer_balls(system: CubeSystem) -> PropertyCheck:
    """Every member sits within 2*C0*d^k of its cube center.

    Each cube's farthest member comes from the index (``run_farthest``); only
    a failing cube's members are measured one by one, for the witness."""
    worst = 0.0
    witness = None
    for k in range(system.max_level + 1):
        outer = 2.0 * system.params.covering(k)
        centers = system.levels[k].centers
        order, bounds = _group_by_label(system.labels[k], centers.size)
        # a singleton cube's only member is its center
        checked = np.flatnonzero(np.diff(bounds) > 1)
        if not checked.size:
            continue
        ratios = system.space.index.run_farthest(order, bounds, centers)[checked] / outer
        j = int(np.argmax(ratios))
        if ratios[j] > worst:
            worst = float(ratios[j])
            if worst > 1.0 + 1e-9:
                cube_i = int(checked[j])
                members = order[bounds[cube_i]:bounds[cube_i + 1]]
                d = system.space.pair_distances(np.full(members.size, centers[cube_i]), members)
                witness = {"level": k, "center": int(centers[cube_i]),
                           "point": int(members[np.argmax(d)])}
    return PropertyCheck("iii_outer", witness is None, worst=worst, witness=witness)


def _check_ball_monotone(system: CubeSystem) -> PropertyCheck:
    """d(child center, parent center) + 2*C0*d^l <= 2*C0*d^k for parent-child pairs."""
    if system.max_level == 0:
        return PropertyCheck("iv_ball_monotone", True, applicable=False)
    worst = 0.0
    witness = None
    for k in range(1, system.max_level + 1):
        child_centers = system.levels[k].centers
        parent_centers = system.levels[k - 1].centers[system.parent_idx[k]]
        outer_child = 2.0 * system.params.covering(k)
        outer_parent = 2.0 * system.params.covering(k - 1)
        lhs = system.space.pair_distances(child_centers, parent_centers) + outer_child
        ratios = lhs / outer_parent
        ci = int(np.argmax(ratios))
        if ratios[ci] > worst:
            worst = float(ratios[ci])
            if worst > 1.0 + 1e-9:
                witness = {"level": k, "child_center": int(child_centers[ci]),
                           "parent_center": int(parent_centers[ci])}
    return PropertyCheck("iv_ball_monotone", witness is None, worst=worst, witness=witness)


def _check_nesting(system: CubeSystem) -> PropertyCheck:
    """Each point's level-k label is the parent of its level-(k+1) label."""
    if system.max_level == 0:
        return PropertyCheck("i_nesting", True, applicable=False)
    for k in range(system.max_level):
        expect = system.parent_idx[k + 1][system.labels[k + 1]]
        bad = np.flatnonzero(expect != system.labels[k])
        if bad.size:
            return PropertyCheck("i_nesting", False,
                                 witness={"level_pair": (k, k + 1), "point": int(bad[0])})
    return PropertyCheck("i_nesting", True)


def _check_partition(system: CubeSystem) -> PropertyCheck:
    """Every label names one of its level's cubes, so each point lies in
    exactly one, and no cube is empty; the first failing level's witness."""
    for k in range(system.max_level + 1):
        labels, n_cubes = system.labels[k], system.levels[k].centers.size
        if labels.min() < 0 or labels.max() >= n_cubes:
            point = int(np.flatnonzero((labels < 0) | (labels >= n_cubes))[0])
            return PropertyCheck("ii_partition", False, witness={"level": k, "point": point})
        sizes = np.bincount(labels, minlength=n_cubes)
        if not sizes.all():  # argmin: the first empty cube
            return PropertyCheck("ii_partition", False,
                                 witness={"level": k, "empty_cube": int(np.argmin(sizes))})
    return PropertyCheck("ii_partition", True)


def verify_system(system: CubeSystem) -> dict:
    """Exhaustive re-check of all four structural properties.

    Recomputes every check from the system's current labels and parents on
    each call, and also leaves the result on ``system.report.checks``. Where
    a label names no cube of its level, partition fails and the checks that
    read cubes through the labels stand failed and not applicable.
    """
    partition = _check_partition(system)
    if partition.ok or "empty_cube" in partition.witness:
        nesting, inner, outer = (_check_nesting(system), _check_inner_balls(system),
                                 _check_outer_balls(system))
    else:
        nesting, inner, outer = (PropertyCheck(name, False, applicable=False)
                                 for name in ("i_nesting", "iii_inner", "iii_outer"))
    checks = {"i_nesting": nesting, "ii_partition": partition, "iii_inner": inner,
              "iii_outer": outer, "iv_ball_monotone": _check_ball_monotone(system)}
    system.report.checks = checks
    return checks


# -- adjacent families ------------------------------------------------------


@dataclass
class CircumscribedCube:
    system_id: int
    level: int
    index: int
    diameter: float
    R_eff: float


class AdjacentFamily:
    """K cube systems plus the measured circumscribed-cube certificate."""

    def __init__(self, space, params, systems, C_delta_hat, C_tilde, best_effort,
                 target_ratio, query_budget, seed, query_log, scale):
        self.space = space
        self.params = params
        self.systems = systems
        self.K = len(systems)
        self.C_delta_hat = C_delta_hat
        self.C_tilde = C_tilde
        self.best_effort = best_effort
        self.target_ratio = target_ratio
        self.query_budget = query_budget
        self.seed = seed
        self.query_log = query_log
        self.scale = scale

    @property
    def max_level(self):
        return min(s.max_level for s in self.systems)

    def flags(self):
        return ["best-effort-family"] if self.best_effort else []


def r_grid(delta: float, max_level: int) -> list:
    """Radii delta^(j/8), 1 <= j <= 8 * max_level: the scales local estimators sweep."""
    return [float(delta ** (j / 8)) for j in range(1, 8 * max_level + 1)]


def _cert_terms(params: NetParams, R_eff, level, diam) -> np.ndarray:
    """Each ball's certificate: the largest of diam / R_eff, 3 * R_eff / scale
    and their inverses, for its cube's diameter and scale c0 * delta^level."""
    scale = np.array([params.c0 * params.delta ** k
                      for k in range(int(level.max(initial=0)) + 1)])[level]
    return np.maximum.reduce([diam / R_eff, R_eff / diam, 3.0 * R_eff / scale,
                              scale / (3.0 * R_eff)])


def _extremes(system: CubeSystem, members: np.ndarray, starts: np.ndarray):
    """(first, last): the ids of least and greatest depth-first rank in each
    run of ``members``, run i starting at ``starts[i]``. Cubes are runs of
    that order, so a cube holds a run once it holds those two ids."""
    ranks = system.rank[members]
    return (system.order[np.minimum.reduceat(ranks, starts)],
            system.order[np.maximum.reduceat(ranks, starts)])


def _cubes_of(system: CubeSystem, first: np.ndarray, last: np.ndarray):
    """(level, index, diameter) of the deepest cube of ``system`` holding both
    ids first[i] and last[i], the ends of a run of some order in which every
    cube is a run. Nested cubes that hold both at level k hold both at every
    shallower level, down to the single root cube at level 0."""
    level = np.zeros(first.size, dtype=np.int64)
    for k in range(1, system.max_level + 1):
        labels = system.labels[k]
        level[labels[first] == labels[last]] = k
    index = np.empty_like(level)
    diam = np.empty(first.size)
    for k in np.flatnonzero(np.bincount(level)).tolist():
        at = level == k
        index[at] = held = system.labels[k][first[at]]
        diam[at] = system.diams_at(k)[held]
    return level, index, diam


def _smallest_cubes(systems: list, members: np.ndarray, starts: np.ndarray):
    """(system, level, index, diameter) of the circumscribed cube of each run
    of ``members``, run i from ``starts[i]``: of the deepest cubes of the
    ``systems`` holding it (``_cubes_of``), the one ``_first_least`` picks."""
    return _first_least([_cubes_of(system, *_extremes(system, members, starts))
                         for system in systems])


def _first_least(found: list):
    """(system, level, index, diameter) of each run's cube of least diameter,
    the first system's on a tie, of the ``_cubes_of`` results ``found``, one
    per system in order."""
    # (system, field, run), the levels and indices exact as floats
    found = np.array(found)
    won = found[:, 2].argmin(axis=0)
    level, index, diam = found[won, :, np.arange(won.size)].T
    return won, level.astype(np.int64), index.astype(np.int64), diam


def _split_cube(system: CubeSystem):
    """On a sorted index (one with ``ball_run``), the first cube whose ids are
    not one run of the index's order, as a witness; else None. A line's
    nearest centers are monotone in the coordinate, and an ultrametric's are
    prefix runs, so every cube of a built system is one run."""
    if not hasattr(system.space.index, "ball_run"):
        return None
    order = system.space.index.order
    for k in range(1, system.max_level + 1):
        labels = system.labels[k][order]
        # runs per cube: the first position starts one, and so does each whose label changes
        runs = np.bincount(labels[1:][labels[1:] != labels[:-1]],
                           minlength=system.levels[k].centers.size)
        runs[labels[0]] += 1
        split = np.flatnonzero(runs > 1)
        if split.size:
            return {"level": k, "center": int(system.levels[k].centers[split[0]])}
    return None


def _query_balls(space: MetricSpace, xs: np.ndarray, Rs: np.ndarray):
    """(R_eff, ids, starts) of the balls B(xs[i], Rs[i]), ball i's ids from
    ``starts[i]``, each R_eff ``_effective_radius``'s bit for bit.

    On a sorted index (one with ``ball_run``) a ball keeps its two end ids,
    from one ``ball_run`` call for all: cubes are runs of that order too, so
    the cubes holding both ends hold the ball, and R_eff = min(R, 2 * their
    distance). Elsewhere a ball keeps its ascending members (32-bit while ids
    fit), read off x's distance row, which gives its eccentricity too; only a
    ball whose eccentricity is under R / 2 asks the index for its diameter."""
    index = space.index
    if hasattr(index, "ball_run"):
        lo, hi = index.ball_run(xs, Rs)
        # x twice when the ball holds x alone: R_eff is 0.0
        first, last = index.order[lo], index.order[hi - 1]
        return (np.minimum(Rs, 2.0 * index.pairs(first, last)),
                np.stack([first, last], axis=1).ravel(), np.arange(0, 2 * xs.size, 2))
    dtype = np.int32 if space.n <= 2 ** 31 else np.int64
    R_eff, balls = np.zeros(xs.size), []
    for i, (x, R) in enumerate(zip(xs.tolist(), Rs.tolist())):
        row = index.row(x)
        members = np.flatnonzero(row < R)
        balls.append(members.astype(dtype))
        # _effective_radius's rule: 0.0 below two members, R once 2 * ecc reaches R
        if members.size > 1:
            R_eff[i] = R if 2.0 * row[members].max() >= R else min(
                R, 2.0 * index.diameter(members))
    sizes = np.array([members.size for members in balls])
    return R_eff, np.concatenate(balls), np.cumsum(sizes) - sizes


def _effective_radius(space: MetricSpace, x: int, R: float, members: np.ndarray) -> float:
    """min(R, 2 * diam(members)) for the members of B(x, R), x among them: 0.0
    exactly when fewer than two points are distinct, and R with no diameter once
    twice the eccentricity max d(x, q), which the diameter is at least, reaches R.
    The index gives the eccentricity (``run_farthest``)."""
    if members.size < 2:
        return 0.0
    ecc = space.index.run_farthest(members, np.array([0, members.size]), np.array([x]))[0]
    if 2.0 * ecc >= R:
        return R
    return min(R, 2.0 * space.diameter(members))


def circumscribed_cube(family: AdjacentFamily, x: int, R: float,
                       members: np.ndarray | None = None) -> CircumscribedCube:
    """Minimal-diameter cube across systems containing B(x, R).

    The radius is first clamped into the two-sided ball convention
    (R <= 2 * diam of the members). ``members``, the ball's ascending ids,
    may be passed to avoid recomputing the ball.
    """
    if members is None:
        members = family.space.ball_members(x, R)
    R_eff = _effective_radius(family.space, x, R, members)
    if R_eff == 0.0:
        raise DegenerateBallError(f"ball B({x}, {R:g}) holds fewer than two distinct points")
    won, level, index, diam = _smallest_cubes(family.systems, members, [0])
    return CircumscribedCube(int(won[0]), int(level[0]), int(index[0]), float(diam[0]), R_eff)


@dataclass
class LocalWindow:
    """The dyadic counts of E inside the circumscribed cube of one ball B(x, R).

    The cube sits at ``level`` of system ``system_id``, ``depth`` levels above
    that system's deepest. For m = 0..depth, ``counts[m]`` is the number of
    level-(level + m) cubes meeting E in the ball and ``max_diams[m]`` the
    largest of their diameters; at m = 0 that is the one containing cube,
    holding all ``target_size`` ids. A window of ``local_counts`` has no
    ``max_diams`` (None).
    """

    x: int
    R: float
    R_eff: float
    level: int
    system_id: int
    depth: int
    counts: list
    max_diams: list | None
    target_size: int


def target_in_ball(space: MetricSpace, E: np.ndarray, members: np.ndarray) -> np.ndarray:
    """E inside a ball, ascending, given the ball's ascending members.

    When E is the whole space, exactly the ids 0..n-1, that is the members
    themselves and no intersection is computed.
    """
    if E.size == space.n and np.array_equal(E, space.ids):
        return members
    inside = np.zeros(space.n, dtype=bool)
    inside[E] = True
    return members[inside[members]]


def local_counts(family: AdjacentFamily, E: np.ndarray, x: int, R: float,
                 members: np.ndarray) -> LocalWindow | None:
    """The local window of E in B(x, R), of ascending ids ``members``, with
    its counts alone (``max_diams`` None), or None when E misses the ball.
    The cube comes from ``circumscribed_cube``, which raises
    ``DegenerateBallError``; each level below it is counted along the
    depth-first-sorted target (``cubes_along``)."""
    cc = circumscribed_cube(family, x, R, members)
    target = target_in_ball(family.space, E, members)
    if target.size == 0:
        return None
    system = family.systems[cc.system_id]
    dfs = system.dfs_sorted(target)
    counts = [1, *(system.cubes_along(k, dfs)[0]
                   for k in range(cc.level + 1, system.max_level + 1))]
    return LocalWindow(x=x, R=R, R_eff=cc.R_eff, level=cc.level, system_id=system.system_id,
                       depth=system.max_level - cc.level, counts=counts, max_diams=None,
                       target_size=int(target.size))


def _digest_weights(n: int) -> np.ndarray:
    """One fixed 64-bit weight per point id. A ball's digest is the sum of its
    members' weights modulo 2**64, the same in any order of the members."""
    return np.random.default_rng(0).integers(0, 2 ** 64, size=n, dtype=np.uint64)


def _runs_of(sizes: np.ndarray):
    """(starts, last) of ids ordered by bucket, bucket j holding ``sizes[j]``
    of them: the start of each non-empty bucket's run, and for each bucket j
    the last of those runs at or before it. Ball j, the buckets 0..j, holds
    the runs up to last[j]."""
    filled = np.flatnonzero(sizes)
    return np.cumsum(sizes)[filled] - sizes[filled], np.cumsum(sizes > 0) - 1


def _running(ufunc, values: np.ndarray, starts: np.ndarray, last: np.ndarray) -> np.ndarray:
    """``ufunc`` (``np.minimum`` or ``np.maximum``) over the ``values`` of each
    ball, ball i holding the runs ``values[starts[r]:starts[r + 1]]`` for r up
    to last[i]: each run reduced (``reduceat``), then a running ``accumulate``."""
    return ufunc.accumulate(ufunc.reduceat(values, starts))[last]


def _met_by_balls(system: CubeSystem, k: int, target: np.ndarray, bucket: np.ndarray,
                  starts: np.ndarray, balls: np.ndarray, last: np.ndarray):
    """(count, largest): for each ball j of ``balls``, the number of level-k
    cubes of ``system`` meeting the ids ``target`` in buckets 0..j and the
    largest of their diameters. The ids come ordered by their ``bucket``, in
    runs from ``starts``, ball i holding the runs up to last[i]. A cube is
    met from the first bucket holding one of its ids on."""
    labels = system.labels[k][target]
    beyond = balls.max() + 1  # the first bucket of a cube that no ball meets
    first = np.full(system.levels[k].centers.size, beyond, dtype=bucket.dtype)
    np.minimum.at(first, labels, bucket)
    return (np.cumsum(np.bincount(first, minlength=beyond))[balls],
            _running(np.maximum, system.diams_at(k)[labels], starts, last))


def _row_windows(family: AdjacentFamily, E: np.ndarray, xs: np.ndarray,
                 radii: np.ndarray) -> list:
    """``point_windows`` off one distance row per point of ``xs``.

    The row is bucketed once by the sorted distinct radii: point q's bucket is
    the number of them at or below d(x, q), so q lies in the ball of the j-th
    one exactly when its bucket is at most j. Ordered by bucket (a radix sort
    of small ints), every ball of x is a prefix, and each ball's size, digest,
    eccentricity, target size, depth-first extremes per system and cubes met
    per level are running reductions over the buckets. Within a point, balls
    of one size are one set. Across points, a ball is keyed on its size and
    digest (``_digest_weights``), and a key met before is confirmed member by
    member: an earlier ball B(x0, R0) of that size is the same set when every
    member is nearer x0 than R0."""
    space, systems = family.space, family.systems
    index, n = space.index, space.n
    cuts = distinct(radii)
    at = np.searchsorted(cuts, radii)  # each radius' ball: the buckets 0..at[i]
    small = np.min_scalar_type(cuts.size)  # buckets 0..cuts.size, which a stable sort radix-sorts
    E = distinct(E)
    in_E = None
    if E.size < n:
        in_E = np.zeros(n, dtype=bool)
        in_E[E] = True
    weights = _digest_weights(n)
    deepest = np.array([system.max_level for system in systems])
    seen = {}  # (size, digest) -> [(x, R)] of the first ball of each set with that key
    windows = []
    for x in xs.tolist():
        row = space.row(x)
        bucket = np.less_equal.outer(cuts, row).sum(axis=0, dtype=small)
        sizes = np.bincount(bucket, minlength=cuts.size)[:cuts.size]
        E_sizes = sizes if in_E is None else np.bincount(bucket[E],
                                                         minlength=cuts.size)[:cuts.size]
        ends, E_ends = np.cumsum(sizes), np.cumsum(E_sizes)
        order = np.argsort(bucket, kind="stable")
        digest = np.cumsum(weights[order], dtype=np.uint64)
        # the first radius of each ball in the order given, with two members
        # or more and meeting E, whose member set no earlier ball had
        new, taken = [], set()
        for i, (size, met) in enumerate(zip(ends[at].tolist(), E_ends[at].tolist())):
            if size < 2 or not met or size in taken:
                continue
            taken.add(size)
            earlier = seen.setdefault((size, int(digest[size - 1])), [])
            if not any(size == n or np.all(index.pairs(x0, order[:size]) < R0)
                       for x0, R0 in earlier):
                earlier.append((x, radii[i]))
                new.append(i)
        if not new:
            continue
        R, j = radii[new], at[new]
        top = int(j.max())
        span = order[:ends[top]]
        runs, last = _runs_of(sizes)
        runs = runs[:last[top] + 1]
        # _effective_radius's rule: R once 2 * ecc reaches R, else the clamp by the diameter
        ecc = _running(np.maximum, row[span], runs, last[j])
        R_eff = R.copy()
        for t in np.flatnonzero(2.0 * ecc < R).tolist():
            R_eff[t] = min(R[t], 2.0 * index.diameter(np.sort(order[:ends[j[t]]])))
        found = []
        for system in systems:
            rank = system.rank[span]
            found.append(_cubes_of(system,
                                   system.order[_running(np.minimum, rank, runs, last[j])],
                                   system.order[_running(np.maximum, rank, runs, last[j])]))
        won, level, _, diam = _first_least(found)
        kept = np.flatnonzero((R_eff != 0.0) & (deepest[won] - level >= 2))
        if in_E is None:
            target = span
        else:  # the levels count E's part of each ball, in runs of its own
            target = span[in_E[span]]
            runs, last = _runs_of(E_sizes)
        counts = {t: [1] for t in kept.tolist()}
        max_diams = {t: [d] for t, d in zip(kept.tolist(), diam[kept].tolist())}
        for sid in distinct(won[kept]).tolist():
            system = systems[sid]
            ours = kept[won[kept] == sid]
            for k in range(int(level[ours].min()) + 1, system.max_level + 1):
                below = ours[level[ours] < k]
                reach = int(j[below].max())
                met = target[:E_ends[reach]]
                count, largest = _met_by_balls(system, k, met, bucket[met],
                                               runs[:last[reach] + 1], j[below], last[j[below]])
                for t, c, d in zip(below.tolist(), count.tolist(), largest.tolist()):
                    counts[t].append(c)
                    max_diams[t].append(d)
        R, R_eff, level, won, size = (R.tolist(), R_eff.tolist(), level.tolist(), won.tolist(),
                                      E_ends[j].tolist())
        windows += [LocalWindow(x=x, R=R[t], R_eff=R_eff[t], level=level[t],
                                system_id=systems[won[t]].system_id,
                                depth=systems[won[t]].max_level - level[t], counts=counts[t],
                                max_diams=max_diams[t], target_size=size[t])
                    for t in kept.tolist()]
    return windows


def point_windows(family: AdjacentFamily, E: np.ndarray, xs: np.ndarray,
                  radii: np.ndarray) -> list:
    """The local window of E in each ball B(x, R), x in ``xs`` and then R in
    ``radii``, whose member set no earlier ball had; none for a ball of one
    distinct point or that E misses, or whose cube is less than two levels
    above its system's deepest. The minimal containing cube depends only on
    the member set (cube families are laminar), so identical balls are one
    window. On a sorted index (one with ``ball_run``) the windows are read off
    one ``RunWindowTable``; elsewhere all the balls of a point are read at
    once off its distance row (``_row_windows``)."""
    if hasattr(family.space.index, "ball_run"):
        return RunWindowTable(family, E).windows(xs, radii)
    return _row_windows(family, E, xs, radii)


class RunWindowTable:
    """The local windows of E in balls that are runs of a sorted index.

    On a line or in an ultrametric, every ball is a run lo..hi-1 of the
    ranks of ``space.index`` (its ``ball_run``), and its part in E is the
    run ``before[lo]..before[hi]-1`` of ``ids``, E's ids in rank order, each
    once. Every cube is a run of those ranks too (``_split_cube``), and so is
    its part of ``ids``. A window reads off the runs, bit for bit, what
    ``point_windows`` computes from a ball's members on the other indexes:
    R_eff = min(R, 2 * diam), from the distance of the ball's two end ids;
    the containing cube, from those two ids (``_smallest_cubes``); and at
    each level below it the runs from the one holding the ball's first
    position in E to the one holding its last, which are the cubes meeting
    E in the ball, their number and largest diameter read off the system's
    level tables.
    A system's level tables are built the first time one of its cubes
    contains a window.
    """

    def __init__(self, family: AdjacentFamily, E: np.ndarray):
        self.family = family
        self.index = family.space.index
        order = self.index.order
        in_E = np.zeros(family.space.n, dtype=bool)
        in_E[E] = True
        in_E = in_E[order]
        self.ids = order[in_E]
        self.before = np.concatenate([[0], np.cumsum(in_E)])
        # what raises the positions at level k + 1, so that the levels' runs ascend together
        self.shift = np.arange(max(s.max_level for s in family.systems)) * (self.ids.size + 1)
        self._levels = {}

    def level_tables(self, system: CubeSystem):
        """(starts, diams) of levels 1..max_level: the positions of ``ids`` that
        start a cube's run, each raised by its level's ``shift``, and the
        diameter of each run's cube, then one 0.0."""
        if system.system_id not in self._levels:
            starts, diams = [], []
            for k in range(1, system.max_level + 1):
                labels = system.labels[k][self.ids]
                head = np.flatnonzero(np.diff(labels, prepend=-1))
                starts.append(head + self.shift[k - 1])
                diams.append(system.diams_at(k)[labels[head]])
            self._levels[system.system_id] = (np.concatenate(starts),
                                              np.concatenate([*diams, [0.0]]))
        return self._levels[system.system_id]

    def windows(self, xs: np.ndarray, radii: np.ndarray) -> list:
        """The local window of E in each ball B(x, R), x in ``xs`` and then R in
        ``radii``, whose run of ranks no earlier ball had. A ball of fewer than
        two distinct points, or that E misses, or whose cube is less than two
        levels above its system's deepest, has none. Each step runs over all
        the balls at once; the containing cubes come from one
        ``_smallest_cubes`` call over the balls' two end ids."""
        x, R = np.repeat(xs, radii.size), np.tile(radii, xs.size)
        lo, hi = self.index.ball_run(x, R)
        run = lo * (self.index.order.size + 1) + hi
        by_run = np.argsort(run, kind="stable")
        new = np.sort(by_run[np.diff(run[by_run], prepend=-1) != 0])  # first occurrences
        x, R, lo, hi = x[new], R[new], lo[new], hi[new]
        first, last = self.index.order[lo], self.index.order[hi - 1]
        # min(R, 2 * diam) as _effective_radius takes it; 0.0 for one distinct point
        R_eff = np.minimum(R, 2.0 * self.index.pairs(first, last))
        a, b = self.before[lo], self.before[hi]
        kept = (R_eff != 0.0) & (a < b)
        x, R, R_eff, first, last, a, b = (v[kept] for v in (x, R, R_eff, first, last, a, b))
        won, cube_level, _, cube_diam = _smallest_cubes(
            self.family.systems, np.stack([first, last], axis=1).ravel(),
            np.arange(0, 2 * first.size, 2))
        deep = np.array([s.max_level for s in self.family.systems])[won] - cube_level >= 2
        x, R, R_eff, a, b, won, cube_level, cube_diam = (
            v[deep] for v in (x, R, R_eff, a, b, won, cube_level, cube_diam))
        x, R, R_eff, size = x.tolist(), R.tolist(), R_eff.tolist(), (b - a).tolist()
        out = [None] * won.size
        for sid in distinct(won).tolist():
            system = self.family.systems[sid]
            at = np.flatnonzero(won == sid)
            level, diam = cube_level[at], cube_diam[at]
            depth = system.max_level - level
            starts, diams = self.level_tables(system)
            # for each window and level below its cube, the run holding the first
            # position and one past the run holding the last, window by window
            stops = np.cumsum(depth)
            ends = np.repeat(np.stack([a[at], b[at] - 1], axis=1), depth, axis=0)
            below = np.arange(stops[-1]) + np.repeat(level - stops + depth, depth)
            runs = starts.searchsorted((self.shift[below, None] + ends).ravel(), side="right")
            runs[::2] -= 1
            counts = (runs[1::2] - runs[::2]).tolist()
            largest = np.maximum.reduceat(diams, runs)[::2].tolist()
            for i, k, d, stop, top in zip(at.tolist(), level.tolist(), depth.tolist(),
                                          stops.tolist(), diam.tolist()):
                out[i] = LocalWindow(x=x[i], R=R[i], R_eff=R_eff[i], level=k, system_id=sid,
                                     depth=d, counts=[1, *counts[stop - d:stop]],
                                     max_diams=[top, *largest[stop - d:stop]],
                                     target_size=size[i])
        return out


def build_adjacent_family(space: MetricSpace, params: NetParams, K_max: int = 8,
                          query_budget: int = 500, target_ratio: float = 64.0,
                          seed: int = 0, max_level: int | None = None) -> AdjacentFamily:
    """Add systems (seeds seed, seed+1, ...) until the sampled worst-case
    circumscribed-cube certificate meets target_ratio, or K_max is reached.

    The query sample and each query's ball are fixed up front, so the stop
    rule and the recorded certificate are pure functions of (space, params,
    budgets, seed). A degenerate ball (fewer than two distinct points) has
    certificate 1 by convention and is not evaluated. A later system wins a
    query only with a strictly smaller cube; the log names each winner.
    """
    if K_max < 1:
        raise ConfigurationError("K_max must be >= 1")
    if query_budget < 1:
        raise ConfigurationError("query_budget must be >= 1")
    if max_level is not None and max_level < 1:
        raise ConfigurationError("an adjacent family needs max_level >= 1")
    if math.isnan(target_ratio):
        raise ConfigurationError("target_ratio must be a number, got nan")
    scale = _normalizing_factor(space, params)
    norm = space.rescaled(scale)

    probe = build_system(norm, params, seed=seed, max_level=max_level,
                         system_id=0, pre_normalized=True)
    L = probe.max_level

    rng = np.random.default_rng([seed, 104729])
    radii = r_grid(params.delta, L)
    queries = []
    for _ in range(query_budget):
        x = int(rng.integers(norm.n))
        R = radii[int(rng.integers(len(radii)))]
        queries.append((x, R))
    xs, Rs = (np.array(v) for v in zip(*queries))
    R_eff, ids, starts = _query_balls(norm, xs, Rs)
    degenerate = R_eff == 0.0

    live = ~degenerate
    cert = np.ones(len(queries))
    systems, found = [], []
    for t in range(K_max):
        system = probe if t == 0 else build_system(norm, params, seed=seed + t, max_level=L,
                                                   system_id=t, pre_normalized=True)
        if (split := _split_cube(system)) is not None:
            raise RuntimeError(f"built system {t} has a cube that is not one run: {split}")
        systems.append(system)
        found.append(_cubes_of(system, *_extremes(system, ids, starts)))
        # each query's smallest containing cube across the systems so far
        won, level, _, diam = _first_least(found)
        cert[live] = _cert_terms(params, R_eff[live], level[live], diam[live])
        worst = float(cert.max())  # finite: the root holds every ball
        if worst <= target_ratio:
            break

    C_delta_hat = max(1.0, worst)
    best_effort = worst > target_ratio

    query_log = [{"x": x, "R": R, "degenerate": bool(degenerate[qi]),
                  "cert": float(cert[qi]),
                  "system_id": None if degenerate[qi] else int(won[qi])}
                 for qi, (x, R) in enumerate(queries)]

    return AdjacentFamily(norm, params, systems, C_delta_hat, _C_tilde(params, C_delta_hat),
                          best_effort, target_ratio, query_budget, seed, query_log, scale)


def _C_tilde(params: NetParams, C_delta_hat: float) -> float:
    """The sandwich constant 12 * C0 * C_delta_hat / c0."""
    return 12.0 * params.C0 * C_delta_hat / params.c0


def _finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# -- serialization ----------------------------------------------------------


def file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# The compact form of ``cubes.json``: ``json.dumps(doc, **_COMPACT)`` and a
# newline. An id array in it is ids without sign or leading zero, joined by
# commas; the parents array holds [center, parent center] pairs. The patterns
# are compiled on first use (``re`` caches them), not on import.
_COMPACT = {"sort_keys": True, "separators": (",", ":")}
_ID = rb"(?!0[0-9])[0-9]+"
_CENTERS = rb"\[(?:" + _ID + rb"(?:," + _ID + rb")*)?\]"
_PAIRS = rb"\[(?:\[" + _ID + rb"," + _ID + rb"\](?:,\[" + _ID + rb"," + _ID + rb"\])*)?\]"
# A key that holds an id array. In the small rest of the document that
# ``json.dumps`` writes and ``json.loads`` reads, the array's place holds its
# slot: its position in the list of arrays.
_ID_ARRAY = rb'"(centers|parents)":([0-9]*)'


def _ids_text(ids: np.ndarray) -> bytes:
    """An id array, or an (m, 2) array of id pairs, as ``json.dumps`` writes its list."""
    if ids.ndim == 1:
        text = ",".join(map(str, ids.tolist()))
    else:
        text = ",".join(map("[{},{}]".format, ids[:, 0].tolist(), ids[:, 1].tolist()))
    return b"[" + text.encode() + b"]"


def save_family(family: AdjacentFamily, path, points_hash: str = "") -> None:
    """Write the family in the compact form.

    Each system stores its levels' centers and its (center, parent center)
    pairs, level by level from level 1. ``json.dumps`` writes the document
    with each id array's slot in its place, and each array's text is written
    from the array into its slot's place."""
    arrays = []

    def slot(ids):
        arrays.append(ids)
        return len(arrays) - 1

    systems = []
    for s in family.systems:
        pairs = [np.column_stack([s.levels[k].centers, s.levels[k - 1].centers[s.parent_idx[k]]])
                 for k in range(1, s.max_level + 1)]
        systems.append({"seed": s.seed,
                        "levels": [{"k": lv.k, "centers": slot(lv.centers)} for lv in s.levels],
                        "parents": slot(np.concatenate([np.empty((0, 2), np.int64), *pairs]))})
    rest = json.dumps({
        "params": {"delta": family.params.delta, "c0": family.params.c0,
                   "C0": family.params.C0, "seed": family.seed,
                   "target_ratio": family.target_ratio,
                   "query_budget": family.query_budget},
        "systems": systems,
        "C_delta_hat": family.C_delta_hat,
        "C_tilde": family.C_tilde,
        "best_effort": family.best_effort,
        "scale": family.scale,
        "points_hash": points_hash,
    }, **_COMPACT).encode()
    with open(path, "wb") as fh:
        pos = 0
        for m in re.finditer(_ID_ARRAY, rest):
            fh.write(rest[pos:m.start(2)])
            fh.write(_ids_text(arrays[int(m[2])]))
            pos = m.end()
        fh.write(rest[pos:] + b"\n")


def _read_doc(path) -> dict:
    """The document of a cubes file in the compact form, its id arrays read as
    int64 arrays: each level's centers, and each system's parents as an
    (m, 2) array of pairs.

    Each key that holds an id array is found in the bytes, its array checked
    against the writer's grammar, read with ``np.fromstring`` and replaced
    by its slot; ``json.loads`` reads the small rest, which must be what
    ``json.dumps`` writes of it. So every such key holds a slot, and a value
    of the file that is not an id array is never taken for one. Anything
    else raises ``StaleCubesError``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise StaleCubesError(f"cannot read cubes file: {exc}") from exc
    key_at = re.compile(_ID_ARRAY)
    grammar = {b"centers": re.compile(_CENTERS), b"parents": re.compile(_PAIRS)}
    arrays, pieces, pos = [], [], 0
    while (m := key_at.search(data, pos)) is not None:
        start = m.start(2)
        array = grammar[m[1]].match(data, start)
        if array is None:
            raise StaleCubesError(f"cannot read cubes file: the {m[1].decode()} at byte "
                                  f"{start} are not a list of point ids in the compact form")
        ids = data[start + 1:array.end() - 1]
        if m[1] == b"parents":
            ids = ids.translate(None, b"[]")
        arrays.append(np.fromstring(ids, dtype=np.int64, sep=","))
        pieces += [data[pos:start], b"%d" % (len(arrays) - 1)]
        pos = array.end()
    pieces.append(data[pos:])
    del data
    rest = b"".join(pieces)
    try:
        doc = json.loads(rest)
    except ValueError as exc:
        raise StaleCubesError(f"cannot read cubes file: {exc}") from exc
    if json.dumps(doc, **_COMPACT).encode() + b"\n" != rest:
        raise StaleCubesError("cannot read cubes file: it is not in the compact form "
                              "that build writes")
    try:
        for sdoc in doc["systems"]:
            for lv in sdoc["levels"]:
                lv["centers"] = arrays[lv["centers"]]
            sdoc["parents"] = arrays[sdoc["parents"]].reshape(-1, 2)
    except (KeyError, IndexError, TypeError) as exc:
        raise StaleCubesError(f"malformed cubes file: {exc!r}") from exc
    return doc


def load_family(path, space: MetricSpace, points_hash: str | None = None) -> AdjacentFamily:
    """Rebuild a family from file, refusing mismatched or broken files.

    The file must be in the compact form that ``save_family`` writes: the
    bytes of ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` and a
    newline, each id array a list of integers without sign, fraction or
    leading zero, and each parent entry a [center, parent center] pair.
    ``_read_doc`` reads the id arrays with NumPy and the small rest with
    ``json.loads``. An unreadable file, one in any other form (a
    pretty-printed one, say), a malformed one, or one with a system whose
    level 0 is not one root center or that has no level below it, raises
    ``StaleCubesError``. Labels are re-derived from the stored nets and
    parents, and every system's four structural checks are recomputed; a
    system that fails partition, the inner ball or the outer ball check makes
    the file stale, and so does one on a line or an ultrametric with a cube
    that is not one run of the index's order (``_split_cube``), or a value
    that the builder could not have
    written: a system ``seed`` not an int >= 0, a level ``k`` other than its
    position, a level whose centers are not strictly ascending,
    ``C_delta_hat`` not finite or below 1, ``C_tilde`` other than
    its expression in ``C_delta_hat``, ``c0`` and ``C0``, ``best_effort``
    not a bool, ``scale`` other than ``_normalizing_factor`` of the points,
    ``params.seed`` not an int >= 0 or ``params.query_budget`` not an int
    >= 1. Ball monotonicity is recorded but does not refuse the file, and
    the sandwich inequality is not checked here (``cubedim verify`` samples
    it). Each system's checks are left on ``system.report.checks``."""
    doc = _read_doc(path)
    try:
        if points_hash is not None and doc.get("points_hash") not in ("", points_hash):
            raise StaleCubesError("cubes file was built from a different points file")
        p = doc["params"]
        params = NetParams(delta=p["delta"], c0=p["c0"], C0=p["C0"])
        nets = [_nets_from_json(sdoc, space.n, params) for sdoc in doc["systems"]]
        C_delta_hat, C_tilde, best_effort, scale = (
            doc[key] for key in ("C_delta_hat", "C_tilde", "best_effort", "scale"))
        target_ratio, query_budget, seed = (p[key] for key in
                                            ("target_ratio", "query_budget", "seed"))
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise StaleCubesError(f"malformed cubes file: {exc!r}") from exc
    if not (_finite_number(C_delta_hat) and C_delta_hat >= 1.0):
        raise StaleCubesError(f"cubes file C_delta_hat {C_delta_hat!r} is not a finite "
                              "number >= 1")
    if C_tilde != _C_tilde(params, C_delta_hat):
        raise StaleCubesError(f"cubes file C_tilde {C_tilde!r} is not "
                              f"12 * C0 * C_delta_hat / c0 = {_C_tilde(params, C_delta_hat)!r}")
    if not isinstance(best_effort, bool):
        raise StaleCubesError(f"cubes file best_effort {best_effort!r} is not true or false")
    factor = _normalizing_factor(space, params)
    if not (_finite_number(scale) and scale == factor):
        raise StaleCubesError(f"cubes file scale {scale!r} is not the normalizing factor "
                              f"{factor!r} of the points")
    if not (type(seed) is int and seed >= 0):  # a bool is no int here
        raise StaleCubesError(f"cubes file seed {seed!r} is not an integer >= 0")
    if not (type(query_budget) is int and query_budget >= 1):
        raise StaleCubesError(f"cubes file query_budget {query_budget!r} is not an integer >= 1")
    if not nets:
        raise StaleCubesError("cubes file holds no cube systems")
    if any(levels[0].centers.size != 1 for _, levels, _ in nets):
        raise StaleCubesError("cubes file holds a system whose level 0 is not one center")
    if any(len(levels) < 2 for _, levels, _ in nets):
        raise StaleCubesError("cubes file holds a system with no level below the root")
    norm = space.rescaled(factor)
    systems = []
    for sid, (system_seed, levels, parent_idx) in enumerate(nets):
        system = CubeSystem(sid, norm, params, system_seed, levels,
                            _derive_labels(norm, levels, parent_idx), parent_idx,
                            BuildReport())
        if (split := _split_cube(system)) is not None:
            raise StaleCubesError(f"cubes file fails property runs on reload: {split}")
        checks = verify_system(system)
        for name in ("ii_partition", "iii_inner", "iii_outer"):
            if checks[name].applicable and not checks[name].ok:
                raise StaleCubesError(
                    f"cubes file fails property {name} on reload: {checks[name].witness}")
        systems.append(system)
    return AdjacentFamily(norm, params, systems, C_delta_hat, C_tilde, best_effort,
                          target_ratio, query_budget, seed, [], scale)


def _nets_from_json(sdoc, n, params):
    """(seed, levels, parent_idx) of one stored system as ``_read_doc`` reads
    it, with ids checked against n."""
    seed = sdoc["seed"]
    if not (type(seed) is int and seed >= 0):  # a bool is no int here
        raise StaleCubesError(f"cubes file system seed {seed!r} is not an integer >= 0")
    levels = []
    for k, lv in enumerate(sdoc["levels"]):
        if not (type(lv["k"]) is int and lv["k"] == k):
            raise StaleCubesError(f"cubes file level {lv['k']!r} stands at position {k}")
        if np.any(np.diff(lv["centers"]) <= 0):  # the ties of nearest go to the lower id
            raise StaleCubesError(f"cubes file level {k} centers are not strictly ascending")
        levels.append(NetLevel(k=k, centers=lv["centers"], params=params, seed=seed))
    centers = np.concatenate([lv.centers for lv in levels])
    pairs = sdoc["parents"]  # (child, parent) pairs, level by level from level 1
    if np.any(centers >= n) or np.any(pairs >= n):
        raise StaleCubesError(f"cubes file names point ids outside 0..{n - 1}")
    if not np.array_equal(pairs[:, 0], centers[levels[0].centers.size:]):
        raise StaleCubesError("parent list does not match level centers")
    parent_idx = [None]
    start = 0
    for k in range(1, len(levels)):
        stop = start + levels[k].centers.size
        position = np.full(n, -1, dtype=np.int64)
        position[levels[k - 1].centers] = np.arange(levels[k - 1].centers.size)
        parent_idx.append(position[pairs[start:stop, 1]])
        if np.any(parent_idx[k] < 0):
            raise StaleCubesError(f"a level-{k} parent is not a level-{k - 1} center")
        start = stop
    return seed, levels, parent_idx
