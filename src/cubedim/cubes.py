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
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, DegenerateBallError, InvalidArgumentError,
                     StaleCubesError)
from .metric import MetricSpace
from .nets import NetLevel, NetParams, build_net, nearest_center, nearest_center_within

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


def default_max_level(space: MetricSpace, delta: float) -> int:
    """Deepest level whose scale stays at or above the smallest point gap."""
    gap = space.min_positive_distance()
    if not math.isfinite(gap):
        return 1
    if gap == 0.0:
        raise ConfigurationError(
            "the least distance between distinct points underflows to 0.0; "
            "rescale the metric")
    level = int(math.floor(math.log(1.0 / gap) / math.log(1.0 / delta) + 1e-9))
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

        One pass over the level's cubes; an empty cube has diameter 0.
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


def _group_by_label(labels: np.ndarray, n_cubes: int):
    """Point ids ordered by cube, and each cube's slice bounds in that order.

    Cube i holds ``order[bounds[i]:bounds[i + 1]]``; the stable sort keeps
    those ids ascending.
    """
    order = np.argsort(labels, kind="stable")
    return order, np.searchsorted(labels[order], np.arange(n_cubes + 1))


def _derive_labels(space: MetricSpace, levels: list, parent_idx: list) -> list:
    """Per-level cube labels: nearest deepest center, then the parent chains."""
    assign, _ = nearest_center(space, levels[-1].centers)
    labels = [None] * len(levels)
    labels[-1] = assign.astype(np.int64)
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
    norm = space if pre_normalized else space.normalized(
        NORMALIZED_DIAMETER * min(1.0, params.c0))
    if max_level is None:
        max_level = default_max_level(norm, params.delta)
    if max_level < 0:
        raise ConfigurationError("max_level must be >= 0")
    if max_level > HARD_LEVEL_CAP:
        raise ConfigurationError(
            f"max_level {max_level} exceeds the hard cap {HARD_LEVEL_CAP}")

    report = BuildReport()
    resolution_level = default_max_level(norm, params.delta)
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
    """B(center, c0 d^k / 3) must lie inside the center's cube, every level."""
    worst = 0.0
    witness = None
    ok = True
    for k in range(system.max_level + 1):
        inner = system.params.separation(k) / 3.0 * (1.0 - 1e-9)
        centers = system.levels[k].centers
        points, idx, dist = nearest_center_within(system.space, centers, inner)
        bad = np.flatnonzero(idx != system.labels[k][points])
        if bad.size:
            ok = False
            p = int(points[bad[0]])
            witness = {"level": k, "point": p,
                       "nearest_center": int(centers[idx[bad[0]]]),
                       "assigned_center": int(centers[system.labels[k][p]])}
            worst = max(worst, float((dist[bad] / inner).max()))
    return PropertyCheck("iii_inner", ok, worst=worst, witness=witness)


def _check_outer_balls(system: CubeSystem) -> PropertyCheck:
    """Every member sits within 2*C0*d^k of its cube center."""
    worst = 0.0
    witness = None
    for k in range(system.max_level + 1):
        outer = 2.0 * system.params.covering(k)
        centers = system.levels[k].centers
        order, bounds = _group_by_label(system.labels[k], centers.size)
        # member-to-center distances, cube by cube
        d = system.space.pair_distances(centers[system.labels[k][order]], order)
        sizes = np.diff(bounds)
        filled = np.flatnonzero(sizes)  # reduceat needs non-empty segments
        cube_max = np.maximum.reduceat(d, bounds[filled])
        checked = sizes[filled] > 1  # singleton cube: the only member is the center
        if not checked.any():
            continue
        ratios = cube_max[checked] / outer
        j = int(np.argmax(ratios))
        if ratios[j] > worst:
            worst = float(ratios[j])
            if worst > 1.0 + 1e-9:
                cube_i = int(filled[checked][j])
                lo, hi = bounds[cube_i], bounds[cube_i + 1]
                witness = {"level": k, "center": int(centers[cube_i]),
                           "point": int(order[lo + int(np.argmax(d[lo:hi]))])}
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


def verify_system(system: CubeSystem) -> dict:
    """Exhaustive re-check of all four structural properties.

    Recomputes every check from the system's current labels and parents on
    each call, and also leaves the result on ``system.report.checks``.
    """
    checks = {}

    # (i) nesting across consecutive level pairs via label/parent consistency
    if system.max_level == 0:
        checks["i_nesting"] = PropertyCheck("i_nesting", True, applicable=False)
    else:
        ok = True
        witness = None
        for k in range(system.max_level):
            expect = system.parent_idx[k + 1][system.labels[k + 1]]
            bad = np.flatnonzero(expect != system.labels[k])
            if bad.size:
                ok = False
                witness = {"level_pair": (k, k + 1), "point": int(bad[0])}
                break
        checks["i_nesting"] = PropertyCheck("i_nesting", ok, witness=witness)

    # (ii) partition per level: every point labeled, cubes disjoint, union = X
    ok = True
    witness = None
    for k in range(system.max_level + 1):
        sizes = np.bincount(system.labels[k], minlength=system.levels[k].centers.size)
        if int(sizes.sum()) != system.space.n:
            ok = False
            witness = {"level": k}
            break
        if np.any(sizes == 0):
            ok = False
            witness = {"level": k, "empty_cube": int(np.flatnonzero(sizes == 0)[0])}
            break
    checks["ii_partition"] = PropertyCheck("ii_partition", ok, witness=witness)

    checks["iii_inner"] = _check_inner_balls(system)
    checks["iii_outer"] = _check_outer_balls(system)
    checks["iv_ball_monotone"] = _check_ball_monotone(system)
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


def _cert_terms(params, R_eff, level, diam):
    up = diam / R_eff
    down = R_eff / diam
    scale = params.c0 * params.delta ** level
    lvl_up = 3.0 * R_eff / scale
    lvl_down = scale / (3.0 * R_eff)
    return max(up, down, lvl_up, lvl_down)


def _circumscribed_in_system(system: CubeSystem, members: np.ndarray):
    """(level, index) of the deepest cube containing every member id.

    Cubes are contiguous runs of the depth-first order, so a cube holds all
    members once it holds the two of least and greatest rank. Nested cubes
    that hold both at level k hold both at every shallower level, down to
    the single root cube at level 0.
    """
    ranks = system.rank[members]
    first = system.order[ranks.min()]
    last = system.order[ranks.max()]
    for k in range(system.max_level, 0, -1):
        labels = system.labels[k]
        if labels[first] == labels[last]:
            return k, int(labels[first])
    return 0, 0


def _effective_radius(space: MetricSpace, x: int, R: float, members: np.ndarray,
                      row: np.ndarray | None = None) -> float:
    """min(R, 2 * diam(members)) for the members of B(x, R), x among them.

    It is 0.0 exactly when the ball is degenerate: fewer than two distinct
    points. The diameter is at least the eccentricity max d(x, q), so once
    twice that reaches R the answer is R with no diameter. The margin leaves
    the few-ulp differences between the distance and diameter formulas to
    the exact diameter. ``row``, the distances from x to every point, spares
    recomputing the member distances.
    """
    if members.size < 2:
        return 0.0
    if row is None:
        ecc = space.pair_distances(np.full(members.size, x), members).max()
    else:
        ecc = row[members].max()
    if 2.0 * ecc >= R * (1 + 1e-12):
        return R
    return min(R, 2.0 * space.diameter(members))


def circumscribed_cube(family: AdjacentFamily, x: int, R: float,
                       members: np.ndarray | None = None,
                       row: np.ndarray | None = None) -> CircumscribedCube:
    """Minimal-diameter cube across systems containing B(x, R).

    The radius is first clamped into the two-sided ball convention
    (R <= 2 * diam of the members). ``members`` may be passed to avoid
    recomputing the ball, and ``row``, the distances from x to every point,
    to spare recomputing the member distances.
    """
    if members is None:
        members = family.space.ball_members(x, R)
    R_eff = _effective_radius(family.space, x, R, members, row)
    if R_eff == 0.0:
        raise DegenerateBallError(f"ball B({x}, {R:g}) holds fewer than two distinct points")
    best = None
    for system in family.systems:
        level, index = _circumscribed_in_system(system, members)
        diam = float(system.diams_at(level)[index])
        if best is None or diam < best.diameter:
            best = CircumscribedCube(system.system_id, level, index, diam, R_eff)
    return best


@dataclass
class LocalWindow:
    """The dyadic counts of E inside the circumscribed cube of one ball B(x, R).

    The cube sits at ``level`` of system ``system_id``, ``depth`` levels above
    that system's deepest. For m = 0..depth, ``counts[m]`` is the number of
    level-(level + m) cubes meeting E in the ball and ``max_diams[m]`` the
    largest of their diameters; at m = 0 that is the one containing cube,
    holding all ``target_size`` ids.
    """

    x: int
    R: float
    R_eff: float
    level: int
    system_id: int
    depth: int
    counts: list
    max_diams: list
    target_size: int


def target_in_ball(space: MetricSpace, E: np.ndarray, members: np.ndarray) -> np.ndarray:
    """E inside a ball, ascending, given the ball's ascending members.

    When E is the whole space, exactly the ids 0..n-1, that is the members
    themselves and no intersection is computed.
    """
    if E.size == space.n and np.array_equal(E, space.ids):
        return members
    return np.intersect1d(E, members)


def local_window(family: AdjacentFamily, E: np.ndarray, x: int, R: float,
                 members: np.ndarray, row: np.ndarray | None = None) -> LocalWindow | None:
    """The local window of E in B(x, R), or None when E misses the ball.

    ``members`` are the ball's ascending ids and ``row``, when given, the
    distances from x to every point. R_eff and the containing cube come from
    ``circumscribed_cube``, which raises ``DegenerateBallError`` for a ball of
    fewer than two distinct points. Each level below the cube is counted
    along the depth-first-sorted target: one plus its label changes.
    """
    cc = circumscribed_cube(family, x, R, members, row)
    target = target_in_ball(family.space, E, members)
    if target.size == 0:
        return None
    system = family.systems[cc.system_id]
    dfs = system.dfs_sorted(target)
    counts, max_diams = [1], [cc.diameter]
    for level in range(cc.level + 1, system.max_level + 1):
        labels = system.labels[level][dfs]
        counts.append(1 + int(np.count_nonzero(labels[1:] != labels[:-1])))
        max_diams.append(float(system.diams_at(level)[labels].max()))
    return LocalWindow(x=x, R=R, R_eff=cc.R_eff, level=cc.level, system_id=cc.system_id,
                       depth=system.max_level - cc.level, counts=counts,
                       max_diams=max_diams, target_size=int(target.size))


def build_adjacent_family(space: MetricSpace, params: NetParams, K_max: int = 8,
                          query_budget: int = 500, target_ratio: float = 64.0,
                          seed: int = 0, max_level: int | None = None) -> AdjacentFamily:
    """Add systems (seeds seed, seed+1, ...) until the sampled worst-case
    circumscribed-cube certificate meets target_ratio, or K_max is reached.

    The query sample and each query's ball are fixed up front, so the stop
    rule and the recorded certificate are pure functions of (space, params,
    budgets, seed). A degenerate ball (fewer than two distinct points) has
    certificate 1 by convention and is not evaluated.
    """
    if K_max < 1:
        raise ConfigurationError("K_max must be >= 1")
    if query_budget < 1:
        raise ConfigurationError("query_budget must be >= 1")
    if max_level is not None and max_level < 1:
        raise ConfigurationError("an adjacent family needs max_level >= 1")
    raw_diam = space.diameter()
    norm = space.normalized(NORMALIZED_DIAMETER * min(1.0, params.c0))
    scale = 1.0 if raw_diam == 0 else (NORMALIZED_DIAMETER * min(1.0, params.c0)) / raw_diam

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
    balls = []
    for x, R in queries:
        members = norm.ball_members(x, R)
        balls.append((members, _effective_radius(norm, x, R, members)))
    degenerate = np.array([R_eff == 0.0 for _, R_eff in balls])

    # per-query best (smallest-diameter) containing cube across systems so far
    best_cert = np.where(degenerate, 1.0, np.inf)
    best_diam = np.full(len(queries), np.inf)
    systems = []
    for t in range(K_max):
        system = probe if t == 0 else build_system(norm, params, seed=seed + t, max_level=L,
                                                   system_id=t, pre_normalized=True)
        systems.append(system)
        for qi in np.flatnonzero(~degenerate):
            members, R_eff = balls[qi]
            level, index = _circumscribed_in_system(system, members)
            diam = system.diams_at(level)[index]
            if diam < best_diam[qi]:
                best_diam[qi] = diam
                best_cert[qi] = _cert_terms(params, R_eff, level, diam)
        worst = float(best_cert.max())  # finite: the root holds every ball
        if worst <= target_ratio:
            break

    C_delta_hat = max(1.0, worst)
    C_tilde = 12.0 * params.C0 * C_delta_hat / params.c0
    best_effort = worst > target_ratio

    query_log = [{"x": x, "R": R, "degenerate": bool(degenerate[qi]),
                  "cert": float(best_cert[qi])} for qi, (x, R) in enumerate(queries)]

    return AdjacentFamily(norm, params, systems, C_delta_hat, C_tilde, best_effort,
                          target_ratio, query_budget, seed, query_log, scale)


# -- serialization ----------------------------------------------------------


def file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def family_to_json(family: AdjacentFamily, points_hash: str = "") -> dict:
    systems = []
    for s in family.systems:
        levels = [{"k": lv.k, "centers": lv.centers.tolist()} for lv in s.levels]
        parents = []  # (center, parent center) pairs, level by level
        for k in range(1, s.max_level + 1):
            parent_centers = s.levels[k - 1].centers[s.parent_idx[k]]
            parents += np.column_stack([s.levels[k].centers, parent_centers]).tolist()
        systems.append({"seed": s.seed, "levels": levels, "parents": parents})
    return {
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
    }


def save_family(family: AdjacentFamily, path, points_hash: str = "") -> None:
    # json.dumps runs the C encoder; json.dump streams through the Python one
    text = json.dumps(family_to_json(family, points_hash), sort_keys=True,
                      separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_family(path, space: MetricSpace, points_hash: str | None = None) -> AdjacentFamily:
    """Rebuild a family from file, refusing mismatched or broken files.

    An unreadable or malformed file, or one with a system whose level 0 is
    not one root center or that has no level below it, raises
    ``StaleCubesError``. Labels are re-derived from the stored nets and
    parents, and every system's four structural checks are recomputed; a
    system that fails partition, the inner ball or the outer ball check makes
    the file stale. Ball monotonicity is recorded but does not refuse the
    file, and the sandwich inequality is not checked here (``cubedim verify``
    samples it). Each system's checks are left on ``system.report.checks``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise StaleCubesError(f"cannot read cubes file: {exc}") from exc
    try:
        if points_hash is not None and doc.get("points_hash") not in ("", points_hash):
            raise StaleCubesError("cubes file was built from a different points file")
        p = doc["params"]
        params = NetParams(delta=p["delta"], c0=p["c0"], C0=p["C0"])
        nets = [_nets_from_json(sdoc, space.n, params) for sdoc in doc["systems"]]
        constants = (doc["C_delta_hat"], doc["C_tilde"], doc["best_effort"],
                     p.get("target_ratio", 0.0), p.get("query_budget", 0), p.get("seed", 0))
        scale = doc.get("scale", 1.0)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise StaleCubesError(f"malformed cubes file: {exc!r}") from exc
    if not nets:
        raise StaleCubesError("cubes file holds no cube systems")
    if any(levels[0].centers.size != 1 for _, levels, _ in nets):
        raise StaleCubesError("cubes file holds a system whose level 0 is not one center")
    if any(len(levels) < 2 for _, levels, _ in nets):
        raise StaleCubesError("cubes file holds a system with no level below the root")
    norm = space.normalized(NORMALIZED_DIAMETER * min(1.0, params.c0))
    systems = []
    for sid, (seed, levels, parent_idx) in enumerate(nets):
        system = CubeSystem(sid, norm, params, seed, levels,
                            _derive_labels(norm, levels, parent_idx), parent_idx,
                            BuildReport())
        checks = verify_system(system)
        for name in ("ii_partition", "iii_inner", "iii_outer"):
            if checks[name].applicable and not checks[name].ok:
                raise StaleCubesError(
                    f"cubes file fails property {name} on reload: {checks[name].witness}")
        systems.append(system)
    return AdjacentFamily(norm, params, systems, *constants, [], scale)


def _nets_from_json(sdoc, n, params):
    """(seed, levels, parent_idx) of one stored system, with ids checked against n."""
    levels = [NetLevel(k=lv["k"], centers=np.asarray(lv["centers"], dtype=np.int64),
                       params=params, seed=sdoc["seed"]) for lv in sdoc["levels"]]
    centers = np.concatenate([lv.centers for lv in levels])
    # (child, parent) pairs, level by level from level 1
    pairs = np.asarray(sdoc["parents"], dtype=np.int64).reshape(-1, 2)
    if np.any((centers < 0) | (centers >= n)) or np.any((pairs < 0) | (pairs >= n)):
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
    return sdoc["seed"], levels, parent_idx
