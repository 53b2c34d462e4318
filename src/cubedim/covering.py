"""Covering counts: dyadic cube covers, greedy covers, and an exact oracle.

The dyadic count D is exact by construction (same-level cubes partition the
space, so the minimal subcover is the set of intersecting cubes). The greedy
count upper-bounds the true N(E, r); its blocks are the space index's to
take (``cover_runs``), and this module checks the input and counts or
returns them. The exact oracle solves small instances by branch and bound
over maximal diameter-<=r subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cubes import AdjacentFamily, circumscribed_cube, target_in_ball
from .errors import InvalidArgumentError, ScaleExhaustedError
from .metric import MetricSpace

EXACT_SIZE_CAP = 25
CLIQUE_GUARD = 10 ** 5


@dataclass
class CoverReport:
    D: int
    N_greedy: int | None = None
    N_exact: int | None = None
    m: int = 0
    x: int = 0
    R: float = 0.0
    R_eff: float = 0.0
    r_effective: float = 0.0
    system_id: int = 0
    level: int = 0
    max_cube_diameter: float = 0.0
    M0_hat: float | None = None
    flags: list = field(default_factory=list)


def dyadic_cover_count(family: AdjacentFamily, E, x: int, R: float, m: int) -> CoverReport:
    """Number of level-(L_R + m) cubes of the circumscribed cube meeting E inside B(x,R)."""
    return _dyadic_cover(family, E, x, R, m)[0]


def _dyadic_cover(family: AdjacentFamily, E, x: int, R: float, m: int):
    """The dyadic count's report and E inside B(x, R), the set it covers.

    The ball's circumscribed cube sits at level L_R, and only level L_R + m is
    counted, along the depth-first-sorted target (``cubes_along``); at m = 0
    that is the cube itself, of count 1. A ball that E misses, and an m past
    the system's deepest level, raise before anything is counted."""
    E = family.space.subset(E)
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
        raise InvalidArgumentError(f"m must be an integer >= 0, got {m!r}")
    members = family.space.ball_members(x, R)
    cc = circumscribed_cube(family, x, R, members)
    target = target_in_ball(family.space, E, members)
    if target.size == 0:
        raise InvalidArgumentError("E does not meet the ball")
    system = family.systems[cc.system_id]
    level = cc.level + m
    if level > system.max_level:
        raise ScaleExhaustedError(f"level {level} exceeds max level {system.max_level}",
                                  deepest_available=system.max_level - cc.level)
    D, labels = system.cubes_along(level, system.dfs_sorted(target))
    return CoverReport(
        D=D, m=m, x=x, R=R, R_eff=cc.R_eff, system_id=cc.system_id, level=cc.level,
        max_cube_diameter=float(system.diams_at(level)[labels].max())), target


def greedy_cover_count(space: MetricSpace, E, r: float, return_sets: bool = False):
    """Greedy upper bound for N(E, r): sets of diameter <= r covering E.

    Picks the least uncovered id, grows a maximal diameter-<=r set around
    it by ascending distance, and repeats; if diam(E) <= r the answer is 1.
    Each id of E is covered once, however often E lists it. The space's
    index gives the blocks (``cover_runs``) and the count is their number;
    with ``return_sets`` they are returned, each ascending, in the order of
    their least ids. In an ultrametric every closed ball is a prefix run of
    diameter at most r, so the blocks are the distinct runs among E's ids,
    read in one pass. On a line every block is the uncovered ids of one
    interval, so the blocks are runs of E's ranks, and each block's ends are
    found by binary search, with no ball or diameter asked.
    """
    E = space.subset(E)
    if not r > 0:
        raise InvalidArgumentError("r must be positive")
    members, bounds = space.index.cover_runs(E, r)
    if not return_sets:
        return bounds.size - 1
    blocks = [np.sort(block) for block in np.split(members, bounds[1:-1])]
    return sorted(blocks, key=lambda block: block[0])


def _maximal_cliques(adj: np.ndarray):
    """Bron-Kerbosch with pivoting over a boolean adjacency matrix."""
    n = adj.shape[0]
    cliques = []

    def expand(r, p, x):
        if len(cliques) > CLIQUE_GUARD:
            raise InvalidArgumentError("clique enumeration guard exceeded")
        if not p and not x:
            cliques.append(sorted(r))
            return
        pivot = max(p | x, key=lambda u: int(adj[u].sum()))
        for v in sorted(p - {u for u in p if adj[pivot, u]}):
            nv = {u for u in range(n) if adj[v, u]}
            expand(r | {v}, p & nv, x & nv)
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(n)), set())
    return cliques


def exact_cover_count(space: MetricSpace, E, r: float):
    """Exact N(E, r) for E of at most EXACT_SIZE_CAP ids, or None above it.

    Candidate covering sets are the maximal diameter-<=r subsets of E (every
    optimal cover can be enlarged to maximal sets, so the restriction is
    lossless); solved by branch and bound with the greedy value as incumbent.
    """
    E = space.subset(E)
    if not r > 0:
        raise InvalidArgumentError("r must be positive")
    if E.size > EXACT_SIZE_CAP:
        return None
    if E.size == 1 or space.diameter(E) <= r:
        return 1

    n = E.size
    dm = space.pair_distances(np.repeat(E, n), np.tile(E, n)).reshape(n, n)
    adj = dm <= r
    np.fill_diagonal(adj, False)

    cliques = _maximal_cliques(adj)
    masks = []
    for cl in cliques:
        mask = 0
        for v in cl:
            mask |= 1 << v
        masks.append(mask)
    masks.sort(key=lambda m: -bin(m).count("1"))
    full = (1 << n) - 1

    greedy = greedy_cover_count(space, E, r)
    best = [greedy]

    # element -> candidate masks covering it, for branching on the rarest element
    cover_lists = [[m for m in masks if m >> v & 1] for v in range(n)]
    max_size = max(bin(m).count("1") for m in masks)

    def bb(covered, used):
        if covered == full:
            best[0] = min(best[0], used)
            return
        remaining = full & ~covered
        rem_count = bin(remaining).count("1")
        if used + (rem_count + max_size - 1) // max_size >= best[0]:
            return
        # branch on the uncovered element with fewest candidates
        v = min((v for v in range(n) if remaining >> v & 1),
                key=lambda v: len(cover_lists[v]))
        for m in cover_lists[v]:
            bb(covered | m, used + 1)

    bb(0, 0)
    return int(best[0])


def sandwich_check(family: AdjacentFamily, E, x: int, R: float, m: int) -> CoverReport:
    """D and N at the comparable scale r = C_tilde * delta^m * R_eff.

    The lower inequality N_exact <= D holds whenever every counted cube
    has diameter at most r (the cubes then form one admissible cover);
    the report records both sides plus the diameter margin so violations
    are visible.
    """
    report, target = _dyadic_cover(family, E, x, R, m)
    r_eff = family.C_tilde * family.params.delta ** m * report.R_eff
    report.r_effective = r_eff
    report.N_greedy = greedy_cover_count(family.space, target, r_eff)
    report.N_exact = exact_cover_count(family.space, target, r_eff)
    if report.max_cube_diameter > r_eff:
        report.flags.append("cube-diameter-exceeds-r-effective")
    if report.N_exact is not None and report.N_exact > report.D:
        report.flags.append("sandwich-violated")
    denom = report.N_exact if report.N_exact is not None else report.N_greedy
    report.M0_hat = report.D / denom if denom else None
    return report
