"""Covering counts: dyadic cube covers, greedy covers, and an exact oracle.

The dyadic count D is exact by construction (same-level cubes partition the
space, so the minimal subcover is the set of intersecting cubes). The greedy
count upper-bounds the true N(E, r); the exact oracle solves small instances
by branch and bound over maximal diameter-<=r subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# circumscribed_cube is not called here; perfbench's self-test patches it by name
# in this module, so the name stays
from .cubes import (AdjacentFamily, circumscribed_cube, local_window,  # noqa: F401
                    target_in_ball)
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
    """The dyadic count's report, read off entry m of the ball's local window,
    and E inside B(x, R), the set it covers."""
    if m < 0:
        raise InvalidArgumentError("m must be >= 0")
    E = np.asarray(E, dtype=np.int64)
    members = family.space.ball_members(x, R)
    window = local_window(family, E, x, R, members)
    if window is None:
        raise InvalidArgumentError("E does not meet the ball")
    if m > window.depth:
        raise ScaleExhaustedError(
            f"level {window.level + m} exceeds max level {window.level + window.depth}",
            deepest_available=window.depth)
    return CoverReport(
        D=window.counts[m], m=m, x=x, R=R, R_eff=window.R_eff,
        system_id=window.system_id, level=window.level,
        max_cube_diameter=window.max_diams[m]), target_in_ball(family.space, E, members)


def _grow_set(space: MetricSpace, start, candidates, r):
    """Grow a diameter-<=r set from ``start`` by ascending (distance, id)."""
    row_start = space.pair_distances(start, candidates)
    order = np.lexsort((candidates, row_start))
    maxd = row_start.copy()  # running max distance from each candidate to the set
    chosen = [int(start)]
    for pos in order:
        cand = int(candidates[pos])
        if cand == start:
            continue
        if maxd[pos] <= r:
            chosen.append(cand)
            np.maximum(maxd, space.pair_distances(cand, candidates), out=maxd)
    return np.asarray(sorted(chosen), dtype=np.int64)


def greedy_cover_count(space: MetricSpace, E, r: float, return_sets: bool = False):
    """Greedy upper bound for N(E, r): sets of diameter <= r covering E.

    Picks the first uncovered id, grows a maximal diameter-<=r set around
    it by ascending distance, and repeats. If diam(E) <= r the answer is 1.
    The near set of a start, the uncovered points within r of it, is the
    index's closed ball: ``d < nextafter(r)`` holds exactly when ``d <= r``.
    Growing admits every point of the near set once its diameter is at
    most r, so such a near set is taken whole; the margin leaves the
    few-ulp differences between the diameter and distance formulas to the
    growing. Each id of E is covered once, however often E lists it.
    """
    E = np.asarray(E, dtype=np.int64)
    if E.size == 0:
        raise InvalidArgumentError("E must be non-empty")
    if r <= 0:
        raise InvalidArgumentError("r must be positive")
    if E.size == 1 or space.diameter(E) <= r:
        return [np.unique(E)] if return_sets else 1
    live = np.zeros(space.n, dtype=bool)
    live[E] = True
    closed = np.nextafter(r, np.inf)
    sets = []
    for start in np.flatnonzero(live):
        if not live[start]:
            continue
        ball = space.index.ball(start, closed)
        near = ball[live[ball]]
        if near.size == 1 or space.diameter(near) <= r * (1 - 1e-9):
            block = near
        else:
            block = _grow_set(space, start, near, r)
        live[block] = False
        sets.append(block)
    return sets if return_sets else len(sets)


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
    E = np.asarray(E, dtype=np.int64)
    if E.size == 0:
        raise InvalidArgumentError("E must be non-empty")
    if r <= 0:
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
