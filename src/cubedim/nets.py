"""Per-level center nets: separated, covering, and exhaustively verifiable.

A level-k net is a maximal subset whose points are pairwise >= c0*delta^k
apart; maximality makes it cover the space within that same radius, which
is <= C0*delta^k. Greedy admission scans a seed-rotated ascending-id order,
so counts sit near perfect packing while distinct seeds give distinct nets.
Nets, nearest centers and the closest pair of centers are asked of the
space's index (``MetricSpace.index``), one per metric kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvalidArgumentError
from .metric import MetricSpace


@dataclass(frozen=True)
class NetParams:
    """Net constants, checked on construction: 0 < c0 <= C0 < inf, 12*C0*delta <= c0."""

    delta: float = 1.0 / 16.0
    c0: float = 1.0
    C0: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ConfigurationError(f"delta must be in (0, 1), got {self.delta}")
        if not (0.0 < self.c0 < np.inf and 0.0 < self.C0 < np.inf):
            raise ConfigurationError(f"c0 and C0 must be finite and positive, got "
                                     f"c0 = {self.c0}, C0 = {self.C0}")
        if self.c0 > self.C0:
            raise ConfigurationError(f"c0 = {self.c0} must not exceed C0 = {self.C0}")
        lhs = 12.0 * self.C0 * self.delta
        if lhs > self.c0:
            raise ConfigurationError(
                f"12*C0*delta = {lhs:g} > c0 = {self.c0:g}; "
                f"shrink delta to at most {self.c0 / (12.0 * self.C0):g}")

    def separation(self, k):
        return self.c0 * self.delta ** k

    def covering(self, k):
        return self.C0 * self.delta ** k


@dataclass
class NetLevel:
    """Centers for one level; the list order is the index set for that level."""

    k: int
    centers: np.ndarray
    params: NetParams
    seed: int


@dataclass
class NetCheck:
    separation_ok: bool
    covering_ok: bool
    worst_separation_ratio: float
    worst_covering_ratio: float
    witnesses: dict = field(default_factory=dict)


def scan_order(n, seed, k) -> np.ndarray:
    """Sorted scan split at a seed- and level-dependent offset.

    Ids are scanned ascending from the offset, then descending below it, so
    greedy packing stays near-perfect while the packing phase (hence the cube
    boundaries) is set by the offset on both sides. A plain rotation would
    restart every wrapped segment at id 0 and phase-lock all seeds there.
    """
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    offset = int(np.random.default_rng([seed, k]).integers(n))
    return np.concatenate([np.arange(offset, n),
                           np.arange(offset - 1, -1, -1)]).astype(np.int64)


def build_net(space: MetricSpace, k: int, params: NetParams, seed: int = 0) -> NetLevel:
    """Greedy maximal separated set at level k. Deterministic given seed.
    The level and the seed must be integers >= 0; a bool is neither."""
    for name, value in (("level k", k), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise InvalidArgumentError(f"{name} must be an integer >= 0, got {value!r}")
    order = scan_order(space.n, seed, k)
    centers = np.sort(space.index.net(order, params.separation(k)))
    return NetLevel(k=k, centers=centers, params=params, seed=seed)


def nearest_center(space: MetricSpace, centers: np.ndarray, query_ids=None):
    """Per query point: index into ``centers`` of the nearest one, plus distance.

    ``centers`` must be sorted ascending so distance ties resolve to the
    lower point id. ``query_ids`` defaults to all points.
    """
    query_ids = space.ids if query_ids is None else np.asarray(query_ids, dtype=np.int64)
    return space.index.nearest(query_ids, np.asarray(centers, dtype=np.int64))


VERIFY_SLACK = 1e-9  # relative float slack; admission and checks round differently


def verify_net(space: MetricSpace, net: NetLevel) -> NetCheck:
    """Exhaustive check of the separation and covering conditions."""
    centers = np.asarray(net.centers, dtype=np.int64)
    if centers.size == 0 or centers.max() >= space.n or centers.min() < 0:
        raise InvalidArgumentError("net does not index into this space")
    sep_required = net.params.separation(net.k)
    cover_required = net.params.covering(net.k)

    if centers.size == 1:
        worst_sep = float("inf")
        sep_ok = True
        sep_witness = None
    else:
        worst_sep, sep_witness = space.index.closest_pair(centers)
        worst_sep /= sep_required
        sep_ok = worst_sep >= 1.0 - VERIFY_SLACK

    _, dist = nearest_center(space, centers)
    far = int(np.argmax(dist))
    worst_cover = float(dist[far]) / cover_required
    cover_ok = worst_cover < 1.0 + VERIFY_SLACK

    return NetCheck(
        separation_ok=bool(sep_ok),
        covering_ok=bool(cover_ok),
        worst_separation_ratio=float(worst_sep),
        worst_covering_ratio=float(worst_cover),
        witnesses={"separation_pair": sep_witness, "farthest_point": far},
    )

