"""Deterministic test-set generators with analytically known dimensions."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import InvalidArgumentError, SizeCapError
from .kernels import distinct
from .metric import MetricDescriptor, MetricSpace

POINT_CAP = 10 ** 6


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one generated space; see :func:`generate`."""

    kind: str
    ratio: float = 1.0 / 3.0
    depth: int = 1
    p: float = 1.0
    n_max: int = 10
    ambient_dim: int = 1
    resolution: float = 1.0 / 16.0
    arity: int = 2
    base: float = 1.0 / 16.0
    maps: tuple = field(default=())

    def __post_init__(self):
        if self.depth < 0:
            raise InvalidArgumentError("generator depth must be >= 0")
        if not (0.0 < self.resolution < np.inf):
            raise InvalidArgumentError("grid resolution must be finite and positive")
        if self.ambient_dim < 1:
            raise InvalidArgumentError("grid dimension must be >= 1")
        if not 2 <= self.arity <= 36:  # one symbol per base-36 digit
            raise InvalidArgumentError("ultrametric arity must be in 2..36")
        if self.maps and {len(m) for m in self.maps} not in ({2}, {3}):
            raise InvalidArgumentError("ifs maps must all be (ratio, offset) "
                                       "or all (ratio, ox, oy)")


def _check_cap(count):
    if count > POINT_CAP:
        raise SizeCapError(f"generator would produce {count} points (cap {POINT_CAP})")


def cantor_endpoints(ratio, depth) -> np.ndarray:
    """Left endpoints of the depth-n stage of the middle-(1-2*ratio) Cantor set."""
    if not (0.0 < ratio < 0.5):
        raise InvalidArgumentError("cantor ratio must be in (0, 1/2)")
    _check_cap(2 ** depth)
    pts = np.array([0.0])
    length = 1.0
    for _ in range(depth):
        pts = np.concatenate([pts, pts + (1.0 - ratio) * length])
        length *= ratio
    return np.sort(pts)


def sequence_set(p, n_max) -> np.ndarray:
    """{k^-p : 1 <= k <= n_max} together with the accumulation point 0."""
    if p <= 0:
        raise InvalidArgumentError("sequence exponent p must be positive")
    _check_cap(n_max + 1)
    ks = np.arange(1, n_max + 1, dtype=np.float64)
    return np.sort(np.concatenate([[0.0], ks ** (-p)]))


def grid_points(ambient_dim, resolution) -> np.ndarray:
    """Uniform lattice on [0,1]^d with the given step."""
    steps = int(round(1.0 / resolution))
    per_side = steps + 1
    _check_cap(per_side ** ambient_dim)
    axis = np.linspace(0.0, 1.0, per_side)
    if ambient_dim == 1:
        return axis[:, None]
    grids = np.meshgrid(*([axis] * ambient_dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def ultrametric_strings(arity, depth) -> list:
    _check_cap(arity ** depth)
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"[:arity]
    return ["".join(w) for w in product(digits, repeat=depth)]


def ifs_orbit(maps, depth) -> np.ndarray:
    """Depth-n forward orbit of the origin under all compositions of the maps.

    Each map is (ratio, offset) acting on the line, or a (ratio, ox, oy)
    similarity on the plane. Duplicate images are merged.
    """
    if not maps:
        raise InvalidArgumentError("ifs needs at least one map")
    for m in maps:
        if not (0.0 < abs(m[0]) < 1.0):
            raise InvalidArgumentError("ifs maps must be contractions")
    _check_cap(len(maps) ** depth)
    dim = len(maps[0]) - 1
    pts = np.zeros((1, dim))
    for _ in range(depth):
        images = []
        for m in maps:
            images.append(pts * m[0] + np.asarray(m[1:], dtype=np.float64))
        pts = distinct(np.concatenate(images))
        _check_cap(pts.shape[0] * len(maps))
    return pts


def generate(spec: GeneratorSpec) -> MetricSpace:
    """Materialize the spec into a MetricSpace. Byte-deterministic."""
    if spec.kind == "cantor":
        coords = cantor_endpoints(spec.ratio, spec.depth)
        return MetricSpace(MetricDescriptor("euclidean"), coords=coords)
    if spec.kind == "sequence":
        coords = sequence_set(spec.p, spec.n_max)
        return MetricSpace(MetricDescriptor("euclidean"), coords=coords)
    if spec.kind == "grid":
        coords = grid_points(spec.ambient_dim, spec.resolution)
        return MetricSpace(MetricDescriptor("euclidean"), coords=coords)
    if spec.kind == "ultrametric_cantor":
        strings = ultrametric_strings(spec.arity, spec.depth)
        desc = MetricDescriptor("ultrametric", arity=spec.arity, base=spec.base)
        return MetricSpace(desc, strings=strings)
    if spec.kind == "ifs":
        coords = ifs_orbit(spec.maps, spec.depth)
        return MetricSpace(MetricDescriptor("euclidean"), coords=coords)
    raise InvalidArgumentError(f"unknown generator kind {spec.kind!r}")


def snowflake_wrap(space: MetricSpace, epsilon: float) -> MetricSpace:
    """Same points under the metric d^epsilon; dimensions divide by epsilon."""
    return space.snowflaked(epsilon)
