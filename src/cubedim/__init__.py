"""Dyadic cube systems and fractal dimension estimation on finite metric spaces."""

from .covering import (CoverReport, dyadic_cover_count, exact_cover_count,
                       greedy_cover_count, sandwich_check)
from .cubes import (AdjacentFamily, CircumscribedCube, CubeSystem, build_adjacent_family,
                    build_system, circumscribed_cube, load_family, save_family,
                    verify_system)
from .dimensions import (DimensionEstimate, MeasureValue, assouad_dim_estimate,
                         assouad_spectrum_estimate, box_dim_estimate, cubic_measure,
                         h_greedy_sum, hausdorff_dim_estimate, local_windows)
from .errors import (ConfigurationError, CubedimError, DegenerateBallError,
                     InsufficientScalesError, InvalidArgumentError, PointsFileError,
                     ScaleExhaustedError, SizeCapError, StaleCubesError)
from .generators import GeneratorSpec, generate, snowflake_wrap
from .metric import (DoublingEstimate, MetricDescriptor, MetricSpace, load_points,
                     save_points)
from .nets import NetLevel, NetParams, build_net, verify_net

__version__ = "0.1.0"

__all__ = [
    "AdjacentFamily", "CircumscribedCube", "ConfigurationError", "CoverReport",
    "CubeSystem", "CubedimError", "DegenerateBallError", "DimensionEstimate",
    "DoublingEstimate", "GeneratorSpec", "InsufficientScalesError",
    "InvalidArgumentError", "MeasureValue", "MetricDescriptor", "MetricSpace",
    "NetLevel", "NetParams", "PointsFileError", "ScaleExhaustedError",
    "SizeCapError", "StaleCubesError", "assouad_dim_estimate",
    "assouad_spectrum_estimate", "box_dim_estimate", "build_adjacent_family",
    "build_net", "build_system", "circumscribed_cube", "cubic_measure",
    "dyadic_cover_count", "exact_cover_count", "generate", "greedy_cover_count",
    "h_greedy_sum", "hausdorff_dim_estimate", "load_family", "load_points",
    "local_windows", "sandwich_check", "save_family", "save_points",
    "snowflake_wrap", "verify_net", "verify_system",
]
