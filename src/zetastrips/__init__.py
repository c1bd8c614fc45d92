"""Strip census of the zeta critical line: Gram points, Im(zeta) = 0
contour tracing, per-strip zero statistics, and resonance analysis."""

from .analysis import (
    ArchPrediction,
    BranchSpacing,
    DeviationSeries,
    LinearFit,
    PrimaryStats,
    arch_centers,
    bottom_deviation_series,
    fit_bottoms,
    fit_density,
    fit_tops,
    primary_stats,
    resonance_check,
)
from .contour import (
    ContourPath,
    launch_point,
    primary_zero_of_strip,
    special_gram_point,
    trace,
)
from .gram import GramTable, gap_model, gap_ratio_series, gram_point
from .pipeline import RunConfig, analyze, compute
from .strips import Strip, ZeroRecord, build_strips, find_zeros, zeros_per_width
from .zeta import ComplexPoint, ZetaValue, hardy_z, rs_theta

__version__ = "0.1.0"

__all__ = [
    "ArchPrediction",
    "BranchSpacing",
    "ComplexPoint",
    "ContourPath",
    "DeviationSeries",
    "GramTable",
    "LinearFit",
    "PrimaryStats",
    "RunConfig",
    "Strip",
    "ZeroRecord",
    "ZetaValue",
    "analyze",
    "arch_centers",
    "bottom_deviation_series",
    "build_strips",
    "compute",
    "find_zeros",
    "fit_bottoms",
    "fit_density",
    "fit_tops",
    "gap_model",
    "gap_ratio_series",
    "gram_point",
    "hardy_z",
    "launch_point",
    "primary_stats",
    "primary_zero_of_strip",
    "resonance_check",
    "rs_theta",
    "special_gram_point",
    "trace",
    "zeros_per_width",
]
