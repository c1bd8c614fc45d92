"""Strip census of the zeta critical line: Gram points, Im(zeta) = 0
contour tracing, per-strip zero statistics, and resonance analysis."""

from .analysis import arch_centers
from .contour import primary_zero_of_strip, special_gram_point, trace
from .gram import gram_point
from .pipeline import RunConfig, analyze, compute
from .strips import Strip, find_zeros
from .zeta import hardy_z

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "compute",
    "analyze",
    "gram_point",
    "special_gram_point",
    "primary_zero_of_strip",
    "trace",
    "hardy_z",
    "find_zeros",
    "Strip",
    "arch_centers",
]
