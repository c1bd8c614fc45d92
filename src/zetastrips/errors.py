"""Exception taxonomy shared by all modules.

Every anomaly that would falsify the strip structure (a contour hitting a
zero where none is allowed, a zero count that cannot be reconciled with the
Gram count, a collapsing continuation step) is raised loudly and never
swallowed or auto-repaired.
"""


class ZetaStripsError(Exception):
    """Base class for all package errors."""


class DomainError(ZetaStripsError):
    """Argument outside an operation's stated domain."""


class PoleProximity(ZetaStripsError):
    """Evaluation point too close to the simple pole at s = 1."""


class WindowExceeded(ZetaStripsError):
    """Evaluation point outside the configured (sigma, t) window."""


class PrecisionLoss(ZetaStripsError):
    """The truncation error bound cannot meet the requested target."""


class ConvergenceFailure(ZetaStripsError):
    """An iterative solve did not converge within its iteration budget."""


class SeedDrift(ZetaStripsError):
    """A launch-point solve moved too far from its asymptotic seed."""


class StepCollapse(ZetaStripsError):
    """Continuation step shrank below the minimum; possible multiple zero
    or contour intersection near the current point."""


class MaxSteps(ZetaStripsError):
    """Continuation exceeded its step budget."""


class NotSpecial(ZetaStripsError):
    """A boundary contour failed the special-Gram-point criteria."""


class EscapedStrip(ZetaStripsError):
    """A primary zero landed outside its strip (or off the critical line)."""


class NoTerminalZero(ZetaStripsError):
    """A primary contour reached sigma_min without terminating at a zero."""


class CountMismatch(ZetaStripsError):
    """Zero count disagrees with the Gram count after maximum grid
    refinement; signals a missed zero or a close pair."""


class CacheInvalid(ZetaStripsError):
    """Cache entry failed checksum, schema, or fingerprint validation."""


class CacheMissing(ZetaStripsError):
    """A command that requires a populated cache found none."""
