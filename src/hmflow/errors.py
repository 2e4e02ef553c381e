"""Exception types raised by the library.

Every error that callers are expected to catch derives from HmflowError,
so CLI-level handling can map them to exit codes in one place.
"""


class HmflowError(Exception):
    """Base class for all library errors."""


class PointOutsideTube(HmflowError):
    """Ambient point lies outside the tube where the nearest-point map is defined."""


class PointNotOnManifold(HmflowError):
    """Point fails the on-manifold tolerance required by the operation."""


class TimeOutOfRange(HmflowError):
    """Time argument outside the interval on which the metric family is defined."""


class GridTooCoarse(HmflowError):
    """Chart grid has too few nodes for the requested differentiation.

    Raised only when a source is built: every family needs at least 8 nodes
    per grid dimension.
    """


class StepTooLarge(HmflowError):
    """Time step exceeds the heuristic stability bound for the path integrator."""


class HorizonMismatch(HmflowError):
    """Fields passed to the backward step disagree on grids or horizon."""


class BlowUp(HmflowError):
    """Backward iteration left the a-priori bound; horizon too long for contraction."""


class ShapeMismatch(HmflowError):
    """Array shapes that do not fit together: a field and its source grid, ensemble and field."""


class NoContraction(HmflowError):
    """Adaptive horizon fell below the floor without reaching a contraction regime."""


class TerminalNotOnTarget(HmflowError):
    """Terminal map values do not lie on the target manifold."""


class UnsupportedReduction(HmflowError):
    """Benchmark case has no supported symmetry reduction for the reference solver."""


class FieldLeftTube(HmflowError):
    """Map field has values outside the target tube where curvature terms are valid."""


class ConfigError(HmflowError):
    """Invalid or unknown configuration content."""
