"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`LoadshiftError`, so callers
can catch one base type at the CLI boundary.  Structural problems (malformed
files, wrong array shapes) and domain problems (bad parameter values, an
unknown mode or archetype, infeasible schedules) are kept on separate
branches.
"""

from __future__ import annotations


class LoadshiftError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(LoadshiftError, ValueError):
    """Input has the wrong structure: bad CSV row, shape mismatch, missing key."""


class ParameterError(LoadshiftError, ValueError):
    """A value is outside its documented domain (negative power, an unknown mode, ...)."""


class FeasibilityError(LoadshiftError):
    """A schedule or scheduling problem violates a hard constraint."""


class PlacementError(FeasibilityError):
    """An appliance run does not fit on the day grid."""


class InfeasibleApplianceError(FeasibilityError):
    """A single appliance has no feasible start slot."""


class InfeasibleProblemError(FeasibilityError):
    """The scheduling problem as a whole is infeasible.

    ``offenders`` lists the appliance instance ids that caused it.
    """

    def __init__(self, message: str, offenders: tuple[str, ...] = ()):
        super().__init__(message)
        self.offenders = tuple(offenders)


class UndefinedMetricError(LoadshiftError):
    """A metric has no defined value (all-zero curve, constant residuals)."""


class DatasetTooSmallError(LoadshiftError, ValueError):
    """Too few samples for the requested operation."""


class TrainingFailedError(LoadshiftError):
    """Training could not proceed; carries the MSE trace up to the failure."""

    def __init__(self, message: str, trace: tuple[float, ...] = ()):
        super().__init__(message)
        self.trace = tuple(trace)


class DegenerateRegressionError(LoadshiftError):
    """Not enough observations to fit the requested regression."""


class TemporalConsistencyError(LoadshiftError):
    """A history window skips a day, or lacks the day before the one it serves."""
