"""Exception hierarchy.

Two broad families matter for callers (and for CLI exit codes): problems
with the input itself (``DataError``) and failures that arise while
estimating (``NumericError``).  ``WorkerDied`` stands apart: a worker
process of a parallel study was lost, whatever it was computing.
"""


class RobustQdaError(Exception):
    """Base class for every error raised by this package."""


class DataError(RobustQdaError):
    """Invalid input data, labels, or configuration."""


class DimensionMismatch(DataError):
    """Shapes of inputs do not line up."""


class DomainError(DataError):
    """A numeric argument is outside its valid domain."""


class ConfigError(DataError):
    """A configuration value (scenario file, fit options) is invalid."""


class TooFewObservations(DataError):
    """Not enough rows to support the requested fit."""


class BlocksTooSmall(DataError):
    """Requested block count would produce blocks below the minimum size."""


class UnknownClass(DataError):
    """A label refers to a class the model was not trained on."""


class ZeroNoise(DataError):
    """A noise-rate statistic was requested for a class with no planted noise."""


class NumericError(RobustQdaError):
    """Numeric failure during estimation."""


class NotPositiveDefinite(NumericError):
    """A matrix that must be positive definite is not."""


class ZeroScale(NumericError):
    """A column has zero robust scale (constant variable); drop or perturb it."""


class DegenerateStart(NumericError):
    """An initial scatter estimate could not be repaired to positive definite."""


class AllStartsDegenerate(NumericError):
    """Every initial scatter estimate failed; the data block is unusable."""


class TooFewInliers(NumericError):
    """Reweighting kept too few rows to form a covariance matrix."""


class EmptyClassAfterTrim(NumericError):
    """Outlier trimming removed every observation of a class."""


class WorkerDied(RobustQdaError):
    """A worker process ended abruptly (killed, or out of memory) mid-task."""
