"""Exception types raised across the package.

Every error raised by this library derives from ObjentropyError so callers
(and the CLI) can catch domain failures with a single except clause.
"""


class ObjentropyError(Exception):
    """Base class for all errors raised by objentropy."""


# --- dataset construction and splitting ---

class EmptyInput(ObjentropyError):
    """No data where at least one element is required."""


class LengthMismatch(ObjentropyError):
    """Observed and predicted sequences differ in length."""


class NonFiniteValue(ObjentropyError):
    """A NaN or infinity appeared where finite values are required."""


class DuplicateLocation(ObjentropyError):
    """Two series share the same location id."""


class DegenerateSplit(ObjentropyError):
    """A train/test split left one side empty."""


class MissingTimestamps(ObjentropyError):
    """A time-based split was requested on rows without ISO-8601
    timestamps."""


# --- transforms ---

class DomainViolation(ObjentropyError):
    """Input outside the domain of the requested transform."""


# --- likelihood fitting and evaluation ---

class NonPositiveThreshold(ObjentropyError):
    """Zero-state threshold must be strictly positive."""


class DegenerateScale(ObjentropyError):
    """A fitted scale parameter collapsed to zero."""


class NonPositiveScale(ObjentropyError):
    """Scale parameter must be strictly positive."""


class NoZeroState(ObjentropyError):
    """Binomial rate requested but no zero-state pairs exist."""


class InvalidProbability(ObjentropyError):
    """Probability outside [0, 1]."""


class EmptyEvaluationSet(ObjentropyError):
    """No pairs remain after applying the objective's support rules."""


class UnknownObjective(ObjentropyError):
    """Objective name not present in the catalog."""


# --- information measures ---

class ZeroSampleCount(ObjentropyError):
    """Per-observation quantity requested with zero observations."""


class OrderingViolation(ObjentropyError):
    """Noise fraction requires H_i >= H_best > 0."""


class NegativeSigma(ObjentropyError):
    """Log-scale sigma must be non-negative."""


class NonPositiveMedian(ObjentropyError):
    """Multiplicative adjustments require a positive center."""


class InvalidCoverage(ObjentropyError):
    """Interval coverage must lie strictly between 0 and 1."""


# --- diagnostics ---

class SizeExceedsData(ObjentropyError):
    """Requested subsample size exceeds the available pairs."""


class ZeroVariance(ObjentropyError):
    """Correlation undefined for a constant column."""


# --- synthetic data ---

class InvalidModel(ObjentropyError):
    """Synthetic model specification violates its constraints."""


# --- input files ---

class MissingColumn(ObjentropyError):
    """Required CSV column absent."""


class UnparseableNumber(ObjentropyError):
    """CSV cell could not be parsed as a number."""


class EmptyFile(ObjentropyError):
    """CSV file contains no data rows."""


class UndecodableFile(ObjentropyError):
    """Input file is not UTF-8 text."""


# --- CLI ---

class UsageError(ObjentropyError):
    """Invalid command-line arguments or configuration."""
