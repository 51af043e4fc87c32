"""Exception types raised across the package."""

import reprlib


class GaussCisError(Exception):
    """Base class for all library errors."""


class BadParameterError(GaussCisError):
    """A numeric parameter is outside its admissible range."""


class NonIncreasingError(GaussCisError):
    """Node data is not strictly increasing."""


class EmptyWindowError(GaussCisError):
    """An index window selects no nodes."""


class WindowTooSmallError(GaussCisError):
    """Density sweep radius exceeds what the data can support."""


class NoEnumerationError(GaussCisError):
    """The requested node range is not covered by the sequence data."""


class SingularSystemError(GaussCisError):
    """Collocation system is numerically rank deficient."""


class GridTooCoarseError(GaussCisError):
    """Quadrature grid too coarse for the requested tolerance."""


class TooFewTermsError(GaussCisError):
    """Series truncation cannot be certified with the given term count."""


class OnZeroError(GaussCisError):
    """Evaluation point coincides with a zero of the product."""


class UnsortedInputError(GaussCisError):
    """Input points are not sorted by modulus."""


class UnknownScenarioError(GaussCisError):
    """Scenario name is not registered."""


class ConfigInvalidError(GaussCisError):
    """Scenario configuration failed validation."""


class WindowTooLargeError(GaussCisError):
    """Sign-retrieval window exceeds the search limit."""


class ComplexInputError(GaussCisError):
    """Real-valued input required."""


def coerce(kind, value, what: str):
    """``kind(value)`` for a value read from a config; a value of the wrong
    type or form raises ConfigInvalidError naming ``what``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalidError(f"{what}: cannot read {reprlib.repr(value)} ({exc})") from exc
