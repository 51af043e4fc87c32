"""Exception types raised across the package, and the readers of numeric
arguments and config values that raise them."""

import math
import numbers
import reprlib
import sys


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


class _NotANumber(BadParameterError, TypeError):
    """A library argument of the wrong type.  It is a TypeError too, so that
    ``coerce`` reads it as a config error, as it reads float("x")."""


def real(value, what: str, gt=None, ge=None, lt=None, error=BadParameterError) -> float:
    """``value`` as a finite float, > ``gt``, >= ``ge`` and < ``lt`` where given.

    An int or a float reads, numpy's too.  Anything else, such as a bool or
    a numeric string, raises ``error`` naming ``what``, as does a value that
    is not finite (NaN, +-inf, an int past float range) or out of bounds.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise _wrong_type(error)(f"{what} must be a number, got {reprlib.repr(value)}")
    # an int past float range reads as inf, where float() would raise
    x = math.inf if isinstance(value, int) and abs(value) > sys.float_info.max else float(value)
    if not (math.isfinite(x) and (gt is None or x > gt) and (ge is None or x >= ge)
            and (lt is None or x < lt)):
        rule = [f"{op} {b}" for op, b in ((">", gt), (">=", ge), ("<", lt)) if b is not None]
        raise error(f"{what} must be {' and '.join(['finite', *rule])}, got {x}")
    return x


def whole(value, what: str, ge=None, error=BadParameterError) -> int:
    """``value`` as an int, >= ``ge`` where given: an int, or a float that
    is a whole number (16.0 reads, 2.5 does not), numpy's too.  Anything
    else raises ``error`` naming ``what``, as ``real`` does."""
    if not real(value, what, error=error).is_integer():
        raise error(f"{what} must be a whole number, got {value}")
    if ge is not None and value < ge:
        raise error(f"{what} must be >= {ge}, got {int(value)}")
    return int(value)  # exact for an int past 2**53


def array(values, what: str, dtype=float, ndim=1, neg_inf=False):
    """``values`` as a read-only copy of ``dtype`` (float or complex) and
    rank ``ndim`` (None: any rank, a scalar too), every entry finite, or
    -inf too where ``neg_inf``.

    An array reads by its dtype: ints and floats, and complex numbers where
    ``dtype`` is complex.  A list, tuple or scalar reads by the types of
    its entries, scanned once, as ``real`` reads one value: a bool, a
    numeric string or any other non-number raises BadParameterError naming
    ``what`` (a TypeError too, so that ``coerce`` reads it as a config
    error), as do an entry that is not finite (NaN, +-inf, an int past
    float range), ragged rows and another rank.
    """
    # imported here, not with the module: every module imports errors first,
    # and numpy imported that early raised a CLI run's peak RSS by about 1 MB
    import numpy as np

    number, kinds = (numbers.Complex, "iufc") if dtype is complex else (numbers.Real, "iuf")
    if not (isinstance(values, np.ndarray) and values.dtype.kind in kinds):
        items = np.array(values, dtype=object).ravel()  # ragged rows stay lists
        wrong = {t for t in set(map(type, items)) if t is bool or not issubclass(t, number)}
        if wrong:  # name the first entry of a wrong type
            bad = reprlib.repr(next(v for v in items if type(v) in wrong))
            raise _NotANumber(f"{what} must be {number.__name__.lower()} numbers, got {bad}")
    try:
        arr = np.array(values, dtype=dtype)
    except OverflowError:  # an int past float range, which real reads as inf
        raise BadParameterError(f"{what} must be finite, got inf") from None
    if ndim is not None and arr.ndim != ndim:
        raise BadParameterError(f"{what} must be {ndim}-d, got shape {arr.shape}")
    ok = np.isfinite(arr) | (arr == -np.inf) if neg_inf else np.isfinite(arr)
    if not ok.all():
        rule = "finite or -inf" if neg_inf else "finite"
        raise BadParameterError(f"{what} must be {rule}, got {arr[~ok][0]}")
    arr.setflags(write=False)
    return arr


def reals(values, what: str, gt=None, ge=None, lt=None, error=BadParameterError) -> list:
    """``values``, a list, tuple or array, as a list of floats, each read by ``real``."""
    return [real(v, what, gt, ge, lt, error) for v in _items(values, what, error)]


def wholes(values, what: str, ge=None, error=BadParameterError) -> list:
    """``values``, a list, tuple or array, as a list of ints, each read by ``whole``."""
    return [whole(v, what, ge, error) for v in _items(values, what, error)]


def _items(values, what: str, error) -> list:
    """``values`` as a list; a scalar raises ``error`` (a string's items are
    strings, which the readers reject)."""
    try:
        return list(values)
    except TypeError:
        raise _wrong_type(error)(f"{what} must be a list, got {reprlib.repr(values)}") from None


def _wrong_type(error):
    """The class a reader raises for a value of the wrong type."""
    return _NotANumber if error is BadParameterError else error
