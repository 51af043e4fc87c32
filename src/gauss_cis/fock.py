"""Power-series side of the coefficient model, carried in log-domain.

The change of variable w = e^{2cz} turns the positive-index part of a
coefficient vector into a power series F(w) whose norm weights grow like
e^{2a(n+1)^2}.  Those weights, and moduli |w| = e^{2a lambda}, overflow
double precision almost immediately, so series coefficients live as
(log-magnitude, phase) pairs and all products and sums happen in log
coordinates.

Point-valued functions are array-valued: a ``LogPolarPoint`` may hold a
whole grid, and ``evaluate``, ``kernel_norm``, ``g0_estimate_ratio`` and
the rest return one value per point (a float for a single point, by
``logdomain``'s one 0-d rule).  A grid is one call, not a loop, and the
modulus-side classifier ``fock_cis_verdict`` reads one grid of points too;
``GeneratingProduct.evaluate`` and ``kernel_norm`` walk a grid in blocks
of ``_BLOCK`` points, so their (points x zeros) and (points x terms)
temporaries stay small however large the grid.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import gauss_space
from .errors import (
    BadParameterError,
    GridTooCoarseError,
    OnZeroError,
    TooFewTermsError,
    UnsortedInputError,
    array,
    real,
    typed,
    whole,
)
from .lattice import GaussianParam, NodeSequence, best_window_average
from .logdomain import (
    _out,
    log_abs_diff_exp,
    log_abs_one_minus_exp,
    logsumexp,
    modulus,
    wrap_angle,
)

# points per block of GeneratingProduct.evaluate and kernel_norm
_BLOCK = 64
# log-units from |w| past which a zero's product factor is 1 (zeros above)
# or -w/z_m (zeros below), to relative 1e-16 and 1e-19
_TAIL_CUTOFF, _BULK_CUTOFF = 37.0, 45.0
# default_radial_grid's step over sqrt(a), and fock_norm_quadrature's
# largest relative gap to its half-resolution estimate
_RADIAL_STEP, _QUADRATURE_RTOL = 0.25, 1e-8

__all__ = [
    "FockSeries",
    "LogPolarPoint",
    "RadialGrid",
    "GeneratingProduct",
    "FockCisVerdict",
    "to_fock",
    "fock_norm",
    "default_radial_grid",
    "fock_norm_quadrature",
    "phi",
    "kernel_norm",
    "node_transform",
    "consistency_identity",
    "log_distance_to_zeros",
    "certified_zero_count",
    "generating_product_G0",
    "g0_estimate_ratio",
    "generating_product_perturbed",
    "fock_cis_verdict",
    "fock_delta_from_lattice",
    "fock_points_from_sequence",
]


def _blockwise(fn, n_out, *arrays):
    """``fn`` on consecutive blocks of ``_BLOCK`` entries of equal-shape arrays.

    ``fn`` takes the flattened 1-d blocks and returns ``n_out`` 1-d results;
    they come back stitched together in the arrays' shape.
    """
    flat = [np.reshape(x, -1) for x in arrays]
    outs = [np.empty(np.shape(arrays[0])) for _ in range(n_out)]
    for lo in range(0, flat[0].size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        for out, part in zip(outs, fn(*(x[block] for x in flat))):
            out.reshape(-1)[block] = part
    return outs


def _sum_in_order(x):
    """Sums along the last axis, taken one by one from the right.

    Zero entries then change no bit of a sum, so masked factors leave each
    point's value exactly as if it were evaluated alone.  Product factors
    shrink towards the right, so the small ones are added first.
    """
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1])
    return np.cumsum(x[..., ::-1], axis=-1)[..., -1]


@dataclass(frozen=True)
class LogPolarPoint:
    """Nonzero complex numbers stored as (log|w|, arg w).

    Both fields are floats for a single point, or equal-shape read-only
    float arrays for a grid of points.  Each is read by ``errors.array``:
    a bool, a numeric string, NaN or +-inf raises BadParameterError, as do
    shapes that differ.
    """

    log_modulus: float | np.ndarray
    argument: float | np.ndarray

    def __post_init__(self):
        lm = array(self.log_modulus, "log-modulus", ndim=None)
        arg = array(self.argument, "argument", ndim=None)
        if lm.shape != arg.shape:
            raise BadParameterError("log-modulus and argument shapes differ")
        object.__setattr__(self, "log_modulus", _out(lm))
        object.__setattr__(self, "argument", _out(arg))

    @classmethod
    def from_complex(cls, w) -> "LogPolarPoint":
        """The points ``w``, read by ``errors.array`` as complex numbers; a
        zero raises BadParameterError."""
        w = array(w, "w", complex, ndim=None)
        if np.any(w == 0):
            raise BadParameterError("log-polar point cannot represent 0")
        return cls(np.log(modulus(w)), np.angle(w))

    def to_complex(self):
        """May overflow for large log-modulus; intended for small points."""
        return _out(np.exp(self.log_modulus) * np.exp(1j * self.argument))


@dataclass(frozen=True)
class FockSeries:
    """Power series sum_k b_k w^k with coefficients in log-polar form.

    ``log_magnitude[k]`` is log|b_k| (-inf for an exact zero, whose phase is
    stored as 0).  Degrees run from 0 to len - 1.  Both fields are read by
    ``errors.array`` as 1-d arrays of equal length, every entry finite but
    a log-magnitude of -inf; anything else raises BadParameterError.
    """

    log_magnitude: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        lm = array(self.log_magnitude, "log-magnitudes", neg_inf=True)
        ph = array(self.phase, "phases")
        if lm.shape != ph.shape:
            raise BadParameterError("log-magnitude and phase must be of equal length")
        ph = np.where(np.isneginf(lm), 0.0, wrap_angle(ph))
        ph.setflags(write=False)
        object.__setattr__(self, "log_magnitude", lm)
        object.__setattr__(self, "phase", ph)

    @classmethod
    def from_coefficients(cls, values) -> "FockSeries":
        """The series of the coefficients ``values``, read by ``errors.array``
        as a 1-d complex array."""
        values = array(values, "coefficients", complex)
        with np.errstate(divide="ignore"):
            lm = np.log(modulus(values))
        return cls(lm, np.angle(values))

    @classmethod
    def zero(cls) -> "FockSeries":
        return cls(np.empty(0), np.empty(0))

    @property
    def degree(self) -> int:
        return len(self.log_magnitude) - 1

    def evaluate_log(self, p: LogPolarPoint):
        """(log|F(w)|, arg F(w)) at log-polar points, one value per point.

        The largest term is factored out so the residual sum is O(1).  A
        zero value gives (-inf, 0).
        """
        lm = np.asarray(p.log_modulus, dtype=float)[..., None]
        arg = np.asarray(p.argument, dtype=float)[..., None]
        k = np.arange(len(self.log_magnitude))
        term_log = self.log_magnitude + k * lm
        top = np.max(term_log, axis=-1, keepdims=True, initial=-np.inf)
        top = np.where(top == -np.inf, 0.0, top)
        s = np.sum(np.exp(term_log - top + 1j * (self.phase + k * arg)), axis=-1)
        with np.errstate(divide="ignore"):
            log_abs = top[..., 0] + np.log(modulus(s))
        return _out(log_abs), _out(np.where(s == 0, 0.0, np.angle(s)))


def to_fock(c: GaussianParam, coeffs: gauss_space.CoefficientVector):
    """Split a coefficient vector into its two power series and center value.

    The positive part maps index n >= 1 to degree n - 1 with coefficient
    c_n e^{-c n^2}; the negative part does the same with c_{-n}.  The norm
    weights cancel the e^{-a n^2} factors exactly, so each series has the
    plain l2 norm of its coefficients.
    """
    typed(GaussianParam, c, "c")
    typed(gauss_space.CoefficientVector, coeffs, "coeffs")
    f_minus, c0, f_plus = gauss_space.split_parts(coeffs)

    def series(part, sign):
        if len(part) == 0:
            return FockSeries.zero()
        n = sign * part.indices
        keep = part.values != 0
        n, v = n[keep], part.values[keep]
        lm = np.full(sign * part.index_range[(1 + sign) // 2], -np.inf)
        ph = np.zeros(len(lm))
        lm[n - 1] = np.log(modulus(v)) - c.a * n * n
        ph[n - 1] = np.angle(v) - c.b * n * n
        return FockSeries(lm, ph)

    return series(f_minus, -1), c0, series(f_plus, +1)


def fock_norm(series: FockSeries, a: float) -> float:
    """Log of the squared weighted norm sum_k |b_k|^2 e^{2a(k+1)^2}."""
    GaussianParam(a)
    if len(typed(FockSeries, series, "series").log_magnitude) == 0:
        return -np.inf
    k = np.arange(len(series.log_magnitude))
    terms = 2.0 * series.log_magnitude + 2.0 * a * (k + 1.0) ** 2
    return logsumexp(terms)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid in t = log r used by the quadrature norm, from ``t_lo``
    up to ``t_hi`` > ``t_lo`` in steps of ``step`` > 0."""

    t_lo: float
    t_hi: float
    step: float

    def __post_init__(self):
        real(self.t_hi, "t_hi", gt=real(self.t_lo, "t_lo"))
        real(self.step, "step", gt=0)

    def points(self) -> np.ndarray:
        n = int(np.floor((self.t_hi - self.t_lo) / self.step)) + 1
        return self.t_lo + self.step * np.arange(n)


def default_radial_grid(a: float, degree: int) -> RadialGrid:
    """Grid wide enough that the integrand tail is far below 1e-10 of the
    total for polynomials up to the given degree, a whole number >= 0, in
    steps of sqrt(a) / 4."""
    GaussianParam(a)
    pad = 8.0 * np.sqrt(a) + 2.0
    top = 2.0 * a * (whole(degree, "degree", ge=0) + 1.0) + pad
    return RadialGrid(-pad, top, _RADIAL_STEP * np.sqrt(a))


def _quadrature_log(series: FockSeries, a: float, t: np.ndarray, n_theta: int) -> float:
    """log of the weighted area integral of |F|^2 on the given radial grid."""
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    k = np.arange(len(series.log_magnitude))
    # log|F(e^{t+i theta})| with the max term factored per t
    term_log = series.log_magnitude[None, :] + np.outer(t, k)
    top = np.max(term_log, axis=1)
    finite = top > -np.inf
    rel = np.exp(term_log - np.where(finite, top, 0.0)[:, None])
    osc = np.exp(1j * (series.phase[None, :] + np.outer(theta, k)))  # (theta, k)
    vals = rel @ osc.T  # (t, theta)
    mean_sq = np.mean(np.abs(vals) ** 2, axis=1)
    with np.errstate(divide="ignore"):
        log_angular = np.where(finite, 2.0 * top + np.log(mean_sq), -np.inf)
    # radial weight e^{2t - t^2/(2a)}; trapezoid weights on a uniform grid
    log_integrand = log_angular + 2.0 * t - t * t / (2.0 * a)
    h = t[1] - t[0]
    w = np.full(len(t), h)
    w[0] = w[-1] = h / 2.0
    log_prefactor = -np.log(2.0) - 0.5 * np.log(2.0 * np.pi * a) + np.log(2.0)
    return float(logsumexp(log_integrand + np.log(w)) + log_prefactor)


def fock_norm_quadrature(series: FockSeries, a: float, grid: Optional[RadialGrid] = None) -> float:
    """Weighted-area-integral norm of a polynomial, evaluated numerically.

    The integral is taken in log-radial coordinates where the weight is a
    Gaussian in t = log r; the angular average is a trapezoid rule with
    enough points to integrate the trig polynomial |F|^2 exactly.  The
    result is cross-checked on the half-resolution grid and
    GridTooCoarseError is raised when the two differ by more than 1e-8.
    """
    GaussianParam(a)
    if len(typed(FockSeries, series, "series").log_magnitude) == 0:
        return 0.0
    if grid is None:
        grid = default_radial_grid(a, series.degree)
    t = typed(RadialGrid, grid, "grid").points()
    if len(t) < 9:
        raise GridTooCoarseError("radial grid needs at least 9 points")
    n_theta = 2 * series.degree + 8
    full = _quadrature_log(series, a, t, n_theta)
    half = _quadrature_log(series, a, t[::2], n_theta)
    if full == -np.inf:
        return 0.0
    if abs(np.expm1(half - full)) > _QUADRATURE_RTOL:
        raise GridTooCoarseError(
            f"half-resolution estimate differs by {abs(np.expm1(half - full)):.2e}"
        )
    return float(np.exp(full))


def phi(a: float, p: LogPolarPoint):
    """Radial growth exponent (log|w|)^2 / (4a)."""
    GaussianParam(a)
    return typed(LogPolarPoint, p, "p").log_modulus**2 / (4.0 * a)


def kernel_norm(a: float, p: LogPolarPoint, n_terms: Optional[int] = None):
    """Squared norm of the point-evaluation kernel, as a log, plus a ratio.

    The series sum_{n>=0} |w|^{2n} e^{-2a(n+1)^2} peaks near
    n = log|w|/(2a) - 1; terms are accumulated past the peak until the
    certified geometric tail is below 1e-12 of the partial sum.  The second
    return value is the normalized ratio

        ||k_w||^2 (1 + |w|^2) e^{-2 phi+(w)},

    where phi+ uses log+|w|: the comparison growth saturates at 0 inside the
    unit circle, where the kernel itself tends to the constant term.

    One value per point: each point's terms form a row, padded with -inf
    past its own term count, and every point's tail is certified on its
    own (TooFewTermsError names the first point that fails).
    """
    GaussianParam(a)
    lm = np.asarray(typed(LogPolarPoint, p, "p").log_modulus, dtype=float)
    peak = np.maximum(0.0, lm / (2.0 * a) - 1.0)
    needed = np.ceil(peak + np.sqrt(40.0 / a) + 4.0).astype(int)
    n_used = needed if n_terms is None else np.full(lm.shape, whole(n_terms, "n_terms", ge=0))

    def partial_sums(lm, n_used):
        n = np.arange(int(n_used.max()) + 1)
        term_log = 2.0 * n * lm[:, None] - 2.0 * a * (n + 1.0) ** 2
        return (logsumexp(np.where(n <= n_used[:, None], term_log, -np.inf), axis=-1),)

    (total,) = _blockwise(partial_sums, 1, lm, n_used)
    # certify: next term small and ratio of successive terms < 1/2
    last_log = 2.0 * n_used * lm - 2.0 * a * (n_used + 1.0) ** 2
    next_log = 2.0 * (n_used + 1) * lm - 2.0 * a * (n_used + 2.0) ** 2
    failed = (next_log - last_log > np.log(0.5)) | (next_log - total > np.log(1e-12))
    if np.any(failed):
        i = np.unravel_index(np.argmax(failed), failed.shape)
        raise TooFewTermsError(
            f"{n_used[i] + 1} terms do not certify the tail at log|w| = {lm[i]:.6g}"
            f" (peak near {peak[i]:.1f})"
        )
    growth = np.where(lm > 0.0, phi(a, p), 0.0)
    ratio = np.exp(total + np.logaddexp(0.0, 2.0 * lm) - 2.0 * growth)
    return _out(total), _out(ratio)


def node_transform(c: GaussianParam, lam) -> LogPolarPoint:
    """Image of real nodes under w = e^{2cz}: modulus e^{2a lambda}.  The
    nodes are read by ``errors.array``, a scalar or an array of any rank."""
    lam = array(lam, "lambda", ndim=None)
    typed(GaussianParam, c, "c")
    return LogPolarPoint(2.0 * c.a * lam, wrap_angle(2.0 * c.b * lam))


def consistency_identity(c: GaussianParam, coeffs: gauss_space.CoefficientVector, lam):
    """Check the two evaluation routes for a positive-index coefficient vector.

    Left side: the direct Gaussian sum at lambda.  Right side: the series
    route e^{-phi(w)} e^{-i b lambda^2} w F(w) with w = e^{2c lambda},
    assembled in log-domain.  Returns (lhs, rhs, relative gap), each with
    one entry per node when ``lam`` is an array; ``lam`` is read by
    ``errors.array``, so a bool or a numeric string raises BadParameterError.
    """
    typed(GaussianParam, c, "c")
    lo, _ = typed(gauss_space.CoefficientVector, coeffs, "coeffs").index_range
    if len(coeffs) and lo < 1:
        raise BadParameterError("only positive-index coefficients are supported")
    lam = array(lam, "lambda", ndim=None)
    # full direct sum: truncating relative to ||c|| would swamp the tiny
    # values this identity reaches far from the support
    d = lam[..., None] - coeffs.indices
    lhs = np.sum(coeffs.values * np.exp(-c.c * d * d), axis=-1)
    _, _, f_plus = to_fock(c, coeffs)
    w = node_transform(c, lam)
    lf, pf = f_plus.evaluate_log(w)
    # a zero series gives lf = -inf and so rhs = 0
    log_rhs = -c.a * lam * lam + w.log_modulus + lf
    ph_rhs = -c.b * lam * lam + w.argument + pf
    rhs = np.exp(log_rhs) * np.exp(1j * ph_rhs)
    denom = np.maximum(modulus(lhs), modulus(rhs))
    with np.errstate(invalid="ignore"):
        gap = np.where(denom == 0.0, 0.0, modulus(lhs - rhs) / denom)
    return _out(lhs), _out(rhs), _out(gap)


@dataclass(frozen=True)
class GeneratingProduct:
    """Product prod_m (1 - w / z_m) over zeros on the positive real axis.

    Zeros are stored by log-modulus (strictly increasing).  ``prefix_sums``
    caches cumulative log-moduli so the block of zeros far below |w| can be
    folded in one expression.  ``delta_exponent`` is the growth-law exponent
    used by the lower-estimate ratio of perturbed products.  The zeros are
    read by ``errors.array``: a bool, a numeric string, NaN or +-inf, no
    zero at all, or zeros that do not strictly increase raise
    BadParameterError.
    """

    a: float
    zero_log_moduli: np.ndarray
    delta_exponent: float = 0.0
    prefix_sums: np.ndarray = field(init=False)

    def __post_init__(self):
        z = array(self.zero_log_moduli, "zero log-moduli")
        if len(z) == 0 or np.any(np.diff(z) <= 0.0):
            raise BadParameterError("need at least one zero, with strictly increasing log-moduli")
        GaussianParam(self.a)
        real(self.delta_exponent, "delta_exponent")
        ps = np.concatenate([[0.0], np.cumsum(z)])
        ps.setflags(write=False)
        object.__setattr__(self, "zero_log_moduli", z)
        object.__setattr__(self, "prefix_sums", ps)

    @classmethod
    def unperturbed(cls, a: float, count: int) -> "GeneratingProduct":
        """The zeros e^{2am}, m = 1..``count``, a whole number >= 1."""
        return cls(a, 2.0 * a * np.arange(1, whole(count, "count", ge=1) + 1))

    @classmethod
    def from_deltas(cls, a: float, deltas, delta_exponent: float = 0.0) -> "GeneratingProduct":
        """The zeros e^{2a(m + deltas[m - 1])}, ``deltas`` read by ``errors.array``."""
        deltas = array(deltas, "deltas")
        m = np.arange(1, len(deltas) + 1)
        return cls(a, 2.0 * a * (m + deltas), delta_exponent)

    def tail_count_for(self, log_modulus):
        """Zeros needed so the omitted factors differ from 1 by < 1e-16, per
        log-modulus, read by ``errors.array`` (a string or a bool raises
        BadParameterError)."""
        need = array(log_modulus, "log-modulus", ndim=None) + _TAIL_CUTOFF
        return _out(np.searchsorted(self.zero_log_moduli, need, side="right"))

    def evaluate(self, p: LogPolarPoint):
        """(log|product|, phase) at log-polar points, one value per point.

        Zeros more than 45 log-units below |w| contribute log(w/z_m) each;
        the cached prefix sums fold that block in O(1).  The factors of the
        zeros from there up to ``tail_count_for(log|w|)`` use the stable
        log|1 - e^v| kernel; stored zeros beyond it are left out.  Points
        go through in blocks of ``_BLOCK``, and a point's value does not
        depend on the others.  Raises OnZeroError when any point is within
        1e-14 relative distance of a zero.
        """
        typed(LogPolarPoint, p, "p")
        if np.any(self.tail_count_for(p.log_modulus) == len(self.zero_log_moduli)):
            raise BadParameterError(
                "stored zeros do not certify the product tail at this modulus"
            )
        log_abs, phase = _blockwise(self._evaluate_block, 2, p.log_modulus, p.argument)
        return _out(log_abs), _out(phase)

    def _evaluate_block(self, lm, arg):
        """``evaluate`` on 1-d arrays of at most ``_BLOCK`` points."""
        z = self.zero_log_moduli
        n_low = np.searchsorted(z, lm - _BULK_CUTOFF)
        n_top = np.searchsorted(z, lm + _TAIL_CUTOFF, side="right")
        # bulk block: each factor is -w/z_m up to relative 1e-19
        log_abs = n_low * lm - self.prefix_sums[n_low]
        phase = n_low * (np.pi + arg)
        # the zeros any point of the block needs; each point masks the rest
        j = np.arange(n_low.min(), n_top.max())
        active = (j >= n_low[:, None]) & (j < n_top[:, None])
        v = (lm + 1j * arg)[:, None] - z[j]
        la, ph = log_abs_one_minus_exp(v)
        if np.any(active & (la - np.maximum(v.real, 0.0) < np.log(1e-14))):
            raise OnZeroError("point is within 1e-14 relative of a product zero")
        log_abs = log_abs + _sum_in_order(np.where(active, la, 0.0))
        phase = wrap_angle(phase + _sum_in_order(np.where(active, ph, 0.0)))
        return log_abs, phase


def log_distance_to_zeros(p: LogPolarPoint, zero_log_moduli):
    """log of the complex distance from w to the nearest zero, per point.

    The zeros x_m = e^{z_m} lie on the positive real axis, and |w - x|^2 is
    convex in real x with its minimum at x = Re w.  So the nearest zero is
    one of the two either side of Re w, found by bisection on
    log Re w = log|w| + log cos(arg w), or the first zero when Re w <= 0.
    No zero at all raises BadParameterError.
    """
    z = array(zero_log_moduli, "zero log-moduli")
    if len(z) == 0:
        raise BadParameterError("zero log-moduli must hold at least one zero")
    cos = np.cos(typed(LogPolarPoint, p, "p").argument)
    right = np.searchsorted(z, p.log_modulus + np.log(np.where(cos > 0.0, cos, 1.0)))
    i = np.where(cos > 0.0, right, 0)
    near = z[np.stack([np.maximum(i - 1, 0), np.minimum(i, len(z) - 1)])]
    return _out(np.min(log_abs_diff_exp(p.log_modulus + 1j * p.argument, near), axis=0))


def certified_zero_count(a: float, p: LogPolarPoint) -> int:
    """Zeros e^{2am} of G0, at least one, needed to certify the product tail
    at every point of p, one log-unit and one zero past the tail cut-off;
    they also hold the zero nearest to each point."""
    GaussianParam(a)
    lm = typed(LogPolarPoint, p, "p").log_modulus
    top = float(np.max(lm)) if np.size(lm) else 0.0
    return max(int(np.ceil((top + (_TAIL_CUTOFF + 1.0)) / (2.0 * a))) + 1, 1)


def generating_product_G0(a: float, p: LogPolarPoint):
    """(log|G0(w)|, phase) for the unperturbed geometric zero set e^{2am}."""
    return GeneratingProduct.unperturbed(a, certified_zero_count(a, p)).evaluate(p)


def _with_estimate_ratio(prod: GeneratingProduct, p: LogPolarPoint, log_growth):
    """(log|G(w)|, phase, |G(w)| e^{log_growth} / (e^{phi(w)} dist(w, zeros)))."""
    log_abs, phase = prod.evaluate(p)
    log_dist = log_distance_to_zeros(p, prod.zero_log_moduli)
    return log_abs, phase, _out(np.exp(log_abs + log_growth - phi(prod.a, p) - log_dist))


def g0_estimate_ratio(a: float, p: LogPolarPoint):
    """Normalized two-sided estimate ratio for the unperturbed product:

        |G0(w)| (1 + |w|^{3/2}) / (e^{phi(w)} dist(w, zeros)).

    Bounded above and below on grids that avoid the zeros; the bracket is
    empirical.  One product serves every point of p.
    """
    prod = GeneratingProduct.unperturbed(a, certified_zero_count(a, p))
    return _with_estimate_ratio(prod, p, np.logaddexp(0.0, 1.5 * np.asarray(p.log_modulus)))[2]


def generating_product_perturbed(prod: GeneratingProduct, p: LogPolarPoint):
    """(log|G(w)|, phase, lower-estimate ratio) for a perturbed product.

    The ratio |G(w)| (1 + |w|)^{3/2 + delta} / (dist(w, zeros) e^{phi(w)})
    should stay bounded below on zero-avoiding grids when the zero set
    satisfies the averaged-perturbation condition; ``delta`` is
    ``prod.delta_exponent``.
    """
    typed(GeneratingProduct, prod, "prod")
    lm = np.asarray(typed(LogPolarPoint, p, "p").log_modulus)
    growth = (1.5 + prod.delta_exponent) * np.logaddexp(0.0, lm)
    return _with_estimate_ratio(prod, p, growth)


@dataclass(frozen=True)
class FockCisVerdict:
    """Verdict for a point set against the power-series-side conditions.

    Computed from moduli only: the criterion does not depend on the
    arguments, so points are projected to the positive real axis before the
    relative-separation constant gamma is measured.
    """

    gamma: float
    separated: bool
    delta_sup: float
    window_len: int
    delta_star: float
    threshold: float
    passes: bool


def fock_cis_verdict(a: float, points, n_max: int = 8, margin: float = 1e-9) -> FockCisVerdict:
    """Check points w_n = e^{2an} e^{delta_n} e^{i theta_n} for n >= 1,
    given in order as one ``LogPolarPoint`` grid.

    Conditions: (i) relative separation |w_m - w_n| >= gamma |w_n| measured
    on moduli (the best gamma over adjacent pairs is reported), (ii)
    bounded delta_n over the data, (iii) some window length N <= n_max has
    sup of |window averages of delta| below a - margin.  The arguments
    theta_n never enter.  Unlike ``avdonin_verdict``, averages are measured
    from 0: on this one-sided index set, re-indexing drops or adds a point.
    ``points`` that are not a ``LogPolarPoint``, ``n_max`` not a whole
    number >= 1, or a ``margin`` that is not finite or is below 0, raises
    BadParameterError.
    """
    GaussianParam(a)
    n_max = whole(n_max, "n_max", ge=1)
    real(margin, "margin", ge=0)
    lms = np.ravel(typed(LogPolarPoint, points, "points").log_modulus)
    if len(lms) < 2:
        raise BadParameterError("need at least two points")
    gaps = np.diff(lms)
    if np.any(gaps < 0.0):
        raise UnsortedInputError("points must be sorted by log-modulus")
    # modulus-axis distance |e^{l2} - e^{l1}| / e^{l2} = 1 - e^{-gap}
    gamma = float(np.min(-np.expm1(-gaps)))
    separated = gamma > 0.0
    deltas = lms - 2.0 * a * np.arange(1, len(lms) + 1)
    best_n, best = best_window_average(deltas, n_max)
    passes = separated and best < a - margin
    return FockCisVerdict(
        gamma, separated, float(np.max(np.abs(deltas))), best_n, best, a, passes
    )


def fock_delta_from_lattice(a: float, delta: float) -> float:
    """Scale a node-side perturbation to the modulus side: delta -> 2a delta.

    The passing threshold 1/2 on the node side corresponds exactly to the
    threshold a on the modulus side.  Kept explicit so the factor 2a never
    hides inside a formula.  ``delta`` must be a finite number.
    """
    GaussianParam(a)
    return 2.0 * a * real(delta, "delta")


def fock_points_from_sequence(c: GaussianParam, seq, count: int):
    """First ``count`` transformed nodes w_m = e^{2c lambda_m}, m = 1..count,
    as one grid of points; ``count`` is a whole number >= 1."""
    typed(NodeSequence, seq, "seq")
    return node_transform(c, seq.positions((1, whole(count, "count", ge=1))))
