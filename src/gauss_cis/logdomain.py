"""Stable helpers for quantities carried as (log-modulus, argument) pairs.

Magnitudes like e^{2a*lambda} or the weights e^{2a(n+1)^2} overflow double
precision quickly, so everything modulus-like is kept as a logarithm and
phases are tracked separately.

Every helper works elementwise on arrays (``logsumexp`` along an axis),
and a scalar input gives a scalar, so a grid of points is one call.
"""

import numpy as np

__all__ = [
    "wrap_angle",
    "expm1_complex",
    "log_abs_one_minus_exp",
    "log_abs_diff_exp",
    "logsumexp",
    "modulus",
]

# |v| below which the Taylor series of expm1 is used
_SMALL = 1e-4
# Re(v) beyond which 1 - e^v is factored through e^v
_BIG = 50.0


def wrap_angle(x):
    """Reduce an angle (or array of angles) to (-pi, pi]."""
    r = np.mod(np.asarray(x, dtype=float), 2.0 * np.pi)
    r = np.where(r > np.pi, r - 2.0 * np.pi, r)
    if np.ndim(x) == 0:
        return float(r)
    return r


def modulus(z):
    """|z| of complex values as hypot(Re z, Im z).

    This is the libm ``hypot`` that Python's scalar ``abs`` calls; numpy's
    vectorised complex ``abs`` can differ from it in the last bit, which
    would make an array result differ from the same point evaluated alone.
    """
    z = np.asarray(z, dtype=complex)
    return np.hypot(z.real, z.imag)


def expm1_complex(v):
    """exp(v) - 1 for complex v, accurate near v = 0."""
    v = np.asarray(v, dtype=complex)
    # horner form of v + v^2/2 + v^3/6 + v^4/24
    series = v * (1.0 + v / 2.0 * (1.0 + v / 3.0 * (1.0 + v / 4.0)))
    direct = np.exp(v) - 1.0
    out = np.where(np.abs(v) < _SMALL, series, direct)
    if np.ndim(v) == 0:
        return complex(out)
    return out


def log_abs_one_minus_exp(v):
    """(log|1 - e^v|, arg(1 - e^v)) for complex v, stable in all regimes.

    For Re(v) large the identity 1 - e^v = -e^v (1 - e^{-v}) avoids overflow;
    for Re(v) very negative the result is (≈0, ≈0); near v = 0 the expm1
    series keeps the cancellation accurate.  Returns -inf log when v = 0.
    """
    v = np.asarray(v, dtype=complex)
    re = v.real
    scalar = np.ndim(v) == 0
    v = np.atleast_1d(v)
    re = np.atleast_1d(re)

    log_abs = np.zeros(v.shape)
    phase = np.zeros(v.shape)

    lo = re < -_BIG
    hi = re > _BIG
    mid = ~(lo | hi)
    # -e^v is negligible against 1
    log_abs[lo] = np.log1p(-np.exp(re[lo]))  # ≈ 0, keeps first-order term
    phase[lo] = np.angle(1.0 - np.exp(v[lo]))

    if np.any(hi):
        w = -expm1_complex(-v[hi])  # 1 - e^{-v}, modulus near 1
        log_abs[hi] = re[hi] + np.log(np.abs(w))
        phase[hi] = wrap_angle(np.pi + v[hi].imag + np.angle(w))

    if np.any(mid):
        z = -expm1_complex(v[mid])  # 1 - e^v
        az = np.abs(z)
        with np.errstate(divide="ignore"):
            log_abs[mid] = np.log(az)
        phase[mid] = np.angle(z)

    if scalar:
        return float(log_abs[0]), float(phase[0])
    return log_abs, phase


def log_abs_diff_exp(u, s):
    """log|e^u - e^s| for complex u and real s, without overflow.

    Factors out e^max(Re u, s) so that both residual exponentials have
    non-positive real part.  ``u`` and ``s`` broadcast against each other;
    scalar inputs give a float.
    """
    u = np.asarray(u, dtype=complex)
    s = np.asarray(s, dtype=float)
    big = np.maximum(u.real, s)
    d = np.exp(u - big) - np.exp(s - big)
    with np.errstate(divide="ignore"):
        out = big + np.log(modulus(d))
    return float(out) if out.ndim == 0 else out


def logsumexp(x, axis=None):
    """log(sum(exp(x))) of a real array along ``axis``, without overflow.

    The m maximal entries are kept out of the shifted sum s, giving
    log1p(s / m) + log(m) + max, as scipy.special.logsumexp does (bit for
    bit); an empty or all -inf reduction gives -inf.  ``axis=None``
    reduces everything; a 0-d result is a float.
    """
    x = np.asarray(x, dtype=float)
    top = np.max(x, axis=axis, keepdims=True, initial=-np.inf)
    is_top = x == top
    m = np.count_nonzero(is_top, axis=axis, keepdims=True).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.sum(np.exp(np.where(is_top, -np.inf, x) - top), axis=axis, keepdims=True)
        out = np.where(top == -np.inf, -np.inf, np.log1p(s / m) + np.log(m) + top)
    out = out.reshape(()) if axis is None else np.squeeze(out, axis=axis)
    return float(out) if out.ndim == 0 else out
