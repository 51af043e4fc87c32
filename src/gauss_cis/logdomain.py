"""Stable helpers for quantities carried as (log-modulus, argument) pairs.

Magnitudes like e^{2a*lambda} or the weights e^{2a(n+1)^2} overflow double
precision quickly, so everything modulus-like is kept as a logarithm and
phases are tracked separately.
"""

import numpy as np

__all__ = [
    "wrap_angle",
    "expm1_complex",
    "log_abs_one_minus_exp",
    "log_abs_diff_exp",
    "logsumexp",
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
    non-positive real part.
    """
    u = complex(u)
    s = float(s)
    big = max(u.real, s)
    d = np.exp(u - big) - np.exp(s - big)
    ad = abs(d)
    if ad == 0.0:
        return -np.inf
    return big + float(np.log(ad))


def logsumexp(x) -> float:
    """log(sum(exp(x))) for a real 1-d array, without overflow.

    The m maximal entries are kept out of the shifted sum s, giving
    log1p(s / m) + log(m) + max, as scipy.special.logsumexp does (bit for
    bit); empty or all -inf input gives -inf.
    """
    x = np.asarray(x, dtype=float)
    top = np.max(x, initial=-np.inf)
    if top == -np.inf:
        return -np.inf
    is_top = x == top
    m = float(np.count_nonzero(is_top))
    s = np.sum(np.exp(np.where(is_top, -np.inf, x) - top))
    return float(np.log1p(s / m) + np.log(m) + top)
