"""Stable helpers for quantities carried as (log-modulus, argument) pairs.

Magnitudes like e^{2a*lambda} or the weights e^{2a(n+1)^2} overflow double
precision quickly, so everything modulus-like is kept as a logarithm and
phases are tracked separately.

Every helper works elementwise on arrays (``logsumexp`` along an axis),
so a grid of points is one call.  One rule, ``_out``, makes a 0-d result
a Python scalar, here and in ``fock``: a scalar input gives a scalar, an
array input (one element too) an array.

``log_abs_one_minus_exp`` takes every factor of a product over zeros.
Where Re v > 0 it writes 1 - e^v = -e^v (1 - e^{-v}), so it only forms
1 - e^u with u = x + iy and x <= 0, from real parts that never cancel:

    1 - e^u = -expm1(x) + 2 e^x sin(y/2) (sin(y/2) - i cos(y/2)),

the half-angle form of 2 sin^2(y/2) - expm1(x) cos y - i e^x sin y.  Both
terms of the real part are >= 0 and the rest are products, so log|1 - e^u|
keeps full relative precision for every such u, near 0 too.
"""

import numpy as np

__all__ = [
    "wrap_angle",
    "log_abs_one_minus_exp",
    "log_abs_diff_exp",
    "logsumexp",
    "modulus",
]


def _out(x):
    """A 0-d result as a Python scalar; arrays pass through."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def wrap_angle(x):
    """Reduce an angle (or array of angles) to (-pi, pi]."""
    r = np.mod(np.asarray(x, dtype=float), 2.0 * np.pi)
    return _out(np.where(r > np.pi, r - 2.0 * np.pi, r))


def modulus(z):
    """|z| of complex values as hypot(Re z, Im z).

    This is the libm ``hypot`` that Python's scalar ``abs`` calls; numpy's
    vectorised complex ``abs`` can differ from it in the last bit, which
    would make an array result differ from the same point evaluated alone.
    """
    z = np.asarray(z, dtype=complex)
    return _out(np.hypot(z.real, z.imag))


def _one_minus_exp(u):
    """Re, Im and log|.| of 1 - e^u for Re u <= 0, by the identity in the
    module docstring; u = 0 gives a log of -inf."""
    e, s, c = np.exp(u.real), np.sin(u.imag / 2.0), np.cos(u.imag / 2.0)
    re, im = 2.0 * e * s * s - np.expm1(u.real), -2.0 * e * s * c
    with np.errstate(divide="ignore"):
        return re, im, np.log(np.hypot(re, im))


def log_abs_one_minus_exp(v):
    """(log|1 - e^v|, arg(1 - e^v)) for complex v, by the identity in the
    module docstring; v = 0 gives a log of -inf."""
    v = np.asarray(v, dtype=complex)
    flip = v.real > 0.0
    # 1 - e^v = -e^v (1 - e^{-v}) where flipped
    re, im, log_abs = _one_minus_exp(np.where(flip, -v, v))
    phase = np.arctan2(im, re)
    return (_out(np.where(flip, v.real, 0.0) + log_abs),
            _out(np.where(flip, wrap_angle(np.pi + v.imag + phase), phase)))


def log_abs_diff_exp(u, s):
    """log|e^u - e^s| for complex u and real s, as big + log|1 - e^v|.

    big = max(Re u, s) is factored out exactly: v = s - u where Re u > s,
    else u - s, so Re v <= 0, and log|1 - e^v| is taken by the module
    docstring's identity without its phase.  So the difference neither
    overflows nor cancels near u = s, far from s it is big to the last
    bit, and u = s gives -inf.  ``u`` and ``s`` broadcast against each other; scalar
    inputs give a float.
    """
    u = np.asarray(u, dtype=complex)
    s = np.asarray(s, dtype=float)
    return _out(np.maximum(u.real, s) + _one_minus_exp(np.where(u.real > s, s - u, u - s))[2])


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
    return _out(out.reshape(()) if axis is None else np.squeeze(out, axis=axis))
