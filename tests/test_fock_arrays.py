"""Array-valued power-series side against scalar oracles and exact identities.

The oracles below are the one-point implementations the array code
replaced (per-point products with their own zero count, per-index series
build, scalar log-domain helpers), kept verbatim as references.  The
one-point log|e^u - e^s| is the half-angle identity written out on
scalars, since the difference of exponentials it replaced cancels near
u = s.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_cis.errors import BadParameterError, OnZeroError, TooFewTermsError
from gauss_cis.fock import (
    FockSeries,
    GeneratingProduct,
    LogPolarPoint,
    consistency_identity,
    g0_estimate_ratio,
    generating_product_G0,
    generating_product_perturbed,
    kernel_norm,
    log_distance_to_zeros,
    node_transform,
    phi,
    to_fock,
)
from gauss_cis.gauss_space import CoefficientVector, split_parts
from gauss_cis.lattice import GaussianParam
from gauss_cis.logdomain import (
    log_abs_diff_exp,
    log_abs_one_minus_exp,
    logsumexp,
    modulus,
    wrap_angle,
)

# -- scalar oracles ----------------------------------------------------------


def _scalar_log_abs_diff_exp(u, s):
    """log|e^u - e^s| at one point as max(Re u, s) + log|1 - e^v|, Re v <= 0,
    with log|1 - e^v| by the half-angle identity, written out on scalars."""
    u = complex(u)
    s = float(s)
    v = s - u if u.real > s else u - s
    e, sin, cos = np.exp(v.real), np.sin(v.imag / 2.0), np.cos(v.imag / 2.0)
    re, im = 2.0 * e * sin * sin - np.expm1(v.real), -2.0 * e * sin * cos
    ad = np.hypot(re, im)
    if ad == 0.0:
        return -np.inf
    return max(u.real, s) + float(np.log(ad))


def _old_evaluate(prod, lm, arg):
    """One point, every stored zero, the bulk block folded by prefix sums."""
    z = prod.zero_log_moduli
    u = lm + 1j * arg
    n_low = int(np.searchsorted(z, lm - 45.0))
    log_abs = n_low * lm - prod.prefix_sums[n_low]
    phase = n_low * (np.pi + arg)
    la, ph = log_abs_one_minus_exp(u - z[n_low:])
    return float(log_abs + np.sum(la)), float(wrap_angle(phase + np.sum(ph)))


def _nearest_zeros(lm, arg, z):
    cos = np.cos(arg)
    i = int(np.searchsorted(z, lm + np.log(cos))) if cos > 0.0 else 0
    return z[max(i - 1, 0) : i + 1]


def _old_distance(lm, arg, z):
    u = lm + 1j * arg
    return float(min(_scalar_log_abs_diff_exp(u, s) for s in _nearest_zeros(lm, arg, z)))


def _old_g0_estimate_ratio(a, lm, arg):
    prod = GeneratingProduct.unperturbed(a, int(np.ceil((lm + 38.0) / (2.0 * a))) + 1)
    log_abs, _ = _old_evaluate(prod, lm, arg)
    log_dist = _old_distance(lm, arg, prod.zero_log_moduli)
    log_ratio = log_abs + np.logaddexp(0.0, 1.5 * lm) - lm**2 / (4.0 * a) - log_dist
    return float(np.exp(log_ratio))


def _old_kernel_norm(a, lm, n_terms=None):
    peak = max(0.0, lm / (2.0 * a) - 1.0)
    needed = int(np.ceil(peak + np.sqrt(40.0 / a) + 4.0))
    n_used = needed if n_terms is None else int(n_terms)
    n = np.arange(n_used + 1)
    term_log = 2.0 * n * lm - 2.0 * a * (n + 1.0) ** 2
    total = logsumexp(term_log)
    next_log = 2.0 * (n_used + 1) * lm - 2.0 * a * (n_used + 2.0) ** 2
    if next_log - term_log[-1] > np.log(0.5) or next_log - total > np.log(1e-12):
        raise TooFewTermsError("tail not certified")
    growth = lm**2 / (4.0 * a) if lm > 0.0 else 0.0
    return float(total), float(np.exp(total + np.logaddexp(0.0, 2.0 * lm) - 2.0 * growth))


def _old_to_fock(c, coeffs):
    f_minus, c0, f_plus = split_parts(coeffs)

    def series(part, sign):
        hi = part.index_range[1] if sign > 0 else -part.index_range[0]
        if len(part) == 0 or hi < 1:
            return FockSeries.zero()
        lm = np.full(hi, -np.inf)
        ph = np.zeros(hi)
        for n in range(1, hi + 1):
            v = part.value_at(sign * n)
            if v != 0:
                lm[n - 1] = np.log(abs(v)) - c.a * n * n
                ph[n - 1] = np.angle(v) - c.b * n * n
        return FockSeries(lm, ph)

    return series(f_minus, -1), c0, series(f_plus, +1)


def _old_evaluate_log(series, lm, arg):
    if len(series.log_magnitude) == 0:
        return -np.inf, 0.0
    k = np.arange(len(series.log_magnitude))
    term_log = series.log_magnitude + k * lm
    top = np.max(term_log)
    if top == -np.inf:
        return -np.inf, 0.0
    s = np.sum(np.exp(term_log - top + 1j * (series.phase + k * arg)))
    if s == 0:
        return -np.inf, 0.0
    return float(top + np.log(abs(s))), float(np.angle(s))


def _old_consistency_identity(c, coeffs, lam):
    d = lam - coeffs.indices
    lhs = complex(np.sum(coeffs.values * np.exp(-c.c * d * d)))
    _, _, f_plus = _old_to_fock(c, coeffs)
    w_lm, w_arg = 2.0 * c.a * lam, wrap_angle(2.0 * c.b * lam)
    lf, pf = _old_evaluate_log(f_plus, w_lm, w_arg)
    if lf == -np.inf:
        rhs = 0.0 + 0.0j
    else:
        log_rhs = -c.a * lam * lam + w_lm + lf
        ph_rhs = -c.b * lam * lam + w_arg + pf
        rhs = complex(np.exp(log_rhs) * np.exp(1j * ph_rhs))
    denom = max(abs(lhs), abs(rhs))
    return lhs, rhs, 0.0 if denom == 0.0 else abs(lhs - rhs) / denom


def _rel(x, y):
    return np.abs(np.asarray(x) - np.asarray(y)) / np.maximum(np.abs(y), 1e-300)


def _g0_grid(a=0.5, lo=0.5, hi=10.5, step=0.05, n_angles=8, exclusion=0.1):
    """The g0-estimate grid: zero-avoiding points, log-modulus major."""
    lms = np.arange(lo, hi + 1e-12, step)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    grid = LogPolarPoint(np.repeat(lms, n_angles), np.tile(angles, len(lms)))
    zeros = GeneratingProduct.unperturbed(a, int(np.ceil((hi + 40) / (2 * a)))).zero_log_moduli
    keep = log_distance_to_zeros(grid, zeros) - grid.log_modulus >= np.log(exclusion)
    return LogPolarPoint(grid.log_modulus[keep], grid.argument[keep])


# -- against the oracles -----------------------------------------------------


class TestAgainstScalarOracles:
    def test_g0_ratio_on_the_benchmark_grid(self):
        p = _g0_grid(lo=0.5 + 0.37 * 0.05)
        got = g0_estimate_ratio(0.5, p)
        want = [_old_g0_estimate_ratio(0.5, lm, ang) for lm, ang in zip(p.log_modulus, p.argument)]
        assert len(got) > 1500
        assert np.max(_rel(got, want)) <= 1e-13

    def test_distance_on_the_benchmark_grid(self):
        p = _g0_grid()
        zeros = GeneratingProduct.unperturbed(0.5, 60).zero_log_moduli
        got = log_distance_to_zeros(p, zeros)
        want = [_old_distance(lm, ang, zeros) for lm, ang in zip(p.log_modulus, p.argument)]
        assert np.max(np.abs(got - want)) <= 1e-15
        # and each value against 50 digits
        with mpmath.workdps(50):
            exact = np.array([min(float(mpmath.log(abs(mpmath.exp(mpmath.mpc(lm, ang))
                                                       - mpmath.exp(mpmath.mpf(s)))))
                                  for s in _nearest_zeros(lm, ang, zeros))
                              for lm, ang in zip(p.log_modulus, p.argument)])
        assert np.all(np.abs(got - exact) <= 1e-15 * np.maximum(np.abs(exact), 1.0))

    @pytest.mark.parametrize("a", [0.25, 0.5, 2.0])
    def test_kernel_on_a_fine_grid(self, a):
        t = np.arange(-10.0, 10.0 + 1e-12, 0.01)
        total, ratio = kernel_norm(a, LogPolarPoint(t, np.zeros_like(t)))
        want = np.array([_old_kernel_norm(a, x) for x in t])
        assert np.max(np.abs(total - want[:, 0]) / np.maximum(1.0, np.abs(want[:, 0]))) <= 1e-13
        assert np.max(_rel(ratio, want[:, 1])) <= 1e-13

    def test_kernel_with_explicit_term_count(self):
        t = np.linspace(-3.0, 8.0, 12)
        total, _ = kernel_norm(0.5, LogPolarPoint(t, t), n_terms=80)
        want = [_old_kernel_norm(0.5, x, 80)[0] for x in t]
        assert np.max(np.abs(total - want)) <= 1e-13

    def test_evaluate_on_wide_grid(self):
        rng = np.random.default_rng(5)
        prod = GeneratingProduct.from_deltas(0.5, rng.uniform(-0.45, 0.45, 300))
        lm = rng.uniform(-30.0, 200.0, 700)
        arg = rng.uniform(0.2, 2 * np.pi - 0.2, 700)
        log_abs, phase = prod.evaluate(LogPolarPoint(lm, arg))
        want = np.array([_old_evaluate(prod, x, y) for x, y in zip(lm, arg)])
        assert np.max(np.abs(log_abs - want[:, 0]) / np.maximum(1.0, np.abs(want[:, 0]))) <= 1e-13
        assert np.max(np.abs(np.exp(1j * phase) - np.exp(1j * want[:, 1]))) <= 1e-10

    def test_to_fock_matches_per_index_build(self):
        for t in range(30):
            rng = np.random.default_rng([91, t])
            n = int(rng.integers(1, 40))
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            vals[rng.random(n) < 0.25] = 0.0
            coeffs = CoefficientVector(int(rng.integers(-25, 5)), vals)
            c = GaussianParam(float(rng.uniform(0.2, 2.0)), float(rng.uniform(-3.0, 3.0)))
            new, old = to_fock(c, coeffs), _old_to_fock(c, coeffs)
            assert new[1] == old[1]
            for s_new, s_old in ((new[0], old[0]), (new[2], old[2])):
                assert np.array_equal(s_new.log_magnitude, s_old.log_magnitude)
                assert np.array_equal(s_new.phase, s_old.phase)

    @pytest.mark.parametrize("b", [0.0, 2.0])
    def test_consistency_over_a_lambda_array(self, b):
        c = GaussianParam(1.0, b)
        lam = np.linspace(-5.0, 5.0, 11)
        for t in range(5):
            rng = np.random.default_rng([13, t])
            coeffs = CoefficientVector(1, rng.standard_normal(16) + 1j * rng.standard_normal(16))
            lhs, rhs, gap = consistency_identity(c, coeffs, lam)
            want = [_old_consistency_identity(c, coeffs, float(x)) for x in lam]
            assert np.max(_rel(lhs, [w[0] for w in want])) <= 1e-13
            assert np.max(_rel(rhs, [w[1] for w in want])) <= 1e-13
            assert np.max(np.abs(gap - [w[2] for w in want])) <= 1e-15
            assert np.max(gap) < 1e-9


# -- one call per grid equals one call per point -----------------------------

_POINTS = st.lists(
    st.tuples(st.floats(-40.0, 120.0), st.floats(-np.pi, np.pi)), min_size=1, max_size=150
)


def _close(array_value, point_values, rtol=1e-14):
    got = np.asarray(array_value, dtype=float)
    want = np.asarray(point_values, dtype=float)
    return np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(want), 1.0))


def _grid_and_points(fn, p, singles):
    """fn on the whole grid and on each point alone; None when a point is on a zero."""
    try:
        whole = fn(p)
    except OnZeroError:
        with pytest.raises(OnZeroError):
            [fn(q) for q in singles]
        return None
    return whole, [fn(q) for q in singles]


@given(_POINTS, st.sampled_from([0.25, 0.5, 1.3]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_arrays_equal_pointwise_results(points, a):
    lm, arg = (np.array(x) for x in zip(*points))
    p = LogPolarPoint(lm, arg)
    singles = [LogPolarPoint(float(x), float(y)) for x, y in zip(lm, arg)]
    prod = GeneratingProduct.from_deltas(a, 0.3 * np.sin(np.arange(1, 400)))
    zeros = prod.zero_log_moduli
    checks = {
        "evaluate": lambda q: prod.evaluate(q)[0],
        "phase": lambda q: np.cos(prod.evaluate(q)[1]),
        "distance": lambda q: log_distance_to_zeros(q, zeros),
        "g0 ratio": lambda q: g0_estimate_ratio(a, q),
        "kernel": lambda q: kernel_norm(a, q)[0],
        "kernel ratio": lambda q: kernel_norm(a, q)[1],
        "lower ratio": lambda q: generating_product_perturbed(prod, q)[2],
    }
    for name, fn in checks.items():
        both = _grid_and_points(fn, p, singles)
        if both is not None:
            assert all(isinstance(v, float) for v in both[1]), name
            assert _close(*both), name


@given(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=20), st.sampled_from([0.0, 1.5]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_consistency_array_equals_pointwise(lams, b):
    c = GaussianParam(0.8, b)
    coeffs = CoefficientVector(2, np.cos(np.arange(9)) + 1j * np.sin(np.arange(9) ** 2))
    lhs, rhs, gap = consistency_identity(c, coeffs, lams)
    for i, lam in enumerate(lams):
        one = consistency_identity(c, coeffs, lam)
        assert isinstance(one[2], float)
        assert abs(lhs[i] - one[0]) <= 1e-14 * max(abs(one[0]), 1e-300)
        assert abs(rhs[i] - one[1]) <= 1e-14 * max(abs(one[1]), 1e-300)
        assert abs(gap[i] - one[2]) <= 1e-15


# -- exact identities of G0 far beyond the frozen brackets ------------------


def _log_theta(a, lz, az):
    """log|theta(z)| and arg theta(z), theta(z) = sum_n e^{-a n^2} z^n, summed directly."""
    n = np.arange(-400, 800)
    term_log = -a * n * n + np.outer(lz, n)
    top = np.max(term_log, axis=1, keepdims=True)
    s = np.sum(np.exp(term_log - top + 1j * np.outer(az, n)), axis=1)
    return top[:, 0] + np.log(np.abs(s)), np.angle(s)


class TestG0Identities:
    A = 0.5
    LM = np.concatenate([np.linspace(-5.0, 200.0, 83), [0.3, 37.7, 150.2]])
    ANGLES = (0.7, 2.0, -1.3, np.pi)

    def _points(self):
        lm = np.repeat(self.LM, len(self.ANGLES))
        return lm, np.tile(self.ANGLES, len(self.LM))

    def test_quasi_periodicity(self):
        # G0(e^{2a} w) = (1 - w) G0(w)
        lm, arg = self._points()
        both = LogPolarPoint(np.stack([lm, lm + 2 * self.A]), np.stack([arg, arg]))
        log_abs, phase = generating_product_G0(self.A, both)
        la, ph = log_abs_one_minus_exp(lm + 1j * arg)
        gap = log_abs[1] - log_abs[0] - la
        assert np.all(np.abs(gap) <= 2e-15 * np.maximum(np.abs(log_abs[1]), 1.0))
        assert np.max(np.abs(np.exp(1j * (phase[1] - phase[0] - ph)) - 1.0)) <= 1e-12

    def test_jacobi_triple_product(self):
        # theta(z) = G0(1) G0(w) G0(e^{2a}/w) with w = -e^{a} z
        a = self.A
        lm, arg = self._points()
        pts = LogPolarPoint(np.stack([lm, 2 * a - lm, np.zeros_like(lm)]),
                            np.stack([arg, -arg, np.zeros_like(arg)]))
        log_abs, phase = generating_product_G0(a, pts)
        log_rhs = log_abs.sum(axis=0)
        log_theta, arg_theta = _log_theta(a, lm - a, arg + np.pi)
        assert np.all(np.abs(log_rhs - log_theta) <= 1e-14 * np.maximum(np.abs(log_theta), 1.0))
        assert np.max(np.abs(np.exp(1j * (phase.sum(axis=0) - arg_theta)) - 1.0)) <= 1e-9


# -- 50-digit references ------------------------------------------------------


@pytest.mark.parametrize(
    "v",
    [1e-9 + 2e-9j, -3e-5 + 1e-6j, 0.2 + 0.5j, -0.3 + 2.0j, 3.0 - 1.0j, 45.0 + 0.3j,
     49.9 - 3.0j, 50.1 + 1.0j, 120.0 - 2.5j, -30.0 + 0.1j, -49.9 + 1.0j, -60.0 + 2.0j,
     # near 0, where exp(v) - 1 cancels, and past |v| = 1e-4 too
     1e-9 + 1e-9j, 1e-4, 2e-4 + 1e-4j, 3e-3 - 2e-3j,
     # either side of Re v = +-50
     50.0 - 1e-9 + 0.3j, 50.0 + 1e-9 - 0.3j, -50.0 - 1e-9 + 0.7j, -50.0 + 1e-9 - 0.7j,
     # on the imaginary axis, and just right of the zero at 2 pi i
     1.5j, -2.5j, 2j * np.pi + 1e-9],
)
def test_log_abs_one_minus_exp_against_mpmath(v):
    la, ph = log_abs_one_minus_exp(v)
    with mpmath.workdps(50):
        exact = -mpmath.expm1(mpmath.mpc(v))
        want = float(mpmath.log(abs(exact)))
        unit = complex(exact / abs(exact))
    assert abs(la - want) <= 4e-16 * max(abs(want), 1.0) or abs(la - want) <= 1e-300
    assert abs(np.exp(1j * ph) - unit) <= 1e-15


def test_log_abs_diff_exp_against_mpmath():
    # e^u - e^s cancels near u = s: 5 + 1e-9 and 5 + 1e-6 against 5 too
    u = np.array([1.2 + 0.7j, 1000.0 + 0.0j, -20.0 + 3.0j, 5.0 + 1e-7j, 300.0 - 2.0j,
                  5.0 + 1e-9, 5.0 + 1e-6])
    s = np.array([0.9, 999.0, -19.5, 5.0, 0.0, 5.0, 5.0])
    got = log_abs_diff_exp(u, s)
    for g, uu, ss in zip(got, u, s):
        with mpmath.workdps(50):
            want = float(mpmath.log(abs(mpmath.exp(mpmath.mpc(uu)) - mpmath.exp(mpmath.mpf(ss)))))
        assert abs(g - want) <= 1e-15 * max(abs(want), 1.0)


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
def test_kernel_norm_against_mpmath(a):
    t = np.array([-10.0, -1.5, 0.0, 0.8, 4.0, 9.5])
    total, _ = kernel_norm(a, LogPolarPoint(t, np.zeros_like(t)))
    for x, got in zip(t, total):
        with mpmath.workdps(50):
            lw = mpmath.mpf(x)
            exact = mpmath.nsum(lambda n: mpmath.exp(2 * n * lw - 2 * a * (n + 1) ** 2),
                                [0, mpmath.inf])
            want = float(mpmath.log(exact))
        # the certified tail is below 1e-12 of the sum
        assert abs(got - want) <= 2e-12


# -- shapes, errors and memory -----------------------------------------------


class TestArrayPoints:
    def test_single_points_give_python_scalars(self):
        p = LogPolarPoint(1.3, 0.4)
        assert isinstance(g0_estimate_ratio(0.5, p), float)
        assert all(isinstance(v, float) for v in kernel_norm(0.5, p))
        assert all(isinstance(v, float) for v in generating_product_G0(0.5, p))
        assert isinstance(log_distance_to_zeros(p, [1.0, 2.0]), float)
        assert isinstance(node_transform(GaussianParam(1.0), 0.5).log_modulus, float)

    def test_two_dimensional_grid_keeps_its_shape(self):
        lm = np.linspace(0.3, 9.0, 24).reshape(4, 6)
        p = LogPolarPoint(lm, np.full(lm.shape, 0.9))
        assert g0_estimate_ratio(0.5, p).shape == (4, 6)
        assert kernel_norm(0.5, p)[0].shape == (4, 6)
        assert np.array_equal(g0_estimate_ratio(0.5, p).ravel(),
                              g0_estimate_ratio(0.5, LogPolarPoint(lm.ravel(), np.full(24, 0.9))))

    def test_tiny_modulus_needs_one_zero(self):
        # |w| = e^{-60}: G0(w) = 1 to double precision; e^{-phi(w)} = e^{-1800}
        # underflows the ratio to 0
        log_abs, _ = generating_product_G0(0.5, LogPolarPoint(-60.0, 1.0))
        assert log_abs == pytest.approx(0.0, abs=1e-20)
        assert g0_estimate_ratio(0.5, LogPolarPoint(np.array([-60.0, -45.0]), np.ones(2))).tolist() == [0.0, 0.0]

    def test_empty_grid(self):
        p = LogPolarPoint(np.empty(0), np.empty(0))
        assert g0_estimate_ratio(0.5, p).shape == (0,)
        assert kernel_norm(0.5, p)[1].shape == (0,)

    def test_fields_are_checked_and_frozen(self):
        with pytest.raises(BadParameterError):
            LogPolarPoint(np.zeros(3), np.zeros(2))
        with pytest.raises(BadParameterError):
            LogPolarPoint(np.array([0.0, np.inf]), np.zeros(2))
        p = LogPolarPoint([1.0, 2.0], [0.0, 0.5])
        assert p.log_modulus.shape == p.argument.shape == (2,)
        with pytest.raises(ValueError):
            p.log_modulus[0] = 5.0

    def test_complex_round_trip(self):
        w = np.array([0.5 - 0.25j, -2.0 + 1.0j])
        assert np.allclose(LogPolarPoint.from_complex(w).to_complex(), w, rtol=1e-15)
        with pytest.raises(BadParameterError):
            LogPolarPoint.from_complex([1.0, 0.0])

    def test_one_point_on_a_zero_fails_the_grid(self):
        lm = np.array([0.3, 2.7, 2.0 * 0.5 * 5, 6.1])
        with pytest.raises(OnZeroError):
            generating_product_G0(0.5, LogPolarPoint(lm, np.zeros(4)))

    def test_too_few_terms_names_the_point(self):
        with pytest.raises(TooFewTermsError, match="log.w. = 10"):
            kernel_norm(0.5, LogPolarPoint(np.array([-2.0, 10.0]), np.zeros(2)), n_terms=5)

    def test_uncertified_tail_is_rejected(self):
        # zeros end at 2a * 20 = 20: a point at log|w| = 0 needs zeros up to 37
        prod = GeneratingProduct.unperturbed(0.5, 20)
        with pytest.raises(BadParameterError):
            prod.evaluate(LogPolarPoint(np.array([0.0, -30.0]), np.array([1.0, 1.0])))
        assert prod.evaluate(LogPolarPoint(-30.0, 1.0))[0] == pytest.approx(0.0, abs=1e-12)

    def test_product_leaves_out_zeros_past_the_certified_tail(self):
        p = LogPolarPoint(np.array([0.4, 3.3]), np.array([2.0, -1.0]))
        short = GeneratingProduct.unperturbed(0.5, 45).evaluate(p)
        long = GeneratingProduct.unperturbed(0.5, 400).evaluate(p)
        assert np.array_equal(short[0], long[0]) and np.array_equal(short[1], long[1])

    def test_point_values_do_not_depend_on_the_grid(self):
        # masked factors add exact zeros, so each point is bit for bit the
        # same whatever else is in its block
        rng = np.random.default_rng(8)
        prod = GeneratingProduct.from_deltas(0.5, rng.uniform(-0.4, 0.4, 500))
        lm = np.concatenate([rng.uniform(-20.0, 5.0, 90), rng.uniform(60.0, 300.0, 90)])
        rng.shuffle(lm)
        arg = rng.uniform(0.3, 6.0, len(lm))
        log_abs, phase = prod.evaluate(LogPolarPoint(lm, arg))
        for i in range(0, len(lm), 7):
            assert prod.evaluate(LogPolarPoint(lm[i], arg[i])) == (log_abs[i], phase[i])

    def test_g0_grid_memory_stays_bounded(self):
        p = _g0_grid()
        g0_estimate_ratio(0.5, p)  # warm caches
        tracemalloc.start()
        try:
            g0_estimate_ratio(0.5, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


# -- one 0-d rule: a scalar in gives a Python scalar out, an array an array --

_POINT, _GRID = LogPolarPoint(1.3, 0.4), LogPolarPoint([1.3], [0.4])
# name: (function of one argument, scalar input, one-element array input)
_ZERO_D_CASES = {
    "wrap_angle": (wrap_angle, 4.0, np.array([4.0])),
    "modulus": (modulus, 3.0 + 4.0j, np.array([3.0 + 4.0j])),
    "log_abs_one_minus_exp": (log_abs_one_minus_exp, 0.1 + 0.2j, np.array([0.1 + 0.2j])),
    "log_abs_diff_exp": (lambda u: log_abs_diff_exp(u, 0.3), 1.0 + 0.5j, np.array([1.0 + 0.5j])),
    "logsumexp": (lambda x: logsumexp(x, axis=-1), [0.1, 0.2], [[0.1, 0.2]]),
    "phi": (lambda p: phi(0.5, p), _POINT, _GRID),
    "kernel_norm": (lambda p: kernel_norm(0.5, p), _POINT, _GRID),
    "g0_estimate_ratio": (lambda p: g0_estimate_ratio(0.5, p), _POINT, _GRID),
    "log_distance_to_zeros": (lambda p: log_distance_to_zeros(p, [1.0, 2.0, 3.0]), _POINT, _GRID),
}


@pytest.mark.parametrize("name", sorted(_ZERO_D_CASES))
def test_zero_d_results_are_python_scalars(name):
    fn, scalar_in, array_in = _ZERO_D_CASES[name]
    for out, shaped in ((fn(scalar_in), False), (fn(array_in), True)):
        for value in out if isinstance(out, tuple) else (out,):
            if shaped:
                assert isinstance(value, np.ndarray) and value.shape == (1,)
            else:
                # numpy.float64 subclasses float, so the type is compared
                assert type(value) in (float, complex)
