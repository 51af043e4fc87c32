import numpy as np
import pytest

from gauss_cis import fock
from gauss_cis.errors import (
    BadParameterError,
    GridTooCoarseError,
    OnZeroError,
    TooFewTermsError,
    UnsortedInputError,
)
from gauss_cis.experiments import half_grid, sign_retrieval_check
from gauss_cis.fock import (
    FockSeries,
    GeneratingProduct,
    LogPolarPoint,
    RadialGrid,
    certified_zero_count,
    consistency_identity,
    default_radial_grid,
    fock_cis_verdict,
    fock_delta_from_lattice,
    fock_norm,
    fock_norm_quadrature,
    fock_points_from_sequence,
    g0_estimate_ratio,
    generating_product_G0,
    generating_product_perturbed,
    kernel_norm,
    log_distance_to_zeros,
    node_transform,
    phi,
    to_fock,
)
from gauss_cis.gauss_space import CoefficientVector, evaluate
from gauss_cis.lattice import GaussianParam, PeriodicPerturbation
from gauss_cis.logdomain import log_abs_diff_exp, log_abs_one_minus_exp


def monomial(n: int) -> FockSeries:
    return FockSeries(np.array([-np.inf] * n + [0.0]), np.zeros(n + 1))


_TWO_POINTS = LogPolarPoint(np.array([1.0, 3.0]), np.zeros(2))
# every public function that takes a raw decay rate a, its other arguments valid
_RAW_A = {
    "fock_norm": lambda a: fock_norm(monomial(2), a),
    "fock_norm_quadrature": lambda a: fock_norm_quadrature(monomial(2), a),
    "default_radial_grid": lambda a: default_radial_grid(a, 3),
    "phi": lambda a: phi(a, _TWO_POINTS),
    "kernel_norm": lambda a: kernel_norm(a, _TWO_POINTS),
    "GeneratingProduct": lambda a: GeneratingProduct(a, [1.0, 2.0]),
    "certified_zero_count": lambda a: certified_zero_count(a, _TWO_POINTS),
    "generating_product_G0": lambda a: generating_product_G0(a, _TWO_POINTS),
    "g0_estimate_ratio": lambda a: g0_estimate_ratio(a, _TWO_POINTS),
    "fock_cis_verdict": lambda a: fock_cis_verdict(a, _TWO_POINTS),
    "fock_delta_from_lattice": lambda a: fock_delta_from_lattice(a, 0.25),
    "sign_retrieval_check": lambda a: sign_retrieval_check(
        a, CoefficientVector.basis(0), half_grid(np.zeros(8), -4)),
}


@pytest.mark.parametrize("a", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("call", _RAW_A.values(), ids=_RAW_A.keys())
def test_every_raw_decay_rate_is_checked(call, a):
    # GaussianParam owns the rule; a = 1 shows the other arguments are valid
    call(1.0)
    with pytest.raises(BadParameterError, match="decay rate a must be finite and > 0"):
        call(a)


# malformed inputs, each with the error it raises and a part of its message
_MALFORMED = {
    "nan log-magnitude": (lambda: FockSeries([np.nan], [0.0]), BadParameterError, "log-magnitudes"),
    "inf log-magnitude": (lambda: FockSeries([np.inf], [0.0]), BadParameterError, "log-magnitudes"),
    "inf phase": (lambda: FockSeries([0.0], [np.inf]), BadParameterError, "phases must be finite"),
    "grid of 3 points": (lambda: fock_norm_quadrature(monomial(2), 1.0, RadialGrid(0.0, 1.0, 0.5)),
                         GridTooCoarseError, "at least 9 points"),
    "product without zeros": (lambda: GeneratingProduct(1.0, []),
                              BadParameterError, "at least one zero"),
    "verdict of one point": (lambda: fock_cis_verdict(1.0, LogPolarPoint([1.0], [0.0])),
                             BadParameterError, "at least two points"),
    "verdict n_max 0": (lambda: fock_cis_verdict(1.0, _TWO_POINTS, n_max=0),
                        BadParameterError, "n_max must be >= 1"),
    "verdict margin -0.1": (lambda: fock_cis_verdict(1.0, _TWO_POINTS, margin=-0.1),
                            BadParameterError, "margin must be finite and >= 0"),
    "verdict margin nan": (lambda: fock_cis_verdict(1.0, _TWO_POINTS, margin=np.nan),
                           BadParameterError, "margin must be finite and >= 0"),
    "verdict margin inf": (lambda: fock_cis_verdict(1.0, _TWO_POINTS, margin=np.inf),
                           BadParameterError, "margin must be finite and >= 0"),
    "verdict n_max nan": (lambda: fock_cis_verdict(1.0, _TWO_POINTS, n_max=np.nan),
                          BadParameterError, "n_max must be finite, got nan"),
    "delta_exponent nan": (lambda: GeneratingProduct.from_deltas(1.0, [0.1], delta_exponent=np.nan),
                           BadParameterError, "delta_exponent must be finite, got nan"),
    "grid step 0": (lambda: fock_norm_quadrature(monomial(2), 1.0, RadialGrid(0.0, 1.0, 0.0)),
                    BadParameterError, "step must be finite and > 0, got 0.0"),
    "grid step nan": (lambda: fock_norm_quadrature(monomial(2), 1.0, RadialGrid(0.0, 1.0, np.nan)),
                      BadParameterError, "step must be finite and > 0, got nan"),
    "kernel n_terms 40.5": (lambda: kernel_norm(1.0, _TWO_POINTS, n_terms=40.5),
                            BadParameterError, "n_terms must be a whole number, got 40.5"),
    # arrays are read by errors.array: a bool or a numeric string is not a
    # number, and every zero of a product is finite
    "log-polar string and bool": (lambda: LogPolarPoint(["1", True], [0.0, 0.0]),
                                  BadParameterError, "log-modulus must be real numbers, got '1'"),
    "from_complex string": (lambda: LogPolarPoint.from_complex(["1", True]),
                            BadParameterError, "w must be complex numbers, got '1'"),
    "series bool log-magnitude": (
        lambda: FockSeries([0.0, True], [0.0, 0.0]),
        BadParameterError, "log-magnitudes must be real numbers, got True"),
    "series bool coefficient": (
        lambda: FockSeries.from_coefficients([1.0, True]),
        BadParameterError, "coefficients must be complex numbers, got True"),
    "product nan zero": (lambda: GeneratingProduct(1.0, [1, np.nan, 3]),
                         BadParameterError, "zero log-moduli must be finite, got nan"),
    "product inf zero": (lambda: GeneratingProduct(1.0, [1, 2, np.inf]),
                         BadParameterError, "zero log-moduli must be finite, got inf"),
    "product bool delta": (lambda: GeneratingProduct.from_deltas(1.0, [0.1, True]),
                           BadParameterError, "deltas must be real numbers, got True"),
    "node_transform string lambda": (lambda: node_transform(GaussianParam(1.0), ["1", 2.0]),
                                     BadParameterError, "lambda must be real numbers, got '1'"),
    "consistency string and bool lambda": (
        lambda: consistency_identity(GaussianParam(1.0), CoefficientVector(1, [1.0]), ["1", True]),
        BadParameterError, "lambda must be real numbers, got '1'"),
    # counts are read as whole numbers, not truncated by arange or a window
    "unperturbed count 2.5": (lambda: GeneratingProduct.unperturbed(0.5, 2.5),
                              BadParameterError, "count must be a whole number, got 2.5"),
    "points count 2.5": (
        lambda: fock_points_from_sequence(GaussianParam(1.0), PeriodicPerturbation((0.1,)), 2.5),
        BadParameterError, "count must be a whole number, got 2.5"),
    # an empty zero set, and arguments of the wrong type or not finite
    "distance to no zeros": (lambda: log_distance_to_zeros(LogPolarPoint(1.0, 0.0), []),
                             BadParameterError, "zero log-moduli must hold at least one zero"),
    "tail count string": (lambda: GeneratingProduct(1.0, [1.0, 2.0]).tail_count_for("1"),
                          BadParameterError, "log-modulus must be real numbers, got '1'"),
    "tail count bool": (lambda: GeneratingProduct(1.0, [1.0, 2.0]).tail_count_for([1.0, True]),
                        BadParameterError, "log-modulus must be real numbers, got True"),
    "tail count nan": (lambda: GeneratingProduct(1.0, [1.0, 2.0]).tail_count_for(np.nan),
                       BadParameterError, "log-modulus must be finite, got nan"),
    "verdict of a list": (lambda: fock_cis_verdict(1.0, [[2.0, 4.0], [0.0, 0.0]]),
                          BadParameterError, "points must be a LogPolarPoint, got list"),
    "radial grid degree string": (lambda: default_radial_grid(0.5, "3"),
                                  BadParameterError, "degree must be a number, got '3'"),
    "radial grid degree true": (lambda: default_radial_grid(0.5, True),
                                BadParameterError, "degree must be a number, got True"),
    "lattice delta nan": (lambda: fock_delta_from_lattice(0.5, np.nan),
                          BadParameterError, "delta must be finite, got nan"),
    "lattice delta string": (lambda: fock_delta_from_lattice(0.5, "0.1"),
                             BadParameterError, "delta must be a number, got '0.1'"),
}


@pytest.mark.parametrize("call, error, message", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_input_raises_its_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestLogPolarPoint:
    def test_round_trip(self):
        p = LogPolarPoint.from_complex(0.5 - 0.25j)
        assert p.to_complex() == pytest.approx(0.5 - 0.25j)

    def test_zero_rejected(self):
        with pytest.raises(BadParameterError):
            LogPolarPoint.from_complex(0.0)


class TestFockSeries:
    def test_from_coefficients_zeros(self):
        s = FockSeries.from_coefficients([1.0, 0.0, -2.0])
        assert s.log_magnitude[1] == -np.inf
        assert s.phase[1] == 0.0
        assert s.phase[2] == pytest.approx(np.pi)

    def test_from_coefficients_takes_the_one_modulus_rule(self):
        # |z| as hypot, as LogPolarPoint.from_complex and Python's abs take it;
        # numpy 2.4's complex abs differs from it in the last bit on 365 of these
        rng = np.random.default_rng(2027)
        values = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        got = FockSeries.from_coefficients(values).log_magnitude
        assert got.tobytes() == LogPolarPoint.from_complex(values).log_modulus.tobytes()
        assert got.tobytes() == np.log([abs(complex(v)) for v in values]).tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(BadParameterError):
            FockSeries(np.zeros(2), np.zeros(3))

    def test_evaluate_log_matches_direct(self):
        s = FockSeries.from_coefficients([1.0, -0.5, 0.25j])
        w = 0.7 * np.exp(0.3j)
        la, ph = s.evaluate_log(LogPolarPoint.from_complex(w))
        direct = 1.0 - 0.5 * w + 0.25j * w * w
        assert np.exp(la) * np.exp(1j * ph) == pytest.approx(direct, rel=1e-14)


class TestToFock:
    def test_single_positive_coefficient(self):
        _, c0, f_plus = to_fock(GaussianParam(1.0), CoefficientVector.basis(1))
        assert c0 == 0.0
        assert f_plus.degree == 0
        assert f_plus.log_magnitude[0] == pytest.approx(-1.0)
        # weight cancellation: the series norm equals the coefficient norm
        assert np.exp(fock_norm(f_plus, 1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_zero_vector(self):
        f_minus, c0, f_plus = to_fock(GaussianParam(1.0), CoefficientVector(0, []))
        assert c0 == 0.0
        assert f_minus.degree == -1 and f_plus.degree == -1
        assert fock_norm(f_plus, 1.0) == -np.inf

    def test_isometry_seeded(self):
        a, b = 0.7, 1.3
        for t in range(100):
            rng = np.random.default_rng([77, t])
            vals = rng.standard_normal(33) + 1j * rng.standard_normal(33)
            coeffs = CoefficientVector(-16, vals)
            f_minus, c0, f_plus = to_fock(GaussianParam(a, b), coeffs)
            total = (
                np.exp(fock_norm(f_minus, a))
                + abs(c0) ** 2
                + np.exp(fock_norm(f_plus, a))
            )
            assert total == pytest.approx(coeffs.norm() ** 2, rel=1e-13)


class TestFockNorm:
    def test_constant_series(self):
        assert np.exp(fock_norm(monomial(0), 0.5)) == pytest.approx(np.e, rel=1e-14)

    def test_zero_series(self):
        assert fock_norm(FockSeries.zero(), 1.0) == -np.inf

    def test_degree_three(self):
        # weight e^{2a(n+1)^2} with n = 3, a = 1/4
        assert fock_norm(monomial(3), 0.25) == pytest.approx(8.0, abs=1e-13)

    def test_a_must_be_positive(self):
        with pytest.raises(BadParameterError):
            fock_norm(monomial(0), 0.0)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("degree", [0, 5, 17, 40])
    def test_matches_a_50_digit_sum(self, degree, seed):
        # degrees up to 40 put the weights e^{2a(k+1)^2} far past 1e308;
        # about a quarter of the coefficients are exact zeros (-inf)
        import mpmath

        rng = np.random.default_rng([31, degree, seed])
        a = float(rng.uniform(0.1, 2.0))
        lm = rng.uniform(-50.0, 10.0, degree + 1)
        lm[rng.random(degree + 1) < 0.25] = -np.inf
        series = FockSeries(lm, rng.uniform(-np.pi, np.pi, degree + 1))
        terms = 2.0 * lm + 2.0 * a * (np.arange(degree + 1) + 1.0) ** 2
        with mpmath.workdps(50):
            exact = mpmath.fsum(
                mpmath.exp(2 * mpmath.mpf(x) + 2 * mpmath.mpf(a) * (k + 1) ** 2)
                for k, x in enumerate(lm) if x > -np.inf
            )
            exact = float(mpmath.log(exact)) if exact else -np.inf
        got = fock_norm(series, a)
        if exact == -np.inf:
            assert got == -np.inf
        else:
            # the double-precision terms carry eps of their size
            scale = max(1.0, float(np.max(np.abs(terms[np.isfinite(terms)]))))
            assert abs(got - exact) <= 8.0 * np.finfo(float).eps * scale

    def test_all_zero_coefficients(self):
        assert fock_norm(FockSeries(np.full(5, -np.inf), np.zeros(5)), 0.7) == -np.inf


class TestQuadratureNorm:
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    def test_monomials_match_closed_form(self, a, n):
        got = fock_norm_quadrature(monomial(n), a)
        expected = np.exp(2.0 * a * (n + 1) ** 2)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_cross_terms_vanish(self):
        # w + w^2: orthogonality leaves the two diagonal weights
        s = FockSeries(np.array([-np.inf, 0.0, 0.0]), np.zeros(3))
        a = 0.5
        expected = np.exp(2 * a * 4) + np.exp(2 * a * 9)
        assert fock_norm_quadrature(s, a) == pytest.approx(expected, rel=1e-10)

    def test_cross_product_small_vs_diagonal(self):
        # |w^j + w^k|^2 integrates to h_j + h_k; the cross term is the residual
        a = 0.25
        s = FockSeries(np.array([0.0, -np.inf, 0.0]), np.zeros(3))
        got = fock_norm_quadrature(s, a)
        diag = np.exp(2 * a * 1) + np.exp(2 * a * 9)
        assert abs(got - diag) < 1e-10 * diag

    def test_zero_series(self):
        assert fock_norm_quadrature(FockSeries.zero(), 1.0) == 0.0
        zeroed = FockSeries.from_coefficients([0.0, 0.0])
        assert fock_norm_quadrature(zeroed, 1.0) == 0.0

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridTooCoarseError):
            fock_norm_quadrature(monomial(2), 1.0, RadialGrid(-10.0, 14.0, 2.4))


class TestPhi:
    def test_unit_circle(self):
        assert phi(1.0, LogPolarPoint(0.0, 1.0)) == 0.0

    def test_transformed_node(self):
        c = GaussianParam(0.7, 0.3)
        lam = 2.5
        w = node_transform(c, lam)
        assert phi(c.a, w) == pytest.approx(c.a * lam * lam, rel=1e-14)

    def test_plain_value(self):
        assert phi(1.0, LogPolarPoint(4.0, 0.0)) == pytest.approx(4.0)


class TestKernelNorm:
    def test_small_modulus_limit(self):
        log_sq, _ = kernel_norm(0.5, LogPolarPoint(-30.0, 0.0))
        assert np.exp(log_sq) == pytest.approx(np.exp(-2 * 0.5), rel=1e-12)

    def test_ratio_in_frozen_bracket(self):
        # bracket recorded from the committed oracle run over t in [-10, 10]
        for t in (-10.0, -5.0, 0.0, 5.0, 10.0):
            _, ratio = kernel_norm(0.5, LogPolarPoint(t, 0.0))
            assert 0.36 <= ratio <= 1.80

    def test_certified_term_count_stable(self):
        p = LogPolarPoint(8.0, 0.0)
        base, _ = kernel_norm(0.5, p)
        more, _ = kernel_norm(0.5, p, n_terms=80)
        assert abs(np.expm1(more - base)) < 1e-12

    def test_too_few_terms(self):
        with pytest.raises(TooFewTermsError):
            kernel_norm(0.5, LogPolarPoint(10.0, 0.0), n_terms=5)


class TestNodeTransform:
    def test_origin(self):
        p = node_transform(GaussianParam(1.0), 0.0)
        assert (p.log_modulus, p.argument) == (0.0, 0.0)

    def test_real_parameter(self):
        p = node_transform(GaussianParam(1.0), 3.0)
        assert p.log_modulus == 6.0 and p.argument == 0.0

    def test_phase_wraps(self):
        p = node_transform(GaussianParam(1.0, np.pi), 1.0)
        assert p.argument == pytest.approx(0.0, abs=1e-12)


class TestConsistencyIdentity:
    def test_unit_coefficient_at_its_node(self):
        lhs, rhs, gap = consistency_identity(GaussianParam(1.0), CoefficientVector.basis(1), 1.0)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0, rel=1e-12)
        assert gap < 1e-12

    def test_unit_coefficient_at_origin(self):
        lhs, rhs, gap = consistency_identity(GaussianParam(1.0), CoefficientVector.basis(1), 0.0)
        assert lhs == pytest.approx(np.exp(-1.0))
        assert gap < 1e-12

    def test_zero_vector(self):
        _, _, gap = consistency_identity(GaussianParam(1.0), CoefficientVector(1, []), 2.0)
        assert gap == 0.0

    def test_seeded_grid(self):
        for b in (0.0, 2.0):
            c = GaussianParam(1.0, b)
            for t in range(3):
                rng = np.random.default_rng([13, t])
                vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
                coeffs = CoefficientVector(1, vals)
                for lam in np.linspace(-5, 5, 11):
                    _, _, gap = consistency_identity(c, coeffs, float(lam))
                    assert gap < 1e-9

    def test_negative_support_rejected(self):
        with pytest.raises(BadParameterError):
            consistency_identity(GaussianParam(1.0), CoefficientVector(-2, [1.0]), 0.0)


def test_full_function_series_route():
    # f(x) = e^{-c x^2} (w^{-1} F_-(1/w) + c_0 + w F_+(w)) with w = e^{2cx}
    c = GaussianParam(1.0, 0.5)
    coeffs = CoefficientVector(-20, np.ones(41, dtype=complex))
    x = 0.5
    lhs, _ = evaluate(c, coeffs, x, tol=1e-14)
    f_minus, c0, f_plus = to_fock(c, coeffs)
    w = node_transform(c, x)
    w_inv = LogPolarPoint(-w.log_modulus, -w.argument)
    la_p, ph_p = f_plus.evaluate_log(w)
    la_m, ph_m = f_minus.evaluate_log(w_inv)
    inner = (
        np.exp(-w.log_modulus + la_m) * np.exp(1j * (-w.argument + ph_m))
        + c0
        + np.exp(w.log_modulus + la_p) * np.exp(1j * (w.argument + ph_p))
    )
    rhs = np.exp(-c.c * x * x) * inner
    assert rhs == pytest.approx(lhs, rel=1e-12)


class TestGeneratingProduct:
    def test_zeros_must_increase(self):
        with pytest.raises(BadParameterError):
            GeneratingProduct(1.0, np.array([2.0, 2.0]))

    def test_small_modulus_product_near_one(self):
        a = 0.5
        # every factor 1 - w e^{-2am} is within 4% of 1 at |w| = 0.1
        lg, _ = generating_product_G0(a, LogPolarPoint(np.log(0.1), 0.0))
        assert abs(lg) < 0.1

    def test_exact_zero_detected(self):
        a = 0.5
        with pytest.raises(OnZeroError):
            generating_product_G0(a, LogPolarPoint(2 * a * 5, 0.0))

    def test_bulk_path_matches_naive(self):
        # far above many zeros, the cached prefix-sum block must agree with
        # the factor-by-factor evaluation
        a = 0.5
        prod = GeneratingProduct.unperturbed(a, 200)
        p = LogPolarPoint(120.0, 1.3)
        log_abs, phase = prod.evaluate(p)
        u = p.log_modulus + 1j * p.argument
        naive_abs, naive_ph = 0.0, 0.0
        for s in prod.zero_log_moduli:
            la, ph = log_abs_one_minus_exp(u - s)
            naive_abs += la
            naive_ph += ph
        assert log_abs == pytest.approx(naive_abs, rel=1e-12)
        assert np.exp(1j * phase) == pytest.approx(np.exp(1j * naive_ph), rel=1e-10)

    def test_single_perturbed_zero_factor_ratio(self):
        a = 0.5
        base = GeneratingProduct.unperturbed(a, 60)
        zeros = base.zero_log_moduli.copy()
        zeros[0] = 2 * a * (1 + 0.2)
        moved = GeneratingProduct(a, zeros)
        p = LogPolarPoint(3.7, 1.1)
        diff = moved.evaluate(p)[0] - base.evaluate(p)[0]
        u = p.log_modulus + 1j * p.argument
        oracle = (
            log_abs_one_minus_exp(u - zeros[0])[0]
            - log_abs_one_minus_exp(u - base.zero_log_moduli[0])[0]
        )
        assert diff == pytest.approx(oracle, abs=1e-12)

    def test_perturbed_reduces_to_reference_when_unperturbed(self):
        a = 0.5
        prod = GeneratingProduct.from_deltas(a, np.zeros(80))
        p = LogPolarPoint(4.3, 0.9)
        la, ph = prod.evaluate(p)
        la0, ph0 = generating_product_G0(a, p)
        assert la == pytest.approx(la0, rel=1e-14)
        assert ph == pytest.approx(ph0, rel=1e-14)

    def test_distance_matches_direct_computation(self):
        a = 0.5
        zeros = GeneratingProduct.unperturbed(a, 30).zero_log_moduli
        w = 3.0 * np.exp(0.7j)
        p = LogPolarPoint.from_complex(w)
        direct = min(abs(w - np.exp(s)) for s in zeros)
        assert np.exp(log_distance_to_zeros(p, zeros)) == pytest.approx(direct, rel=1e-12)

    def test_estimate_ratio_order_one(self):
        a = 0.5
        for lm in (1.3, 4.55, 9.7):
            r = g0_estimate_ratio(a, LogPolarPoint(lm, np.pi / 4))
            assert 0.15 <= r <= 6.0

    def test_perturbed_lower_ratio_positive(self):
        a = 0.5
        deltas = np.array([(0.45 if m % 2 else -0.35) for m in range(1, 80)])
        prod = GeneratingProduct.from_deltas(a, deltas, delta_exponent=0.05)
        _, _, ratio = generating_product_perturbed(prod, LogPolarPoint(5.05, 2.0))
        assert ratio > 0.05


class TestFockCisVerdict:
    @staticmethod
    def geometric_points(a, n, deltas=None):
        deltas = np.zeros(n) if deltas is None else np.asarray(deltas)
        return LogPolarPoint(2 * a * np.arange(1, n + 1) + deltas, np.zeros(n))

    def test_reference_sequence_passes(self):
        a = 0.6
        v = fock_cis_verdict(a, self.geometric_points(a, 24))
        assert v.passes
        assert v.delta_star == 0.0
        assert v.gamma == pytest.approx(1.0 - np.exp(-2 * a), rel=1e-12)

    def test_threshold_shift_fails(self):
        a = 0.6
        v = fock_cis_verdict(a, self.geometric_points(a, 24, np.full(24, a)))
        assert not v.passes
        assert v.delta_star == pytest.approx(a)

    def test_arguments_ignored(self):
        a = 0.6
        pts = self.geometric_points(a, 16)
        rotated = LogPolarPoint(pts.log_modulus, np.full(16, 0.8))
        mixed = LogPolarPoint(pts.log_modulus, 0.1 * np.arange(16))
        base = fock_cis_verdict(a, pts)
        for other in (rotated, mixed):
            v = fock_cis_verdict(a, other)
            assert v == base

    def test_unsorted_rejected(self):
        pts = LogPolarPoint([2.0, 1.0], [0.0, 0.0])
        with pytest.raises(UnsortedInputError):
            fock_cis_verdict(1.0, pts)


class TestScaling:
    def test_factor_two_a(self):
        assert fock_delta_from_lattice(0.7, 0.5) == pytest.approx(0.7)

    def test_threshold_correspondence(self):
        # node-side 0.49 < 1/2 passes; node-side 0.5 does not
        for a in (0.5, 1.0):
            c = GaussianParam(a)
            good = fock_points_from_sequence(c, PeriodicPerturbation((0.49,)), 24)
            bad = fock_points_from_sequence(c, PeriodicPerturbation((0.5,)), 24)
            assert fock_cis_verdict(a, good).passes
            assert not fock_cis_verdict(a, bad).passes
            assert fock_cis_verdict(a, good).delta_star == pytest.approx(
                fock_delta_from_lattice(a, 0.49), rel=1e-12
            )


# -- the two-zero distance against the windowed scan it replaced -------------

def _windowed_log_distance(p, zero_log_moduli):
    """Reference: every zero within 60 log-units, the rest approximated."""
    u = p.log_modulus + 1j * p.argument
    z = np.asarray(zero_log_moduli, dtype=float)
    near = z[np.abs(z - p.log_modulus) < 60.0]
    cands = [log_abs_diff_exp(u, s) for s in near]
    if len(near) < len(z):
        far = z[np.abs(z - p.log_modulus) >= 60.0]
        cands.append(float(np.min(np.maximum(far, p.log_modulus))))
    return float(min(cands))


class TestDistanceOracle:
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
    def test_bit_identical_on_grid_and_random_angles(self, a):
        rng = np.random.default_rng(int(4 * a))
        # 24 zeros: |w| runs past the last zero (at 48a) and below the first
        zero_sets = (
            GeneratingProduct.unperturbed(a, 24).zero_log_moduli,
            GeneratingProduct.from_deltas(a, rng.uniform(-0.45, 0.45, 24)).zero_log_moduli,
        )
        angles = np.concatenate([
            np.linspace(-np.pi, np.pi, 17),  # includes +-pi/2 and arg in (pi/2, pi]
            rng.uniform(-np.pi, np.pi, 8),
        ])
        lms = np.concatenate([np.linspace(-50.0, 200.0, 51), zero_sets[1][::3] + 1e-9])
        for zeros in zero_sets:
            for lm in lms:
                for ang in angles:
                    p = LogPolarPoint(float(lm), float(ang))
                    assert log_distance_to_zeros(p, zeros) == _windowed_log_distance(p, zeros)
