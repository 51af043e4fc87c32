import numpy as np
import pytest

from gauss_cis import gauss_space
from gauss_cis.errors import (
    BadParameterError,
    EmptyWindowError,
    NoEnumerationError,
    SingularSystemError,
)
from gauss_cis.gauss_space import (
    CoefficientVector,
    FrameBoundEntry,
    collocation_matrix,
    compact_block_hsnorm,
    evaluate,
    frame_bounds,
    interpolate,
    l2_norm_squared,
    split_parts,
)
from gauss_cis.lattice import (
    AffineGrid,
    ExplicitWindow,
    GaussianParam,
    PeriodicPerturbation,
)

A1 = GaussianParam(1.0)

# malformed inputs, each with the error it raises and a part of its message
_MALFORMED = {
    "2-d coefficients": (lambda: CoefficientVector(0, [[1.0, 2.0]]),
                         BadParameterError, r"coefficients must be 1-d, got shape \(1, 2\)"),
    "evaluate tol 0": (lambda: evaluate(A1, CoefficientVector.basis(0), 0.0, tol=0.0),
                       BadParameterError, "tol must be finite and > 0, got 0.0"),
    "collocation tol 0": (lambda: collocation_matrix(A1, AffineGrid(1.0), (-4, 4), tol=0.0),
                          BadParameterError, "tol must be finite and > 0 and < 1"),
    "collocation tol 1": (lambda: collocation_matrix(A1, AffineGrid(1.0), (-4, 4), tol=1.0),
                          BadParameterError, "tol must be finite and > 0 and < 1"),
    "edge_margin nan": (lambda: frame_bounds(A1, AffineGrid(1.0), (16,), edge_margin=np.nan),
                        BadParameterError, "edge_margin must be finite"),
    "edge_margin inf": (lambda: frame_bounds(A1, AffineGrid(1.0), (16,), edge_margin=np.inf),
                        BadParameterError, "edge_margin must be finite"),
    "trim removes every row": (lambda: frame_bounds(A1, AffineGrid(1.0), (16,), edge_margin=100.0),
                               EmptyWindowError, "removed everything"),
    "hsnorm window 0": (lambda: compact_block_hsnorm(A1, AffineGrid(1.0), 0),
                        BadParameterError, "window must be >= 1"),
    "hsnorm window nan": (lambda: compact_block_hsnorm(A1, AffineGrid(1.0), np.nan),
                          BadParameterError, "window must be finite, got nan"),
    "hsnorm window 2.7": (lambda: compact_block_hsnorm(A1, AffineGrid(1.0), 2.7),
                          BadParameterError, "window must be a whole number, got 2.7"),
    "evaluate tol nan": (lambda: evaluate(A1, CoefficientVector.basis(0), 0.0, tol=np.nan),
                         BadParameterError, "tol must be finite and > 0, got nan"),
    "evaluate x nan": (lambda: evaluate(A1, CoefficientVector.basis(0), np.nan),
                       BadParameterError, "x must be finite, got nan"),
    "collocation tol nan": (lambda: collocation_matrix(A1, AffineGrid(1.0), (-4, 4), tol=np.nan),
                            BadParameterError, "tol must be finite and > 0 and < 1, got nan"),
    "interpolate tol nan": (
        lambda: interpolate(A1, AffineGrid(1.0), (-4, 4), np.ones(9), tol=np.nan),
        BadParameterError, "tol must be finite and > 0 and < 1, got nan"),
    "start nan": (lambda: CoefficientVector(np.nan, [1.0]),
                  BadParameterError, "start must be finite, got nan"),
    "start 1.5": (lambda: CoefficientVector(1.5, [1.0]),
                  BadParameterError, "start must be a whole number, got 1.5"),
    "sizes of a string": (lambda: frame_bounds(A1, AffineGrid(1.0), ["a"]),
                          BadParameterError, "sizes must be a number, got 'a'"),
    "sizes not a list": (lambda: frame_bounds(A1, AffineGrid(1.0), 5),
                         BadParameterError, "sizes must be a list, got 5"),
    "size 2.5": (lambda: frame_bounds(A1, AffineGrid(1.0), [2.5]),
                 BadParameterError, "sizes must be a whole number, got 2.5"),
    # arrays are read by errors.array: by type, so a bool or a numeric string
    # is not read as a number, and a NaN sample is named as one
    "string and bool coefficients": (
        lambda: CoefficientVector(0, ["1.5", True]),
        BadParameterError, "coefficients must be complex numbers, got '1.5'"),
    "interpolate nan sample": (
        lambda: interpolate(A1, AffineGrid(1.0), np.r_[np.ones(8), np.nan], (-4, 4)),
        BadParameterError, r"samples must be finite, got \(nan\+0j\)"),
    "interpolate bool sample": (
        lambda: interpolate(A1, AffineGrid(1.0), [*np.ones(8), True], (-4, 4)),
        BadParameterError, "samples must be complex numbers, got True"),
    # window ends are read as whole numbers, not truncated by int()
    "collocation node_range 0.5": (lambda: collocation_matrix(A1, AffineGrid(1.0), (0.5, 4)),
                                   BadParameterError, "node_range must be a whole number, got 0.5"),
    "interpolate node_range nan": (
        lambda: interpolate(A1, AffineGrid(1.0), np.ones(9), (-4, np.nan)),
        BadParameterError, "node_range must be finite, got nan"),
    "value_at 0.5": (lambda: CoefficientVector(0, [1, 2]).value_at(0.5),
                     BadParameterError, "n must be a whole number, got 0.5"),
    "value_at true": (lambda: CoefficientVector(0, [1, 2]).value_at(True),
                      BadParameterError, "n must be a number, got True"),
    "frame entry sigma_min > sigma_max": (
        lambda: FrameBoundEntry(8, 8, 16, 2.0, 1.0, 0.0, "svd", (2.0, 2.0), (1.0, 1.0)),
        BadParameterError, "sigma_min cannot exceed sigma_max"),
}


@pytest.mark.parametrize("call, error, message", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_input_raises_its_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestCoefficientVector:
    def test_basis(self):
        e0 = CoefficientVector.basis(0)
        assert e0.value_at(0) == 1.0
        assert e0.value_at(3) == 0.0
        assert e0.index_range == (0, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(BadParameterError):
            CoefficientVector(0, [1.0, np.inf])

    def test_values_read_only(self):
        v = CoefficientVector(0, [1.0, 2.0])
        with pytest.raises(ValueError):
            v.values[0] = 5.0


class TestEvaluate:
    def test_centered_gaussian(self):
        value, tail = evaluate(A1, CoefficientVector.basis(0), 0.0)
        assert value == 1.0 and tail == 0.0

    def test_empty_coefficients_evaluate_to_zero(self):
        assert evaluate(A1, CoefficientVector(3, []), 0.5) == (0j, 0.0)

    def test_unit_offset(self):
        value, _ = evaluate(A1, CoefficientVector.basis(0), 1.0)
        assert value == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_wide_ones_against_direct_sum(self):
        coeffs = CoefficientVector(-20, np.ones(41))
        value, tail = evaluate(A1, coeffs, 0.5, tol=1e-14)
        oracle = sum(np.exp(-((0.5 - n) ** 2)) for n in range(-20, 21))
        assert abs(value - oracle) <= tail + 1e-14 * abs(oracle)
        assert value == pytest.approx(oracle, rel=1e-12)

    def test_tail_bound_certifies_truncation(self):
        rng = np.random.default_rng(11)
        coeffs = CoefficientVector(-30, rng.standard_normal(61))
        value, tail = evaluate(A1, coeffs, 0.0, tol=1e-6)
        full = complex(np.sum(coeffs.values * np.exp(-((0.0 - coeffs.indices) ** 2))))
        assert abs(value - full) <= tail
        assert tail <= 1e-6 * coeffs.norm()


class TestCollocationMatrix:
    def test_integer_lattice_entries(self):
        mat = collocation_matrix(A1, AffineGrid(1.0), (-4, 4))
        assert mat.row_range == (-4, 4)
        i = 4  # row of node 0
        j0 = -mat.col_start
        assert mat.entries[i, j0] == pytest.approx(1.0)
        assert mat.entries[i, j0 + 1] == pytest.approx(np.exp(-1.0))

    def test_half_shift_symmetric_pair(self):
        mat = collocation_matrix(A1, PeriodicPerturbation((0.5,)), (-4, 4))
        i = 4  # node index 0, position 0.5, midway between columns 0 and 1
        j = -mat.col_start
        assert mat.entries[i, j] == pytest.approx(np.exp(-0.25))
        assert mat.entries[i, j + 1] == pytest.approx(np.exp(-0.25))

    def test_modulus_independent_of_b(self):
        seq = PeriodicPerturbation((0.3, -0.1))
        m0 = collocation_matrix(GaussianParam(1.0, 0.0), seq, (-8, 8))
        m3 = collocation_matrix(GaussianParam(1.0, 3.0), seq, (-8, 8))
        assert m0.entries.dtype == np.float64 and m3.entries.dtype == np.complex128
        assert np.allclose(np.abs(m3.entries), np.abs(m0.entries), rtol=1e-13, atol=0)

    def test_buffer_certificate(self):
        tol = 1e-10
        mat = collocation_matrix(A1, AffineGrid(1.0), (-8, 8), tol=tol)
        assert np.exp(-mat.param.a * mat.buffer**2 / 2.0) < tol
        assert mat.tail_bound < tol

    def test_window_outside_explicit_data(self):
        seq = ExplicitWindow((0.0, 1.0, 2.0))
        with pytest.raises(NoEnumerationError):
            collocation_matrix(A1, seq, (-5, 5))


class TestInterpolate:
    def test_consistency_identity(self):
        samples_mat = collocation_matrix(A1, AffineGrid(1.0), (-8, 8))
        e0 = np.zeros(samples_mat.entries.shape[1], dtype=complex)
        e0[-samples_mat.col_start] = 1.0
        samples = samples_mat.entries @ e0
        coeffs, residual = interpolate(A1, AffineGrid(1.0), samples, (-8, 8))
        assert residual < 1e-12
        assert coeffs.value_at(0) == pytest.approx(1.0, abs=1e-6)

    def test_forward_then_inverse_recovers_interior(self):
        seq = PeriodicPerturbation((0.3,))
        mat = collocation_matrix(A1, seq, (-32, 32))
        rng = np.random.default_rng(99)
        x_true = np.zeros(mat.entries.shape[1], dtype=complex)
        for n in range(-10, 11):
            x_true[n - mat.col_start] = rng.standard_normal() + 1j * rng.standard_normal()
        samples = mat.entries @ x_true
        coeffs, residual = interpolate(A1, seq, samples, (-32, 32))
        assert residual < 1e-10
        err = np.linalg.norm(coeffs.values - x_true) / np.linalg.norm(x_true)
        assert err < 1e-3

    def test_random_samples_solvable_off_critical(self):
        rng = np.random.default_rng(42)
        samples = rng.standard_normal(129) + 1j * rng.standard_normal(129)
        coeffs, residual = interpolate(A1, PeriodicPerturbation((0.3,)), samples, (-64, 64))
        assert residual < 1e-10
        assert coeffs.norm() < 10.0 * np.linalg.norm(samples)

    def test_half_shift_alternating_blows_up(self):
        # adversarial pattern aligned with the degenerating direction
        pattern = np.array([(-1.0) ** k for k in range(129)], dtype=complex)
        good, _ = interpolate(A1, PeriodicPerturbation((0.3,)), pattern, (-64, 64))
        bad, residual = interpolate(A1, PeriodicPerturbation((0.5,)), pattern, (-64, 64))
        scale = np.linalg.norm(pattern)
        assert residual < 1e-10
        assert bad.norm() / scale > 20.0
        assert bad.norm() > 5.0 * good.norm()

    def test_singular_system_detected(self):
        # two nodes closer than the SVD noise floor give identical rows
        seq = ExplicitWindow((0.0, 1e-15, 1.0, 2.0, 3.0))
        samples = np.ones(5)
        with pytest.raises(SingularSystemError):
            interpolate(A1, seq, samples, (0, 4))

    def test_sample_count_checked(self):
        with pytest.raises(BadParameterError):
            interpolate(A1, AffineGrid(1.0), np.ones(3), (-8, 8))

    def test_zero_samples_give_zero_coefficients(self):
        mat = collocation_matrix(A1, AffineGrid(1.0), (-8, 8))
        coeffs, residual = interpolate(A1, AffineGrid(1.0), np.zeros(17), (-8, 8))
        assert residual == 0.0
        assert coeffs.index_range == mat.col_range
        assert not np.any(coeffs.values)


class TestFrameBounds:
    def test_integer_lattice_stabilizes(self):
        report = frame_bounds(A1, AffineGrid(1.0), (16, 32, 64))
        smin = [e.sigma_min for e in report.entries]
        assert abs(smin[2] - smin[1]) / smin[1] < 0.10
        for e in report.entries:
            assert e.sigma_min <= e.sigma_max

    def test_orientation_shapes(self):
        tall = frame_bounds(A1, AffineGrid(0.9), (16,), orientation="interior_cols")
        assert tall.entries[0].n_rows > tall.entries[0].n_cols
        wide = frame_bounds(A1, AffineGrid(1.1), (16,), orientation="interior_rows")
        assert wide.entries[0].n_cols > wide.entries[0].n_rows

    def test_ratio_report(self):
        report = frame_bounds(A1, PeriodicPerturbation((0.5,)), (16, 32),
                              interior_fraction=1.0, edge_margin=3.0)
        (_, _, ratio), = report.sigma_min_ratios()
        assert ratio < 1.0
        data = report.to_json()
        assert data["sigma_min_ratios"][0]["from"] == 16

    def test_sizes_must_increase(self):
        with pytest.raises(BadParameterError):
            frame_bounds(A1, AffineGrid(1.0), (32, 16))

    def test_unknown_orientation(self):
        with pytest.raises(BadParameterError):
            frame_bounds(A1, AffineGrid(1.0), (16,), orientation="middle")

    @pytest.mark.parametrize("sizes", [(-5,), (0, 16), (-5, 16)])
    def test_sizes_must_be_positive(self, sizes):
        # a size below 1 once failed as an empty index window or an empty trim
        with pytest.raises(BadParameterError, match=f"sizes must be >= 1, got {sizes[0]}$"):
            frame_bounds(A1, AffineGrid(1.0), sizes)


class TestSplitParts:
    def test_center_only(self):
        minus, c0, plus = split_parts(CoefficientVector.basis(0))
        assert len(minus) == 0 and len(plus) == 0
        assert c0 == 1.0

    def test_positive_support(self):
        coeffs = CoefficientVector(1, [2.0, 3.0])
        minus, c0, plus = split_parts(coeffs)
        assert len(minus) == 0 and c0 == 0.0
        assert np.array_equal(plus.values, coeffs.values)
        assert plus.index_range == (1, 2)

    def test_symmetric_mirror(self):
        vals = np.array([3.0, 2.0, 1.0, 2.0, 3.0], dtype=complex)
        minus, c0, plus = split_parts(CoefficientVector(-2, vals))
        assert np.array_equal(minus.values[::-1], plus.values)
        assert c0 == 1.0

    def test_partition_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lo = int(rng.integers(-6, 3))
            n = int(rng.integers(1, 9))
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            coeffs = CoefficientVector(lo, vals)
            minus, c0, plus = split_parts(coeffs)
            rebuilt = {}
            for part in (minus, plus):
                for idx, v in zip(part.indices, part.values):
                    rebuilt[int(idx)] = v
            if coeffs.value_at(0) != 0 or (lo <= 0 <= coeffs.index_range[1]):
                rebuilt[0] = c0
            for idx, v in zip(coeffs.indices, coeffs.values):
                assert rebuilt[int(idx)] == v


class TestCompactBlock:
    def test_against_bruteforce_double_sum(self):
        hs, tail = compact_block_hsnorm(A1, AffineGrid(1.0), 20)
        oracle_sq = sum(
            np.exp(-2.0 * (m + n) ** 2)
            for m in range(1, 21)
            for n in range(1, 21)
        )
        assert hs**2 == pytest.approx(oracle_sq, rel=1e-14)
        # dominated by the (1, 1) entry
        assert hs**2 == pytest.approx(np.exp(-8.0), rel=1e-3)

    def test_decreases_with_decay_rate(self):
        hs1, _ = compact_block_hsnorm(GaussianParam(1.0), AffineGrid(1.0), 12)
        hs2, _ = compact_block_hsnorm(GaussianParam(2.0), AffineGrid(1.0), 12)
        assert hs2 < hs1

    def test_monotone_in_window_and_converged(self):
        values = []
        for w in (4, 6, 8, 12):
            hs, tail = compact_block_hsnorm(A1, PeriodicPerturbation((0.45, -0.35)), w)
            values.append((w, hs, tail))
        hss = [h for _, h, _ in values]
        assert all(b >= a for a, b in zip(hss, hss[1:]))
        for (_, h1, tail), (_, h2, _) in zip(values, values[1:]):
            assert h2**2 - h1**2 <= tail

    def test_tail_certificate_small(self):
        _, tail = compact_block_hsnorm(A1, AffineGrid(1.0), 6)
        assert tail < 1e-12


class TestNormEquivalence:
    def test_l2_ratio_stays_in_frozen_bracket(self):
        # bracket recorded from the committed run of these exact seeds
        brackets = {
            (1.0, 0.0): (0.85, 1.55),
            (0.7, 1.3): (1.25, 1.70),
        }
        for (a, b), (lo, hi) in brackets.items():
            for t in range(20):
                rng = np.random.default_rng([123, t])
                vals = rng.standard_normal(21) + 1j * rng.standard_normal(21)
                coeffs = CoefficientVector(-10, vals)
                ratio = l2_norm_squared(GaussianParam(a, b), coeffs) / coeffs.norm() ** 2
                assert lo <= ratio <= hi

    def test_zero_coefficients(self):
        assert l2_norm_squared(A1, CoefficientVector(0, [])) == 0.0

    @pytest.mark.parametrize("b", [0.0, 0.5])
    def test_l2_matches_the_integral(self, b):
        # at a = 0.02 a translate is about 7 wide, and an integral cut off
        # 8 past the support misses about 2e-3 of the norm
        import mpmath

        a = 0.02
        rng = np.random.default_rng([41, int(10 * b)])
        vals = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        coeffs = CoefficientVector(-2, vals)
        with mpmath.workdps(30):
            c = mpmath.mpc(a, b)
            cs = [(int(n), mpmath.mpc(v)) for n, v in zip(coeffs.indices, vals)]

            def f2(x):
                return abs(mpmath.fsum(v * mpmath.exp(-c * (x - n) ** 2) for n, v in cs)) ** 2

            exact = mpmath.quad(f2, [-mpmath.inf, *range(-80, 81, 10), mpmath.inf])
        got = l2_norm_squared(GaussianParam(a, b), coeffs)
        assert got == pytest.approx(float(exact), rel=1e-14)


# -- the vectorised Gaussian tail against the loops it replaced --------------

def _loop_tail_sq(a, r):
    """Reference: two-sided tail sum over integer d >= r of e^{-2a d^2}."""
    if r <= 0.0:
        r = 0.0
    total = 0.0
    d = np.ceil(r) if r > 0 else 1.0
    while True:
        t = np.exp(-2.0 * a * d * d)
        total += 2.0 * t
        if t < 1e-300 or t < total * 1e-18:
            break
        d += 1.0
    return total


def _loop_evaluate(c, coeffs, x, tol):
    """Reference evaluate with the radius found by the loop."""
    r = 1.0
    while np.sqrt(_loop_tail_sq(c.a, r)) > tol:
        r += 1.0
    n = coeffs.indices
    d = x - n
    near = np.abs(d) <= r
    value = complex(np.sum(coeffs.values[near] * np.exp(-c.c * d[near] ** 2)))
    tail = float(np.sum(np.abs(coeffs.values[~near]) * np.exp(-c.a * d[~near] ** 2)))
    return value, tail


def _loop_collocation_tail(a, mat):
    """Reference: Frobenius bound on the dropped columns, row by row."""
    col_lo, col_hi = mat.col_range
    lam = mat.node_positions
    tail_sq = 0.0
    for d0 in np.concatenate([lam - (col_lo - 1), (col_hi + 1) - lam]):
        k = 0.0
        while True:
            t = np.exp(-2.0 * a * (d0 + k) ** 2)
            tail_sq += t
            if t < 1e-300:
                break
            k += 1.0
    return float(np.sqrt(tail_sq))


def _loop_hs_tail(a, seq, w):
    """Reference: tail of the cross block's squared HS norm, u by u."""
    lam = seq.positions((-w, -1))
    sup_delta = float(np.max(np.abs(lam - np.arange(-w, 0))))
    tail = 0.0
    u = float(w + 2)
    while True:
        d = max(u - sup_delta, 0.0)
        t = (u - 1.0) * np.exp(-2.0 * a * d * d)
        tail += t
        if t < 1e-300 or (tail > 0 and t < tail * 1e-18):
            break
        u += 1.0
    return tail


TAIL_SEQUENCES = (
    AffineGrid(1.0),
    AffineGrid(1.0, 0.4),
    AffineGrid(0.9),
    AffineGrid(2.0),  # sup|delta| grows with the window
    PeriodicPerturbation((0.5,)),
    PeriodicPerturbation((0.7, -0.1, -0.7, 0.1)),
)


class TestTailOracles:
    @pytest.mark.parametrize("a", [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0])
    def test_evaluate_radius_unchanged(self, a):
        rng = np.random.default_rng(int(100 * a))
        coeffs = CoefficientVector(-120, rng.standard_normal(241) + 1j * rng.standard_normal(241))
        c = GaussianParam(a, 0.7)
        for tol in (1e-3, 1e-6, 1e-9, 1e-12, 1e-14, 1e-15):
            x = float(rng.uniform(-3.0, 3.0))
            assert evaluate(c, coeffs, x, tol) == _loop_evaluate(c, coeffs, x, tol)

    @pytest.mark.parametrize("seq", TAIL_SEQUENCES, ids=repr)
    def test_collocation_tail_certificate_not_smaller(self, seq):
        for a in (0.25, 1.0, 4.0):
            for tol in (1e-6, 1e-12, 1e-14):
                mat = collocation_matrix(GaussianParam(a), seq, (-24, 24), tol)
                old = _loop_collocation_tail(a, mat)
                assert old * (1.0 - 1e-15) <= mat.tail_bound <= old * (1.0 + 1e-12)

    @pytest.mark.parametrize("seq", (*TAIL_SEQUENCES, AffineGrid(0.5)), ids=repr)
    @pytest.mark.parametrize("a", [0.05, 1.0, 3000.0])
    def test_section_tail_from_the_end_rows(self, seq, a):
        # rows further inside than sqrt(746 / 2a) from both dropped sides
        # add only terms that underflow to 0, so the tail summed over the
        # rows near the ends is the all-row tail up to summation order
        c = GaussianParam(a)
        lam, _, cols, tail = gauss_space._section_frame(c, seq, (-300, 300), 1e-14)
        every = gauss_space._integer_tail(c.a, lam, cols[0], cols[-1])
        assert tail == pytest.approx(every, rel=1e-14, abs=0.0)
        assert (tail > 0.0) == (a < 3000.0)

    @pytest.mark.parametrize("seq", TAIL_SEQUENCES, ids=repr)
    def test_cross_block_tail_certificate_not_smaller(self, seq):
        for a in (0.25, 0.5, 1.0, 2.0):
            for w in (1, 2, 6, 12, 20):
                _, tail = compact_block_hsnorm(GaussianParam(a), seq, w)
                old = _loop_hs_tail(a, seq, w)
                assert old * (1.0 - 1e-15) <= tail <= old * (1.0 + 1e-12)
