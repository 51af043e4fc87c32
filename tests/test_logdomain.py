import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

import gauss_cis
from gauss_cis.logdomain import (
    log_abs_diff_exp,
    log_abs_one_minus_exp,
    logsumexp,
    modulus,
    wrap_angle,
)


class TestWrapAngle:
    def test_half_open_interval(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)

    def test_periodicity(self):
        for x in (-7.3, 0.2, 15.9):
            assert wrap_angle(x + 6 * np.pi) == pytest.approx(wrap_angle(x), abs=1e-12)

    def test_array(self):
        out = wrap_angle(np.array([0.0, 2 * np.pi, -0.1]))
        assert np.allclose(out, [0.0, 0.0, -0.1])


class TestLogOneMinusExp:
    @pytest.mark.parametrize(
        "v",
        [0.2 + 0.5j, -0.3 + 2.0j, 3.0 - 1.0j, -30.0 + 0.1j],
    )
    def test_matches_direct_where_safe(self, v):
        la, ph = log_abs_one_minus_exp(v)
        direct = 1.0 - np.exp(v)
        assert la == pytest.approx(np.log(abs(direct)), abs=1e-12)
        assert np.exp(1j * ph) == pytest.approx(direct / abs(direct), rel=1e-10)

    def test_near_zero_beats_naive_cancellation(self):
        # 1 - e^v cancels catastrophically here; check against mpmath
        import mpmath

        mpmath.mp.dps = 40
        v = 1e-6 + 1e-6j
        la, ph = log_abs_one_minus_exp(v)
        exact = 1 - mpmath.expm1(mpmath.mpc(v)) - 1
        exact = -mpmath.expm1(mpmath.mpc(v))
        assert la == pytest.approx(float(mpmath.log(abs(exact))), abs=1e-13)
        assert ph == pytest.approx(float(mpmath.arg(exact)), abs=1e-13)

    def test_huge_positive_real_part(self):
        # 1 - e^v ~ -e^v; direct evaluation would overflow
        v = 800.0 + 0.3j
        la, ph = log_abs_one_minus_exp(v)
        assert la == pytest.approx(800.0, abs=1e-9)
        assert np.exp(1j * ph) == pytest.approx(-np.exp(0.3j), rel=1e-9)

    def test_huge_negative_real_part(self):
        la, ph = log_abs_one_minus_exp(-900.0 + 1.0j)
        assert la == pytest.approx(0.0, abs=1e-12)
        assert ph == pytest.approx(0.0, abs=1e-12)

    def test_exact_zero(self):
        la, _ = log_abs_one_minus_exp(0.0 + 0.0j)
        assert la == -np.inf

    def test_vectorized_agrees_with_scalar(self):
        vs = np.array([0.2 + 0.5j, -30.0 + 0.1j, 3.0 - 1.0j, 90.0 + 2.0j])
        la, ph = log_abs_one_minus_exp(vs)
        for i, v in enumerate(vs):
            sla, sph = log_abs_one_minus_exp(complex(v))
            assert la[i] == pytest.approx(sla, rel=1e-14)
            assert ph[i] == pytest.approx(sph, rel=1e-14)


class TestLogAbsDiffExp:
    def test_small_values_match_direct(self):
        u = 1.2 + 0.7j
        s = 0.9
        got = log_abs_diff_exp(u, s)
        assert got == pytest.approx(np.log(abs(np.exp(u) - np.exp(s))), rel=1e-13)

    def test_huge_scale_no_overflow(self):
        # both exponentials far beyond double range; the difference factors
        got = log_abs_diff_exp(1000.0 + 0.0j, 999.0)
        assert got == pytest.approx(1000.0 + np.log(1.0 - np.exp(-1.0)), rel=1e-13)

    def test_equal_points(self):
        assert log_abs_diff_exp(2.0 + 0.0j, 2.0) == -np.inf

    def test_broadcasts_and_keeps_scalars_scalar(self):
        assert isinstance(log_abs_diff_exp(1.2 + 0.7j, 0.9), float)
        u = np.array([1.2 + 0.7j, 1000.0 + 0.0j, 2.0 + 0.0j])
        s = np.array([[0.9], [999.0]])
        got = log_abs_diff_exp(u, s)
        assert got.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert got[i, j] == log_abs_diff_exp(complex(u[j]), float(s[i, 0]))
        assert log_abs_diff_exp(u[2:], [2.0])[0] == -np.inf


def test_modulus_is_the_scalar_abs():
    rng = np.random.default_rng(3)
    z = (rng.normal(size=5000) + 1j * rng.normal(size=5000)) * np.exp(rng.uniform(-30, 30, 5000))
    assert [float(m) for m in modulus(z)] == [abs(complex(v)) for v in z]
    assert float(modulus(3 + 4j)) == 5.0


class TestLogSumExp:
    """The numpy logsumexp against scipy.special.logsumexp, its reference."""

    @staticmethod
    def _same(x):
        got = logsumexp(np.asarray(x, dtype=float))
        want = float(scipy_logsumexp(np.asarray(x, dtype=float)))
        return got == want or (np.isnan(got) and np.isnan(want))

    def test_bitwise_on_seeded_arrays(self):
        rng = np.random.default_rng(17)
        for i in range(3000):
            n = int(rng.integers(1, 40))
            x = rng.normal(0.0, (1.0, 10.0, 1000.0)[i % 3], n)
            if i % 4 == 1:
                x = np.round(x)  # repeated maxima
            if i % 4 == 2:
                x[rng.random(n) < 0.3] = -np.inf
            assert self._same(x)

    @given(st.lists(st.one_of(st.floats(-1e300, 1e300), st.just(-np.inf)), max_size=30))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_bitwise_property(self, values):
        assert self._same(values)

    def test_bitwise_along_an_axis(self):
        rng = np.random.default_rng(23)
        for i in range(300):
            x = rng.normal(0.0, (1.0, 30.0)[i % 2], (int(rng.integers(1, 9)), int(rng.integers(1, 40))))
            if i % 3 == 1:
                x = np.round(x)
            if i % 3 == 2:
                x[rng.random(x.shape) < 0.4] = -np.inf
                x[0] = -np.inf  # an all -inf row
            for axis in (-1, 0):
                assert np.array_equal(logsumexp(x, axis=axis), scipy_logsumexp(x, axis=axis))
            assert logsumexp(x) == float(scipy_logsumexp(x))
        assert logsumexp(np.empty((2, 0)), axis=-1).tolist() == [-np.inf, -np.inf]

    def test_edge_cases(self):
        assert logsumexp(np.array([])) == -np.inf
        assert logsumexp(np.full(3, -np.inf)) == -np.inf
        assert logsumexp(np.array([2.0, 2.0])) == 2.0 + np.log(2.0)

    def test_import_leaves_scipy_unloaded(self):
        src = str(Path(gauss_cis.__file__).resolve().parents[1])
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        # importing the package and taking frame bounds, by the dense SVD and
        # by the band solver, must not load scipy
        code = (
            "import sys, gauss_cis\n"
            "from gauss_cis.gauss_space import frame_bounds\n"
            "from gauss_cis.lattice import GaussianParam, PeriodicPerturbation\n"
            "r = frame_bounds(GaussianParam(1.0), PeriodicPerturbation((0.5,)), (32, 200))\n"
            "assert [e.solver for e in r.entries] == ['svd', 'band']\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"
