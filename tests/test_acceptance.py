"""Acceptance suite: one test per criterion, each with a summary line.

Empirical brackets below were frozen from committed oracle runs of the same
grids and are asserted as regression bounds.
"""

import time

import numpy as np
import pytest

from gauss_cis import fock, gauss_space
from gauss_cis.experiments import ScenarioConfig, run_scenario
from gauss_cis.gauss_space import CoefficientVector
from gauss_cis.lattice import (
    AffineGrid,
    GaussianParam,
    PeriodicPerturbation,
    avdonin_verdict,
)

from conftest import record_criterion

SEED = 20250809


def _check(number, description, conditions, elapsed, limit):
    conditions = dict(conditions)
    conditions[f"runtime {elapsed:.2f}s < {limit}s"] = elapsed < limit
    record_criterion(number, description, all(conditions.values()))
    for name, ok in conditions.items():
        assert ok, f"criterion {number}: {name}"


def test_criterion_01_norm_formula_vs_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for a in (0.25, 0.5, 1.0):
        for n in range(6):
            series = fock.FockSeries(np.array([-np.inf] * n + [0.0]), np.zeros(n + 1))
            closed = np.exp(fock.fock_norm(series, a))
            quad = fock.fock_norm_quadrature(series, a)
            worst = max(worst, abs(quad - closed) / closed)
    _check(
        1, "weighted norm: series formula vs quadrature (monomials n <= 5)",
        {f"worst relative error {worst:.2e} < 1e-6": worst < 1e-6},
        time.perf_counter() - t0, 5.0,
    )


def test_criterion_02_isometry():
    t0 = time.perf_counter()
    a, b = 0.7, 1.3
    worst = 0.0
    for t in range(100):
        rng = np.random.default_rng([SEED, 2, t])
        vals = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        coeffs = CoefficientVector(-16, vals)
        f_minus, c0, f_plus = fock.to_fock(GaussianParam(a, b), coeffs)
        total = (
            np.exp(fock.fock_norm(f_minus, a))
            + abs(c0) ** 2
            + np.exp(fock.fock_norm(f_plus, a))
        )
        worst = max(worst, abs(total - coeffs.norm() ** 2) / coeffs.norm() ** 2)
    _check(
        2, "norm split is isometric over 100 seeded vectors",
        {f"worst relative error {worst:.2e} < 1e-12": worst < 1e-12},
        time.perf_counter() - t0, 1.0,
    )


def test_criterion_03_series_route_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for b in (0.0, 2.0):
        c = GaussianParam(1.0, b)
        for t in range(5):
            rng = np.random.default_rng([SEED, 3, t])
            vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            coeffs = CoefficientVector(1, vals)
            for lam in np.linspace(-5.0, 5.0, 11):
                _, _, gap = fock.consistency_identity(c, coeffs, float(lam))
                worst = max(worst, gap)
    _check(
        3, "direct sum equals weighted series route on 5x11 grid, b in {0, 2}",
        {f"worst relative gap {worst:.2e} < 1e-9": worst < 1e-9},
        time.perf_counter() - t0, 5.0,
    )


def test_criterion_04_kernel_ratio_bracket():
    t0 = time.perf_counter()
    a = 0.5
    ratios = []
    for t in np.arange(-10.0, 10.0 + 1e-12, 0.25):
        _, ratio = fock.kernel_norm(a, fock.LogPolarPoint(float(t), 0.0))
        ratios.append(ratio)
    lo, hi = min(ratios), max(ratios)
    spread = hi / lo
    _check(
        4, "kernel-norm ratio bracket on log|w| in [-10, 10], a = 0.5",
        {
            f"spread {spread:.2f} < 10": spread < 10.0,
            # frozen from the committed oracle run: [0.367879, 1.786327]
            f"bracket [{lo:.4f}, {hi:.4f}] inside [0.36, 1.80]": lo >= 0.36 and hi <= 1.80,
        },
        time.perf_counter() - t0, 5.0,
    )


def test_criterion_05_classifier_exact_cases():
    t0 = time.perf_counter()
    lattice_v = avdonin_verdict(AffineGrid(1.0))
    half_v = avdonin_verdict(AffineGrid(1.0, 0.5))
    periodic_v = avdonin_verdict(PeriodicPerturbation((0.45, -0.35)))
    stretched_v = avdonin_verdict(AffineGrid(0.8))
    _check(
        5, "classifier: integer lattice, half shift, periodic pair, stretched grid",
        {
            "integer lattice passes": lattice_v.passes and lattice_v.delta_star == 0.0,
            "half shift fails at exactly 1/2": (not half_v.passes)
            and half_v.delta_star == pytest.approx(0.5, abs=1e-15),
            "periodic (0.45, -0.35) passes with N = 2": periodic_v.passes
            and periodic_v.window_len == 2
            and periodic_v.delta_star == pytest.approx(0.05, abs=1e-15),
            "stretched grid has no bounded enumeration": (not stretched_v.enumerable)
            and not stretched_v.passes,
        },
        time.perf_counter() - t0, 1.0,
    )


def test_criterion_06_kadets_critical_sweep(tmp_path):
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        scenario="kadets-sweep",
        seed=SEED,
        out_dir=tmp_path / "kadets",
        a=1.0,
        sizes=(16, 32, 64),
        options={
            "deltas": [0.1, 0.3, 0.45],
            "critical_deltas": [0.5],
            "stability_pct": 10.0,
            "max_ratio": 0.5,
            "interior_fraction": 1.0,
            "edge_margin": 3.0,
        },
    )
    report = run_scenario(cfg)
    checks = {f"{c['delta']}: {c['kind']}": c["ok"] for c in report.summary["checks"]}
    _check(
        6, "constant shifts: stable below 1/2, halving at 1/2",
        checks, time.perf_counter() - t0, 60.0,
    )


def test_criterion_07_beyond_half_showcase(tmp_path):
    t0 = time.perf_counter()
    pattern = (0.7, -0.1, -0.7, 0.1)
    verdict = avdonin_verdict(PeriodicPerturbation(pattern))
    report = gauss_space.frame_bounds(
        GaussianParam(1.0), PeriodicPerturbation(pattern), (32, 64),
        interior_fraction=1.0, edge_margin=3.0,
    )
    smin = [e.sigma_min for e in report.entries]
    variation = abs(smin[1] - smin[0]) / smin[0]
    _check(
        7, "period-4 pattern with |shift| up to 0.7 passes and stays stable",
        {
            "classifier passes": verdict.passes,
            "individual shifts exceed 1/2": verdict.delta_sup > 0.5,
            f"sigma_min variation {100 * variation:.2f}% < 10%": variation < 0.10,
        },
        time.perf_counter() - t0, 60.0,
    )


def test_criterion_08_density_demos(tmp_path):
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        scenario="density-demo",
        seed=SEED,
        out_dir=tmp_path / "density",
        a=1.0,
        sizes=(16, 32, 64),
        options={"alphas": [0.9, 1.1], "stability_pct": 10.0},
    )
    report = run_scenario(cfg)
    checks = {
        f"alpha={c['alpha']} ({c['orientation']}) stable": c["ok"]
        for c in report.summary["checks"]
    }
    _check(
        8, "oversampled and undersampled grids both stabilize",
        checks, time.perf_counter() - t0, 60.0,
    )


def test_criterion_09_cross_block_hilbert_schmidt():
    t0 = time.perf_counter()
    hs6, tail6 = gauss_space.compact_block_hsnorm(GaussianParam(1.0), AffineGrid(1.0), 6)
    hs8, _ = gauss_space.compact_block_hsnorm(GaussianParam(1.0), AffineGrid(1.0), 8)
    _check(
        9, "cross block converges with certified tail at W >= 6",
        {
            f"tail bound {tail6:.2e} < 1e-12": tail6 < 1e-12,
            "window growth stays below the certificate": hs8**2 - hs6**2 <= tail6,
        },
        time.perf_counter() - t0, 1.0,
    )


def test_criterion_10_product_estimate_bracket(tmp_path):
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        scenario="g0-estimate",
        seed=SEED,
        out_dir=tmp_path / "g0",
        a=0.5,
        # frozen from the committed oracle run: [0.170744, 5.630224]
        options={"bracket": [0.15, 6.0]},
    )
    report = run_scenario(cfg)
    _check(
        10, "canonical-product estimate ratio inside frozen bracket",
        {
            "containment": report.passed,
            "grid not empty": report.summary["n_points"] > 700,
        },
        time.perf_counter() - t0, 10.0,
    )


def test_criterion_11_sign_retrieval(tmp_path):
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        scenario="sign-retrieval",
        seed=SEED,
        out_dir=tmp_path / "sr",
        a=1.0,
        options={"trials": 50, "window": 12, "delta_amplitude": 0.2},
    )
    report = run_scenario(cfg)
    _check(
        11, "50 seeded half-grid trials recover signs up to one global flip",
        {
            "all trials pass": report.passed
            and report.summary["passed_trials"] == 50,
        },
        time.perf_counter() - t0, 120.0,
    )


def test_criterion_12_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    bodies = []
    for name in ("first", "second"):
        cfg = ScenarioConfig(
            scenario="fock-consistency",
            seed=SEED,
            out_dir=tmp_path / name,
            a=1.0,
            options={"n_seeds": 3},
        )
        report = run_scenario(cfg)
        bodies.append(
            tuple(
                p.read_bytes()
                for p in sorted(report.csv_paths, key=lambda p: p.name)
            )
        )
    _check(
        12, "re-running the same config yields byte-identical CSV bodies",
        {"csv bodies identical": bodies[0] == bodies[1]},
        time.perf_counter() - t0, 30.0,
    )
