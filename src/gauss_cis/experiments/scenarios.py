"""Scenario content: each function turns a config into records and tables.

Scenario functions are pure apart from RNG seeded from the config; the
runner handles serialization, timing, and exit status.  Grid points are
evaluated serially in a fixed order, so reports are deterministic.
Options are read through :func:`_option`, so a value of the wrong type or
form raises ConfigInvalidError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .. import fock, gauss_space
from ..errors import ConfigInvalidError, coerce
from ..gauss_space import CoefficientVector
from ..lattice import (
    AffineGrid,
    GaussianParam,
    PeriodicPerturbation,
    avdonin_verdict,
    build_sequence,
)
from .sign_retrieval import half_grid, sign_retrieval_check

if TYPE_CHECKING:
    from .config import ScenarioConfig

__all__ = ["ScenarioOutcome", "SCENARIOS"]

# most points a kernel or product grid may ask for
_MAX_GRID = 1_000_000


@dataclass
class ScenarioOutcome:
    passed: bool
    summary: dict
    tables: dict = field(default_factory=dict)   # name -> (header, rows)
    plots: dict = field(default_factory=dict)    # plotdata name -> (header, rows)


def _option(config: ScenarioConfig, key: str, default, kind=float):
    """Option ``key`` read as ``kind``, or ``default`` when it is absent."""
    return coerce(kind, config.options.get(key, default), f"option {key!r}")


def _positive(value) -> float:
    """``value`` as a finite float > 0, such as a grid step."""
    x = float(value)
    if not (np.isfinite(x) and x > 0.0):
        raise ValueError("must be finite and > 0")
    return x


def _nonnegative(value) -> float:
    """``value`` as a finite float >= 0, such as an amplitude."""
    x = float(value)
    if not (np.isfinite(x) and x >= 0.0):
        raise ValueError("must be finite and >= 0")
    return x


def _count(value) -> int:
    """``value`` as an int >= 1, such as a trial count."""
    n = int(value)
    if n < 1:
        raise ValueError("must be >= 1")
    return n


def _log_modulus_grid(lo: float, hi: float, step: float, per_point: int = 1):
    """lo, lo + step, ... up to hi.

    Non-finite ends, an empty grid, and a grid whose points times
    ``per_point`` (evaluations per grid point) exceed ``_MAX_GRID`` are
    config errors.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigInvalidError(f"log_modulus_lo {lo} and log_modulus_hi {hi} must be finite")
    count = ((hi + 1e-12 - lo) / step + 1.0) * per_point
    if count > _MAX_GRID:
        raise ConfigInvalidError(
            f"grid of {count:.3g} points exceeds {_MAX_GRID:,}; raise the step"
        )
    grid = np.arange(lo, hi + 1e-12, step)
    if len(grid) == 0:
        raise ConfigInvalidError(f"empty grid: log_modulus_lo {lo} > log_modulus_hi {hi}")
    return grid


def _floats(values) -> list:
    return [float(x) for x in values]


def _pair(values, kind=float) -> tuple:
    lo, hi = values
    return kind(lo), kind(hi)


def _coeff_range(values) -> tuple:
    """``[lo, hi]`` coefficient indices with 1 <= lo <= hi."""
    lo, hi = _pair(values, int)
    if not 1 <= lo <= hi:
        raise ValueError("must be [lo, hi] with 1 <= lo <= hi")
    return lo, hi


def _in_bracket(config: ScenarioConfig, ratios) -> bool:
    """True unless a ``bracket`` option is set and some ratio leaves it."""
    if config.options.get("bracket") is None:
        return True
    lo, hi = _option(config, "bracket", None, _pair)
    return bool(ratios.min() >= lo and ratios.max() <= hi)


def _require_sequence(config: ScenarioConfig):
    if config.sequence is None:
        raise ConfigInvalidError(f"scenario {config.scenario!r} needs a sequence")
    return build_sequence(config.sequence)


def _sweep(config, seq, sizes, frac, margin, orientation):
    param = GaussianParam(config.a, config.b)
    return gauss_space.frame_bounds(
        param,
        seq,
        sizes,
        interior_fraction=frac,
        edge_margin=margin,
        orientation=orientation,
    )


def _sweep_sizes(config: ScenarioConfig) -> tuple:
    """The config's sizes (16, 32, 64 by default); a sweep compares sizes,
    so fewer than two is a config error."""
    sizes = config.sizes or (16, 32, 64)
    if len(sizes) < 2:
        raise ConfigInvalidError(
            f"sizes: {config.scenario} needs at least two sizes, got {list(sizes)}"
        )
    return sizes


def _stability_pct(report) -> float:
    """Relative change of sigma_min across the last size doubling, percent."""
    prev, cur = report.entries[-2], report.entries[-1]
    return 100.0 * abs(cur.sigma_min - prev.sigma_min) / prev.sigma_min


def scenario_classify(config: ScenarioConfig) -> ScenarioOutcome:
    seq = _require_sequence(config)
    verdict = avdonin_verdict(
        seq,
        n_max=_option(config, "n_max", 8, int),
        margin=_option(config, "margin", 1e-9),
    )
    expect = config.options.get("expect_pass")
    passed = True if expect is None else (verdict.passes == bool(expect))
    v = verdict.to_json()
    rows = [(
        config.sequence.get("kind"),
        verdict.separated,
        verdict.min_gap,
        verdict.enumerable,
        v["delta_sup"],
        verdict.window_len,
        v["best_window"]["delta_star"],
        verdict.passes,
        verdict.caveat,
    )]
    header = (
        "kind", "separated", "min_gap", "enumerable", "delta_sup",
        "window_len", "delta_star", "passes", "caveat",
    )
    return ScenarioOutcome(
        passed=passed,
        summary={"verdict": v, "expect_pass": expect},
        tables={"verdict": (header, rows)},
    )


def _frame_sweep(config: ScenarioConfig, seq, frac: float, margin: float):
    """Frame bounds at the config's sizes; ``frac`` and ``margin`` are the
    defaults of the interior_fraction and edge_margin options."""
    return _sweep(
        config, seq, _sweep_sizes(config),
        _option(config, "interior_fraction", frac),
        _option(config, "edge_margin", margin),
        config.options.get("orientation", "interior_rows"),
    )


def _frame_outcome(passed: bool, summary: dict, report) -> ScenarioOutcome:
    """Outcome holding one sweep's frame-bound table and sigma_min plot."""
    rows = [(e.size, e.n_rows, e.n_cols, e.sigma_min, e.sigma_max) for e in report.entries]
    return ScenarioOutcome(
        passed=passed,
        summary={"report": report.to_json(), **summary},
        tables={"frame_bounds": (("size", "n_rows", "n_cols", "sigma_min", "sigma_max"), rows)},
        plots={"sigma_min": (("size", "sigma_min"), [(e.size, e.sigma_min) for e in report.entries])},
    )


def scenario_framebound_sweep(config: ScenarioConfig) -> ScenarioOutcome:
    report = _frame_sweep(config, _require_sequence(config), 2.0 / 3.0, 0.0)
    pct = _stability_pct(report)
    passed = pct <= _option(config, "stability_pct", float("inf"))
    return _frame_outcome(passed, {"stability_pct": pct}, report)


def scenario_critical_half(config: ScenarioConfig) -> ScenarioOutcome:
    seq = build_sequence(config.sequence) if config.sequence else PeriodicPerturbation((0.5,))
    report = _frame_sweep(config, seq, 1.0, 3.0)
    max_ratio = _option(config, "max_ratio", 0.5)
    ratios = report.sigma_min_ratios()
    summary = {
        "max_ratio_allowed": max_ratio,
        "ratios": [{"from": x, "to": y, "ratio": r} for x, y, r in ratios],
    }
    return _frame_outcome(all(r <= max_ratio for _, _, r in ratios), summary, report)


def scenario_kadets_sweep(config: ScenarioConfig) -> ScenarioOutcome:
    deltas = _option(config, "deltas", (0.1, 0.3, 0.45), _floats)
    critical = _option(config, "critical_deltas", (0.5,), _floats)
    sizes = _sweep_sizes(config)
    frac = _option(config, "interior_fraction", 1.0)
    margin = _option(config, "edge_margin", 3.0)
    stability = _option(config, "stability_pct", 10.0)
    max_ratio = _option(config, "max_ratio", 0.5)
    rows, checks = [], []
    for d in sorted(deltas) + sorted(critical):
        report = _sweep(config, PeriodicPerturbation((d,)), sizes, frac, margin, "interior_rows")
        rows += [(d, e.size, e.n_rows, e.n_cols, e.sigma_min, e.sigma_max) for e in report.entries]
        tail_bounds = [e.tail_bound for e in report.entries]
        if d in critical:
            ratios = [r for _, _, r in report.sigma_min_ratios()]
            ok = all(r <= max_ratio for r in ratios)
            checks.append({"delta": d, "kind": "decay", "ratios": ratios,
                           "tail_bounds": tail_bounds, "ok": ok})
        else:
            pct = _stability_pct(report)
            ok = pct <= stability
            checks.append({"delta": d, "kind": "stable", "stability_pct": pct,
                           "tail_bounds": tail_bounds, "ok": ok})
    header = ("delta", "size", "n_rows", "n_cols", "sigma_min", "sigma_max")
    return ScenarioOutcome(
        passed=all(ch["ok"] for ch in checks),
        summary={"checks": checks, "stability_pct": stability, "max_ratio": max_ratio},
        tables={"kadets": (header, rows)},
        plots={"sigma_min": (("delta", "size", "sigma_min"), [(r[0], r[1], r[4]) for r in rows])},
    )


def scenario_density_demo(config: ScenarioConfig) -> ScenarioOutcome:
    alphas = _option(config, "alphas", (0.9, 1.1), _floats)
    sizes = _sweep_sizes(config)
    frac = _option(config, "interior_fraction", 2.0 / 3.0)
    margin = _option(config, "edge_margin", 0.0)
    stability = _option(config, "stability_pct", 10.0)
    rows, checks = [], []
    for alpha in sorted(alphas):
        # oversampled grids measure the sampling-side bound (interior
        # coefficients); undersampled ones the interpolation-side bound
        orientation = "interior_cols" if alpha < 1.0 else "interior_rows"
        report = _sweep(config, AffineGrid(alpha), sizes, frac, margin, orientation)
        rows += [(alpha, orientation, e.size, e.n_rows, e.n_cols, e.sigma_min, e.sigma_max)
                 for e in report.entries]
        pct = _stability_pct(report)
        checks.append({
            "alpha": alpha,
            "orientation": orientation,
            "stability_pct": pct,
            "tail_bounds": [e.tail_bound for e in report.entries],
            "ok": pct <= stability,
        })
    header = ("alpha", "orientation", "size", "n_rows", "n_cols", "sigma_min", "sigma_max")
    return ScenarioOutcome(
        passed=all(ch["ok"] for ch in checks),
        summary={"checks": checks, "stability_pct": stability},
        tables={"density": (header, rows)},
        plots={"sigma_min": (("alpha", "size", "sigma_min"), [(r[0], r[2], r[5]) for r in rows])},
    )


def scenario_kernel_asymptotic(config: ScenarioConfig) -> ScenarioOutcome:
    lo = _option(config, "log_modulus_lo", -10.0)
    hi = _option(config, "log_modulus_hi", 10.0)
    step = _option(config, "step", 0.25, _positive)
    max_spread = _option(config, "max_spread", 10.0)
    bracket = config.options.get("bracket")
    grid = _log_modulus_grid(lo, hi, step)
    _, ratios = fock.kernel_norm(config.a, fock.LogPolarPoint(grid, np.zeros_like(grid)))
    rows = list(zip(grid.tolist(), ratios.tolist()))
    spread = float(ratios.max() / ratios.min())
    passed = spread <= max_spread and _in_bracket(config, ratios)
    return ScenarioOutcome(
        passed=passed,
        summary={
            "ratio_min": float(ratios.min()),
            "ratio_max": float(ratios.max()),
            "spread": spread,
            "max_spread": max_spread,
            "bracket": bracket,
        },
        tables={"kernel_ratio": (("log_modulus", "ratio"), rows)},
        plots={"kernel_ratio": (("log_modulus", "ratio"), rows)},
    )


def scenario_g0_estimate(config: ScenarioConfig) -> ScenarioOutcome:
    a = config.a
    lo = _option(config, "log_modulus_lo", a)
    hi = _option(config, "log_modulus_hi", 21.0 * a)
    step = _option(config, "step", 0.1, _positive)
    n_angles = _option(config, "n_angles", 8, _count)
    exclusion = _option(config, "exclusion", 0.1, _positive)
    bracket = config.options.get("bracket")

    lms = _log_modulus_grid(lo, hi, step, n_angles)
    zeros = fock.GeneratingProduct.unperturbed(a, int(np.ceil((hi + 40) / (2 * a))))
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    # every angle at each log-modulus, log-modulus major
    grid = fock.LogPolarPoint(np.repeat(lms, n_angles), np.tile(angles, len(lms)))
    rel = fock.log_distance_to_zeros(grid, zeros.zero_log_moduli) - grid.log_modulus
    keep = rel >= np.log(exclusion)
    if not keep.any():
        raise ConfigInvalidError(f"exclusion {exclusion} removes every grid point")

    points = fock.LogPolarPoint(grid.log_modulus[keep], grid.argument[keep])
    ratios = fock.g0_estimate_ratio(a, points)
    rows = list(zip(points.log_modulus.tolist(), points.argument.tolist(), ratios.tolist()))
    summary = {
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "n_points": len(rows),
        "bracket": bracket,
    }
    return ScenarioOutcome(
        passed=_in_bracket(config, ratios),
        summary=summary,
        tables={"g0_ratio": (("log_modulus", "argument", "ratio"), rows)},
        plots={"g0_ratio": (("log_modulus", "argument", "ratio"), rows)},
    )


def scenario_fock_consistency(config: ScenarioConfig) -> ScenarioOutcome:
    n_seeds = _option(config, "n_seeds", 5, _count)
    lambdas = _option(config, "lambdas", np.linspace(-5.0, 5.0, 11), _floats)
    b_values = _option(config, "b_values", (0.0, 2.0), _floats)
    n_lo, n_hi = _option(config, "coeff_range", (1, 16), _coeff_range)
    tol = config.tolerance("gap", 1e-9)
    for key, values in (("lambdas", lambdas), ("b_values", b_values)):
        if not values:
            raise ConfigInvalidError(f"option {key!r}: needs at least one value")

    rows = []
    for i in range(n_seeds):
        rng = np.random.default_rng([config.seed, i])
        size = n_hi - n_lo + 1
        vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        coeffs = CoefficientVector(n_lo, vals)
        for b in b_values:
            _, _, gaps = fock.consistency_identity(GaussianParam(config.a, b), coeffs, lambdas)
            rows += [(i, b, lam, gap) for lam, gap in zip(lambdas, gaps.tolist())]
    worst = max(r[3] for r in rows)
    return ScenarioOutcome(
        passed=worst < tol,
        summary={"max_gap": worst, "tolerance": tol, "n_checks": len(rows)},
        tables={"consistency": (("seed_index", "b", "lambda", "gap"), rows)},
        plots={"gap": (("lambda", "gap"), [(r[2], r[3]) for r in rows])},
    )


def scenario_sign_retrieval(config: ScenarioConfig) -> ScenarioOutcome:
    trials = _option(config, "trials", 50, _count)
    window = _option(config, "window", 12, _count)
    if window < 2:
        # the dilated-node verdict compares neighbouring nodes
        raise ConfigInvalidError(f"option 'window': needs at least two nodes, got {window}")
    coeff_start = _option(config, "coeff_start", 0, int)
    coeff_count = _option(config, "coeff_count", 5, _count)
    amplitude = _option(config, "delta_amplitude", 0.2, _nonnegative)
    node_start = _option(config, "node_start", -1, int)
    residual_tol = config.tolerance("residual", 1e-8)
    match_tol = config.tolerance("match", 1e-8)

    def run(t):
        rng = np.random.default_rng([config.seed, t])
        vals = rng.standard_normal(coeff_count)
        deltas = rng.uniform(-amplitude, amplitude, window)
        seq = half_grid(deltas, node_start)
        return sign_retrieval_check(
            config.a,
            CoefficientVector(coeff_start, vals.astype(complex)),
            seq,
            residual_tol=residual_tol,
            match_tol=match_tol,
        )

    results = [run(t) for t in range(trials)]
    rows = [
        (t, res.passes, res.n_survivors, res.max_survivor_residual,
         res.dilated_delta_star, res.dilated_condition_ok)
        for t, res in enumerate(results)
    ]
    n_pass = sum(1 for r in rows if r[1])
    header = (
        "trial", "passes", "n_survivors", "max_survivor_residual",
        "dilated_delta_star", "dilated_condition_ok",
    )
    return ScenarioOutcome(
        passed=n_pass == trials,
        summary={
            "trials": trials,
            "passed_trials": n_pass,
            "window": window,
            "prefixes_checked": sum(res.prefixes_checked for res in results),
            "patterns_total": trials * 2**window,
        },
        tables={"sign_retrieval": (header, rows)},
    )


SCENARIOS = {
    "classify": scenario_classify,
    "framebound-sweep": scenario_framebound_sweep,
    "critical-half": scenario_critical_half,
    "kadets-sweep": scenario_kadets_sweep,
    "density-demo": scenario_density_demo,
    "kernel-asymptotic": scenario_kernel_asymptotic,
    "g0-estimate": scenario_g0_estimate,
    "fock-consistency": scenario_fock_consistency,
    "sign-retrieval": scenario_sign_retrieval,
}
