"""Scenario content: each function turns a config into a verdict and one table.

Scenario functions are pure apart from RNG seeded from the config; the
runner handles serialization, timing, and exit status.  Grid points are
evaluated serially in a fixed order, so reports are deterministic.
Each scenario is registered with the options it reads, each with its
default and parser, and its tolerances with their defaults.  Before a
scenario runs, ScenarioConfig rejects any other key, reads every given
option through its parser and fills in the defaults of the rest, so a
value of the wrong type or form raises ConfigInvalidError before any work
and a scenario reads ``config.options[key]``.  The four frame-bound
scenarios only declare their legs; ``_frame_legs`` sweeps and checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .. import fock, gauss_space
from ..errors import ConfigInvalidError
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

__all__ = ["ScenarioOutcome", "SCENARIOS", "OPTIONS", "TOLERANCES"]

# most points a kernel or product grid may ask for
_MAX_GRID = 1_000_000

SCENARIOS = {}   # scenario name -> function
OPTIONS = {}     # scenario name -> {option: (default, parser)}
TOLERANCES = {}  # scenario name -> {tolerance: default}


@dataclass
class ScenarioOutcome:
    passed: bool
    summary: dict
    table: str                 # CSV name
    header: tuple
    rows: list                 # tuples in header order
    plot: tuple | None = None  # (plotdata name, the table columns it holds)


def _scenario(name: str, tolerances=None, **options):
    """Register the decorated function as scenario ``name``, reading
    ``options`` (each given as (default, parser)) and ``tolerances``
    (each given with its default)."""
    def register(fn):
        SCENARIOS[name] = fn
        OPTIONS[name] = options
        TOLERANCES[name] = tolerances or {}
        return fn
    return register


def _flag(value) -> bool:
    """``value`` if it is a JSON boolean; a string such as "false" is not."""
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


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


def _some_floats(values) -> list:
    """``values`` as a list of at least one float."""
    out = _floats(values)
    if not out:
        raise ValueError("needs at least one value")
    return out


def _pair(values, kind=float) -> tuple:
    lo, hi = values
    return kind(lo), kind(hi)


def _bracket(values):
    """``[lo, hi]`` bounds on a ratio, or None for no bounds."""
    return None if values is None else _pair(values)


def _coeff_range(values) -> tuple:
    """``[lo, hi]`` coefficient indices with 1 <= lo <= hi."""
    lo, hi = _pair(values, int)
    if not 1 <= lo <= hi:
        raise ValueError("must be [lo, hi] with 1 <= lo <= hi")
    return lo, hi


def _ratio_outcome(table: str, columns: dict, ratios, bracket, passed=True, **summary):
    """A ratio over a grid as one outcome, table ``table`` plotted whole:
    the grid's ``columns`` (name -> values) and ``ratio``, and the ratio's
    range, ``bracket`` and ``summary`` in the summary.  It passes when
    ``passed`` does, every ratio is finite and > 0 (an underflowed or
    overflowed ratio measures nothing) and, if ``bracket`` is set, inside it."""
    lo, hi = (0.0, np.inf) if bracket is None else bracket
    measured = np.isfinite(ratios).all() and ratios.min() > 0.0
    header = (*columns, "ratio")
    return ScenarioOutcome(
        passed=bool(passed and measured and ratios.min() >= lo and ratios.max() <= hi),
        summary={"ratio_min": float(ratios.min()), "ratio_max": float(ratios.max()),
                 "bracket": bracket, **summary},
        table=table, header=header,
        rows=list(zip(*(v.tolist() for v in columns.values()), ratios.tolist())),
        plot=(table, header),
    )


def _require_sequence(config: ScenarioConfig):
    if config.sequence is None:
        raise ConfigInvalidError(f"scenario {config.scenario!r} needs a sequence")
    return build_sequence(config.sequence)


@_scenario("classify", n_max=(8, int), margin=(1e-9, float), expect_pass=(None, _flag))
def scenario_classify(config: ScenarioConfig) -> ScenarioOutcome:
    expect = config.options["expect_pass"]
    verdict = avdonin_verdict(
        _require_sequence(config), n_max=config.options["n_max"], margin=config.options["margin"]
    )
    passed = True if expect is None else (verdict.passes == expect)
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
        table="verdict", header=header, rows=rows,
    )


def _frame_legs(config: ScenarioConfig, table: str, labels: tuple, legs) -> ScenarioOutcome:
    """Frame bounds of each leg at the config's sizes, checked, as one table.

    A leg is (label values, sequence, orientation, critical).  A critical
    leg passes when sigma_min falls by at most ``max_ratio`` at every size
    step, any other when it moves by at most ``stability_pct`` percent
    across the last one; a sigma_min of 0 (every entry underflowed) leaves
    the ratio or percentage after it None, and the check fails.  A sweep
    compares sizes, so fewer than two is a config error.  The table has a
    row per leg and size; the summary a check per leg, with its labels,
    ``kind``, ``ok``, ``ratios`` or ``stability_pct``, and its ``report``.
    """
    sizes = config.sizes or (16, 32, 64)
    if len(sizes) < 2:
        raise ConfigInvalidError(
            f"sizes: {config.scenario} needs at least two sizes, got {list(sizes)}"
        )
    options = config.options
    param = GaussianParam(config.a, config.b)
    rows, checks = [], []
    for values, seq, orientation, critical in legs:
        report = gauss_space.frame_bounds(
            param, seq, sizes,
            interior_fraction=options["interior_fraction"],
            edge_margin=options["edge_margin"],
            orientation=orientation,
        )
        rows += [(*values, e.size, e.n_rows, e.n_cols, e.sigma_min, e.sigma_max)
                 for e in report.entries]
        check = dict(zip(labels, values))
        if critical:
            ratios = [r for _, _, r in report.sigma_min_ratios()]
            ok = all(r is not None and r <= options["max_ratio"] for r in ratios)
            check.update(kind="decay", ratios=ratios)
        else:
            prev, cur = (e.sigma_min for e in report.entries[-2:])
            pct = 100.0 * abs(cur - prev) / prev if prev > 0.0 else None
            ok = pct is not None and pct <= options["stability_pct"]
            check.update(kind="stable", stability_pct=pct)
        checks.append({**check, "ok": ok, "report": report.to_json()})
    return ScenarioOutcome(
        passed=all(ch["ok"] for ch in checks),
        summary={"checks": checks},
        table=table, header=(*labels, "size", "n_rows", "n_cols", "sigma_min", "sigma_max"),
        rows=rows,
        # sigma_min against size, and against the first label (delta or alpha)
        plot=("sigma_min", (*labels[:1], "size", "sigma_min")),
    )


@_scenario("framebound-sweep", interior_fraction=(2.0 / 3.0, float), edge_margin=(0.0, float),
           orientation=("interior_rows", str), stability_pct=(float("inf"), float))
def scenario_framebound_sweep(config: ScenarioConfig) -> ScenarioOutcome:
    leg = ((), _require_sequence(config), config.options["orientation"], False)
    return _frame_legs(config, "frame_bounds", (), [leg])


@_scenario("critical-half", interior_fraction=(1.0, float), edge_margin=(3.0, float),
           orientation=("interior_rows", str), max_ratio=(0.5, float))
def scenario_critical_half(config: ScenarioConfig) -> ScenarioOutcome:
    seq = build_sequence(config.sequence) if config.sequence else PeriodicPerturbation((0.5,))
    return _frame_legs(config, "frame_bounds", (), [((), seq, config.options["orientation"], True)])


@_scenario("kadets-sweep", deltas=((0.1, 0.3, 0.45), _floats), critical_deltas=((0.5,), _floats),
           interior_fraction=(1.0, float), edge_margin=(3.0, float),
           stability_pct=(10.0, float), max_ratio=(0.5, float))
def scenario_kadets_sweep(config: ScenarioConfig) -> ScenarioOutcome:
    deltas = config.options["deltas"]
    critical = config.options["critical_deltas"]
    if not deltas and not critical:
        raise ConfigInvalidError(
            "options 'deltas' and 'critical_deltas': need at least one delta between them"
        )
    legs = [((d,), PeriodicPerturbation((d,)), "interior_rows", d in critical)
            for d in sorted(deltas) + sorted(critical)]
    return _frame_legs(config, "kadets", ("delta",), legs)


@_scenario("density-demo", alphas=((0.9, 1.1), _some_floats), interior_fraction=(2.0 / 3.0, float),
           edge_margin=(0.0, float), stability_pct=(10.0, float))
def scenario_density_demo(config: ScenarioConfig) -> ScenarioOutcome:
    # oversampled grids measure the sampling-side bound (interior
    # coefficients); undersampled ones the interpolation-side bound
    legs = []
    for alpha in sorted(config.options["alphas"]):
        orientation = "interior_cols" if alpha < 1.0 else "interior_rows"
        legs.append(((alpha, orientation), AffineGrid(alpha), orientation, False))
    return _frame_legs(config, "density", ("alpha", "orientation"), legs)


@_scenario("kernel-asymptotic", log_modulus_lo=(-10.0, float), log_modulus_hi=(10.0, float),
           step=(0.25, _positive), max_spread=(10.0, float), bracket=(None, _bracket))
def scenario_kernel_asymptotic(config: ScenarioConfig) -> ScenarioOutcome:
    options = config.options
    max_spread, bracket = options["max_spread"], options["bracket"]
    grid = _log_modulus_grid(options["log_modulus_lo"], options["log_modulus_hi"], options["step"])
    _, ratios = fock.kernel_norm(config.a, fock.LogPolarPoint(grid, np.zeros_like(grid)))
    spread = float(ratios.max() / ratios.min())
    return _ratio_outcome("kernel_ratio", {"log_modulus": grid}, ratios, bracket,
                          spread <= max_spread, spread=spread, max_spread=max_spread)


# log_modulus_lo and log_modulus_hi default to a and 21a
@_scenario("g0-estimate", log_modulus_lo=(None, float), log_modulus_hi=(None, float),
           step=(0.1, _positive), n_angles=(8, _count), exclusion=(0.1, _positive),
           bracket=(None, _bracket))
def scenario_g0_estimate(config: ScenarioConfig) -> ScenarioOutcome:
    a, options = config.a, config.options
    lo = a if options["log_modulus_lo"] is None else options["log_modulus_lo"]
    hi = 21.0 * a if options["log_modulus_hi"] is None else options["log_modulus_hi"]
    n_angles, exclusion, bracket = options["n_angles"], options["exclusion"], options["bracket"]

    lms = _log_modulus_grid(lo, hi, options["step"], n_angles)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    # every angle at each log-modulus, log-modulus major
    grid = fock.LogPolarPoint(np.repeat(lms, n_angles), np.tile(angles, len(lms)))
    zeros = fock.GeneratingProduct.unperturbed(a, fock.certified_zero_count(a, grid))
    rel = fock.log_distance_to_zeros(grid, zeros.zero_log_moduli) - grid.log_modulus
    keep = rel >= np.log(exclusion)
    if not keep.any():
        raise ConfigInvalidError(f"exclusion {exclusion} removes every grid point")

    points = fock.LogPolarPoint(grid.log_modulus[keep], grid.argument[keep])
    ratios = fock.g0_estimate_ratio(a, points)
    columns = {"log_modulus": points.log_modulus, "argument": points.argument}
    return _ratio_outcome("g0_ratio", columns, ratios, bracket, n_points=len(ratios))


@_scenario("fock-consistency", tolerances={"gap": 1e-9}, n_seeds=(5, _count),
           lambdas=(tuple(np.linspace(-5.0, 5.0, 11).tolist()), _some_floats),
           b_values=((0.0, 2.0), _some_floats), coeff_range=((1, 16), _coeff_range))
def scenario_fock_consistency(config: ScenarioConfig) -> ScenarioOutcome:
    n_seeds = config.options["n_seeds"]
    lambdas = config.options["lambdas"]
    b_values = config.options["b_values"]
    n_lo, n_hi = config.options["coeff_range"]
    tol = config.tolerances["gap"]

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
        table="consistency", header=("seed_index", "b", "lambda", "gap"), rows=rows,
        plot=("gap", ("lambda", "gap")),
    )


@_scenario("sign-retrieval", tolerances={"residual": 1e-8, "match": 1e-8},
           trials=(50, _count), window=(12, _count), coeff_start=(0, int), coeff_count=(5, _count),
           delta_amplitude=(0.2, _nonnegative), node_start=(-1, int))
def scenario_sign_retrieval(config: ScenarioConfig) -> ScenarioOutcome:
    options = config.options
    trials, window = options["trials"], options["window"]
    if window < 2:
        # the dilated-node verdict compares neighbouring nodes
        raise ConfigInvalidError(f"option 'window': needs at least two nodes, got {window}")
    coeff_start, coeff_count = options["coeff_start"], options["coeff_count"]
    amplitude, node_start = options["delta_amplitude"], options["node_start"]

    def run(t):
        rng = np.random.default_rng([config.seed, t])
        vals = rng.standard_normal(coeff_count)
        deltas = rng.uniform(-amplitude, amplitude, window)
        seq = half_grid(deltas, node_start)
        return sign_retrieval_check(
            config.a,
            CoefficientVector(coeff_start, vals.astype(complex)),
            seq,
            residual_tol=config.tolerances["residual"],
            match_tol=config.tolerances["match"],
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
        table="sign_retrieval", header=header, rows=rows,
    )

