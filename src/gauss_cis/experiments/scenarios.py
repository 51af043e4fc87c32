"""Scenario content: each function turns a config into a verdict and one table.

Scenario functions are pure apart from RNG seeded from the config; the
runner handles serialization, timing, and exit status.  Grid points are
evaluated serially in a fixed order, so reports are deterministic.  A
table is a map from each column name to its values, in table order.
Each scenario is registered with the options and tolerances it reads,
each with its default and parser: a reader of ``errors`` for a number, or
a function that reads as they do, ``parser(value, name, error)``.  Before a
scenario runs, ScenarioConfig rejects any other key, reads every given
value through its parser and fills in the defaults of the rest, so a
value of the wrong type, form or range raises ConfigInvalidError naming
its key before any work and a scenario reads ``config.options[key]`` and
``config.tolerances[key]``.  The four
frame-bound scenarios only declare their legs; ``_frame_legs`` sweeps and
checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .. import fock, gauss_space
from ..errors import ConfigInvalidError, real, reals, whole, wholes
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
TOLERANCES = {}  # scenario name -> {tolerance: (default, parser)}


@dataclass
class ScenarioOutcome:
    passed: bool
    summary: dict
    table: str                 # CSV name
    columns: dict              # column name -> values, in table order
    plot: tuple | None = None  # (plotdata name, the table columns it holds)


def _scenario(name: str, tolerances=None, **options):
    """Register the decorated function as scenario ``name``, reading
    ``options`` and ``tolerances``, each given as (default, parser)."""
    def register(fn):
        SCENARIOS[name] = fn
        OPTIONS[name] = options
        TOLERANCES[name] = tolerances or {}
        return fn
    return register


def _typed(kind, value, what: str, error):
    """``value`` if it is a ``kind``, such as a JSON boolean for ``bool``
    (a string such as "false" is not)."""
    if not isinstance(value, kind):
        raise error(f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


def _log_modulus_grid(lo: float, hi: float, step: float, per_point: int = 1):
    """lo, lo + step, ... up to hi.

    An empty grid, and a grid whose points times ``per_point``
    (evaluations per grid point) exceed ``_MAX_GRID``, are config errors.
    """
    count = ((hi + 1e-12 - lo) / step + 1.0) * per_point
    if count > _MAX_GRID:
        raise ConfigInvalidError(
            f"grid of {count:.3g} points exceeds {_MAX_GRID:,}; raise the step"
        )
    grid = np.arange(lo, hi + 1e-12, step)
    if len(grid) == 0:
        raise ConfigInvalidError(f"empty grid: log_modulus_lo {lo} > log_modulus_hi {hi}")
    return grid


def _some_reals(values, what: str, error) -> list:
    """``values`` as a list of at least one finite float."""
    out = reals(values, what, error=error)
    if not out:
        raise error(f"{what} needs at least one value")
    return out


def _pair(read, values, what: str, error) -> tuple:
    """``[lo, hi]`` with lo <= hi, each end read by ``read``."""
    pair = tuple(read(values, what, error=error))
    if len(pair) != 2 or pair[0] > pair[1]:
        raise error(f"{what} must be [lo, hi] with lo <= hi, got {values}")
    return pair


def _bracket(values, what: str, error):
    """``[lo, hi]`` bounds on a ratio, finite with lo <= hi, or None for no bounds."""
    return None if values is None else _pair(reals, values, what, error)


def _ratio_outcome(table: str, columns: dict, ratios, bracket, passed=True, **summary):
    """A ratio over a grid as one outcome, table ``table`` plotted whole:
    the grid's ``columns`` (name -> values) and ``ratio``, and the ratio's
    range, ``bracket`` and ``summary`` in the summary.  It passes when
    ``passed`` does, every ratio is finite and > 0 (an underflowed or
    overflowed ratio measures nothing) and, if ``bracket`` is set, inside it."""
    lo, hi = (0.0, np.inf) if bracket is None else bracket
    measured = np.isfinite(ratios).all() and ratios.min() > 0.0
    # as Python floats, which the runner formats faster than numpy's
    columns = {name: values.tolist() for name, values in {**columns, "ratio": ratios}.items()}
    return ScenarioOutcome(
        passed=bool(passed and measured and ratios.min() >= lo and ratios.max() <= hi),
        summary={"ratio_min": float(ratios.min()), "ratio_max": float(ratios.max()),
                 "bracket": bracket, **summary},
        table=table, columns=columns, plot=(table, tuple(columns)),
    )


def _require_sequence(config: ScenarioConfig):
    if config.sequence is None:
        raise ConfigInvalidError(f"scenario {config.scenario!r} needs a sequence")
    return build_sequence(config.sequence)


@_scenario("classify", n_max=(8, partial(whole, ge=1)), margin=(1e-9, partial(real, ge=0)),
           expect_pass=(None, partial(_typed, bool)))
def scenario_classify(config: ScenarioConfig) -> ScenarioOutcome:
    options = config.options
    verdict = avdonin_verdict(_require_sequence(config), options["n_max"], options["margin"])
    v = verdict.to_json()
    row = {"kind": config.sequence.get("kind"), "separated": verdict.separated,
           "min_gap": verdict.min_gap, "enumerable": verdict.enumerable,
           "delta_sup": v["delta_sup"], "window_len": verdict.window_len,
           "delta_star": v["best_window"]["delta_star"], "passes": verdict.passes,
           "caveat": verdict.caveat}
    expect = options["expect_pass"]
    return ScenarioOutcome(
        passed=expect is None or verdict.passes == expect,
        summary={"verdict": v, "expect_pass": expect},
        table="verdict", columns={name: [value] for name, value in row.items()},
    )


def _frame_legs(config: ScenarioConfig, table: str, labels: tuple, legs) -> ScenarioOutcome:
    """Frame bounds of each leg at the config's sizes, checked, as one table.

    A leg is (label values, sequence, orientation, critical).  A critical
    leg passes when sigma_min falls by at most ``max_ratio`` at every size
    step, any other when it moves by at most ``stability_pct`` percent
    across the last one; a sigma_min of 0 (every entry underflowed) leaves
    the ratio or percentage after it None, and the check fails.  A sweep
    compares sizes, so fewer than two is a config error.  The table has a
    row per leg and size, its labels then the entry's size, shape and
    singular values; the summary a check per leg, with its labels,
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
    names = (*labels, "size", "n_rows", "n_cols", "sigma_min", "sigma_max")
    return ScenarioOutcome(
        passed=all(ch["ok"] for ch in checks),
        summary={"checks": checks},
        table=table, columns=dict(zip(names, zip(*rows))),
        # sigma_min against size, and against the first label (delta or alpha)
        plot=("sigma_min", (*labels[:1], "size", "sigma_min")),
    )


@_scenario("framebound-sweep", interior_fraction=(2.0 / 3.0, real), edge_margin=(0.0, real),
           orientation=("interior_rows", partial(_typed, str)), stability_pct=(float("inf"), real))
def scenario_framebound_sweep(config: ScenarioConfig) -> ScenarioOutcome:
    leg = ((), _require_sequence(config), config.options["orientation"], False)
    return _frame_legs(config, "frame_bounds", (), [leg])


@_scenario("critical-half", interior_fraction=(1.0, real), edge_margin=(3.0, real),
           orientation=("interior_rows", partial(_typed, str)), max_ratio=(0.5, real))
def scenario_critical_half(config: ScenarioConfig) -> ScenarioOutcome:
    seq = build_sequence(config.sequence) if config.sequence else PeriodicPerturbation((0.5,))
    return _frame_legs(config, "frame_bounds", (), [((), seq, config.options["orientation"], True)])


@_scenario("kadets-sweep", deltas=((0.1, 0.3, 0.45), reals), critical_deltas=((0.5,), reals),
           interior_fraction=(1.0, real), edge_margin=(3.0, real),
           stability_pct=(10.0, real), max_ratio=(0.5, real))
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


@_scenario("density-demo", alphas=((0.9, 1.1), _some_reals), interior_fraction=(2.0 / 3.0, real),
           edge_margin=(0.0, real), stability_pct=(10.0, real))
def scenario_density_demo(config: ScenarioConfig) -> ScenarioOutcome:
    # oversampled grids measure the sampling-side bound (interior
    # coefficients); undersampled ones the interpolation-side bound
    legs = []
    for alpha in sorted(config.options["alphas"]):
        orientation = "interior_cols" if alpha < 1.0 else "interior_rows"
        legs.append(((alpha, orientation), AffineGrid(alpha), orientation, False))
    return _frame_legs(config, "density", ("alpha", "orientation"), legs)


@_scenario("kernel-asymptotic", log_modulus_lo=(-10.0, real), log_modulus_hi=(10.0, real),
           step=(0.25, partial(real, gt=0)), max_spread=(10.0, partial(real, gt=0)),
           bracket=(None, _bracket))
def scenario_kernel_asymptotic(config: ScenarioConfig) -> ScenarioOutcome:
    options = config.options
    max_spread, bracket = options["max_spread"], options["bracket"]
    grid = _log_modulus_grid(options["log_modulus_lo"], options["log_modulus_hi"], options["step"])
    _, ratios = fock.kernel_norm(config.a, fock.LogPolarPoint(grid, np.zeros_like(grid)))
    spread = float(ratios.max() / ratios.min())
    return _ratio_outcome("kernel_ratio", {"log_modulus": grid}, ratios, bracket,
                          spread <= max_spread, spread=spread, max_spread=max_spread)


# log_modulus_lo and log_modulus_hi default to a and 21a
@_scenario("g0-estimate", log_modulus_lo=(None, real), log_modulus_hi=(None, real),
           step=(0.1, partial(real, gt=0)), n_angles=(8, partial(whole, ge=1)),
           exclusion=(0.1, partial(real, gt=0)), bracket=(None, _bracket))
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


@_scenario("fock-consistency", tolerances={"gap": (1e-9, partial(real, gt=0))},
           n_seeds=(5, partial(whole, ge=1)), b_values=((0.0, 2.0), _some_reals),
           lambdas=(tuple(np.linspace(-5.0, 5.0, 11).tolist()), _some_reals),
           coeff_range=((1, 16), partial(_pair, partial(wholes, ge=1))))
def scenario_fock_consistency(config: ScenarioConfig) -> ScenarioOutcome:
    n_seeds = config.options["n_seeds"]
    lambdas = config.options["lambdas"]
    b_values = config.options["b_values"]
    n_lo, n_hi = config.options["coeff_range"]
    tol = config.tolerances["gap"]
    size = n_hi - n_lo + 1
    # consistency_identity holds a few lambda-by-coefficient arrays
    if len(lambdas) * size > _MAX_GRID:
        raise ConfigInvalidError(f"option 'coeff_range': {size} coefficients times "
                                 f"{len(lambdas)} lambdas exceeds {_MAX_GRID:,}")

    rows = []
    for i in range(n_seeds):
        rng = np.random.default_rng([config.seed, i])
        vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        coeffs = CoefficientVector(n_lo, vals)
        for b in b_values:
            _, _, gaps = fock.consistency_identity(GaussianParam(config.a, b), coeffs, lambdas)
            rows += [(i, b, lam, gap) for lam, gap in zip(lambdas, gaps.tolist())]
    columns = dict(zip(("seed_index", "b", "lambda", "gap"), zip(*rows)))
    worst = max(columns["gap"])
    return ScenarioOutcome(
        passed=worst < tol,
        summary={"max_gap": worst, "tolerance": tol, "n_checks": len(rows)},
        table="consistency", columns=columns, plot=("gap", ("lambda", "gap")),
    )


# the dilated-node verdict compares neighbouring nodes, so a window needs two
@_scenario("sign-retrieval", tolerances={"residual": (1e-8, partial(real, gt=0)),
                                         "match": (1e-8, partial(real, gt=0))},
           trials=(50, partial(whole, ge=1)), window=(12, partial(whole, ge=2)),
           coeff_start=(0, whole), coeff_count=(5, partial(whole, ge=1)),
           delta_amplitude=(0.2, partial(real, ge=0)), node_start=(-1, whole))
def scenario_sign_retrieval(config: ScenarioConfig) -> ScenarioOutcome:
    options = config.options
    trials, window = options["trials"], options["window"]
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
    n_pass = sum(1 for res in results if res.passes)
    names = ("passes", "n_survivors", "max_survivor_residual", "dilated_delta_star",
             "dilated_condition_ok")
    columns = {"trial": list(range(trials))}
    columns.update((name, [getattr(res, name) for res in results]) for name in names)
    return ScenarioOutcome(
        passed=n_pass == trials,
        summary={
            "trials": trials,
            "passed_trials": n_pass,
            "window": window,
            "prefixes_checked": sum(res.prefixes_checked for res in results),
            "patterns_total": trials * 2**window,
        },
        table="sign_retrieval", columns=columns,
    )

