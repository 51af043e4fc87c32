"""Run scenarios and write deterministic reports.

A scenario returns one table, a map from each column name to its values
in table order, written as ``<table>.csv``, and at most one plot, written
as ``plotdata/<plot>.csv``: a projection of some of the table's columns.
Each column is formatted once, as given, and both files are written from
the same strings.  Reports are always written, even when thresholds
fail; only the exit status reflects the verdict.  CSV bodies are
byte-stable across runs of the same config: floats print with 17
significant digits, rows keep the scenario's fixed order, and nothing
time-dependent enters a CSV (timings live in report.json only).  An
output directory that cannot be made or written to is a config error.
"""

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigInvalidError, UnknownScenarioError
from .config import ScenarioConfig
from .scenarios import SCENARIOS

__all__ = ["ScenarioReport", "run_scenario"]


def _formatter(kind):
    """How a ``kind`` value prints: bools (tested before int) as true/false, ints
    in full, floats as float() with 17 significant digits, anything else by str."""
    if issubclass(kind, (bool, np.bool_)):
        return lambda v: "true" if v else "false"
    if issubclass(kind, (int, np.integer)):
        return lambda v: str(int(v))
    if issubclass(kind, (float, np.floating)):
        return "%.17g".__mod__  # % converts through float()
    return str


def _format_column(values) -> list:
    fmt = {kind: _formatter(kind) for kind in set(map(type, values))}
    return [fmt[type(v)](v) for v in values]


@dataclass
class ScenarioReport:
    scenario: str
    passed: bool
    summary: dict
    out_dir: Path
    csv_paths: tuple
    elapsed_seconds: float


def _plain(o):
    """A numpy scalar or array as the Python value json writes."""
    if isinstance(o, (np.generic, np.ndarray)):
        return o.tolist()
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Execute a scenario and write report.json plus its CSV tables."""
    fn = SCENARIOS.get(config.scenario)
    if fn is None:
        raise UnknownScenarioError(f"no scenario named {config.scenario!r}")
    start = time.perf_counter()
    outcome = fn(config)
    elapsed = time.perf_counter() - start

    out = Path(config.out_dir)
    text = {name: _format_column(values) for name, values in outcome.columns.items()}
    csvs = {out / f"{outcome.table}.csv": tuple(outcome.columns)}  # path -> column names
    if outcome.plot:
        csvs[out / "plotdata" / f"{outcome.plot[0]}.csv"] = outcome.plot[1]
    report = {
        "config": config.echo(),
        "passed": outcome.passed,
        "summary": outcome.summary,
        "csv_files": [str(p.relative_to(out)) for p in csvs],
        "elapsed_seconds": elapsed,
    }
    report_json = json.dumps(report, indent=2, sort_keys=True, default=_plain) + "\n"
    try:
        for path, header in csvs.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w", encoding="utf-8") as fh:
                fh.write(",".join(header) + "\n")
                fh.writelines(",".join(row) + "\n" for row in zip(*(text[h] for h in header)))
        (out / "report.json").write_text(report_json, encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalidError(f"cannot write the report to {out}: {exc}") from exc
    return ScenarioReport(
        scenario=config.scenario,
        passed=outcome.passed,
        summary=outcome.summary,
        out_dir=out,
        csv_paths=tuple(csvs),
        elapsed_seconds=elapsed,
    )
