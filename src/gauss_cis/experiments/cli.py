"""Command line entry point.

Usage::

    gauss-cis <scenario> --config path.json [--out DIR] [--seed N]

Exit codes: 0 when every declared threshold is met, 1 when a threshold
fails (the report is still written), 2 for unknown scenarios, invalid
configuration, or an output directory that cannot be made or written to.
"""

import argparse
import sys

from ..errors import ConfigInvalidError, GaussCisError
from .config import SCENARIO_NAMES, load_config
from .runner import run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauss-cis",
        description="Run a reproducible node-sequence / collocation scenario.",
    )
    parser.add_argument("scenario", help=f"one of: {', '.join(SCENARIO_NAMES)}")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(
            args.config,
            scenario=args.scenario,
            out_dir=args.out,
            seed=args.seed,
        )
        report = run_scenario(config)
    except GaussCisError as exc:
        kind = "invalid config: " if isinstance(exc, ConfigInvalidError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2
    status = "PASS" if report.passed else "FAIL"
    print(f"{report.scenario}: {status} ({report.elapsed_seconds:.2f} s)")
    print(f"report written to {report.out_dir}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
