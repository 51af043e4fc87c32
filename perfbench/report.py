"""Run every workload once and print each end-to-end metric with its unit.

    python3 perfbench/report.py

Each workload runs as ``run.py --trace 0`` in its own process, at the seed
of the recorded reference and for ``run_seconds`` of ``BENCHMARK.json``;
the table adds ``fail_frac`` (failed over attempted operations) for each.
"""

import json
import subprocess
import sys
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def main():
    seed = checks.load_reference()["seed"]
    ok = True
    print(f"{'workload':<15} {'metric':<12} {'value':>14} unit")
    for name in (w["name"] for w in BENCHMARK["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{name}: run.py exited with {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:<15} {metric:<12} {m['value']:>14.6f} {m['unit']}")
        print(f"{name:<15} {'fail_frac':<12} {result['failed'] / result['attempted']:>14.6f} "
              f"ratio ({result['failed']} of {result['attempted']} operations)")
        for line in lines[:-1]:
            if line.startswith(("# untraced pass_s", "# FAILED")):
                print(f"{name:<15} {line}")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
