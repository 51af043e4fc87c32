"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/capture_reference.py

Runs one full-size pass of every workload at the reference seed and
writes ``perfbench/reference.json``: each operation's output, whether it
depends on the seed, the tolerances, and the environment it was taken in.
A second pass at another seed confirms that the operations declared
seed-independent really are.  Rerun it only when a change is meant to move
outputs, and say by how much in the change's notes.
"""

import json
import shutil
import sys

import checks
import spans
import stamp
import workloads

SEED = 0  # the reference seed


def capture(seed):
    ops = {}
    for name, cls in workloads.WORKLOADS.items():
        first = cls(seed).run_pass(spans.NullTracer())
        other = {op.key: op.output for op in cls(seed + 1).run_pass(spans.NullTracer())}
        for op in first:
            if op.problems:
                raise SystemExit(f"{op.key} fails its own checks: {op.problems}")
            if op.seed_independent and not checks.agrees(other[op.key], op.output):
                raise SystemExit(f"{op.key} is declared seed-independent but changed with the seed")
            ops[op.key] = {"seed_independent": op.seed_independent, "output": op.output}
        print(f"{name}: {len(first)} operations", file=sys.stderr)
    return ops


def main():
    shutil.rmtree(workloads.WORK, ignore_errors=True)
    (workloads.WORK / "demo").mkdir(parents=True)
    reference = {
        "seed": SEED,
        "rtol": checks.RTOL,
        "atol": checks.ATOL,
        "environment": stamp.environment(SEED),
        "ops": capture(SEED),
    }
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
