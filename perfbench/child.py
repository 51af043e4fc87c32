"""Child processes started by the benchmark runner.

    child.py setup <workload> <seed>
        Import gauss_cis, build the workload's inputs, print "ready" and
        exit; the parent times this to get set-up time.
    child.py cli <spans.json> <gauss-cis CLI arguments...>
        Import the CLI, install the tracing wrappers, run ``cli.main`` and
        write the spans and counters to <spans.json>; exits with the CLI's
        code.  The time spent installing the wrappers and writing the spans
        is recorded as ``bench.child`` spans, so that the parent charges
        only interpreter start, the CLI's imports and exit to start-up.
"""

import os
import sys
import time


def main(argv):
    if argv[0] == "setup":
        import workloads

        workloads.WORKLOADS[argv[1]](int(argv[2]), tiny=os.environ.get("PERFBENCH_TINY") == "1")
        print("ready", flush=True)
        return 0
    if argv[0] == "cli":
        # the imports an untraced ``python -m gauss_cis.experiments.cli`` makes
        from gauss_cis.experiments import cli

        harness = time.perf_counter()
        import spans

        tracer = spans.Tracer()
        installation = spans.install(tracer)
        tracer.record("bench.child", harness, time.perf_counter())
        try:
            code = cli.main(argv[2:])
        finally:
            harness = time.perf_counter()
            installation.remove()
        spans.save_child(argv[1], tracer, harness)
        return code
    print(f"unknown child command {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
