"""gauss-cis benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics (set-up time, pass time, peak resident memory); with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, the tracing overhead, and whether
tracing changed any output.  Every operation's output is checked; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Set ``PERFBENCH_TINY=1`` to run the workloads
at the tiny sizes the benchmark's own tests use.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
IMPORT_PROBES = 3
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
ALLOWED_CPUS = os.sched_getaffinity(0)
UNPINNED = set()  # native ids of the threads ``_unpin`` ran in


def unit_of(metric):
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_flops"):
        return "flop"
    if metric.endswith(("_bytes", "bytes_written")):
        return "bytes"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric.endswith("_elems"):
        return "elems/call"
    return "count"


def measure_setup(name, seed):
    """Median time from spawning a fresh interpreter until its inputs are ready.

    One extra probe runs first and is discarded, so the file cache is warm
    and bytecode is written, as it is for a user who reruns.
    """
    import workloads

    cmd = [sys.executable, str(HERE / "child.py"), "setup", name, str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        ready = []

        def wait_ready(proc):
            if proc.stdout.readline() == b"ready\n":
                ready.append(time.perf_counter())

        start = time.perf_counter()
        code, _ = workloads.run_process(cmd, stdout=subprocess.PIPE, on_start=wait_ready)
        if code != 0 or not ready:
            raise RuntimeError(f"set-up probe exited with code {code}")
        if i:
            times.append(ready[0] - start)
    return statistics.median(times)


def import_times():
    """Cumulative import time of each layer from ``-X importtime`` in fresh processes."""
    import spans
    import workloads

    samples = {layer: [] for layer in spans.LAYERS}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gauss_cis"],
                              cwd=ROOT, env=workloads.child_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        for layer in spans.LAYERS:
            samples[layer].append(cumulative[f"gauss_cis.{layer}"])
    return {f"{layer}.import_s": statistics.median(v) for layer, v in samples.items()}


def _unpin(frame, event, arg):
    """Profile hook of a thread started during a pinned pass: give it every allowed CPU."""
    os.sched_setaffinity(0, ALLOWED_CPUS)
    UNPINNED.add(threading.get_native_id())
    sys.setprofile(None)


def _native_threads():
    """Ids of this process's threads that were not started through ``threading``."""
    python = {t.native_id for t in threading.enumerate()} | UNPINNED
    return {int(tid) for tid in os.listdir("/proc/self/task")} - python


def timed_pass(workload, tracer, index):
    """One pass; an in-process pass runs its main thread on the next allowed CPU in turn.

    On a shared VM each virtual CPU's speed drifts on its own over tens of
    seconds; rotating the passes over every CPU the run may use averages
    that drift instead of sampling whichever CPU the scheduler kept.  CLI
    children are left to the scheduler, which places each one afresh.

    Only the main thread is pinned.  Threads that exist before the pass
    (BLAS pools start when numpy is imported, during set-up) keep every
    CPU; threads started through ``threading`` during the pass reset their
    own mask when they start.  A native thread started during the pass
    would inherit the one-CPU mask, so the run stops if one appears.
    """
    if not workload.in_process:
        start = time.perf_counter()
        with tracer.span("bench.pass"):
            ops = workload.run_pass(tracer)
        return time.perf_counter() - start, ops
    cpus = sorted(ALLOWED_CPUS)
    before = _native_threads()
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    threading.setprofile(_unpin)
    try:
        start = time.perf_counter()
        with tracer.span("bench.pass"):
            ops = workload.run_pass(tracer)
        elapsed = time.perf_counter() - start
    finally:
        threading.setprofile(None)
        os.sched_setaffinity(0, ALLOWED_CPUS)
    started = _native_threads() - before
    if started:
        raise RuntimeError(f"native threads {sorted(started)} started during a pass pinned to "
                           "one CPU; start them during set-up or stop pinning this workload")
    return elapsed, ops


def tail_note(samples):
    """Median plus the highest percentile that has at least ten samples beyond it."""
    n = len(samples)
    text = f"n={n} median={statistics.median(samples):.6f} s"
    if n <= 10:
        return text + "; fewer than 11 samples, so no tail percentile"
    return text + f" p{100.0 * (n - 10) / n:.1f}={sorted(samples)[n - 11]:.6f} s"


def measure(workload, seconds):
    """Untraced passes while the next is expected to end within ``seconds`` (at least one)."""
    import spans

    deadline = time.perf_counter() + seconds
    passes = []
    while not passes or time.perf_counter() + passes[-1][0] <= deadline:
        passes.append(timed_pass(workload, spans.NullTracer(), len(passes)))
    return passes


def measure_traced(workload, seconds):
    """Alternate untraced and traced passes; returns both lists and per-pass layer metrics."""
    import checks
    import spans
    import workloads

    tracer = spans.Tracer()
    deadline = time.perf_counter() + seconds
    plain, traced, layers = [], [], []
    while not traced or time.perf_counter() + plain[-1][0] + traced[-1][0] <= deadline:
        plain.append(timed_pass(workload, spans.NullTracer(), len(plain)))
        first = len(tracer.spans)
        tracer.counters.clear()
        installation = spans.install(tracer) if workload.in_process else None
        try:
            traced.append(timed_pass(workload, tracer, len(traced)))
        finally:
            if installation is not None:
                installation.remove()
        ops = traced[-1][1]
        differ = set(checks.mismatches(ops, plain[-1][1]))
        left = spans.leftover_wrappers()
        for op in ops:
            if op.key in differ:
                op.problems.append("traced output differs from the untraced output")
            if left:
                op.problems.append(f"wrappers left after the traced pass: {left[:3]}")
        layers.append(spans.layer_metrics(tracer.spans, tracer.counters, first))
    tracer.dump(workloads.WORK / f"spans-{workload.name}.csv")
    return plain, traced, layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gauss_cis" / "__init__.py").is_file():
        print(f"error: no gauss_cis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import checks
    import spans
    import stamp
    import workloads

    import gauss_cis

    if Path(gauss_cis.__file__).resolve().parent != workloads.SRC / "gauss_cis":
        print(f"error: imported gauss_cis from {gauss_cis.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tiny = os.environ.get("PERFBENCH_TINY") == "1"
    shutil.rmtree(workloads.WORK, ignore_errors=True)
    (workloads.WORK / "demo").mkdir(parents=True)

    env = stamp.environment(args.seed)
    print("# environment " + json.dumps(env, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=tiny)
    reference = checks.load_reference()

    if args.trace:
        plain, traced, layers = measure_traced(workload, args.seconds)
        passes = plain + traced
        plain_s = statistics.median(t for t, _ in plain)
        traced_s = statistics.median(t for t, _ in traced)
        metrics = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
        metrics.update(import_times())
        metrics["bench.pass_s"] = plain_s
        metrics["bench.traced_pass_s"] = traced_s
        metrics["bench.trace_overhead_s"] = traced_s - plain_s
        metrics["bench.accounted_frac"] = statistics.median(
            sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) / t
            for m, (t, _) in zip(layers, traced))
    else:
        passes = measure(workload, args.seconds)
        if workload.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = workload.peak_rss_kb
        plain = passes
        metrics = {"setup_s": measure_setup(args.workload, args.seed),
                   "pass_s": statistics.median(t for t, _ in passes),
                   "peak_rss_mb": peak_kb / 1024.0}

    attempted = n_failed = 0
    failed = {}
    for _, ops in passes:
        bad = checks.failures(ops, reference, args.seed)
        attempted += len(ops)
        n_failed += len(bad)
        failed.update(bad)
    same, compared = checks.csv_identity(passes[-1][1], reference, args.seed)
    if args.trace:
        metrics["bench.csv_identical"] = same
        metrics["bench.csv_compared"] = compared
    print(f"# untraced pass_s {tail_note([t for t, _ in plain])}")
    print(f"# demo CSV bodies byte-identical to the reference: {same} of {compared}")
    for key, reason in sorted(failed.items()):
        print(f"# FAILED {key}: {reason}")

    units = END_TO_END if not args.trace else {k: unit_of(k) for k in metrics}
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = dict(result, environment=env, workload=args.workload, trace=args.trace,
                  pass_samples=[t for t, _ in passes], failures=failed)
    (workloads.WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
