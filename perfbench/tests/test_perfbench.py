"""Tests of the benchmark itself, at tiny workload sizes.

    python -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# per-layer metrics each workload must drive above zero
BUSY = {
    "demo-suite": ("experiments.startup_s", "experiments.config_s", "experiments.bytes_written",
                   "gauss_space.svd_calls", "lattice.verdict_calls"),
    "frame-ladder": ("gauss_space.collocation_calls", "gauss_space.svd_calls",
                     "gauss_space.svd_flops", "gauss_space.entry_bytes"),
    "series-explicit": ("fock.g0_ratio_calls", "fock.distance_calls", "fock.product_builds",
                        "fock.kernel_calls", "fock.consistency_calls", "fock.grid_kept_ratio",
                        "logdomain.diff_exp_calls", "logdomain.logsumexp_calls",
                        "experiments.write_s", "experiments.bytes_written",
                        "lattice.verdict_calls", "lattice.nodes", "lattice.densities_s",
                        "experiments.sign_calls", "experiments.sign_survivor_ratio"),
}


def _run(capsys, monkeypatch, workload, trace):
    monkeypatch.setenv("PERFBENCH_TINY", "1")
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_each_workload_reports_every_metric(capsys, monkeypatch, workload, trace):
    result = _run(capsys, monkeypatch, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        busy = [k for k in BUSY[workload] if result["metrics"][k]["value"] <= 0]
        assert busy == []
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _self_reference(ops, seed):
    return {"seed": seed, "rtol": checks.RTOL, "atol": checks.ATOL,
            "ops": {op.key: {"seed_independent": False, "output": op.output} for op in ops}}


@pytest.mark.parametrize("part, field", [(workloads.FrameLadder, "sigma_min"),
                                         (workloads.ExplicitData, "d_plus")])
def test_wrong_reference_value_fails(part, field):
    ops = part(3, tiny=True).run_pass(spans.NullTracer())
    reference = _self_reference(ops, 3)
    assert checks.failures(ops, reference, 3) == {}
    wrong = copy.deepcopy(reference)
    wrong["ops"][ops[0].key]["output"][field] *= 1 + 1e-6
    assert list(checks.failures(ops, wrong, 3)) == [ops[0].key]
    # a reference taken at another seed only constrains seed-independent operations
    assert checks.failures(ops, wrong, 4) == {}


def test_wrong_reference_makes_the_run_fail(capsys, monkeypatch, tmp_path):
    ops = workloads.FrameLadder(3, tiny=True).run_pass(spans.NullTracer())
    wrong = _self_reference(ops, 3)
    wrong["ops"][ops[-1].key]["output"]["sigma_max"] *= 1.01
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(wrong), encoding="utf-8")
    monkeypatch.setattr(checks, "REFERENCE", path)
    result = _run(capsys, monkeypatch, "frame-ladder", 0)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_csv_cells_compare_numerically():
    ref = "x,y\n1,0.10000000000000001\n"
    assert checks.agrees("x,y\n1,0.1\n", ref)
    assert not checks.agrees("x,y\n1,0.1001\n", ref)
    assert not checks.agrees("x,y\n1,true\n", ref)


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "gauss_cis" or name.startswith("gauss_cis."):
            for attr, obj in vars(module).items():
                out[(name, attr)] = obj
                if isinstance(obj, type):
                    out.update({(name, attr, m): o for m, o in vars(obj).items()})
    return out


def test_wrappers_trace_every_binding_and_are_removed():
    from gauss_cis import fock, lattice
    from gauss_cis.experiments import scenarios, sign_retrieval

    before = _bindings()
    svd = spans.np.linalg.svd
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        assert spans.leftover_wrappers()
        # names bound by import in other modules are wrapped too
        for fn in (fock.log_abs_diff_exp, fock.logsumexp, scenarios.avdonin_verdict,
                   sign_retrieval.avdonin_verdict, scenarios.SCENARIOS["classify"]):
            assert hasattr(fn, "__perfbench_original__")
        lattice.avdonin_verdict(lattice.PeriodicPerturbation((0.25,)))
        fock.g0_estimate_ratio(0.5, fock.LogPolarPoint(1.3, 0.4))
    finally:
        installation.remove()
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"lattice.avdonin_verdict", "lattice.check_separation", "fock.g0_estimate_ratio",
            "fock.GeneratingProduct.__init__", "logdomain.log_abs_diff_exp"} <= names
    assert spans.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert spans.np.linalg.svd is svd


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["bench.pass", 0.0, 10.0, -1, 0], ["fock.a", 1.0, 4.0, 0, 1],
                    ["logdomain.b", 2.0, 3.5, 1, 1], ["fock.a", 5.0, 6.0, 0, 2]]
    assert spans.self_times(tracer.spans) == [6.0, 1.5, 1.5, 1.0]
    m = spans.layer_metrics(tracer.spans, tracer.counters)
    assert m["fock.self_s"] == 2.5 and m["logdomain.self_s"] == 1.5 and m["bench.self_s"] == 6.0


def test_child_harness_time_is_not_startup(tmp_path):
    child = spans.Tracer()
    child.record("bench.child", 1.0, 2.0)
    child.spans.append(["experiments.cli.main", 2.0, 8.0, -1, 0])
    path = tmp_path / "spans.json"
    spans.save_child(path, child, 8.0)
    loaded = spans.load_child(path)
    assert [s[spans.NAME] for s in loaded["spans"]] == ["bench.child", "experiments.cli.main",
                                                        "bench.child"]
    parent = spans.Tracer()
    parent.spans = [["experiments.cli_process", 0.0, 10.0, -1, 1]]
    loaded["spans"][-1][spans.END] = 9.0
    parent.adopt(loaded["spans"], 0)
    m = spans.layer_metrics(parent.spans, parent.counters)
    assert m["experiments.startup_s"] == 2.0 and m["bench.self_s"] == 2.0


class _ThreadingPass:
    in_process = True

    def __init__(self):
        self.masks = []

    def run_pass(self, tracer):
        worker = threading.Thread(target=lambda: self.masks.append(os.sched_getaffinity(0)))
        worker.start()
        worker.join()
        self.masks.append(os.sched_getaffinity(0))
        return []


def test_threads_started_in_a_pinned_pass_get_every_cpu():
    workload = _ThreadingPass()
    run.timed_pass(workload, spans.NullTracer(), 0)
    worker_mask, main_mask = workload.masks
    assert worker_mask == run.ALLOWED_CPUS
    assert main_mask == {min(run.ALLOWED_CPUS)}
    assert os.sched_getaffinity(0) == run.ALLOWED_CPUS
