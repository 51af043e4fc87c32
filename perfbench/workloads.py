"""The benchmark workloads: inputs drawn from a seed, passes, output checks.

A workload is built from a seed (that is its input generation, part of
set-up) and then runs passes.  A pass is a list of operations; each returns
an ``Op`` holding a JSON-able output, which ``checks`` compares with the
recorded reference, and the problems its own checks found (exit codes,
the scenarios' brackets and thresholds, known verdicts).
"""

import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# layers are called through their modules, so the tracing wrappers bound there apply
from gauss_cis import experiments, gauss_space, lattice  # noqa: E402
from gauss_cis.experiments import ScenarioConfig  # noqa: E402
from gauss_cis.gauss_space import CoefficientVector  # noqa: E402
from gauss_cis.lattice import ExplicitWindow, GaussianParam, PeriodicPerturbation  # noqa: E402

import spans  # noqa: E402


@dataclass
class Op:
    key: str
    output: dict
    problems: list = field(default_factory=list)
    seed_independent: bool = False


def _plain(value):
    """JSON-normal form of an output (tuples to lists, numpy scalars to Python)."""
    def default(o):
        if isinstance(o, np.generic):
            return o.item()
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return json.loads(json.dumps(value, default=default))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(cmd, timeout=150.0, stdout=subprocess.DEVNULL, on_start=None):
    """Run a child to completion; returns (exit code, its rusage).

    The child is killed after ``timeout`` seconds and always reaped.
    ``on_start(proc)`` runs while the child is alive (to read its pipe).
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=stdout,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        if on_start is not None:
            on_start(proc)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode, usage


class DemoSuite:
    """The committed demo configs, each run as a fresh CLI process."""

    name = "demo-suite"
    in_process = False
    SEED_DEPENDENT = ("fock_consistency", "sign_retrieval")

    def __init__(self, seed, tiny=False):
        self.prefix = self.name + ("-tiny" if tiny else "")  # tiny outputs have no reference
        paths = sorted((ROOT / "demos" / "configs").glob("*.json"))
        if tiny:
            paths = [p for p in paths if p.stem in ("classify_periodic", "critical_half")]
        self.seed = seed
        self.runs = [(json.loads(p.read_text(encoding="utf-8"))["scenario"], p) for p in paths]
        self.peak_rss_kb = 0

    def run_pass(self, tracer):
        traced = isinstance(tracer, spans.Tracer)
        ops = []
        for scenario, path in self.runs:
            out = WORK / "demo" / path.stem
            shutil.rmtree(out, ignore_errors=True)
            argv = [scenario, "--config", str(path.relative_to(ROOT)), "--seed", str(self.seed),
                    "--out", str(out.relative_to(ROOT))]
            span_file = WORK / "demo" / f"{path.stem}.spans.json"
            span_file.unlink(missing_ok=True)
            if traced:
                cmd = [sys.executable, str(HERE / "child.py"), "cli", str(span_file), *argv]
            else:
                cmd = [sys.executable, "-m", "gauss_cis.experiments.cli", *argv]
            with tracer.operation():
                with tracer.span("experiments.cli_process") as idx:
                    code, usage = run_process(cmd)
                if traced and span_file.exists():
                    child = spans.load_child(span_file)
                    tracer.adopt(child["spans"], idx)
                    tracer.counters.update(child["counters"])
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            ops.append(self._op(path.stem, code, out))
        return ops

    def _op(self, stem, code, out):
        problems = [] if code == 0 else [f"exit code {code}"]
        output = {"exit": code, "passed": False, "csv": {}}
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"no report: {exc}")
        else:
            output["passed"] = report["passed"]
            output["csv"] = {rel: (out / rel).read_text(encoding="utf-8") for rel in report["csv_files"]}
            if not report["passed"]:
                problems.append("report says not passed")
        return Op(f"{self.prefix}/{stem}", output, problems, stem not in self.SEED_DEPENDENT)


class FrameLadder:
    """Frame bounds of collocation sections: the critical shift and a period-4 pattern."""

    name = "frame-ladder"
    in_process = True

    def __init__(self, seed, tiny=False):
        self.prefix = self.name + ("-tiny" if tiny else "")
        rng = np.random.default_rng([seed, 2])
        d, e = rng.uniform(0.55, 0.7), rng.uniform(0.0, 0.2)
        self.pattern = (float(d), float(-e), float(-d), float(e))
        self.legs = (
            ("critical", GaussianParam(1.0, 0.0), PeriodicPerturbation((0.5,)),
             (16, 32) if tiny else (128, 256, 512, 1024)),
            ("pattern", GaussianParam(1.0, 2.0), PeriodicPerturbation(self.pattern),
             (32, 64) if tiny else (128, 256, 512)),
        )

    def run_pass(self, tracer):
        ops = []
        for leg, param, seq, sizes in self.legs:
            prev = None
            for m in sizes:
                with tracer.operation():
                    report = gauss_space.frame_bounds(param, seq, [m], interior_fraction=1.0,
                                                      edge_margin=3.0)
                e = report.entries[0]
                problems = []
                if not 0.0 < e.sigma_min <= e.sigma_max:
                    problems.append(f"bad singular values {e.sigma_min}, {e.sigma_max}")
                if prev is not None and leg == "critical" and e.sigma_min / prev > 0.5:
                    problems.append(f"critical ratio {e.sigma_min / prev:.4f} > 0.5")
                if prev is not None and leg == "pattern" and abs(e.sigma_min / prev - 1.0) >= 0.1:
                    problems.append(f"sigma_min moved {100 * abs(e.sigma_min / prev - 1):.1f}% >= 10%")
                prev = e.sigma_min
                output = {"n_rows": e.n_rows, "n_cols": e.n_cols,
                          "sigma_min": e.sigma_min, "sigma_max": e.sigma_max}
                ops.append(Op(f"{self.prefix}/{leg}/{m}", _plain(output), problems, leg == "critical"))
        return ops


class FockGrid:
    """Power-series-side scenarios run in process through the runner."""

    name = "fock-grid"

    def __init__(self, seed, tiny=False):
        self.prefix = self.name + ("-tiny" if tiny else "")
        jitter = float(np.random.default_rng([seed, 3]).uniform(0.0, 1.0))
        g0_step = 0.5 if tiny else 0.05
        out = WORK / "fock-grid"
        self.configs = (
            ScenarioConfig("g0-estimate", seed, out / "g0-estimate", a=0.5, options={
                "bracket": [0.15, 6.0], "step": g0_step, "log_modulus_lo": 0.5 + jitter * g0_step}),
            ScenarioConfig("kernel-asymptotic", seed, out / "kernel-asymptotic", a=0.5, options={
                "bracket": [0.36, 1.80], "max_spread": 10.0, "step": 0.5 if tiny else 0.01}),
            ScenarioConfig("fock-consistency", seed, out / "fock-consistency", a=1.0,
                           tolerances={"gap": 1e-9},
                           options={"n_seeds": 2 if tiny else 20, "b_values": [0.0, 2.0]}),
        )

    def run_pass(self, tracer):
        ops = []
        for config in self.configs:
            with tracer.operation():
                report = experiments.run_scenario(config)
            problems = [] if report.passed else ["scenario thresholds failed"]
            output = {"passed": report.passed, "summary": report.summary}
            ops.append(Op(f"{self.prefix}/{config.scenario}", _plain(output), problems,
                          config.scenario == "kernel-asymptotic"))
        return ops


class ExplicitData:
    """Classifier and densities on long explicit windows, plus sign retrieval."""

    name = "explicit-data"
    # name -> (passes, enumerable, density)
    KNOWN = {
        "perturbed": (True, True, 1.0),
        "stretched": (False, False, 1.0 / 1.1),
        "half-shift": (False, True, 1.0),
    }

    def __init__(self, seed, tiny=False):
        self.prefix = self.name + ("-tiny" if tiny else "")
        n = 512 if tiny else 16384
        rng = np.random.default_rng([seed, 4])
        idx = np.arange(-(n // 2), n - n // 2)
        nodes = {
            "perturbed": idx + rng.uniform(-0.3, 0.3, n),
            "stretched": 1.1 * idx + rng.uniform(-0.05, 0.05, n),
            "half-shift": idx + 0.5 + rng.uniform(-0.02, 0.02, n),
        }
        self.windows = {k: ExplicitWindow(tuple(v), int(idx[0])) for k, v in nodes.items()}
        self.radii = (16.0, 64.0) if tiny else (16.0, 64.0, 256.0, 1024.0)
        window = 8 if tiny else 16
        self.trials = []
        for t in range(3 if tiny else 20):
            trng = np.random.default_rng([seed, t])
            coeffs = CoefficientVector(0, trng.standard_normal(5).astype(complex))
            self.trials.append((coeffs, trng.uniform(-0.2, 0.2, window)))

    def run_pass(self, tracer):
        ops = []
        for kind, win in self.windows.items():
            with tracer.operation():
                verdict = lattice.avdonin_verdict(win)
                dens = lattice.beurling_densities(win, self.radii)
            passes, enumerable, density = self.KNOWN[kind]
            problems = []
            if verdict.passes != passes or verdict.enumerable != enumerable:
                problems.append(f"verdict passes={verdict.passes} enumerable={verdict.enumerable}")
            slack = 2.0 / self.radii[-1]
            if abs(dens.d_plus - density) > slack or abs(dens.d_minus - density) > slack:
                problems.append(f"densities {dens.d_plus}, {dens.d_minus} not near {density}")
            output = {"verdict": verdict.to_json(), "d_plus": dens.d_plus, "d_minus": dens.d_minus}
            ops.append(Op(f"{self.prefix}/verdict/{kind}", _plain(output), problems))
        for t, (coeffs, deltas) in enumerate(self.trials):
            with tracer.operation():
                res = experiments.sign_retrieval_check(1.0, coeffs, experiments.half_grid(deltas, -1))
            problems = [] if res.passes and res.n_survivors == 2 else [
                f"sign trial passes={res.passes} survivors={res.n_survivors}"]
            output = {"passes": res.passes, "n_survivors": res.n_survivors,
                      "max_survivor_residual": res.max_survivor_residual,
                      "dilated_delta_star": res.dilated_delta_star,
                      "dilated_condition_ok": res.dilated_condition_ok}
            ops.append(Op(f"{self.prefix}/sign/{t}", _plain(output), problems))
        return ops


class SeriesExplicit:
    """The power-series grid and the explicit-data checks, one after the other.

    Alone, the power-series half swings with the host's speed more than any
    other workload; run together the two give one steadier pass in which
    either half's speed-up still shows.
    """

    name = "series-explicit"
    in_process = True

    def __init__(self, seed, tiny=False):
        self.parts = (FockGrid(seed, tiny), ExplicitData(seed, tiny))

    def run_pass(self, tracer):
        return [op for part in self.parts for op in part.run_pass(tracer)]


WORKLOADS = {w.name: w for w in (DemoSuite, FrameLadder, SeriesExplicit)}
