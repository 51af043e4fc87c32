import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gauss_cis import gauss_space
from gauss_cis.errors import (
    BadParameterError,
    ComplexInputError,
    ConfigInvalidError,
    EmptyWindowError,
    UnknownScenarioError,
    WindowTooLargeError,
)
from gauss_cis.experiments import (
    SCENARIOS,
    ScenarioConfig,
    ScenarioOutcome,
    half_grid,
    load_config,
    run_scenario,
    sign_retrieval_check,
)
from gauss_cis.experiments.cli import main as cli_main
from gauss_cis.experiments.runner import _plain
from gauss_cis.experiments.scenarios import OPTIONS, TOLERANCES
from gauss_cis.experiments.sign_retrieval import _surviving_signs
from gauss_cis.gauss_space import CoefficientVector


class TestConfig:
    def test_seed_required(self):
        with pytest.raises(ConfigInvalidError):
            ScenarioConfig(scenario="classify", seed=None, out_dir="out")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigInvalidError):
            ScenarioConfig(scenario="nope", seed=1, out_dir="out")

    def test_bad_tolerance(self):
        with pytest.raises(ConfigInvalidError,
                           match=r"^tolerance 'gap' must be finite and > 0, got 0\.0$"):
            ScenarioConfig(scenario="fock-consistency", seed=1, out_dir="out",
                           tolerances={"gap": 0.0})

    def test_sizes_must_increase(self):
        with pytest.raises(ConfigInvalidError):
            ScenarioConfig(scenario="critical-half", seed=1, out_dir="out",
                           sizes=(32, 16))

    def test_scenario_name_mismatch(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenario": "classify", "seed": 1}))
        with pytest.raises(ConfigInvalidError):
            load_config(path, scenario="critical-half")

    def test_cli_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "out": "x"}))
        cfg = load_config(path, scenario="critical-half", out_dir=tmp_path / "y", seed=9)
        assert cfg.seed == 9
        assert cfg.out_dir == tmp_path / "y"

    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigInvalidError):
            load_config(path, scenario="classify")

    def test_negative_seed(self):
        with pytest.raises(ConfigInvalidError, match="seed must be >= 0, got -1"):
            ScenarioConfig(scenario="classify", seed=-1, out_dir="out")

    def test_config_must_hold_an_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigInvalidError, match="JSON object"):
            load_config(path, scenario="classify")

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_options_and_tolerances_resolve_once(self, scenario):
        cfg = ScenarioConfig(scenario=scenario, seed=1, out_dir="out")
        for given, declared in ((cfg.options, OPTIONS), (cfg.tolerances, TOLERANCES)):
            assert given == {key: default for key, (default, _) in declared[scenario].items()}


class TestRunner:
    def test_numpy_values_are_written_as_plain_json(self):
        # no scenario summary holds a numpy value today; json falls back here
        text = json.dumps({"x": np.float64(0.5), "n": np.arange(2)}, default=_plain)
        assert json.loads(text) == {"x": 0.5, "n": [0, 1]}
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            json.dumps({1}, default=_plain)

    def test_unknown_scenario_error(self, tmp_path):
        cfg = ScenarioConfig(scenario="classify", seed=1, out_dir=tmp_path)
        cfg.scenario = "mystery"  # bypass constructor validation
        with pytest.raises(UnknownScenarioError):
            run_scenario(cfg)

    def test_framebound_sweep_outputs(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="framebound-sweep",
            seed=4,
            out_dir=tmp_path / "out",
            sequence={"kind": "periodic", "offsets": [0.1]},
            sizes=(8, 16),
        )
        report = run_scenario(cfg)
        assert report.passed
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "frame_bounds.csv").exists()
        assert (tmp_path / "out" / "plotdata" / "sigma_min.csv").exists()
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["config"]["seed"] == 4
        assert data["passed"] is True
        for entry in data["summary"]["checks"][0]["report"]["entries"]:
            assert 0.0 <= entry["tail_bound"] < 1e-14
        header = (tmp_path / "out" / "frame_bounds.csv").read_text().splitlines()[0]
        assert header == "size,n_rows,n_cols,sigma_min,sigma_max"

    @pytest.mark.parametrize("scenario, table", [("kadets-sweep", "kadets"),
                                                 ("density-demo", "density")])
    def test_sweep_summaries_carry_tail_bounds(self, tmp_path, scenario, table):
        cfg = ScenarioConfig(scenario=scenario, seed=4, out_dir=tmp_path / "out", sizes=(8, 16))
        run_scenario(cfg)
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        for check in data["summary"]["checks"]:
            tail_bounds = [e["tail_bound"] for e in check["report"]["entries"]]
            assert len(tail_bounds) == 2
            assert all(0.0 <= t < 1e-14 for t in tail_bounds)
        header = (tmp_path / "out" / f"{table}.csv").read_text().splitlines()[0]
        assert "tail_bound" not in header

    def test_sign_retrieval_summary_counts_the_search(self, tmp_path):
        cfg = ScenarioConfig(scenario="sign-retrieval", seed=3, out_dir=tmp_path / "out",
                             options={"trials": 4, "window": 10})
        assert run_scenario(cfg).passed
        summary = json.loads((tmp_path / "out" / "report.json").read_text())["summary"]
        assert summary["patterns_total"] == 4 * 2**10
        assert 0 < summary["prefixes_checked"] < summary["patterns_total"]
        header = (tmp_path / "out" / "sign_retrieval.csv").read_text().splitlines()[0]
        assert header == ("trial,passes,n_survivors,max_survivor_residual,"
                          "dilated_delta_star,dilated_condition_ok")

    def test_sequence_required(self, tmp_path):
        cfg = ScenarioConfig(scenario="classify", seed=1, out_dir=tmp_path)
        with pytest.raises(ConfigInvalidError):
            run_scenario(cfg)


DEMO_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))


def _reference_cell(value) -> str:
    """The writer's original per-cell rule, kept as the oracle for the
    column-at-a-time writer."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _reference_csvs(outcome) -> dict:
    """Relative path -> CSV text of the outcome's table and plot, cell by cell."""
    def csv(names):
        lines = [",".join(names)]
        lines += [",".join(_reference_cell(value) for value in row)
                  for row in zip(*(outcome.columns[n] for n in names))]
        return "\n".join(lines) + "\n"

    texts = {f"{outcome.table}.csv": csv(tuple(outcome.columns))}
    if outcome.plot:
        texts[f"plotdata/{outcome.plot[0]}.csv"] = csv(outcome.plot[1])
    return texts


def _assert_written_as_reference(out, report, outcome):
    expected = _reference_csvs(outcome)
    assert [p.relative_to(out).as_posix() for p in report.csv_paths] == list(expected)
    for rel, text in expected.items():
        assert (out / rel).read_text(encoding="utf-8") == text, rel
    assert json.loads((out / "report.json").read_text())["csv_files"] == list(expected)


class TestWriter:
    @pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
    def test_demo_csvs_equal_the_per_cell_reference(self, tmp_path, monkeypatch, path):
        config = load_config(path, json.loads(path.read_text())["scenario"], out_dir=tmp_path)
        outcomes = []
        scenario = SCENARIOS[config.scenario]

        def capture(c):
            outcomes.append(scenario(c))
            return outcomes[-1]

        monkeypatch.setitem(SCENARIOS, config.scenario, capture)
        report = run_scenario(config)
        _assert_written_as_reference(tmp_path, report, outcomes[0])

    def test_nine_demo_configs(self):
        assert len(DEMO_CONFIGS) == 9

    @pytest.mark.parametrize("n_rows", [0, 1, 11])
    def test_edge_values_equal_the_per_cell_reference(self, tmp_path, monkeypatch, n_rows):
        edge = [True, np.bool_(False), np.int64(-7), None, float("nan"), float("inf"),
                float("-inf"), -0.0, 1e-300, np.float32(0.1), np.float64(2.5)]
        outcome = ScenarioOutcome(
            passed=True, summary={}, table="edge",
            columns={"index": list(range(n_rows)), "edge": edge[:n_rows],
                     "label": ["x" if i % 2 else None for i in range(n_rows)],
                     "reversed": [edge[-1 - i] for i in range(n_rows)]},
            plot=("edge", ("reversed", "index")),
        )
        monkeypatch.setitem(SCENARIOS, "classify", lambda c: outcome)
        report = run_scenario(ScenarioConfig(scenario="classify", seed=1, out_dir=tmp_path))
        _assert_written_as_reference(tmp_path, report, outcome)


class TestCli:
    def test_import_loads_neither_scipy_nor_mpmath(self):
        # every CLI process pays for what importing the CLI loads; scipy
        # alone is about 0.3 s and 28 MB of it
        src = Path(gauss_space.__file__).resolve().parents[1]
        probe = ("import sys, gauss_cis.experiments.cli; "
                 "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))")
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_unknown_scenario_exit_2(self, capsys):
        assert cli_main(["warp", "--config", "missing.json"]) == 2

    def test_unknown_scenario_names_the_choices(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1}))
        assert cli_main(["warp", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'warp'; choose from: " + ", ".join(SCENARIOS) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, config", [
        ("framebound-sweep", {"sizes": [-5, 16],
                              "sequence": {"kind": "periodic", "offsets": [0.3]}}),
        ("critical-half", {"sizes": [0, 16]}),
    ])
    def test_size_below_one_exit_2(self, tmp_path, capsys, scenario, config):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, **config}))
        assert cli_main([scenario, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        size = config["sizes"][0]
        assert capsys.readouterr().err == f"error: invalid config: sizes must be >= 1, got {size}\n"
        assert not (tmp_path / "out").exists()

    def test_string_and_bool_nodes_exit_2_naming_them(self, tmp_path, capsys):
        # "0.1" and true are not nodes, though float() reads them as 0.1 and 1.0
        path = Path(__file__).parent / "data" / "classify_bool_nodes.json"
        assert cli_main(["classify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: sequence: ") and err.count("\n") == 1
        assert "nodes must be real numbers, got '0.1'" in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert cli_main(["classify", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unwritable_out_exit_2_naming_it(self, tmp_path, capsys):
        # exit 1 is kept for a failed threshold, so an --out under a regular
        # file is a config error, not a traceback
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        config = Path(__file__).parents[1] / "demos" / "configs" / "classify_periodic.json"
        assert cli_main(["classify", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config: cannot write the report to {out}: ")
        assert err.count("\n") == 1

    def test_threshold_failure_exit_1_report_written(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "seed": 1,
            "sequence": {"kind": "periodic", "offsets": [0.5]},
            "options": {"expect_pass": True},
        }))
        out = tmp_path / "out"
        assert cli_main(["classify", "--config", str(path), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["summary"]["verdict"]["passes"] is False

    def test_pass_exit_0(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "seed": 1,
            "sequence": {"kind": "affine", "alpha": 1.0, "beta": 0.0},
            "options": {"expect_pass": True},
        }))
        assert cli_main([
            "classify", "--config", str(path), "--out", str(tmp_path / "out"),
        ]) == 0


@pytest.mark.parametrize("form", ["periodic", "affine", "explicit", "explicit_far"])
def test_three_forms_of_the_three_quarter_shift_pass_through_the_cli(tmp_path, form):
    # {n + 3/4} re-enumerates as {m - 1/4}, whichever model describes it
    path = Path(__file__).parent / "data" / f"classify_shift_{form}.json"
    out = tmp_path / "out"
    assert cli_main(["classify", "--config", str(path), "--out", str(out)]) == 0
    verdict = json.loads((out / "report.json").read_text())["summary"]["verdict"]
    assert verdict["passes"] and verdict["best_window"]["N"] == 1
    assert verdict["best_window"]["delta_star"] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("form", ["periodic", "explicit"])
def test_both_forms_of_a_pattern_averaging_past_one_half_pass_through_the_cli(tmp_path, form):
    # (0.7, 0.7, 0.7, 0.7, -0.1) averages 0.54 over a period, 0.46 from 1
    path = Path(__file__).parent / "data" / f"classify_pattern_{form}.json"
    out = tmp_path / "out"
    assert cli_main(["classify", "--config", str(path), "--out", str(out)]) == 0
    verdict = json.loads((out / "report.json").read_text())["summary"]["verdict"]
    assert verdict["passes"] and verdict["best_window"]["N"] == 5
    assert verdict["best_window"]["delta_star"] == pytest.approx(0.46, abs=1e-12)


def _exhaustive_survivors(a, coeffs, seq, residual_tol=1e-8, match_tol=1e-8):
    """Oracle: every one of the 2^W sign patterns solved in the least-squares
    sense, as sign_retrieval_check did before its pruned search."""
    lam = seq.positions()
    w = len(lam)
    c = coeffs.values.real.astype(float)
    n = coeffs.indices.astype(float)
    mat = np.exp(-a * (lam[:, None] - n[None, :]) ** 2)
    samples = np.abs(mat @ c)
    q, r = np.linalg.qr(mat)
    signs = 1.0 - 2.0 * ((np.arange(2**w)[:, None] >> np.arange(w)[None, :]) & 1)
    targets = signs * samples[None, :]
    proj = targets @ q
    resid = np.linalg.norm(targets - proj @ q.T, axis=1)
    scale = np.linalg.norm(samples)
    rel = resid / scale if scale > 0.0 else resid
    surviving = np.nonzero(rel < residual_tol)[0]
    sols = np.linalg.solve(r, proj[surviving].T).T if len(surviving) else np.empty((0, len(c)))
    cnorm = np.linalg.norm(c)
    tol = match_tol * max(cnorm, 1.0)
    matched = all(min(np.linalg.norm(d - c), np.linalg.norm(d + c)) <= tol for d in sols)
    if cnorm > 0.0 and len(sols):
        has_plus = any(np.linalg.norm(d - c) <= tol for d in sols)
        has_minus = any(np.linalg.norm(d + c) <= tol for d in sols)
        matched = matched and has_plus and has_minus
    return SimpleNamespace(
        mat=mat,
        q=q,
        samples=samples,
        patterns={tuple(p) for p in signs[surviving]},
        n_survivors=len(surviving),
        passes=bool(matched and len(surviving) > 0),
        matched_up_to_sign=bool(matched),
        max_survivor_residual=float(np.max(rel[surviving])) if len(surviving) else float("nan"),
    )


def _assert_matches_oracle(a, coeffs, seq):
    oracle = _exhaustive_survivors(a, coeffs, seq)
    signs, _, _ = _surviving_signs(oracle.mat, oracle.q, oracle.samples, 1e-8)
    assert {tuple(p) for p in signs} == oracle.patterns
    if len(oracle.samples) == 1:
        # the verdict on the doubled nodes needs two of them
        with pytest.raises(EmptyWindowError):
            sign_retrieval_check(a, coeffs, seq)
        return None
    res = sign_retrieval_check(a, coeffs, seq)
    assert res.n_survivors == oracle.n_survivors
    assert res.passes == oracle.passes
    assert res.matched_up_to_sign == oracle.matched_up_to_sign
    if oracle.n_survivors:
        assert abs(res.max_survivor_residual - oracle.max_survivor_residual) <= 1e-12
    else:
        assert np.isnan(res.max_survivor_residual)
    return res


def _benchmark_shape_trial(seed, t, window=16):
    """Five coefficients on a half-grid of ``window`` perturbed nodes."""
    rng = np.random.default_rng([seed, t])
    coeffs = CoefficientVector(0, rng.standard_normal(5).astype(complex))
    return coeffs, half_grid(rng.uniform(-0.2, 0.2, window), -1)


class TestSignRetrieval:
    def test_half_grid_positions(self):
        seq = half_grid([0.0, 0.1, -0.1], start_index=-1)
        assert np.allclose(seq.positions(), [-0.5, 0.1, 0.4])

    def test_single_gaussian_regular_grid(self):
        seq = half_grid(np.zeros(10), start_index=-5)
        res = sign_retrieval_check(1.0, CoefficientVector.basis(0), seq)
        assert res.passes
        assert res.matched_up_to_sign
        assert res.dilated_condition_ok

    def test_zero_function_trivially_unique(self):
        seq = half_grid(np.zeros(8), start_index=-4)
        res = sign_retrieval_check(1.0, CoefficientVector(0, [0.0]), seq)
        assert res.passes
        assert res.n_survivors == 2**8

    def test_global_sign_symmetry(self):
        rng = np.random.default_rng(31)
        vals = rng.standard_normal(4)
        deltas = rng.uniform(-0.15, 0.15, 10)
        seq = half_grid(deltas, start_index=-1)
        plus = sign_retrieval_check(1.0, CoefficientVector(0, vals.astype(complex)), seq)
        minus = sign_retrieval_check(1.0, CoefficientVector(0, -vals.astype(complex)), seq)
        assert plus.passes and minus.passes
        assert plus.n_survivors == minus.n_survivors

    def test_complex_input_rejected(self):
        seq = half_grid(np.zeros(8), start_index=-4)
        with pytest.raises(ComplexInputError):
            sign_retrieval_check(1.0, CoefficientVector(0, [1.0 + 1j]), seq)

    def test_window_too_large(self):
        seq = half_grid(np.zeros(17), start_index=-8)
        with pytest.raises(WindowTooLargeError):
            sign_retrieval_check(1.0, CoefficientVector.basis(0), seq)

    def test_empty_coefficients_rejected(self):
        seq = half_grid(np.zeros(8), start_index=-4)
        with pytest.raises(BadParameterError, match="empty coefficient vector"):
            sign_retrieval_check(1.0, CoefficientVector(0, []), seq)

    @pytest.mark.parametrize("name", ["residual_tol", "match_tol"])
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
    def test_bad_tolerance_rejected(self, name, tol):
        # once these read passes false with 0 survivors, and no error
        seq = half_grid(np.zeros(8), start_index=-4)
        with pytest.raises(BadParameterError, match=f"{name} must be finite and > 0"):
            sign_retrieval_check(1.0, CoefficientVector(0, [1.0, 0.5]), seq, **{name: tol})

    def test_underdetermined_rejected(self):
        seq = half_grid(np.zeros(3), start_index=0)
        coeffs = CoefficientVector(0, np.ones(4))
        with pytest.raises(BadParameterError):
            sign_retrieval_check(1.0, coeffs, seq)

    def test_seeded_perturbed_trials(self):
        for t in range(5):
            rng = np.random.default_rng([2025, t])
            vals = rng.standard_normal(5)
            deltas = rng.uniform(-0.2, 0.2, 12)
            seq = half_grid(deltas, start_index=-1)
            res = sign_retrieval_check(1.0, CoefficientVector(0, vals.astype(complex)), seq)
            assert res.passes, f"trial {t} failed"
            assert res.dilated_condition_ok

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        window=st.integers(1, 12),
        data=st.data(),
        amplitude=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pruned_search_matches_exhaustive(self, window, data, amplitude, seed):
        count = data.draw(st.integers(1, window), label="coeff_count")
        rng = np.random.default_rng(seed)
        coeffs = CoefficientVector(0, rng.standard_normal(count).astype(complex))
        deltas = rng.uniform(-amplitude, amplitude, window)
        assume(np.all(np.diff(np.arange(window) / 2.0 + deltas) > 0.0))
        _assert_matches_oracle(1.0, coeffs, half_grid(deltas, -1))

    def test_benchmark_shape_matches_exhaustive(self):
        for t in range(12):
            res = _assert_matches_oracle(1.0, *_benchmark_shape_trial(771, t))
            assert res.passes and res.n_survivors == 2
            assert res.prefixes_checked < 2**16

    def test_zero_vector_keeps_every_pattern(self):
        seq = half_grid(np.zeros(12), start_index=-2)
        res = _assert_matches_oracle(1.0, CoefficientVector(0, np.zeros(5)), seq)
        assert res.n_survivors == 2**12
        # nothing is pruned: every prefix past the five columns is checked
        assert res.prefixes_checked == sum(2 ** (k - 1) for k in range(6, 12)) + 2**12

    def test_zero_sample_doubles_survivors(self):
        # f = g_0 - g_1 vanishes exactly at the node 1/2, so its sign is free
        seq = half_grid(np.zeros(8), start_index=-2)
        assert 0.5 in seq.positions()
        res = _assert_matches_oracle(1.0, CoefficientVector(0, [1.0, -1.0]), seq)
        assert res.passes and res.n_survivors == 4

    def test_survivors_come_in_sign_pairs(self):
        # why the verdict needs no check that both signs survive: a pattern
        # and its negation have bitwise-equal residuals, so they survive together
        paired = 0
        for t in range(60):
            rng = np.random.default_rng([2026, t])
            vals = rng.standard_normal(int(rng.integers(1, 6)))
            vals[rng.random(len(vals)) < (1.0 if t % 10 == 0 else 0.3)] = 0.0
            window = int(rng.integers(len(vals), 13))
            seq = half_grid(rng.uniform(-0.2, 0.2, window), -1)
            oracle = _exhaustive_survivors(1.0, CoefficientVector(0, vals), seq)
            signs, rel, _ = _surviving_signs(oracle.mat, oracle.q, oracle.samples, 1e-8)
            residual = {tuple(p): r for p, r in zip(signs, rel)}
            assert len(residual) == len(signs)
            for p, r in residual.items():
                assert residual[tuple(-np.array(p))].tobytes() == r.tobytes()
            paired += len(signs) > 0
        assert paired > 50

    def test_window_16_has_no_cliff(self):
        trials = [_benchmark_shape_trial(772, t) for t in range(20)]
        start = time.perf_counter()
        for coeffs, seq in trials:
            assert sign_retrieval_check(1.0, coeffs, seq).passes
        assert time.perf_counter() - start < 0.2


# values that, if they were read, would pass the critical shift n + 1/2,
# write NaN or Infinity into report.json or ask for gigabytes; each with
# what its error names
OUT_OF_RANGE = [
    ("classify", {"sequence": {"kind": "periodic", "offsets": [0.5]}, "options": {"margin": -0.1}},
     "option 'margin'"),
    ("classify", {"sequence": {"kind": "explicit", "nodes": [0.1, 1.0, 2.1, 2.9]},
                  "options": {"n_max": 0}}, "option 'n_max'"),
    ("kernel-asymptotic", {"options": {"max_spread": float("nan")}}, "option 'max_spread'"),
    ("kernel-asymptotic", {"options": {"bracket": [float("nan"), 2.0]}}, "option 'bracket'"),
    ("g0-estimate", {"options": {"bracket": [1.0, float("inf")]}}, "option 'bracket'"),
    ("g0-estimate", {"options": {"bracket": [2.0, 1.0]}}, "option 'bracket'"),
    ("fock-consistency", {"tolerances": {"gap": float("inf")}}, "tolerance 'gap'"),
    ("density-demo", {"sequence": float("nan")}, "sequence must be a JSON object"),
    ("classify", {"sequence": {"kind": "periodic", "offsets": [0.1], "x": float("nan")}},
     "sequence key 'x'"),
    # about 0.6 KB a coefficient with the 11 default lambdas: [1, 10**7] would take 6 GB
    ("fock-consistency", {"options": {"coeff_range": [1, 100_000]}}, "option 'coeff_range'"),
]

# values of the wrong type or form that were read as something else (2.5 as
# 2, true as 1.0) or accepted as NaN; each with the key its error names
MISREAD = [
    ("classify", {"seed": 2.5, "sequence": {"kind": "periodic", "offsets": [0.1]}}, "seed must be"),
    ("classify", {"a": True, "sequence": {"kind": "periodic", "offsets": [0.1]}}, "a must be"),
    ("framebound-sweep", {"sizes": [16, 32.7], "sequence": {"kind": "periodic", "offsets": [0.1]}},
     "sizes must be"),
    ("sign-retrieval", {"options": {"trials": 2.9}}, "option 'trials' must be"),
    ("sign-retrieval", {"options": {"node_start": 1.5}}, "option 'node_start' must be"),
    ("sign-retrieval", {"options": {"coeff_start": 0.5}}, "option 'coeff_start' must be"),
    ("classify", {"sequence": {"kind": "explicit", "nodes": [0.1, 1.0, 2.1, 2.9]},
                  "options": {"n_max": 3.5}}, "option 'n_max' must be"),
    ("fock-consistency", {"options": {"n_seeds": True}}, "option 'n_seeds' must be"),
    ("kernel-asymptotic", {"options": {"bracket": [True, 2]}}, "option 'bracket' must be"),
    ("kadets-sweep", {"sizes": [8, 16], "options": {"stability_pct": float("nan")}},
     "option 'stability_pct' must be"),
    ("classify", {"sequence": {"kind": "explicit", "nodes": ["0.1", True, "2.1", 2.9]}},
     "nodes must be"),
]


@pytest.mark.parametrize(
    "scenario, config",
    [
        ("framebound-sweep", {"sizes": ["x"], "sequence": {"kind": "periodic", "offsets": [0.1]}}),
        ("classify", {"a": "one", "sequence": {"kind": "periodic", "offsets": [0.1]}}),
        ("classify", {"sequence": [1, 2]}),
        ("sign-retrieval", {"options": {"trials": "many"}}),
        ("classify", {"sequence": {"kind": "explicit", "nodes": ["x", 1.0]}}),
        ("kadets-sweep", {"options": {"deltas": 0.3}}),
        ("g0-estimate", {"options": {"bracket": [1.0]}}),
        ("g0-estimate", {"options": {"step": 0}}),
        ("g0-estimate", {"options": {"step": -0.1}}),
        ("kernel-asymptotic", {"options": {"step": 0}}),
        ("kernel-asymptotic", {"options": {"step": -0.1}}),
        ("kernel-asymptotic", {"options": {"step": float("nan")}}),
        ("kernel-asymptotic", {"options": {"log_modulus_lo": 5, "log_modulus_hi": 1}}),
        ("g0-estimate", {"options": {"exclusion": 1e9}}),
        ("g0-estimate", {"options": {"exclusion": 0}}),
        ("g0-estimate", {"options": {"n_angles": 0}}),
        ("fock-consistency", {"options": {"n_seeds": 0}}),
        ("sign-retrieval", {"options": {"window": -1}}),
        ("sign-retrieval", {"options": {"coeff_count": -2}}),
        ("sign-retrieval", {"options": {"delta_amplitude": -0.2}}),
        ("sign-retrieval", {"options": {"trials": -1}}),
        ("fock-consistency", {"options": {"lambdas": []}}),
        ("fock-consistency", {"options": {"b_values": []}}),
        ("fock-consistency", {"options": {"coeff_range": [5, 1]}}),
        ("framebound-sweep", {"sizes": [8], "sequence": {"kind": "periodic", "offsets": [0.1]}}),
        ("critical-half", {"sizes": [8]}),
        ("kadets-sweep", {"sizes": [8]}),
        ("density-demo", {"sizes": [8]}),
        ("sign-retrieval", {"options": {"window": 1, "coeff_count": 1}}),
        ("sign-retrieval", {"a": float("inf")}),
        ("g0-estimate", {"options": {"log_modulus_hi": float("nan")}}),
        ("kernel-asymptotic", {"options": {"step": 1e-9}}),
        ("critical-half", {"options": {"interior_fraction": float("inf")}}),
        ("critical-half", {"sizes": [1024, 65537]}),
        ("kernel-asymptotic", {"options": {"log_modulus_lo": 2.0, "log_modulus_hi": 2.0, "step": 1e-89}}),
        ("framebound-sweep", {"sizes": [16, 10**9], "sequence": {"kind": "periodic", "offsets": [0.1]}}),
        ("kadets-sweep", {"sizes": [8, 16], "options": {"deltas": [], "critical_deltas": []}}),
        ("density-demo", {"sizes": [8, 16], "options": {"alphas": []}}),
        ("classify", {"sequence": {"kind": "explicit", "nodes": [0.0, 1.0], "index_range": [0]}}),
        ("classify", {"sequence": {"kind": "explicit", "nodes": [0.0, 1.0], "index_range": []}}),
        ("classify", {"sequence": {"kind": "explicit", "nodes": [0.0, 1.0, 2.0],
                                   "index_range": [0, 2, 9]}}),
        ("classify", {"seed": -1, "sequence": {"kind": "periodic", "offsets": [0.1]}}),
        ("critical-half", {"options": {"edge_margin": float("nan")}}),
        ("critical-half", {"sizes": [16, 32], "options": {"edge_margin": 1e6}}),
        ("classify", {"sequence": {"kind": "affine", "beta": float("inf")}}),
        ("classify", {"sequence": {"kind": "periodic", "offsets": []}}),
        ("classify", {"sequence": {"kind": "periodic", "offsets": [float("nan")]}}),
        ("classify", {"sequence": {"kind": "periodic"}}),
        ("classify", {"sequence": {"kind": "explicit", "nodes": []}}),
        ("classify", {"sequence": {"kind": "explicit", "nodes": [0.0, float("inf")]}}),
        ("classify", {"sequence": {"kind": "explicit"}}),
        ("classify", {"sequence": {"kind": "explicit", "nodes": [0.0, 1.0], "index_range": [0, 5]}}),
        *[(scenario, config) for scenario, config, _ in OUT_OF_RANGE + MISREAD],
    ],
)
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, scenario, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, **config}))
    code = cli_main([scenario, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, argv", [("[1, 2]", []), ('{"seed": 1}', ["--seed", "-1"])],
                         ids=["array", "negative-seed-flag"])
def test_malformed_config_file_or_seed_flag_exits_2(tmp_path, capsys, text, argv):
    path = tmp_path / "c.json"
    path.write_text(text)
    code = cli_main(["classify", "--config", str(path), "--out", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "scenario, config, named",
    [
        ("fock-consistency", {"options": {"lambdas": []}}, "'lambdas'"),
        ("fock-consistency", {"options": {"b_values": []}}, "'b_values'"),
        ("fock-consistency", {"options": {"coeff_range": [5, 1]}}, "'coeff_range'"),
        ("kadets-sweep", {"sizes": [8]}, "at least two sizes"),
        ("density-demo", {"sizes": [8]}, "at least two sizes"),
        ("framebound-sweep", {"sizes": [8], "sequence": {"kind": "periodic", "offsets": [0.1]}},
         "at least two sizes"),
        ("sign-retrieval", {"options": {"window": 1, "coeff_count": 1}}, "'window'"),
        ("critical-half", {"sizes": [1024, 65537]}, "sizes must be at most 65536"),
        ("kadets-sweep", {"options": {"deltas": [], "critical_deltas": []}}, "'critical_deltas'"),
        ("density-demo", {"options": {"alphas": []}}, "'alphas'"),
        *OUT_OF_RANGE,
        *MISREAD,
    ],
)
def test_input_errors_name_what_is_wrong(tmp_path, capsys, scenario, config, named):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, **config}))
    assert cli_main([scenario, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and named in err, err


def test_bad_option_value_fails_before_any_frame_bounds(tmp_path, capsys, monkeypatch):
    # the value is read at the end of the sweep, but parsed when the config is
    calls = []
    monkeypatch.setattr(gauss_space, "frame_bounds", lambda *args, **kw: calls.append(args))
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "seed": 1, "sizes": [1024, 4096], "sequence": {"kind": "periodic", "offsets": [0.1]},
        "options": {"stability_pct": "x"},
    }))
    code = cli_main(["framebound-sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and calls == []
    assert err.startswith("error: ") and err.count("\n") == 1 and "'stability_pct'" in err
    assert not (tmp_path / "out").exists()


# frame-bound scenario -> (table, label columns, config fields beyond the seed)
FRAME_SCENARIOS = {
    "framebound-sweep": ("frame_bounds", (), {"sequence": {"kind": "periodic", "offsets": [0.5]}}),
    "critical-half": ("frame_bounds", (), {}),
    "kadets-sweep": ("kadets", ("delta",), {}),
    "density-demo": ("density", ("alpha", "orientation"), {}),
}


@pytest.mark.parametrize("scenario", FRAME_SCENARIOS)
def test_frame_legs_share_one_table_and_check_shape(tmp_path, scenario):
    table, labels, fields = FRAME_SCENARIOS[scenario]
    cfg = ScenarioConfig(scenario=scenario, seed=4, out_dir=tmp_path, sizes=(8, 16), **fields)
    outcome = SCENARIOS[scenario](cfg)
    checks = outcome.summary["checks"]
    assert outcome.table == table
    assert tuple(outcome.columns) == (*labels, "size", "n_rows", "n_cols", "sigma_min",
                                      "sigma_max")
    # the table is the legs' report entries, leg by leg and size by size
    assert list(zip(*outcome.columns.values())) == [
        (*(check[k] for k in labels), e["size"], e["n_rows"], e["n_cols"], e["sigma_min"],
         e["sigma_max"])
        for check in checks for e in check["report"]["entries"]
    ]
    for check in checks:
        assert {*labels, "kind", "ok", "report"} <= check.keys()
        assert ("ratios" if check["kind"] == "decay" else "stability_pct") in check
        assert [e["size"] for e in check["report"]["entries"]] == [8, 16]
    assert outcome.passed == all(check["ok"] for check in checks)
    # report.json records every declared option, defaults included
    run_scenario(cfg)
    options = json.loads((tmp_path / "report.json").read_text())["config"]["options"]
    assert options.keys() == OPTIONS[scenario].keys()
    assert options["interior_fraction"] == OPTIONS[scenario]["interior_fraction"][0]


@pytest.mark.parametrize("scenario", FRAME_SCENARIOS)
def test_underflowed_sections_fail_their_check_without_a_traceback(tmp_path, capsys, scenario):
    # at a = 3000 the entries of a shift of 1/2 underflow, so sigma_min is 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, "a": 3000, "sizes": [16, 32],
                                **FRAME_SCENARIOS[scenario][2]}))
    code = cli_main([scenario, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    text = (tmp_path / "out" / "report.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    failed = [c for c in json.loads(text)["summary"]["checks"] if not c["ok"]]
    assert failed
    for check in failed:
        assert None in check.get("ratios", [check.get("stability_pct")])
        assert check["report"]["entries"][0]["sigma_min"] == 0.0


def test_g0_zero_set_keeps_at_least_one_zero(tmp_path, capsys):
    # a grid far below the first zero still gets one zero to measure distances
    # to; every ratio there underflows to 0, so the run fails (exit 1, not a
    # config error) and still writes its report
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, "a": 0.5, "options": {
        "log_modulus_lo": -60.0, "log_modulus_hi": -50.0}}))
    assert cli_main(["g0-estimate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "error" not in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert not report["passed"]
    assert report["summary"]["n_points"] == 101 * 8
    assert report["summary"]["ratio_max"] == 0.0
