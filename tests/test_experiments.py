import json

import numpy as np
import pytest

from gauss_cis.errors import (
    BadParameterError,
    ComplexInputError,
    ConfigInvalidError,
    UnknownScenarioError,
    WindowTooLargeError,
)
from gauss_cis.experiments import (
    ScenarioConfig,
    half_grid,
    load_config,
    run_scenario,
    sign_retrieval_check,
)
from gauss_cis.experiments.cli import main as cli_main
from gauss_cis.gauss_space import CoefficientVector


class TestConfig:
    def test_seed_required(self):
        with pytest.raises(ConfigInvalidError):
            ScenarioConfig(scenario="classify", seed=None, out_dir="out")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigInvalidError):
            ScenarioConfig(scenario="nope", seed=1, out_dir="out")

    def test_bad_tolerance(self):
        with pytest.raises(ConfigInvalidError):
            ScenarioConfig(scenario="classify", seed=1, out_dir="out",
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
        cfg = load_config(path, scenario="critical-half", out_dir=tmp_path / "y",
                          seed=9, threads=2)
        assert cfg.seed == 9 and cfg.threads == 2
        assert cfg.out_dir == tmp_path / "y"

    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigInvalidError):
            load_config(path, scenario="classify")


class TestRunner:
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
        for entry in data["summary"]["report"]["entries"]:
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
            assert len(check["tail_bounds"]) == 2
            assert all(0.0 <= t < 1e-14 for t in check["tail_bounds"])
        header = (tmp_path / "out" / f"{table}.csv").read_text().splitlines()[0]
        assert "tail_bound" not in header

    def test_sequence_required(self, tmp_path):
        cfg = ScenarioConfig(scenario="classify", seed=1, out_dir=tmp_path)
        with pytest.raises(ConfigInvalidError):
            run_scenario(cfg)

    def test_threads_do_not_change_results(self, tmp_path):
        outs = []
        for threads, name in ((1, "one"), (4, "four")):
            cfg = ScenarioConfig(
                scenario="fock-consistency",
                seed=21,
                out_dir=tmp_path / name,
                options={"n_seeds": 2},
                threads=threads,
            )
            run_scenario(cfg)
            outs.append((tmp_path / name / "consistency.csv").read_bytes())
        assert outs[0] == outs[1]


class TestCli:
    def test_unknown_scenario_exit_2(self, capsys):
        assert cli_main(["warp", "--config", "missing.json"]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert cli_main(["classify", "--config", str(tmp_path / "nope.json")]) == 2

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
