"""Config fuzzing: every scenario config either exits 2 with one error line,
or writes report.json and exits 0 or 1 as its ``passed`` says, and no run
emits a warning.

Configs start from a small valid base per scenario (so the runs stay short)
and a derandomized hypothesis search replaces some of its fields with
wrong types, out-of-range numbers, empty lists, single sizes and sizes
past the 65,536 limit.  Values are bounded: a valid config never asks for a
huge grid or frame section.  Every report is read as strict JSON, so a
NaN or Infinity in it fails.  Misspelled keys and non-boolean
``expect_pass`` values are listed cases, each of which must exit 2.

A second search puts one value that is not a number of its field's kind
into a numeric field (``seed``, ``a``, ``b``, ``sizes``, a declared option
or tolerance, or a ``sequence`` field: ``nodes``, ``index_range``,
``offsets``, ``alpha`` or ``beta``; or one entry of a list of them): a
bool, NaN, an infinity, a numeric string, an int past float range or,
where a whole number is read, a float that is not one.  Each must exit 2
with one error line naming the field, before any report is written: a
config error for a config field, the sequence's error for a sequence
field.  A whole number written as a float, such as 16.0, reads as that
number.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_cis.experiments.cli import main as cli_main
from gauss_cis.experiments.scenarios import OPTIONS, TOLERANCES

PERIODIC = {"kind": "periodic", "offsets": [0.2, -0.1]}

# small valid configs; option keys listed here are the ones fuzzed
BASE = {
    "classify": {"sequence": PERIODIC, "options": {"n_max": 4, "margin": 1e-9, "expect_pass": True}},
    "framebound-sweep": {
        "sequence": PERIODIC, "sizes": [8, 16],
        "options": {"interior_fraction": 1.0, "edge_margin": 3.0, "stability_pct": 50.0,
                    "orientation": "interior_rows"},
    },
    "critical-half": {
        "sizes": [8, 16],
        "options": {"max_ratio": 0.9, "interior_fraction": 1.0, "edge_margin": 3.0},
    },
    "kadets-sweep": {
        "sizes": [8, 16],
        "options": {"deltas": [0.1], "critical_deltas": [0.5], "stability_pct": 50.0,
                    "max_ratio": 0.9, "interior_fraction": 1.0, "edge_margin": 3.0},
    },
    "density-demo": {
        "sizes": [8, 16],
        "options": {"alphas": [0.9], "stability_pct": 50.0, "interior_fraction": 1.0,
                    "edge_margin": 0.0},
    },
    "kernel-asymptotic": {
        "a": 0.5,
        "options": {"log_modulus_lo": -2.0, "log_modulus_hi": 2.0, "step": 0.5,
                    "max_spread": 10.0, "bracket": [0.3, 2.0]},
    },
    "g0-estimate": {
        "a": 0.5,
        "options": {"log_modulus_lo": 0.5, "log_modulus_hi": 3.0, "step": 0.5, "n_angles": 4,
                    "exclusion": 0.1, "bracket": [0.1, 10.0]},
    },
    "fock-consistency": {
        "tolerances": {"gap": 1e-9},
        "options": {"n_seeds": 1, "lambdas": [-1.0, 0.5], "b_values": [0.0, 2.0],
                    "coeff_range": [1, 4]},
    },
    "sign-retrieval": {
        "tolerances": {"residual": 1e-8, "match": 1e-8},
        "options": {"trials": 2, "window": 6, "coeff_start": 0, "coeff_count": 3,
                    "delta_amplitude": 0.2, "node_start": -1},
    },
}

ODD = st.sampled_from(
    ["x", None, True, [], {}, [8], [16, 8], [0, 4], ["x"], 0, -1, -0.5, 0.0,
     float("nan"), float("inf"), float("-inf"), [1.0], [5, 1], [-2, 3], [0.5, 0.4]]
)
VALUE = st.one_of(
    ODD,
    st.integers(-3, 12),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.lists(st.floats(-1.0, 1.0, allow_nan=False), max_size=3),
    st.lists(st.integers(-2, 12), max_size=3),
)
# sizes above the limit, alone or after a valid one; each must exit 2 before any work
TOO_LARGE = st.lists(st.integers(65_537, 2**62), min_size=1, max_size=2).map(
    lambda big: [8] + sorted(big))
SEQUENCE = st.one_of(
    st.just(PERIODIC),
    st.just({"kind": "affine", "alpha": 1.0, "beta": 0.5}),
    st.just({"kind": "explicit", "nodes": [0.0, 1.2, 2.0, 2.9]}),
    st.just({"kind": "explicit", "nodes": [0.1]}),
    st.just({"kind": "periodic", "offsets": []}),
    st.just({"kind": "warp"}),
    VALUE,
)


@st.composite
def configs(draw):
    scenario = draw(st.sampled_from(sorted(BASE)))
    config = json.loads(json.dumps(BASE[scenario]))
    config["seed"] = 1
    options = config.setdefault("options", {})
    for key in draw(st.lists(st.sampled_from(sorted(options)), max_size=3, unique=True)):
        options[key] = draw(VALUE)
    top = draw(st.lists(st.sampled_from(["a", "b", "sizes", "sequence", "tolerances"]),
                        max_size=2, unique=True))
    for key in top:
        if key == "sequence":
            config[key] = draw(SEQUENCE)
        elif key == "a":
            config[key] = draw(st.one_of(ODD, st.floats(0.2, 2.0)))
        elif key == "sizes":
            config[key] = draw(st.one_of(VALUE, TOO_LARGE))
        elif key == "tolerances":
            config[key] = draw(st.one_of(VALUE, st.dictionaries(
                st.sampled_from(["gap", "residual", "match"]), VALUE, max_size=2)))
        else:
            config[key] = draw(VALUE)
    return scenario, config


def _not_json(name):
    raise ValueError(f"report.json holds {name}, which strict JSON does not")


@given(configs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_any_config_exits_2_or_reports(case):
    scenario, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main([scenario, "--config", str(path), "--out", str(out)])
        # a warning would print a second stderr line
        assert [str(w.message) for w in caught] == []
        message = err.getvalue()
        if code == 2:
            assert message.startswith("error: ") and message.count("\n") == 1, message
        else:
            assert message == ""
            report = json.loads((out / "report.json").read_text(), parse_constant=_not_json)
            assert code == (0 if report["passed"] else 1)


def _run(tmp, scenario, config):
    """(exit code, stderr) of the CLI on ``config``."""
    path = Path(tmp) / "c.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([scenario, "--config", str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


def _misspell(config, level):
    """The config with one key misspelled at ``level``; returns the bad key."""
    if level == "top":
        config["sizes_typo"] = [8, 16]
        return "sizes_typo"
    if level == "tolerances":
        config["tolerances"] = {"gapp": 1e-9}
        return "gapp"
    key = sorted(config["options"])[0]
    config["options"][key + key[-1]] = config["options"].pop(key)
    return key + key[-1]


@pytest.mark.parametrize("level", ["top", "options", "tolerances"])
@pytest.mark.parametrize("scenario", sorted(BASE))
def test_misspelled_key_exits_2_naming_it(tmp_path, scenario, level):
    config = {**json.loads(json.dumps(BASE[scenario])), "seed": 1}
    bad = _misspell(config, level)
    code, err = _run(tmp_path, scenario, config)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and repr(bad) in err, err
    assert not (tmp_path / "out").exists()


CRITICAL = {"seed": 1, "sequence": {"kind": "periodic", "offsets": [0.5]}}


@pytest.mark.parametrize("value", ["false", "true", "no", 0, 1, None, [], {}])
def test_expect_pass_takes_only_json_booleans(tmp_path, value):
    code, err = _run(tmp_path, "classify", {**CRITICAL, "options": {"expect_pass": value}})
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "'expect_pass'" in err, err


@pytest.mark.parametrize("value, code", [(False, 0), (True, 1)])
def test_expect_pass_is_compared_with_the_verdict(tmp_path, value, code):
    # the critical shift fails the classifier, as an expectation of false says
    assert _run(tmp_path, "classify", {**CRITICAL, "options": {"expect_pass": value}}) == (code, "")


# the fields read as whole numbers; every other numeric field is read as a float
WHOLE = {"seed", "sizes", "n_max", "n_angles", "n_seeds", "coeff_range", "trials", "window",
         "coeff_start", "coeff_count", "node_start", "index_range"}
# the numeric fields of a sequence: (key, the name its error gives, a valid spec)
EXPLICIT = {"kind": "explicit", "nodes": [0.0, 1.2, 2.0, 2.9], "index_range": [-1, 2]}
AFFINE = {"kind": "affine", "alpha": 1.0, "beta": 0.5}
SEQUENCE_FIELDS = [("nodes", "nodes", EXPLICIT), ("index_range", "index_range", EXPLICIT),
                   ("offsets", "offsets", PERIODIC), ("alpha", "grid slope", AFFINE),
                   ("beta", "grid shift", AFFINE)]
NOT_A_NUMBER = st.sampled_from(
    [True, False, float("nan"), float("inf"), float("-inf"), "1.5", "16", "nan", 10**400, -10**400])
NOT_WHOLE = st.floats(-100.0, 100.0).filter(lambda x: not x.is_integer())


def _numeric_fields(scenario):
    """(section, key, error name, valid value) of every numeric field of
    ``scenario``: the valid value is the base config's, else the default."""
    base = BASE[scenario]
    top = {"seed": 1, "a": base.get("a", 1.0), "b": 0.0, "sizes": base.get("sizes", [8, 16])}
    fields = [(None, key, key, value) for key, value in top.items()]
    for section, registry, what in (("options", OPTIONS, "option"),
                                    ("tolerances", TOLERANCES, "tolerance")):
        for key, (default, _) in registry[scenario].items():
            if key not in ("orientation", "expect_pass"):
                value = base.get(section, {}).get(key, default)
                fields.append((section, key, f"{what} {key!r}", value))
    return fields


def _with(config, section, key, value):
    """``config`` with ``key`` of ``section`` (None: the top level) set to ``value``."""
    config = json.loads(json.dumps(config))
    (config.setdefault(section, {}) if section else config)[key] = value
    return config


@st.composite
def misread_fields(draw):
    """(scenario, config, the pattern its one error line starts with)."""
    scenario = draw(st.sampled_from(sorted(BASE)))
    sequence = [("sequence", key, name, spec) for key, name, spec in SEQUENCE_FIELDS]
    section, key, name, valid = draw(st.sampled_from(_numeric_fields(scenario) + sequence))
    config = {**BASE[scenario], "seed": 1}
    expected = f"error: invalid config: {re.escape(name)} "
    if section == "sequence":  # a spec of the field's kind, checked in every scenario
        config, valid = {**config, "sequence": valid}, valid[key]
        expected = f"error: (invalid config: (sequence: .*\\()?)?{re.escape(name)} must be "
    bad = draw(st.one_of(NOT_A_NUMBER, NOT_WHOLE) if key in WHOLE else NOT_A_NUMBER)
    if isinstance(valid, (list, tuple)):
        i = draw(st.integers(0, len(valid) - 1))
        bad = [*valid[:i], bad, *valid[i + 1:]]
    return scenario, _with(config, section, key, bad), expected


@given(misread_fields())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_a_numeric_field_that_is_not_its_kind_of_number_exits_2_naming_it(case):
    scenario, config, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run(tmp, scenario, config)
        assert code == 2 and re.match(expected, err) and err.count("\n") == 1, (config, err)
        assert not (Path(tmp) / "out").exists()


@pytest.mark.parametrize("scenario", sorted(BASE))
def test_whole_numbers_written_as_floats_read_as_those_numbers(tmp_path, scenario):
    config = {**BASE[scenario], "seed": 1}
    for section, key, _, valid in _numeric_fields(scenario):
        if key in WHOLE:
            as_float = ([float(v) for v in valid] if isinstance(valid, (list, tuple))
                        else float(valid))
            config = _with(config, section, key, as_float)
    code, err = _run(tmp_path, scenario, config)
    assert code in (0, 1) and err == ""
    echo = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
    for section, key, _, valid in _numeric_fields(scenario):
        if key in WHOLE:
            value = (echo[section] if section else echo)[key]
            assert value == (list(valid) if isinstance(valid, (list, tuple)) else valid), key
            assert all(type(v) is int for v in (value if isinstance(value, list) else [value]))
