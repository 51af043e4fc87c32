"""Scenario configuration: JSON loading, validation, CLI overrides.

A scenario declares its options and tolerances alike, each as
``(default, parser)``; one reader, ``_read_declared``, resolves both.
Every number a config holds outside its ``sequence`` is read by the
readers of ``errors``, with ConfigInvalidError naming its key.
"""

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..errors import ConfigInvalidError, coerce, real, whole
from ..gauss_space import _sizes
from ..lattice import build_sequence
from .scenarios import OPTIONS, SCENARIOS, TOLERANCES

SCENARIO_NAMES = tuple(SCENARIOS)
# largest truncation size M a config may ask for; a frame-bound section at
# M has about 2M rows, and M = 65,536 takes seconds
MAX_SIZE = 65_536


@dataclass
class ScenarioConfig:
    """Validated scenario configuration.

    ``seed`` is mandatory so that every run is reproducible; scenario
    specific knobs live in ``options``.  After construction ``options`` and
    ``tolerances`` hold every one the scenario declares: a given value read
    through its declared parser, else the default.  A seed that is not a
    whole number >= 0, an ``a`` that is not finite and > 0, a ``b`` that
    is not finite, sizes that are not increasing whole numbers from 1 to
    ``MAX_SIZE``, fields of the wrong type or form, values their parser
    rejects, and options or tolerances the scenario does not declare raise
    ConfigInvalidError naming the field; a malformed ``sequence`` raises
    its error from ``build_sequence``, whether or not the scenario reads
    one.
    """

    scenario: str
    seed: int
    out_dir: Path = Path("out")
    a: float = 1.0
    b: float = 0.0
    sequence: dict | None = None
    sizes: tuple = ()
    tolerances: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIO_NAMES:
            names = ", ".join(SCENARIO_NAMES)
            raise ConfigInvalidError(f"unknown scenario {self.scenario!r}; choose from: {names}")
        self.seed = whole(self.seed, "seed", ge=0, error=ConfigInvalidError)
        self.a = real(self.a, "a", gt=0, error=ConfigInvalidError)
        self.b = real(self.b, "b", error=ConfigInvalidError)
        self.sizes = _sizes(self.sizes, ConfigInvalidError)
        if any(m > MAX_SIZE for m in self.sizes):
            raise ConfigInvalidError(f"sizes must be at most {MAX_SIZE}, got {max(self.sizes)}")
        self.tolerances = _read_declared(self.tolerances, TOLERANCES, self.scenario, "tolerance")
        self.options = _read_declared(self.options, OPTIONS, self.scenario, "option")
        if self.sequence is not None:
            build_sequence(self.sequence)  # malformed even where the scenario reads none
        self.out_dir = coerce(Path, self.out_dir, "out")

    def echo(self) -> dict:
        """Every field but the output directory, as report.json records it:
        every effective option and tolerance, defaults included.  An option
        that is a float but not finite, such as framebound-sweep's default
        ``stability_pct`` of inf (no bound), is recorded as null, so the
        report stays strict JSON."""
        options = {k: None if isinstance(v, float) and not math.isfinite(v) else v
                   for k, v in self.options.items()}
        return {k: v for k, v in vars(self).items() if k != "out_dir"} | {"options": options}


def _read_declared(given, registry: dict, scenario: str, what: str) -> dict:
    """Every ``what`` (option or tolerance) that ``registry[scenario]``
    declares as (default, parser): the value in ``given`` read as
    ``parser(value, name, error=ConfigInvalidError)``, as the readers of
    ``errors`` read, else the default.  ``given`` not a mapping, a key it
    holds that is not declared and a value the parser rejects raise
    ConfigInvalidError naming it."""
    given = coerce(dict, given, f"{what}s")
    declared = registry[scenario]
    _reject_unknown(given, declared, f"{scenario} {what}")
    return {key: parse(given[key], f"{what} {key!r}", error=ConfigInvalidError)
            if key in given else default for key, (default, parse) in declared.items()}


def _reject_unknown(given, known, what: str) -> None:
    """ConfigInvalidError naming the first key of ``given`` not in ``known``."""
    unknown = [key for key in given if key not in known]
    if unknown:
        raise ConfigInvalidError(
            f"unknown {what}: {unknown[0]!r}; known: {', '.join(sorted(known)) or 'none'}"
        )


def load_config(
    path,
    scenario: str,
    out_dir=None,
    seed=None,
) -> ScenarioConfig:
    """Load a config file and apply CLI overrides.

    The file may name its scenario; it must then match the CLI argument.
    Its other fields pass through, so every default is ScenarioConfig's.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigInvalidError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalidError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalidError("config must be a JSON object")
    # a file holds the ScenarioConfig fields, with "out" for out_dir
    keys = {f.name for f in fields(ScenarioConfig)} - {"out_dir"} | {"out"}
    _reject_unknown(raw, keys, "config key")
    named = raw.get("scenario")
    if named is not None and named != scenario:
        raise ConfigInvalidError(
            f"config names scenario {named!r} but {scenario!r} was requested"
        )
    given = {"out_dir" if key == "out" else key: value for key, value in raw.items()}
    given.update(scenario=scenario, seed=seed if seed is not None else raw.get("seed"))
    if out_dir is not None:
        given["out_dir"] = out_dir
    return ScenarioConfig(**given)
