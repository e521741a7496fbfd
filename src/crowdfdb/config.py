"""Flat key-value configuration files, defaults, and run manifests.

A config file is UTF-8 text with one ``key = value`` pair per line;
blank lines and ``#`` comments are ignored.  Unknown keys are rejected
(except the ``manifest.`` namespace, so a previously written manifest is
itself a valid config and replaying it reproduces the original outputs
byte for byte).  Every run writes a manifest alongside its outputs
containing the fully resolved configuration, the artifact version,
timestamps, and output paths.

Each spec field f is read, in field order, from the key ``<group>.f`` (a
range from ``<group>.f_low`` and ``<group>.f_high``) by its type; only
``gold.n_per_type`` and ``constraints.fairness`` are named otherwise.
DEFAULTS alone states the default population and task pool.
"""

from __future__ import annotations

from dataclasses import fields, replace
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import get_type_hints

from ._version import __version__
from .datagen import (
    AccuracyLinkedCost,
    ClusterBiasModel,
    IntervalBiasModel,
    PopulationSpec,
    TaskPoolSpec,
    UniformCost,
    generate_population,
    load_gold_tallies,
    load_responses,
    load_tasks,
    load_workers,
)
from .estimation import GoldPhaseConfig, GoldTallies
from .lp import ConstraintSet
from .model import FairnessKind, Population, Priors
from .simulator import METHODS, ExperimentConfig, SweepSpec, task_priors


class ConfigError(ValueError):
    """A config file or flag value is malformed."""


DEFAULTS: dict[str, str] = {
    "population.n_workers": "400",
    "population.seed": "4482",
    "population.model": "clusters",
    "population.cost_model": "uniform",
    "population.fee": "1.0",
    "population.low_fee": "1.0",
    "population.high_fee": "3.0",
    "population.biased_fraction": "0.4",
    "population.biased_diag_y0_low": "0.6",
    "population.biased_diag_y0_high": "0.86",
    "population.biased_diag_y1_low": "0.6",
    "population.biased_diag_y1_high": "0.86",
    "population.unbiased_diag_y0_low": "0.6",
    "population.unbiased_diag_y0_high": "0.86",
    "population.unbiased_diag_y1_low": "0.6",
    "population.unbiased_diag_y1_high": "0.86",
    "population.biased_fpr_offset": "-0.25",
    "population.biased_fnr_offset": "0.25",
    "population.unbiased_fpr_offset": "0.0",
    "population.unbiased_fnr_offset": "0.0",
    "tasks.n_z0": "2454",
    "tasks.n_z1": "3696",
    "tasks.base_rate_z0": "0.3936",
    "tasks.base_rate_z1": "0.5143",
    "tasks.seed": "9161",
    "gold.n_per_type": "20",
    "gold.smoothing": "false",
    "constraints.alpha": "0.01",
    "constraints.beta": "0.01",
    "constraints.budget": "1.0",
    "constraints.fairness": "error-rate",
    "experiment.methods": "CrowdFDB,Random,Greedy",
    "experiment.repetitions": "100",
    "experiment.seed": "7",
    "policy.gamma": "0.9",
}

# the interval model's range keys, in field order; they have no defaults
_INTERVAL_KEYS = tuple(f"population.diag_z{z}_y{y}_{end}" for z in (0, 1) for y in (0, 1) for end in ("low", "high"))

# the recorded gold files' keys and loaders; only the policy command reads them
_GOLD_FILES = {"gold.tallies_file": load_gold_tallies, "gold.responses_file": load_responses}

# the keys that name input files; a manifest records them as absolute paths
_FILE_KEYS = ("workers.file", "tasks.file", *_GOLD_FILES)

# every key with a default, plus the keys that have none
KNOWN_KEYS = frozenset(
    [
        *DEFAULTS,
        *_INTERVAL_KEYS,
        *_FILE_KEYS,
        "priors.p_z1",
        "priors.p_y1_given_z0",
        "priors.p_y1_given_z1",
        "experiment.sweep",
        "experiment.sweep_values",
    ]
)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source} line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source} line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a config (or manifest) file; manifest.* keys are dropped."""
    text = Path(path).read_text(encoding="utf-8")
    raw = parse_config_text(text, source=str(path))
    cfg = {k: v for k, v in raw.items() if not k.startswith("manifest.")}
    unknown = sorted(set(cfg) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys: {', '.join(unknown)}")
    return cfg


def resolve(file_cfg: dict[str, str] | None = None, overrides: dict[str, str] | None = None) -> dict[str, str]:
    """Defaults, overlaid by the config file, overlaid by CLI flags.  A
    value the manifest would not read back unchanged (one with a line
    break, or with leading or trailing whitespace) is rejected."""
    cfg = dict(DEFAULTS)
    for layer in (file_cfg or {}), (overrides or {}):
        for key, value in layer.items():
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if value != value.strip() or len(value.splitlines()) > 1:
                raise ConfigError(f"{key} = {value!r} would not read back from a manifest: a value may not hold "
                                  "a line break, or start or end with whitespace")
            cfg[key] = value
    return cfg


def format_config(cfg: dict[str, str]) -> str:
    return "\n".join(f"{key} = {cfg[key]}" for key in sorted(cfg)) + "\n"


def _get(cfg: dict[str, str], key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    return cfg[key]


def _get_int(cfg: dict[str, str], key: str) -> int:
    raw = _get(cfg, key)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"config key {key} must be an integer, got {raw!r}")


def _get_float(cfg: dict[str, str], key: str) -> float:
    raw = _get(cfg, key)
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key} must be a number, got {raw!r}")


def _get_bool(cfg: dict[str, str], key: str) -> bool:
    raw = _get(cfg, key).lower()
    if raw in ("true", "yes", "1"):
        return True
    if raw in ("false", "no", "0"):
        return False
    raise ConfigError(f"config key {key} must be true or false, got {raw!r}")


def _get_range(cfg: dict[str, str], key: str) -> tuple[float, float]:
    return _get_float(cfg, f"{key}_low"), _get_float(cfg, f"{key}_high")


_READERS = {int: _get_int, float: _get_float, bool: _get_bool, tuple[float, float]: _get_range}


_type_hints = cache(get_type_hints)  # resolving one class's annotations takes 50-120 us


def _spec(cls, cfg: dict[str, str], prefix: str, **given):
    """cls with each field f not in given read from the key prefix.f, in
    field order, by the reader of f's type; a spec's own check failing is a
    ConfigError."""
    hints = _type_hints(cls)
    for f in fields(cls):
        if f.name not in given:
            given[f.name] = _READERS[hints[f.name]](cfg, f"{prefix}.{f.name}")
    try:
        return cls(**given)
    except ValueError as err:
        raise ConfigError(str(err))


def _choice(cfg: dict[str, str], key: str, choices: dict):
    name = _get(cfg, key)
    if name not in choices:
        raise ConfigError(f"{key} must be {' or '.join(map(repr, choices))}, got {name!r}")
    return choices[name]


_BIAS_MODELS = {"clusters": ClusterBiasModel, "intervals": IntervalBiasModel}
_COST_MODELS = {"uniform": UniformCost, "accuracy-linked": AccuracyLinkedCost}


def population_spec(cfg: dict[str, str]) -> PopulationSpec:
    """The population spec.  An interval range key set under another bias
    model is rejected rather than ignored; the fee keys are not checked so,
    as DEFAULTS writes them into every resolved config."""
    bias_cls = _choice(cfg, "population.model", _BIAS_MODELS)
    if bias_cls is not IntervalBiasModel:
        stray = next((key for key in _INTERVAL_KEYS if key in cfg), None)
        if stray is not None:
            raise ConfigError(
                f"{stray} is read only with population.model = intervals, "
                f"got population.model = {_get(cfg, 'population.model')!r}"
            )
    bias_model = _spec(bias_cls, cfg, "population")
    cost_model = _spec(_choice(cfg, "population.cost_model", _COST_MODELS), cfg, "population")
    return _spec(PopulationSpec, cfg, "population", bias_model=bias_model, cost_model=cost_model)


def task_pool_spec(cfg: dict[str, str]) -> TaskPoolSpec:
    return _spec(TaskPoolSpec, cfg, "tasks")


def constraint_set(cfg: dict[str, str]) -> ConstraintSet:
    fairness_raw = _get(cfg, "constraints.fairness")
    try:
        kind = FairnessKind(fairness_raw)
    except ValueError:
        valid = ", ".join(k.value for k in FairnessKind)
        raise ConfigError(f"constraints.fairness must be one of {valid}, got {fairness_raw!r}")
    return _spec(ConstraintSet, cfg, "constraints", fairness_kind=kind)


def gold_config(cfg: dict[str, str]) -> GoldPhaseConfig:
    return _spec(GoldPhaseConfig, cfg, "gold", n_gold_per_type=_get_int(cfg, "gold.n_per_type"))


def default_population_spec(seed: int | None = None, n_workers: int | None = None,
                            cost_model: UniformCost | AccuracyLinkedCost | None = None) -> PopulationSpec:
    """The population DEFAULTS describes, each argument given replacing its field.
    40% of workers split both error rates by 0.25 between the groups (in
    opposite directions, mimicking higher false positives for one group
    and higher false negatives for the other); ability is independent of
    bias, with every worker's per-label accuracy drawn from (0.60, 0.86)."""
    return _replaced(population_spec(DEFAULTS), seed=seed, n_workers=n_workers, cost_model=cost_model)


def default_task_pool_spec(seed: int | None = None) -> TaskPoolSpec:
    """The task pool DEFAULTS describes, with seed replacing its seed if given:
    2454 + 3696 tasks with group base rates 0.3936 and 0.5143."""
    return _replaced(task_pool_spec(DEFAULTS), seed=seed)


def _replaced(spec, **changes):
    return replace(spec, **{name: v for name, v in changes.items() if v is not None})


def policy_settings(cfg: dict[str, str]) -> tuple[float, int]:
    """The `policy` command's bound confidence gamma and its gold-phase seed."""
    gamma = _get_float(cfg, "policy.gamma")
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"confidence must lie in (0, 1), got {gamma}")
    return gamma, _get_int(cfg, "experiment.seed")


def priors_override(cfg: dict[str, str]) -> Priors | None:
    keys = ("priors.p_z1", "priors.p_y1_given_z0", "priors.p_y1_given_z1")
    present = [k for k in keys if k in cfg]
    if not present:
        return None
    if len(present) != len(keys):
        raise ConfigError(f"priors require all of {', '.join(keys)}; got only {', '.join(present)}")
    return _spec(Priors, cfg, "priors")


def resolve_priors(cfg: dict[str, str]) -> Priors:
    """Priors from overrides, else the task spec, else the task file."""
    override = priors_override(cfg)
    if override is not None:
        return override
    pool = load_tasks(cfg["tasks.file"]) if "tasks.file" in cfg else task_pool_spec(cfg)
    try:
        return task_priors(pool)
    except ValueError as err:
        raise ConfigError(str(err))


def resolve_workers(cfg: dict[str, str]) -> Population:
    if "workers.file" in cfg:
        return load_workers(cfg["workers.file"])
    return generate_population(population_spec(cfg))


def resolve_tallies(cfg: dict[str, str]) -> GoldTallies | None:
    """The recorded gold tallies a gold file key names, or None when the
    gold answers are to be simulated."""
    given = [key for key in _GOLD_FILES if key in cfg]
    if len(given) > 1:
        raise ConfigError(f"set at most one of {' and '.join(given)}")
    return _GOLD_FILES[given[0]](cfg[given[0]]) if given else None


def methods(cfg: dict[str, str]) -> list[str]:
    raw = [m.strip() for m in _get(cfg, "experiment.methods").split(",") if m.strip()]
    if not raw:
        raise ConfigError("experiment.methods must list at least one method")
    for m in raw:
        if m not in METHODS:
            raise ConfigError(f"experiment.methods entries must be in {METHODS}, got {m!r}")
    if len(set(raw)) != len(raw):
        raise ConfigError("experiment.methods must not repeat a method")
    return raw


def sweep_spec(cfg: dict[str, str]) -> SweepSpec | None:
    raw = cfg.get("experiment.sweep", "none")
    if raw in ("", "none"):
        if "experiment.sweep_values" in cfg:  # rejected rather than ignored
            raise ConfigError(f"experiment.sweep_values is read only with experiment.sweep = gold or alpha, "
                              f"got experiment.sweep = {raw!r}")
        return None
    values_raw = cfg.get("experiment.sweep_values", "")
    parts = [p.strip() for p in values_raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("experiment.sweep_values must list values when experiment.sweep is set")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"experiment.sweep_values must be numbers, got {values_raw!r}")
    try:
        return SweepSpec(parameter=raw, values=values)
    except ValueError as err:
        raise ConfigError(str(err))


def experiment_configs(cfg: dict[str, str]) -> list[ExperimentConfig]:
    """One ExperimentConfig per configured method, sharing inputs and seed.
    Experiments simulate their gold answers, so a gold file key is rejected."""
    if recorded := [key for key in _GOLD_FILES if key in cfg]:
        raise ConfigError(f"{recorded[0]} is read only by the policy command; an experiment simulates its gold answers")
    base = dict(
        gold=gold_config(cfg),
        constraints=constraint_set(cfg),
        repetitions=_get_int(cfg, "experiment.repetitions"),
        seed=_get_int(cfg, "experiment.seed"),
        population=None if "workers.file" in cfg else population_spec(cfg),
        worker_file=cfg.get("workers.file"),
        task_pool=None if "tasks.file" in cfg else task_pool_spec(cfg),
        task_file=cfg.get("tasks.file"),
        sweep=sweep_spec(cfg),
        priors=priors_override(cfg),
    )
    try:
        return [ExperimentConfig(method=m, **base) for m in methods(cfg)]
    except ValueError as err:
        raise ConfigError(str(err))


def write_manifest(
    path: str | Path, command: str, cfg: dict[str, str], outputs: dict[str, str]
) -> None:
    """Write the resolved config plus run metadata next to the outputs.

    Replaying is re-running the command with the manifest as --config
    (manifest.* keys are ignored on load): the configuration keys fully
    determine the outputs, so the rewritten files match byte for byte.
    The input file keys are written as absolute paths, so a manifest
    replays from any working directory.
    """
    lines = [
        f"manifest.command = {command}",
        f"manifest.version = {__version__}",
        f"manifest.created_utc = {datetime.now(timezone.utc).isoformat()}",
    ]
    for name in sorted(outputs):
        lines.append(f"manifest.output.{name} = {outputs[name]}")
    body = format_config({key: str(Path(v).absolute()) if key in _FILE_KEYS else v for key, v in cfg.items()})
    Path(path).write_text("\n".join(lines) + "\n" + body, encoding="utf-8")
