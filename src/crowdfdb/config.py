"""Flat key-value configuration files, defaults, and run manifests.

A config file is UTF-8 text with one ``key = value`` pair per line;
blank lines and ``#`` comments are ignored.  Unknown keys are rejected
(except the ``manifest.`` namespace, so a previously written manifest is
itself a valid config and replaying it reproduces the original outputs
byte for byte).  Every run writes a manifest alongside its outputs
containing the fully resolved configuration, the artifact version,
timestamps, and output paths.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

from ._version import __version__
from .datagen import (
    AccuracyLinkedCost,
    ClusterBiasModel,
    IntervalBiasModel,
    PopulationSpec,
    TaskPoolSpec,
    UniformCost,
    generate_population,
    load_tasks,
    load_workers,
)
from .estimation import GoldPhaseConfig
from .lp import ConstraintSet
from .model import FairnessKind, Priors, WorkerProfile
from .simulator import METHODS, ExperimentConfig, SweepSpec, task_priors


class ConfigError(ValueError):
    """A config file or flag value is malformed."""


_CLUSTER_KEYS = [
    "population.biased_fraction",
    "population.biased_diag_y0_low",
    "population.biased_diag_y0_high",
    "population.biased_diag_y1_low",
    "population.biased_diag_y1_high",
    "population.unbiased_diag_y0_low",
    "population.unbiased_diag_y0_high",
    "population.unbiased_diag_y1_low",
    "population.unbiased_diag_y1_high",
    "population.biased_fpr_offset",
    "population.biased_fnr_offset",
    "population.unbiased_fpr_offset",
    "population.unbiased_fnr_offset",
]
_INTERVAL_KEYS = [
    f"population.diag_z{z}_y{y}_{end}" for z in (0, 1) for y in (0, 1) for end in ("low", "high")
]

KNOWN_KEYS = frozenset(
    [
        "population.n_workers",
        "population.seed",
        "population.model",
        "population.cost_model",
        "population.fee",
        "population.low_fee",
        "population.high_fee",
        *_CLUSTER_KEYS,
        *_INTERVAL_KEYS,
        "workers.file",
        "tasks.file",
        "tasks.n_z0",
        "tasks.n_z1",
        "tasks.base_rate_z0",
        "tasks.base_rate_z1",
        "tasks.seed",
        "priors.p_z1",
        "priors.p_y1_given_z0",
        "priors.p_y1_given_z1",
        "gold.n_per_type",
        "gold.smoothing",
        "constraints.alpha",
        "constraints.beta",
        "constraints.budget",
        "constraints.fairness",
        "experiment.methods",
        "experiment.repetitions",
        "experiment.seed",
        "experiment.sweep",
        "experiment.sweep_values",
        "policy.gamma",
    ]
)

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
    """Defaults, overlaid by the config file, overlaid by CLI flags."""
    cfg = dict(DEFAULTS)
    for layer in (file_cfg or {}), (overrides or {}):
        for key, value in layer.items():
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
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


def population_spec(cfg: dict[str, str]) -> PopulationSpec:
    model_name = _get(cfg, "population.model")
    if model_name == "clusters":
        bias_model = ClusterBiasModel(
            biased_fraction=_get_float(cfg, "population.biased_fraction"),
            biased_diag_y0=(
                _get_float(cfg, "population.biased_diag_y0_low"),
                _get_float(cfg, "population.biased_diag_y0_high"),
            ),
            biased_diag_y1=(
                _get_float(cfg, "population.biased_diag_y1_low"),
                _get_float(cfg, "population.biased_diag_y1_high"),
            ),
            unbiased_diag_y0=(
                _get_float(cfg, "population.unbiased_diag_y0_low"),
                _get_float(cfg, "population.unbiased_diag_y0_high"),
            ),
            unbiased_diag_y1=(
                _get_float(cfg, "population.unbiased_diag_y1_low"),
                _get_float(cfg, "population.unbiased_diag_y1_high"),
            ),
            biased_fpr_offset=_get_float(cfg, "population.biased_fpr_offset"),
            biased_fnr_offset=_get_float(cfg, "population.biased_fnr_offset"),
            unbiased_fpr_offset=_get_float(cfg, "population.unbiased_fpr_offset"),
            unbiased_fnr_offset=_get_float(cfg, "population.unbiased_fnr_offset"),
        )
    elif model_name == "intervals":
        ranges = {}
        for z in (0, 1):
            for y in (0, 1):
                ranges[(z, y)] = (
                    _get_float(cfg, f"population.diag_z{z}_y{y}_low"),
                    _get_float(cfg, f"population.diag_z{z}_y{y}_high"),
                )
        bias_model = IntervalBiasModel(
            diag_z0_y0=ranges[(0, 0)],
            diag_z0_y1=ranges[(0, 1)],
            diag_z1_y0=ranges[(1, 0)],
            diag_z1_y1=ranges[(1, 1)],
        )
    else:
        raise ConfigError(f"population.model must be 'clusters' or 'intervals', got {model_name!r}")

    cost_name = _get(cfg, "population.cost_model")
    if cost_name == "uniform":
        cost_model = UniformCost(fee=_get_float(cfg, "population.fee"))
    elif cost_name == "accuracy-linked":
        cost_model = AccuracyLinkedCost(
            low_fee=_get_float(cfg, "population.low_fee"),
            high_fee=_get_float(cfg, "population.high_fee"),
        )
    else:
        raise ConfigError(
            f"population.cost_model must be 'uniform' or 'accuracy-linked', got {cost_name!r}"
        )

    try:
        return PopulationSpec(
            n_workers=_get_int(cfg, "population.n_workers"),
            bias_model=bias_model,
            cost_model=cost_model,
            seed=_get_int(cfg, "population.seed"),
        )
    except ValueError as err:
        raise ConfigError(str(err))


def task_pool_spec(cfg: dict[str, str]) -> TaskPoolSpec:
    try:
        return TaskPoolSpec(
            n_z0=_get_int(cfg, "tasks.n_z0"),
            n_z1=_get_int(cfg, "tasks.n_z1"),
            base_rate_z0=_get_float(cfg, "tasks.base_rate_z0"),
            base_rate_z1=_get_float(cfg, "tasks.base_rate_z1"),
            seed=_get_int(cfg, "tasks.seed"),
        )
    except ValueError as err:
        raise ConfigError(str(err))


def constraint_set(cfg: dict[str, str]) -> ConstraintSet:
    fairness_raw = _get(cfg, "constraints.fairness")
    try:
        kind = FairnessKind(fairness_raw)
    except ValueError:
        valid = ", ".join(k.value for k in FairnessKind)
        raise ConfigError(f"constraints.fairness must be one of {valid}, got {fairness_raw!r}")
    try:
        return ConstraintSet(
            alpha=_get_float(cfg, "constraints.alpha"),
            beta=_get_float(cfg, "constraints.beta"),
            budget=_get_float(cfg, "constraints.budget"),
            fairness_kind=kind,
        )
    except ValueError as err:
        raise ConfigError(str(err))


def gold_config(cfg: dict[str, str]) -> GoldPhaseConfig:
    try:
        return GoldPhaseConfig(
            n_gold_per_type=_get_int(cfg, "gold.n_per_type"),
            smoothing=_get_bool(cfg, "gold.smoothing"),
        )
    except ValueError as err:
        raise ConfigError(str(err))


def policy_settings(cfg: dict[str, str]) -> tuple[float, int]:
    """The `policy` command's bound confidence gamma and its gold-phase seed."""
    return _get_float(cfg, "policy.gamma"), _get_int(cfg, "experiment.seed")


def priors_override(cfg: dict[str, str]) -> Priors | None:
    keys = ("priors.p_z1", "priors.p_y1_given_z0", "priors.p_y1_given_z1")
    present = [k for k in keys if k in cfg]
    if not present:
        return None
    if len(present) != len(keys):
        raise ConfigError(f"priors require all of {', '.join(keys)}; got only {', '.join(present)}")
    try:
        return Priors(
            p_z1=_get_float(cfg, keys[0]),
            p_y1_given_z0=_get_float(cfg, keys[1]),
            p_y1_given_z1=_get_float(cfg, keys[2]),
        )
    except ValueError as err:
        raise ConfigError(str(err))


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


def resolve_workers(cfg: dict[str, str]) -> list[WorkerProfile]:
    if "workers.file" in cfg:
        return load_workers(cfg["workers.file"])
    return generate_population(population_spec(cfg))


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
    """One ExperimentConfig per configured method, sharing inputs and seed."""
    use_worker_file = "workers.file" in cfg
    use_task_file = "tasks.file" in cfg
    base = dict(
        gold=gold_config(cfg),
        constraints=constraint_set(cfg),
        repetitions=_get_int(cfg, "experiment.repetitions"),
        seed=_get_int(cfg, "experiment.seed"),
        population=None if use_worker_file else population_spec(cfg),
        worker_file=cfg.get("workers.file"),
        task_pool=None if use_task_file else task_pool_spec(cfg),
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
    """
    lines = [
        f"manifest.command = {command}",
        f"manifest.version = {__version__}",
        f"manifest.created_utc = {datetime.now(timezone.utc).isoformat()}",
    ]
    for name in sorted(outputs):
        lines.append(f"manifest.output.{name} = {outputs[name]}")
    body = format_config(cfg)
    Path(path).write_text("\n".join(lines) + "\n" + body, encoding="utf-8")
