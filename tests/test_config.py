"""The config layer's contract: which key each spec field reads, which error
is reported first when several keys are malformed, and the default specs."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from crowdfdb import (
    AccuracyLinkedCost,
    ClusterBiasModel,
    ConstraintSet,
    FairnessKind,
    GoldPhaseConfig,
    IntervalBiasModel,
    PopulationSpec,
    Priors,
    TaskPoolSpec,
    UniformCost,
    cli,
    default_population_spec,
    default_task_pool_spec,
)
from crowdfdb.config import (
    DEFAULTS,
    KNOWN_KEYS,
    ConfigError,
    constraint_set,
    experiment_configs,
    format_config,
    gold_config,
    parse_config_text,
    policy_settings,
    population_spec,
    priors_override,
    resolve,
    task_pool_spec,
)

# keys holding a name, a list or a path rather than one int, float or bool
NOT_SCALAR = {
    "population.model", "population.cost_model", "constraints.fairness", "experiment.methods",
    "experiment.sweep", "experiment.sweep_values", "workers.file", "tasks.file",
    "gold.tallies_file", "gold.responses_file",
}
SCALAR_KEYS = sorted(KNOWN_KEYS - NOT_SCALAR)

RANGES = {"diag_z0_y0": (0.5, 0.6), "diag_z0_y1": (0.55, 0.65), "diag_z1_y0": (0.7, 0.8), "diag_z1_y1": (0.75, 0.95)}
INTERVALS = {
    "population.model": "intervals",
    **{f"population.{name}_{end}": str(v) for name, r in RANGES.items() for end, v in zip(("low", "high"), r)},
}
ACCURACY_LINKED = {"population.cost_model": "accuracy-linked"}
PRIORS = {"priors.p_z1": "0.6", "priors.p_y1_given_z0": "0.4", "priors.p_y1_given_z1": "0.5"}


def context(key):
    """The settings under which key is read at all."""
    if key.startswith("population.diag_"):
        return INTERVALS
    if key in ("population.low_fee", "population.high_fee"):
        return ACCURACY_LINKED
    if key.startswith("priors."):
        return PRIORS
    return {}


def read_all(cfg):
    population_spec(cfg)
    task_pool_spec(cfg)
    constraint_set(cfg)
    gold_config(cfg)
    priors_override(cfg)
    policy_settings(cfg)
    experiment_configs(cfg)


def test_scalar_keys_are_those_with_defaults_the_interval_ranges_and_the_priors():
    assert len(SCALAR_KEYS) == 31 + 8 + 3


@pytest.mark.parametrize("settings", [{}, INTERVALS, ACCURACY_LINKED, PRIORS])
def test_each_context_reads_cleanly(settings):
    read_all(resolve(settings))


@pytest.mark.parametrize("key", SCALAR_KEYS)
def test_a_malformed_scalar_key_is_named(key):
    cfg = resolve({**context(key), key: "x"})
    with pytest.raises(ConfigError, match=rf"^config key {re.escape(key)} must be .*, got 'x'$"):
        read_all(cfg)


CLUSTER_KEYS = [
    "population.biased_fraction",
    *(f"population.{c}_diag_y{y}_{end}" for c in ("biased", "unbiased") for y in (0, 1) for end in ("low", "high")),
    "population.biased_fpr_offset", "population.biased_fnr_offset",
    "population.unbiased_fpr_offset", "population.unbiased_fnr_offset",
]
INTERVAL_KEYS = [f"population.{name}_{end}" for name in RANGES for end in ("low", "high")]
# (settings, builder, the keys in the order their errors are reported)
READ_ORDERS = [
    ({}, population_spec, [*CLUSTER_KEYS, "population.fee", "population.n_workers", "population.seed"]),
    ({**INTERVALS, **ACCURACY_LINKED}, population_spec,
     [*INTERVAL_KEYS, "population.low_fee", "population.high_fee", "population.n_workers", "population.seed"]),
    ({}, task_pool_spec, ["tasks.n_z0", "tasks.n_z1", "tasks.base_rate_z0", "tasks.base_rate_z1", "tasks.seed"]),
    ({}, constraint_set, ["constraints.fairness", "constraints.alpha", "constraints.beta", "constraints.budget"]),
    ({}, gold_config, ["gold.n_per_type", "gold.smoothing"]),
    (PRIORS, priors_override, list(PRIORS)),
]
PAIRS = [
    pytest.param(settings, builder, first, later, id=f"{first}-before-{later}")
    for settings, builder, order in READ_ORDERS
    for i, first in enumerate(order)
    for later in order[i + 1:]
]


@pytest.mark.parametrize("settings,builder,first,later", PAIRS)
def test_with_two_keys_malformed_the_earlier_is_reported(settings, builder, first, later):
    cfg = resolve({**settings, first: "x", later: "x"})
    with pytest.raises(ConfigError) as err:
        builder(cfg)
    assert first in str(err.value)
    assert later not in str(err.value)


@pytest.mark.parametrize("settings,message", [
    # a model's own range check comes before the next model's keys are read
    ({"population.biased_fraction": "1.5", "population.fee": "x"}, "biased_fraction must lie in [0, 1], got 1.5"),
    ({"population.fee": "-1", "population.n_workers": "x"}, "fee must be >= 0, got -1.0"),
    ({**INTERVALS, "population.diag_z1_y1_low": "0.99", "population.cost_model": "bogus"},
     "diag_z1_y1 range must satisfy 0 <= lo <= hi <= 1, got (0.99, 0.95)"),
    # a spec's range checks come after all of its own keys are read
    ({"population.n_workers": "0", "population.seed": "x"}, "config key population.seed must be an integer, got 'x'"),
    ({"tasks.n_z0": "-1", "tasks.seed": "x"}, "config key tasks.seed must be an integer, got 'x'"),
    ({"constraints.alpha": "-1", "constraints.budget": "x"}, "config key constraints.budget must be a number, got 'x'"),
    ({"gold.n_per_type": "0", "gold.smoothing": "x"}, "config key gold.smoothing must be true or false, got 'x'"),
    ({"population.model": "bogus", "population.biased_fraction": "x"},
     "population.model must be 'clusters' or 'intervals', got 'bogus'"),
    ({"population.biased_fraction": "x", "population.cost_model": "bogus"},
     "config key population.biased_fraction must be a number, got 'x'"),
    ({"population.cost_model": "bogus", "population.n_workers": "x"},
     "population.cost_model must be 'uniform' or 'accuracy-linked', got 'bogus'"),
    ({"constraints.fairness": "bogus", "constraints.alpha": "x"},
     "constraints.fairness must be one of fpr, fnr, error-rate, none, got 'bogus'"),
])
def test_range_and_name_errors_keep_their_place_in_the_order(settings, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_all(resolve(settings))


@pytest.mark.parametrize("settings,message", [
    ({"population.biased_fraction": "1.5"}, "biased_fraction must lie in [0, 1], got 1.5"),
    ({"population.unbiased_fnr_offset": "-2"}, "unbiased_fnr_offset must lie in [-1, 1], got -2.0"),
    ({**INTERVALS, "population.diag_z0_y1_high": "0.5"}, "diag_z0_y1 range must satisfy 0 <= lo <= hi <= 1, got (0.55, 0.5)"),
    ({"population.fee": "-1"}, "fee must be >= 0, got -1.0"),
    ({**ACCURACY_LINKED, "population.high_fee": "-3"}, "high_fee must be >= 0, got -3.0"),
    ({**ACCURACY_LINKED, "population.high_fee": "-3", "population.low_fee": "-1"}, "low_fee must be >= 0, got -1.0"),
    ({"population.n_workers": "0"}, "n_workers must be >= 1, got 0"),
])
def test_population_model_and_cost_errors_are_config_errors(settings, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        population_spec(resolve(settings))


def test_population_model_error_exits_2_from_the_cli(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(format_config({"population.biased_fraction": "1.5"}), encoding="utf-8")
    out = tmp_path / "w.csv"
    assert cli.main(["generate", "--config", str(cfg), "--workers-out", str(out), "--tasks-out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert "biased_fraction must lie in [0, 1], got 1.5" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_the_interval_model_reads_its_eight_range_keys():
    spec = population_spec(resolve(INTERVALS))
    assert spec.bias_model == IntervalBiasModel(**RANGES)
    assert spec == PopulationSpec(n_workers=400, bias_model=IntervalBiasModel(**RANGES),
                                  cost_model=UniformCost(fee=1.0), seed=4482)


def test_the_interval_model_has_no_default_ranges():
    assert not any(key.startswith("population.diag_") for key in DEFAULTS)
    with pytest.raises(ConfigError, match=r"^missing config key 'population.diag_z0_y0_low'$"):
        population_spec(resolve({"population.model": "intervals"}))


@pytest.mark.parametrize("settings,key", [
    # all eight ranges set, but population.model left at its default
    ({k: v for k, v in INTERVALS.items() if k != "population.model"}, "population.diag_z0_y0_low"),
    ({"population.diag_z0_y0_low": "0.1", "population.diag_z0_y0_high": "0.2", "population.low_fee": "5"},
     "population.diag_z0_y0_low"),
    ({"population.model": "clusters", "population.diag_z1_y1_high": "0.9", "population.biased_fraction": "x"},
     "population.diag_z1_y1_high"),
])
def test_an_interval_key_without_the_interval_model_is_named(settings, key):
    with pytest.raises(ConfigError, match=(
        f"^{re.escape(key)} is read only with population.model = intervals, got population.model = 'clusters'$"
    )):
        population_spec(resolve(settings))


@pytest.mark.parametrize("settings", [
    {"experiment.sweep_values": "5,10"},
    {"experiment.sweep": "none", "experiment.sweep_values": "5,10"},
    {"experiment.sweep": "", "experiment.sweep_values": ""},
])
def test_sweep_values_without_a_sweep_are_named(settings):
    sweep = settings.get("experiment.sweep", "none")
    with pytest.raises(ConfigError, match=(
        "^experiment.sweep_values is read only with experiment.sweep = gold or alpha, "
        f"got experiment.sweep = {re.escape(repr(sweep))}$"
    )):
        experiment_configs(resolve(settings))


def test_sweep_values_without_a_sweep_exit_2_from_the_cli(tmp_path, capsys):
    cfg = tmp_path / "stray.cfg"
    cfg.write_text(format_config({"experiment.sweep_values": "0.01,0.05"}), encoding="utf-8")
    out = tmp_path / "r.csv"
    assert cli.main(["experiment", "--config", str(cfg), "--repetitions", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "experiment.sweep_values is read only with experiment.sweep = gold or alpha" in err
    assert "Traceback" not in err
    assert not out.exists()

def _reads_back(value):
    try:
        return parse_config_text(format_config({"workers.file": value})) == {"workers.file": value}
    except ConfigError:  # a line break can leave a line with no '='
        return False


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from("a =#\t\n\r\x0b\x0c\x1c\x85\u2028\u3000"), max_size=5))
@pytest.mark.parametrize("layer", [0, 1])
def test_resolve_takes_exactly_the_values_a_manifest_reads_back(layer, value):
    layers = [None, None]
    layers[layer] = {"workers.file": value}
    if _reads_back(value):
        assert resolve(*layers)["workers.file"] == value
    else:
        with pytest.raises(ConfigError, match=f"^workers.file = {re.escape(repr(value))} would not read back"):
            resolve(*layers)


def test_specs_read_every_other_key_by_its_field_name():
    cfg = resolve({
        **PRIORS, **ACCURACY_LINKED, "population.low_fee": "0.5", "population.high_fee": "2.5",
        "constraints.fairness": "fpr", "constraints.alpha": "0.05", "constraints.beta": "0.2",
        "constraints.budget": "inf", "gold.n_per_type": "7", "gold.smoothing": "yes",
        "tasks.n_z0": "10", "tasks.n_z1": "11", "tasks.base_rate_z0": "0.25", "tasks.base_rate_z1": "0.75",
        "tasks.seed": "12",
    })
    assert population_spec(cfg).cost_model == AccuracyLinkedCost(low_fee=0.5, high_fee=2.5)
    assert constraint_set(cfg) == ConstraintSet(alpha=0.05, beta=0.2, budget=float("inf"),
                                                fairness_kind=FairnessKind.FPR_PARITY)
    assert gold_config(cfg) == GoldPhaseConfig(n_gold_per_type=7, smoothing=True)
    assert task_pool_spec(cfg) == TaskPoolSpec(n_z0=10, n_z1=11, base_rate_z0=0.25, base_rate_z1=0.75, seed=12)
    assert priors_override(cfg) == Priors(p_z1=0.6, p_y1_given_z0=0.4, p_y1_given_z1=0.5)
    assert priors_override(resolve()) is None


def literal_population(seed=4482, n_workers=400, cost_model=UniformCost(fee=1.0)):
    return PopulationSpec(
        n_workers=n_workers,
        bias_model=ClusterBiasModel(
            biased_fraction=0.4,
            biased_diag_y0=(0.60, 0.86),
            biased_diag_y1=(0.60, 0.86),
            unbiased_diag_y0=(0.60, 0.86),
            unbiased_diag_y1=(0.60, 0.86),
            biased_fpr_offset=-0.25,
            biased_fnr_offset=0.25,
        ),
        cost_model=cost_model,
        seed=seed,
    )


@pytest.mark.parametrize("kwargs", [
    {},
    {"seed": 13},
    {"n_workers": 12},
    {"cost_model": AccuracyLinkedCost(low_fee=1.0, high_fee=3.0)},
    {"seed": 0, "n_workers": 1, "cost_model": UniformCost(fee=0.0)},
])
def test_default_population_spec_is_the_literal_spec(kwargs):
    assert default_population_spec(**kwargs) == literal_population(**kwargs)


@pytest.mark.parametrize("kwargs", [{}, {"seed": 402}, {"seed": 0}])
def test_default_task_pool_spec_is_the_literal_spec(kwargs):
    expected = TaskPoolSpec(n_z0=2454, n_z1=3696, base_rate_z0=0.3936, base_rate_z1=0.5143, seed=9161)
    assert default_task_pool_spec(**kwargs) == TaskPoolSpec(**{**vars(expected), **kwargs})
