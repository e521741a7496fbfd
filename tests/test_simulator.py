import csv
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crowdfdb import (
    ConstraintSet,
    ExperimentConfig,
    FairnessKind,
    GoldPhaseConfig,
    IntervalBiasModel,
    PopulationSpec,
    SweepSpec,
    TaskPoolSpec,
    UniformCost,
    aggregate_reports,
    default_population_spec,
    default_task_pool_spec,
    resolve_inputs,
    run_experiment,
    run_once,
    stream,
    write_results_csv,
)
from crowdfdb import simulator
from crowdfdb.model import label_one_probabilities
from crowdfdb.simulator import RESULTS_COLUMNS, MetricsReport, RunInputs, _apply_sweep, _score_arrays
from fixtures import make_binding_fairness_instance
from oracles import recount_scores


def perfect_population(n, seed=1):
    return PopulationSpec(
        n_workers=n,
        bias_model=IntervalBiasModel(
            diag_z0_y0=(1.0, 1.0), diag_z0_y1=(1.0, 1.0), diag_z1_y0=(1.0, 1.0), diag_z1_y1=(1.0, 1.0)
        ),
        cost_model=UniformCost(1.0),
        seed=seed,
    )


def small_pool(seed=2):
    return TaskPoolSpec(n_z0=400, n_z1=600, base_rate_z0=0.4, base_rate_z1=0.55, seed=seed)


def base_config(method="CrowdFDB", **kwargs):
    defaults = dict(
        method=method,
        gold=GoldPhaseConfig(10),
        constraints=ConstraintSet(
            alpha=0.05, beta=0.2, budget=math.inf, fairness_kind=FairnessKind.ERROR_RATE_PARITY
        ),
        repetitions=2,
        seed=11,
        workers=perfect_population(10),
        tasks=small_pool(),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def score_labels(records):
    """_score_arrays on (z, y, collected label) triples, with run_once's
    dtypes: int8 groups and truths, boolean labels."""
    zs, ys, yhats = np.asarray(records, dtype=np.int8).T
    return _score_arrays(zs, ys, yhats.astype(bool), lp_status="-")


CELLS = [(0, 0), (0, 1), (1, 0), (1, 1)]


@st.composite
def score_records(draw):
    """(z, y, label) triples on a drawn subset of the four (z, y) cells, so
    single cells and whole groups are often empty."""
    cells = draw(st.lists(st.sampled_from(CELLS), min_size=1, max_size=4, unique=True))
    pairs = st.tuples(st.sampled_from(cells), st.integers(0, 1))
    return [(z, y, label) for (z, y), label in draw(st.lists(pairs, min_size=1, max_size=300))]


class TestScoreLabels:
    def test_all_correct(self):
        records = [(z, y, y) for z in (0, 1) for y in (0, 1) for _ in range(5)]
        report = score_labels(records)
        assert report.accuracy == 1.0
        assert report.fpr_gap == 0.0
        assert report.fnr_gap == 0.0

    def test_count_arithmetic(self):
        records = (
            [(0, 0, 1)] * 2 + [(0, 0, 0)] * 8  # z0: 10 negatives, 2 predicted positive
            + [(1, 0, 1)] * 5 + [(1, 0, 0)] * 5  # z1: 10 negatives, 5 predicted positive
            + [(0, 1, 1)] * 3 + [(1, 1, 1)] * 3
        )
        report = score_labels(records)
        assert report.fpr_gap == pytest.approx(abs(0.2 - 0.5))
        assert report.fnr_gap == 0.0

    def test_zero_denominator_marks_rate_absent(self):
        records = [(0, 0, 0), (0, 0, 1)]  # no z=1 tasks at all
        report = score_labels(records)
        assert report.fpr_gap is None
        assert report.fnr_gap is None
        assert report.accuracy == pytest.approx(0.5)

    def test_random_records_match_recount_oracle(self):
        rng = stream(3, "score-test")
        records = [
            (int(rng.random() < 0.6), int(rng.random() < 0.5), int(rng.random() < 0.5))
            for _ in range(200)
        ]
        report = score_labels(records)
        fpr_gap, fnr_gap, accuracy, cell_tasks, cell_errors = recount_scores(records)
        assert (report.fpr_gap, report.fnr_gap, report.accuracy) == (fpr_gap, fnr_gap, accuracy)
        assert (report.cell_tasks, report.cell_errors) == (cell_tasks, cell_errors)

    @given(score_records())
    @example([(0, 0, 1)])
    @example([(1, 1, 1), (1, 0, 1), (1, 0, 0)])
    @settings(max_examples=300, deadline=None)
    def test_scores_equal_the_recount_exactly(self, records):
        fpr_gap, fnr_gap, accuracy, cell_tasks, cell_errors = recount_scores(records)
        expected = MetricsReport("-", fpr_gap, fnr_gap, accuracy, cell_tasks=cell_tasks, cell_errors=cell_errors)
        assert score_labels(records) == expected


class TestRunOnce:
    @pytest.mark.parametrize("method", ["CrowdFDB", "Random", "Greedy"])
    def test_perfect_workers_are_perfect(self, method):
        report = run_once(base_config(method=method), rep_index=0)
        assert report.accuracy == 1.0
        assert report.fpr_gap == 0.0
        assert report.fnr_gap == 0.0
        assert report.mean_cost == pytest.approx(1.0)

    @pytest.mark.parametrize("method, k", [("CrowdFDB", 2000), ("Random", 2000), ("Greedy", 1000)])
    def test_collect_draws_are_the_collect_stream(self, method, k):
        """A worker draw then a label draw per task; Greedy's assignment is
        fixed, so it draws the labels only."""
        cfg = base_config(method=method, seed=2**64 - 5)
        expected = stream(cfg.seed, "collect", 3).random(k)
        assert simulator._collect_draws(cfg, 3, 1000).tobytes() == expected.tobytes()

    def test_deterministic_per_seed_and_rep(self):
        cfg = base_config(
            method="CrowdFDB", workers=default_population_spec(seed=13, n_workers=12)
        )
        assert run_once(cfg, 1) == run_once(cfg, 1)
        assert run_once(cfg, 1) != run_once(cfg, 2)

    def test_infeasible_reported_without_metrics(self):
        cfg = base_config(
            workers=perfect_population(1),
            constraints=ConstraintSet(
                alpha=math.inf, beta=0.5, budget=math.inf, fairness_kind=FairnessKind.NONE
            ),
        )
        report = run_once(cfg, 0)
        assert report.lp_status == "infeasible"
        assert report.accuracy is None
        assert not report.feasible

    def test_greedy_capacity_infeasible(self):
        cfg = base_config(
            method="Greedy",
            workers=perfect_population(2),
            constraints=ConstraintSet(
                alpha=math.inf, beta=0.1, budget=math.inf, fairness_kind=FairnessKind.NONE
            ),
        )
        report = run_once(cfg, 0)
        assert report.lp_status == "infeasible"

    def test_random_on_mirrored_pairs_is_nearly_fair(self):
        workers = make_binding_fairness_instance(0.3, 3, seed=21)
        cfg = base_config(
            method="Random",
            workers=perfect_population(6),  # placeholder; replaced via _resolved
            tasks=default_task_pool_spec(seed=4),
        )
        inputs = resolve_inputs(cfg)
        resolved = RunInputs(workers, inputs.priors, inputs.tasks, label_one_probabilities(workers))
        report = run_once(cfg, 0, _resolved=resolved)
        assert report.fpr_gap <= 0.05

    def test_diversity_respected_empirically(self):
        pop = default_population_spec(seed=31, n_workers=50)
        cfg = base_config(
            method="CrowdFDB",
            workers=pop,
            tasks=default_task_pool_spec(seed=32),
            constraints=ConstraintSet(
                alpha=0.01, beta=0.04, budget=1.0, fairness_kind=FairnessKind.ERROR_RATE_PARITY
            ),
            gold=GoldPhaseConfig(20),
        )
        inputs = resolve_inputs(cfg)
        workers, tasks, priors = inputs.population, inputs.tasks, inputs.priors
        n_tasks = len(tasks)
        # re-derive the per-task worker choices through the documented streams
        from crowdfdb.pipeline import build_policy
        from crowdfdb.rng import mix

        result = build_policy(workers, cfg.gold, priors, cfg.constraints, seed=mix(cfg.seed, "goldphase", 20, 0))
        rng = stream(cfg.seed, "collect", 0)
        chosen = np.searchsorted(np.cumsum(result.solution.policy.weights), rng.random(n_tasks), side="right")
        shares = np.bincount(chosen, minlength=len(workers)) / n_tasks
        assert shares.max() <= 0.04 + 3 * math.sqrt(0.04 / n_tasks)

    def test_greedy_caps_exact(self):
        pop = default_population_spec(seed=41, n_workers=50)
        cfg = base_config(
            method="Greedy",
            workers=pop,
            tasks=default_task_pool_spec(seed=42),
            constraints=ConstraintSet(
                alpha=0.01, beta=0.04, budget=math.inf, fairness_kind=FairnessKind.ERROR_RATE_PARITY
            ),
        )
        from crowdfdb import estimate_tallies, greedy_plan, run_gold_phase
        from crowdfdb.rng import mix

        inputs = resolve_inputs(cfg)
        workers, tasks, priors = inputs.population, inputs.tasks, inputs.priors
        estimates = estimate_tallies(run_gold_phase(workers, cfg.gold, mix(cfg.seed, "goldphase", 10, 0)))
        plan = greedy_plan(estimates, workers.cost, priors, 0.04, len(tasks))
        cap = math.floor(0.04 * len(tasks))
        assert max(plan.counts) <= cap
        assert sum(plan.counts) == len(tasks)


class TestSweepSpec:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 2.5, 0.0])
    def test_gold_values_must_be_positive_integers(self, value):
        with pytest.raises(ValueError, match="gold sweep values"):
            SweepSpec("gold", (5.0, value))

    @pytest.mark.parametrize("value", [-0.1, math.nan])
    def test_alpha_values_must_be_non_negative(self, value):
        with pytest.raises(ValueError, match="alpha sweep values"):
            SweepSpec("alpha", (0.01, value))

    def test_sweep_point_keeps_every_other_field(self):
        cfg = base_config(
            gold=GoldPhaseConfig(10, smoothing=True),
            constraints=ConstraintSet(
                alpha=0.05, beta=0.2, budget=1.5, fairness_kind=FairnessKind.FNR_PARITY
            ),
        )
        at_gold = simulator._apply_sweep(cfg, "gold", 40.0)
        assert at_gold == dataclasses.replace(cfg, gold=GoldPhaseConfig(40, smoothing=True))
        at_alpha = simulator._apply_sweep(cfg, "alpha", 0.2)
        assert at_alpha.constraints == dataclasses.replace(cfg.constraints, alpha=0.2)
        assert at_alpha.gold == cfg.gold


class TestPriorsRule:
    """config's resolvers and resolve_inputs share one rule for the workers,
    the tasks and the priors."""

    def test_task_spec_and_task_file_agree_across_both_entry_points(self, tmp_path):
        from crowdfdb import generate_task_pool, save_tasks
        from crowdfdb.config import experiment_configs, resolve, resolve_priors

        spec_cfg = resolve(overrides={"tasks.n_z0": "40", "tasks.n_z1": "60"})
        assert resolve_priors(spec_cfg) == resolve_inputs(experiment_configs(spec_cfg)[0]).priors
        assert resolve_priors(spec_cfg).p_z1 == 0.6
        tasks_path = tmp_path / "tasks.csv"
        save_tasks(generate_task_pool(small_pool()), tasks_path)
        file_cfg = resolve(overrides={"tasks.file": str(tasks_path), "population.n_workers": "10"})
        priors = resolve_priors(file_cfg)
        assert priors == resolve_inputs(experiment_configs(file_cfg)[0]).priors
        assert priors.p_z1 == 0.6

    @pytest.mark.parametrize("source", ["specs", "files"])
    def test_workers_tasks_and_priors_agree_across_both_entry_points(self, tmp_path, source):
        from crowdfdb import generate_population, generate_task_pool, save_tasks, save_workers
        from crowdfdb.config import experiment_configs, resolve, resolve_priors, resolve_workers

        overrides = {"population.n_workers": "12", "population.seed": "5", "tasks.n_z0": "40", "tasks.n_z1": "60"}
        if source == "files":  # files of other sizes than the specs, so the source read shows
            save_workers(generate_population(default_population_spec(seed=3, n_workers=9)), tmp_path / "w.csv")
            save_tasks(generate_task_pool(small_pool()), tmp_path / "t.csv")
            overrides.update({"workers.file": str(tmp_path / "w.csv"), "tasks.file": str(tmp_path / "t.csv")})
        cfg = resolve(overrides=overrides)
        run_cfg = experiment_configs(cfg)[0]
        inputs = resolve_inputs(run_cfg)
        workers = resolve_workers(cfg)
        assert (len(workers), len(inputs.tasks)) == ((12, 100) if source == "specs" else (9, 1000))
        assert workers.ids == inputs.population.ids
        assert workers.correct.tobytes() == inputs.population.correct.tobytes()
        assert workers.cost.tobytes() == inputs.population.cost.tobytes()
        assert resolve_priors(cfg) == inputs.priors
        if source == "files":  # a pathlib.Path names the same files
            by_path = resolve_inputs(dataclasses.replace(run_cfg, workers=tmp_path / "w.csv", tasks=tmp_path / "t.csv"))
            assert by_path.population.ids == workers.ids and by_path.priors == inputs.priors

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("workers", 3, "workers must be a PopulationSpec or a file path, got 3"),
            ("workers", small_pool(), "workers must be a PopulationSpec or a file path, got TaskPoolSpec"),
            ("tasks", None, "tasks must be a TaskPoolSpec or a file path, got None"),
            ("tasks", perfect_population(2), "tasks must be a TaskPoolSpec or a file path, got PopulationSpec"),
        ],
    )
    def test_a_source_that_is_neither_a_spec_nor_a_path_is_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            base_config(**{field: value})

    def test_single_group_task_file_rejected_by_both(self, tmp_path):
        from crowdfdb.config import ConfigError, experiment_configs, resolve, resolve_priors

        tasks_path = tmp_path / "tasks.csv"
        tasks_path.write_text("id,z,y\nt0,0,1\nt1,0,0\n", encoding="utf-8")
        cfg = resolve(overrides={"tasks.file": str(tasks_path), "population.n_workers": "10"})
        with pytest.raises(ConfigError, match="lacks one of the groups"):
            resolve_priors(cfg)
        with pytest.raises(ValueError, match="lacks one of the groups"):
            resolve_inputs(experiment_configs(cfg)[0])

    def test_malformed_task_file_is_a_file_format_error_from_both(self, tmp_path):
        from crowdfdb import FileFormatError
        from crowdfdb.config import ConfigError, experiment_configs, resolve, resolve_priors

        tasks_path = tmp_path / "tasks.csv"
        tasks_path.write_text("id,z,y\nt0,0,2\nt1,1,0\n", encoding="utf-8")
        cfg = resolve(overrides={"tasks.file": str(tasks_path), "population.n_workers": "10"})
        for resolve_one in (lambda: resolve_priors(cfg), lambda: resolve_inputs(experiment_configs(cfg)[0])):
            with pytest.raises(FileFormatError, match="line 2: field y must be 0 or 1, got 2") as raised:
                resolve_one()
            assert not isinstance(raised.value, ConfigError)

    def test_empty_pool_rejected_even_with_explicit_priors(self):
        empty = TaskPoolSpec(n_z0=0, n_z1=0, base_rate_z0=0.4, base_rate_z1=0.5, seed=1)
        cfg = base_config(tasks=empty, priors=simulator.Priors(0.5, 0.4, 0.5))
        with pytest.raises(ValueError, match="no tasks"):
            resolve_inputs(cfg)


class TestRunExperiment:
    def test_repeat_with_same_seed_identical(self):
        cfg = base_config(repetitions=1)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b

    def test_sweep_produces_one_result_per_value(self):
        cfg = base_config(sweep=SweepSpec("gold", (5, 10)), repetitions=2)
        results = run_experiment(cfg)
        assert [r.value for r in results] == [5, 10]
        assert all(len(r.reports) == 2 for r in results)

    def test_per_command_arrays_built_once(self, monkeypatch):
        calls = []
        original = simulator.label_one_probabilities
        monkeypatch.setattr(simulator, "label_one_probabilities", lambda w: calls.append(1) or original(w))
        cfg = base_config(sweep=SweepSpec("gold", (5, 10)), repetitions=2)
        assert len(run_experiment(cfg)) == 2
        assert len(calls) == 1

    def test_alpha_sweep_shares_gold_draws_per_rep(self):
        pop = default_population_spec(seed=51, n_workers=30)
        cfg = base_config(
            method="Greedy",
            workers=pop,
            constraints=ConstraintSet(
                alpha=0.05, beta=0.2, budget=math.inf, fairness_kind=FairnessKind.ERROR_RATE_PARITY
            ),
            sweep=SweepSpec("alpha", (0.01, 0.2)),
            repetitions=2,
        )
        results = run_experiment(cfg)
        # greedy ignores alpha; shared gold draws make sweep points identical
        assert results[0].reports == results[1].reports

    @pytest.mark.parametrize("method", ["CrowdFDB", "Random", "Greedy"])
    def test_one_collect_row_per_rep_serves_every_sweep_point(self, monkeypatch, method):
        cfg = base_config(
            method=method,
            workers=default_population_spec(seed=21, n_workers=30),
            constraints=ConstraintSet(
                alpha=0.1, beta=0.1, budget=math.inf, fairness_kind=FairnessKind.ERROR_RATE_PARITY
            ),
            sweep=SweepSpec("gold", (3, 5, 10)),
            repetitions=2,
        )
        alone = [[run_once(_apply_sweep(cfg, "gold", v), rep) for rep in range(2)] for v in (3, 5, 10)]
        rows = []
        original = simulator._collect_draws
        monkeypatch.setattr(simulator, "_collect_draws", lambda *args: rows.append(args[1]) or original(*args))
        results = run_experiment(cfg)
        assert [list(point.reports) for point in results] == alone
        assert rows == [0, 1]

    def test_one_process_pool_for_a_four_point_sweep(self, monkeypatch, tmp_path):
        from concurrent import futures

        cfg = base_config(
            workers=default_population_spec(seed=61, n_workers=20),
            constraints=ConstraintSet(
                alpha=0.05, beta=0.1, budget=1.0, fairness_kind=FairnessKind.ERROR_RATE_PARITY
            ),
            sweep=SweepSpec("gold", (2, 5, 10, 20)),
            repetitions=4,
        )
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        write_results_csv(one, [("CrowdFDB", run_experiment(cfg))])
        pools = []

        class CountingPool(futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("CROWDFDB_THREADS", "2")
        write_results_csv(two, [("CrowdFDB", run_experiment(cfg))])
        assert pools == [2]
        assert two.read_bytes() == one.read_bytes()

    def test_parallel_matches_sequential(self, monkeypatch):
        cfg = base_config(
            workers=default_population_spec(seed=61, n_workers=20),
            constraints=ConstraintSet(
                alpha=0.05, beta=0.1, budget=1.0, fairness_kind=FairnessKind.ERROR_RATE_PARITY
            ),
            repetitions=4,
        )
        sequential = run_experiment(cfg)
        monkeypatch.setenv("CROWDFDB_THREADS", "2")
        parallel = run_experiment(cfg)
        assert sequential == parallel

    @staticmethod
    def record_pool_sizes(monkeypatch):
        """A recording stand-in for the process pool: no worker process is
        ever started, and the jobs run in this process."""
        recorded = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingExecutor)
        return recorded

    @pytest.mark.parametrize(
        "env, cpus, reps, expected",
        [("64", 2, 4, [2]), ("3", 8, 4, [3]), ("64", 8, 2, [2]), ("2", 8, 1, []), ("2", 1, 4, [])],
    )
    def test_process_count_clamped(self, monkeypatch, env, cpus, reps, expected):
        # the process may use `cpus` of the machine's 64 CPUs (as under taskset)
        cfg = base_config(method="Random", repetitions=reps)
        sequential = run_experiment(cfg)
        recorded = self.record_pool_sizes(monkeypatch)
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: 64)
        monkeypatch.setenv("CROWDFDB_THREADS", env)
        assert run_experiment(cfg) == sequential
        assert recorded == expected

    def test_process_count_falls_back_to_the_cpu_count_without_affinity(self, monkeypatch):
        cfg = base_config(method="Random", repetitions=4)
        sequential = run_experiment(cfg)
        recorded = self.record_pool_sizes(monkeypatch)
        monkeypatch.delattr(simulator.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("CROWDFDB_THREADS", "64")
        assert run_experiment(cfg) == sequential
        assert recorded == [2]

    def test_bad_thread_env_rejected(self, monkeypatch):
        monkeypatch.setenv("CROWDFDB_THREADS", "many")
        with pytest.raises(ValueError, match="CROWDFDB_THREADS"):
            run_experiment(base_config())

    def test_crowdfdb_fairer_than_random_on_biased_population(self):
        pop = default_population_spec(seed=71, n_workers=50)
        shared = dict(
            workers=pop,
            tasks=default_task_pool_spec(seed=72),
            constraints=ConstraintSet(
                alpha=0.01, beta=0.04, budget=1.0, fairness_kind=FairnessKind.ERROR_RATE_PARITY
            ),
            gold=GoldPhaseConfig(20),
            repetitions=10,
        )
        crowd = run_experiment(base_config(method="CrowdFDB", **shared))[0].aggregate
        rand = run_experiment(base_config(method="Random", **shared))[0].aggregate
        assert crowd.mean_fpr_gap < rand.mean_fpr_gap


class TestAggregation:
    def test_infeasible_reports_excluded_but_counted(self):
        good = MetricsReport(
            lp_status="optimal",
            fpr_gap=0.1,
            fnr_gap=0.2,
            accuracy=0.9,
            mean_cost=1.0,
            entropy=1.5,
            cell_tasks=(10, 10, 10, 10),
            cell_errors=(1, 2, 3, 4),
        )
        bad = MetricsReport(lp_status="infeasible")
        agg = aggregate_reports([good, bad, good])
        assert agg.n_reps == 3
        assert agg.n_feasible == 2
        assert agg.n_infeasible == 1
        assert agg.mean_fpr_gap == pytest.approx(0.1)
        assert agg.pooled_fpr_gap == pytest.approx(abs(2 / 20 - 6 / 20))

    @given(st.lists(score_records(), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_pooled_gaps_equal_a_recount_over_the_concatenated_records(self, reps):
        # only feasible repetitions count, whatever an infeasible report carries
        infeasible = MetricsReport(lp_status="infeasible", cell_tasks=(1, 1, 1, 1), cell_errors=(1, 0, 0, 1))
        agg = aggregate_reports([infeasible] + [score_labels(records) for records in reps] + [infeasible])
        fpr_gap, fnr_gap = recount_scores([record for records in reps for record in records])[:2]
        assert (agg.pooled_fpr_gap, agg.pooled_fnr_gap) == (fpr_gap, fnr_gap)
        assert (agg.n_reps, agg.n_feasible, agg.n_infeasible) == (len(reps) + 2, len(reps), 2)

    def test_single_rep_has_no_se(self):
        agg = aggregate_reports(
            [MetricsReport(lp_status="-", fpr_gap=0.1, fnr_gap=0.1, accuracy=0.8)]
        )
        assert agg.mean_accuracy == pytest.approx(0.8)
        assert agg.se_accuracy is None


class TestResultsCsv:
    def test_layout_and_columns(self, tmp_path):
        cfg = base_config(repetitions=2, sweep=SweepSpec("gold", (5, 10)))
        results = run_experiment(cfg)
        path = tmp_path / "results.csv"
        write_results_csv(path, [("CrowdFDB", results)])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(RESULTS_COLUMNS)
        # 2 sweep values x (2 reps + mean + se)
        assert len(lines) == 1 + 2 * 4
        assert b"\r" not in path.read_bytes()

    def test_byte_determinism(self, tmp_path):
        cfg = base_config(repetitions=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(a, [("CrowdFDB", run_experiment(cfg))])
        write_results_csv(b, [("CrowdFDB", run_experiment(cfg))])
        assert a.read_bytes() == b.read_bytes()

    def test_a_point_with_every_repetition_infeasible(self, tmp_path):
        cfg = base_config(
            workers=perfect_population(1),
            constraints=ConstraintSet(alpha=math.inf, beta=0.5, budget=math.inf, fairness_kind=FairnessKind.NONE),
            repetitions=3,
        )
        path = tmp_path / "results.csv"
        write_results_csv(path, [("CrowdFDB", run_experiment(cfg))])
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        prefix = ["none", "", "CrowdFDB"]
        assert rows[1:] == [
            *(prefix + ["rep", str(rep), "infeasible"] + [""] * 18 for rep in range(3)),
            prefix + ["mean", "", ""] + [""] * 13 + ["3", "0", "3", "", ""],
            prefix + ["se", "", ""] + [""] * 13 + ["3", "0", "3", "", ""],
        ]
