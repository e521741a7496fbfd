"""Seeded experiment harness.

An experiment's workers and tasks each come from a spec or a file, which
resolve_inputs draws or loads once per method.  One repetition runs the
full loop: simulate the gold phase's tallies and estimate the (n, z, y)
correctness array from them, build the method's assignment rule (LP
policy, uniform random, or greedy fill), hand every pool task to a worker,
draw the worker's label from the (n, z, y) array of true
P(label 1 | z, y), and score the labels from the four (z, y) cell counts.
One job runs one repetition at every sweep point, on one row of collect
draws (seed, "collect", rep); jobs use derived independent streams, so
they can run in one process pool (set CROWDFDB_THREADS) with results
identical to sequential execution.

Results are written as delimited text with one row per (sweep value,
repetition) plus "mean" and "se" aggregate rows per sweep value; the
column set is a stable tooling contract (see write_results_csv).
"""

from __future__ import annotations

import csv
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import CapacityError, greedy_plan, random_policy
from .datagen import PopulationSpec, TaskPool, TaskPoolSpec, resolve_population, resolve_task_pool, task_priors
from .estimation import GoldPhaseConfig, estimate_tallies, run_gold_phase
from .lp import ConstraintSet, LpStatus
from .model import Policy, Population, Priors, label_one_probabilities
from .pipeline import build_policy
from .rng import mix, random_rows, stream_keys

METHODS = ("CrowdFDB", "Random", "Greedy")
THREADS_ENV_VAR = "CROWDFDB_THREADS"

SWEEP_GOLD = "gold"
SWEEP_ALPHA = "alpha"


@dataclass(frozen=True)
class SweepSpec:
    parameter: str  # SWEEP_GOLD or SWEEP_ALPHA
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.parameter not in (SWEEP_GOLD, SWEEP_ALPHA):
            raise ValueError(f"sweep parameter must be 'gold' or 'alpha', got {self.parameter!r}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        for v in self.values:
            if self.parameter == SWEEP_GOLD and not (v >= 1 and float(v).is_integer()):
                raise ValueError(f"gold sweep values must be integers >= 1, got {v}")
            if self.parameter == SWEEP_ALPHA and not v >= 0:
                raise ValueError(f"alpha sweep values must be >= 0, got {v}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment (one method); workers and tasks
    are each a spec to draw from or a file path to load."""

    method: str
    gold: GoldPhaseConfig
    constraints: ConstraintSet
    repetitions: int
    seed: int
    workers: PopulationSpec | str | Path
    tasks: TaskPoolSpec | str | Path
    sweep: SweepSpec | None = None
    priors: Priors | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        for name, spec in (("workers", PopulationSpec), ("tasks", TaskPoolSpec)):
            if not isinstance(getattr(self, name), (spec, str, os.PathLike)):
                raise ValueError(f"{name} must be a {spec.__name__} or a file path, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class MetricsReport:
    """Scores for one repetition.

    Rates are None when their denominator is zero ("marked absent");
    cell tuples are ordered (z0y0, z0y1, z1y0, z1y1).
    """

    lp_status: str  # "optimal" | "infeasible" | "-" (methods without an LP)
    fpr_gap: float | None = None
    fnr_gap: float | None = None
    accuracy: float | None = None
    mean_cost: float | None = None
    entropy: float | None = None
    cell_tasks: tuple[int, int, int, int] | None = None
    cell_errors: tuple[int, int, int, int] | None = None

    @property
    def feasible(self) -> bool:
        return self.lp_status != LpStatus.INFEASIBLE


@dataclass(frozen=True)
class AggregateMetrics:
    """Across-repetition means and standard errors (feasible reps only).

    Pooled gaps recompute the group rates from error counts summed over
    all feasible repetitions, as a secondary view of the same runs.
    """

    n_reps: int
    n_feasible: int
    n_infeasible: int
    mean_fpr_gap: float | None
    se_fpr_gap: float | None
    mean_fnr_gap: float | None
    se_fnr_gap: float | None
    mean_accuracy: float | None
    se_accuracy: float | None
    mean_cost: float | None
    se_cost: float | None
    mean_entropy: float | None
    se_entropy: float | None
    pooled_fpr_gap: float | None
    pooled_fnr_gap: float | None


@dataclass(frozen=True)
class SweepPointResult:
    parameter: str | None
    value: float | None
    reports: tuple[MetricsReport, ...]
    aggregate: AggregateMetrics


@dataclass(frozen=True, eq=False)
class RunInputs:
    """What every repetition of one command reads, resolved once: the
    population and priors, the task pool, and P(label 1 | z, y) per worker."""

    population: Population
    priors: Priors
    tasks: TaskPool
    p_label_one: np.ndarray


def resolve_inputs(cfg: ExperimentConfig) -> RunInputs:
    """The workers and tasks cfg draws or names, its priors (else those its
    task source implies), and each worker's P(label 1 | z, y)."""
    population = resolve_population(cfg.workers)
    tasks = resolve_task_pool(cfg.tasks)
    if not tasks:
        raise ValueError("task pool has no tasks to assign")
    priors = cfg.priors if cfg.priors is not None else task_priors(cfg.tasks, tasks)
    return RunInputs(population, priors, tasks, label_one_probabilities(population))


def _gaps(tasks: Sequence[int], errors: Sequence[int]) -> tuple[float | None, float | None]:
    """(FPR gap, FNR gap) from task and error counts per cell 2z + y: the
    z0 and z1 error rates of y = 0, then of y = 1, each None when either
    cell is empty.  Callers pass Python ints, so each rate is one correctly
    rounded division of exact counts."""
    return tuple(
        abs(errors[y] / tasks[y] - errors[2 + y] / tasks[2 + y]) if tasks[y] and tasks[2 + y] else None
        for y in (0, 1)
    )


def _score_arrays(zs: np.ndarray, ys: np.ndarray, yhats: np.ndarray, **fields) -> MetricsReport:
    """The report of labels yhats collected on tasks (zs, ys), scored from
    the four (z, y) cell counts; fields (lp_status and the rest) complete it."""
    cells = 2 * zs + ys
    tasks = np.bincount(cells, minlength=4).tolist()
    errors = np.bincount(cells[yhats != ys], minlength=4).tolist()
    fpr_gap, fnr_gap = _gaps(tasks, errors)
    return MetricsReport(
        fpr_gap=fpr_gap,
        fnr_gap=fnr_gap,
        accuracy=1.0 - sum(errors) / zs.size,
        cell_tasks=tuple(tasks),
        cell_errors=tuple(errors),
        **fields,
    )


def _collect_draws(cfg: ExperimentConfig, rep_index: int, n_tasks: int) -> np.ndarray:
    """Label collection's doubles for one repetition, from the stream
    (seed, "collect", rep): a worker draw per task, then a label draw per
    task.  Greedy's assignment is fixed, so it takes the first n_tasks as its
    label draws and only those are drawn.  The row depends on neither sweep
    parameter, so every sweep point of a repetition reads the same one."""
    k = n_tasks if cfg.method == "Greedy" else 2 * n_tasks
    return random_rows(stream_keys(cfg.seed, "collect", [rep_index]), k)[0]


def run_once(
    cfg: ExperimentConfig,
    rep_index: int,
    _resolved: RunInputs | None = None,
    _draws: np.ndarray | None = None,
) -> MetricsReport:
    """One repetition; deterministic given (cfg.seed, rep_index).

    The gold stream is keyed by the gold-task count as well, so sweeping
    alpha reuses identical estimates per repetition (paired comparisons)
    while sweeping the gold count re-draws them.  _draws, when given, is
    _collect_draws(cfg, rep_index, n_tasks), drawn once for all sweep points.
    """
    inputs = _resolved if _resolved is not None else resolve_inputs(cfg)
    population, priors, costs = inputs.population, inputs.priors, inputs.population.cost
    zs, ys = inputs.tasks.z, inputs.tasks.y
    n = len(population)
    n_tasks = zs.size
    gold_seed = mix(cfg.seed, "goldphase", cfg.gold.n_gold_per_type, rep_index)

    lp_status = "-"
    chosen: np.ndarray | None = None
    if cfg.method == "CrowdFDB":
        result = build_policy(population, cfg.gold, priors, cfg.constraints, seed=gold_seed)
        if result.solution.status != LpStatus.OPTIMAL:
            return MetricsReport(lp_status=result.solution.status)
        policy, lp_status = result.solution.policy, LpStatus.OPTIMAL
    elif cfg.method == "Random":
        policy = random_policy(n)
    else:  # Greedy
        estimates = estimate_tallies(run_gold_phase(population, cfg.gold, gold_seed), smoothing=cfg.gold.smoothing)
        try:
            plan = greedy_plan(estimates, costs, priors, cfg.constraints.beta, n_tasks)
        except CapacityError:
            return MetricsReport(lp_status=LpStatus.INFEASIBLE)
        policy, chosen = Policy(np.array(plan.counts) / n_tasks), plan.assignment_sequence()

    u = _draws if _draws is not None else _collect_draws(cfg, rep_index, n_tasks)
    if chosen is None:
        # inverse-CDF draw keeps worker choice fully determined by the stream
        chosen = np.searchsorted(np.cumsum(policy.weights), u[:n_tasks], side="right")
        chosen = np.minimum(chosen, n - 1)
        u = u[n_tasks:]

    yhats = u < inputs.p_label_one[chosen, zs, ys]
    mean_cost = float(costs[chosen].mean())
    return _score_arrays(zs, ys, yhats, lp_status=lp_status, mean_cost=mean_cost, entropy=policy.entropy())


def _run_rep(args) -> list[MetricsReport]:
    """Every sweep point of one repetition, on one row of collect draws."""
    point_cfgs, rep_index, resolved = args
    draws = _collect_draws(point_cfgs[0], rep_index, len(resolved.tasks))
    return [run_once(cfg, rep_index, _resolved=resolved, _draws=draws) for cfg in point_cfgs]


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {value}")
    return value


# The MetricsReport fields that AggregateMetrics averages, in results-column order.
_AVERAGED = ("fpr_gap", "fnr_gap", "accuracy", "mean_cost", "entropy")


def _stat_field(kind: str, name: str) -> str:
    """The AggregateMetrics field holding the kind ("mean" or "se") of the
    averaged field name: mean_cost's are mean_cost and se_cost."""
    return f"{kind}_{name.removeprefix('mean_')}"


def _mean_se(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    arr = np.array(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, None
    return mean, float(arr.std(ddof=1) / np.sqrt(arr.size))


def aggregate_reports(reports: Sequence[MetricsReport]) -> AggregateMetrics:
    feasible = [r for r in reports if r.feasible]
    stats = {}
    for name in _AVERAGED:
        values = [getattr(r, name) for r in feasible if getattr(r, name) is not None]
        stats[_stat_field("mean", name)], stats[_stat_field("se", name)] = _mean_se(values)
    scored = [(r.cell_tasks, r.cell_errors) for r in feasible if r.cell_tasks is not None]
    tasks, errors = np.array(scored, dtype=np.int64).reshape(-1, 2, 4).sum(axis=0).tolist()
    pooled_fpr, pooled_fnr = _gaps(tasks, errors)
    return AggregateMetrics(
        n_reps=len(reports),
        n_feasible=len(feasible),
        n_infeasible=len(reports) - len(feasible),
        pooled_fpr_gap=pooled_fpr,
        pooled_fnr_gap=pooled_fnr,
        **stats,
    )


def _apply_sweep(cfg: ExperimentConfig, parameter: str, value: float) -> ExperimentConfig:
    if parameter == SWEEP_GOLD:
        return replace(cfg, gold=replace(cfg.gold, n_gold_per_type=int(value)))
    return replace(cfg, constraints=replace(cfg.constraints, alpha=float(value)))


def run_experiment(cfg: ExperimentConfig) -> list[SweepPointResult]:
    """Run all repetitions at every sweep point and aggregate.

    One job runs one repetition at every sweep point.  Jobs execute in one
    process pool when CROWDFDB_THREADS > 1, with at most
    min(CROWDFDB_THREADS, usable CPUs, repetitions) worker processes;
    outputs are aggregated per sweep point in repetition order either way.
    """
    resolved = resolve_inputs(cfg)
    if cfg.sweep is not None:
        points = [(cfg.sweep.parameter, v) for v in cfg.sweep.values]
    else:
        points = [(None, None)]
    point_cfgs = [cfg if parameter is None else _apply_sweep(cfg, parameter, value) for parameter, value in points]

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = min(_thread_count(), cpus, cfg.repetitions)
    jobs = [(point_cfgs, rep, resolved) for rep in range(cfg.repetitions)]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays for multiprocessing

        chunk = max(1, cfg.repetitions // (4 * threads))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            by_rep = list(pool.map(_run_rep, jobs, chunksize=chunk))
    else:
        by_rep = [_run_rep(job) for job in jobs]
    return [
        SweepPointResult(parameter=parameter, value=value, reports=reports, aggregate=aggregate_reports(reports))
        for (parameter, value), reports in zip(points, zip(*by_rep))
    ]


RESULTS_COLUMNS = [
    "sweep_param",
    "sweep_value",
    "method",
    "row_kind",
    "rep",
    "lp_status",
    "fpr_gap",
    "fnr_gap",
    "accuracy",
    "mean_cost",
    "entropy",
    "n_z0_y0",
    "n_z0_y1",
    "n_z1_y0",
    "n_z1_y1",
    "err_z0_y0",
    "err_z0_y1",
    "err_z1_y0",
    "err_z1_y1",
    "n_reps",
    "n_feasible",
    "n_infeasible",
    "pooled_fpr_gap",
    "pooled_fnr_gap",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip decimal, plain float repr
    return str(value)


def _sweep_value_str(parameter: str | None, value: float | None) -> str:
    if value is None:
        return ""
    if parameter == SWEEP_GOLD:
        return str(int(value))
    return repr(float(value))


def write_results_csv(
    path: str | Path, results_by_method: list[tuple[str, list[SweepPointResult]]]
) -> None:
    """Write the stable long-format results table.

    Per-repetition rows (row_kind "rep") carry that run's metrics and
    confusion-cell counts; "mean" and "se" rows carry the aggregate for
    their (sweep value, method) group, including the pooled gaps and the
    feasible/infeasible repetition counts.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RESULTS_COLUMNS)
        for method, points in results_by_method:
            for point in points:
                param = point.parameter if point.parameter is not None else "none"
                prefix = [param, _sweep_value_str(point.parameter, point.value), method]
                for rep, report in enumerate(point.reports):
                    cells = (report.cell_tasks or (None,) * 4) + (report.cell_errors or (None,) * 4)
                    writer.writerow(
                        prefix
                        + ["rep", rep, report.lp_status]
                        + [_fmt(getattr(report, name)) for name in _AVERAGED]
                        + [_fmt(c) for c in cells]
                        + [""] * 5
                    )
                agg = point.aggregate
                for kind, pooled in (("mean", (agg.pooled_fpr_gap, agg.pooled_fnr_gap)), ("se", (None, None))):
                    writer.writerow(
                        prefix
                        + [kind, "", ""]
                        + [_fmt(getattr(agg, _stat_field(kind, name))) for name in _AVERAGED]
                        + [""] * 8
                        + [agg.n_reps, agg.n_feasible, agg.n_infeasible]
                        + [_fmt(p) for p in pooled]
                    )
