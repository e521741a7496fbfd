"""Fairness-, diversity- and budget-constrained crowdsourcing assignment.

Estimate worker accuracy from gold tasks, solve a linear program for the
accuracy-maximizing worker-selection policy under fairness, diversity,
and budget constraints, compare against random/greedy baselines, compute
the associated high-probability guarantees, and reproduce the experiment
protocol with a fully seeded simulation harness.
"""

from ._version import __version__
from .baselines import CapacityError, GreedyPlan, greedy_plan, random_policy
from .bounds import accuracy_loss_bound, fairness_violation_bound
from .config import default_population_spec, default_task_pool_spec
from .datagen import (
    AccuracyLinkedCost,
    ClusterBiasModel,
    FileFormatError,
    IntervalBiasModel,
    PopulationSpec,
    TaskPool,
    TaskPoolSpec,
    UniformCost,
    generate_population,
    generate_task_pool,
    load_gold_tallies,
    load_responses,
    load_tasks,
    load_workers,
    save_gold_tallies,
    save_tasks,
    save_workers,
)
from .estimation import (
    EstimationError,
    GoldPhaseConfig,
    GoldResponseTally,
    GoldTallies,
    estimate_matrices,
    estimate_tallies,
    run_gold_phase,
    simulate_gold_tally,
)
from .lp import (
    ConstraintSet,
    LpProblem,
    LpSolution,
    LpStatus,
    SolverError,
    Violation,
    build_lp,
    dump,
    solve_lp,
    verify_solution,
)
from .model import (
    DimensionMismatchError,
    FairnessKind,
    Policy,
    Population,
    Priors,
    TOL,
    Tolerances,
    WorkerProfile,
    compose_policy_accuracy,
    diagonal_accuracies,
    expected_accuracy,
    fairness_gap,
)
from .pipeline import PipelineResult, build_policy
from .rng import mix, stream
from .simulator import (
    AggregateMetrics,
    ExperimentConfig,
    METHODS,
    MetricsReport,
    SweepPointResult,
    SweepSpec,
    aggregate_reports,
    resolve_inputs,
    run_experiment,
    run_once,
    write_results_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
