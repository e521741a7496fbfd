"""End-to-end policy construction: gold phase, estimation, LP solve."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bounds import BoundQuery, fairness_violation_bound
from .estimation import (
    EstimationError,
    GoldPhaseConfig,
    GoldResponseTally,
    estimate_tallies,
    run_gold_phase,
)
from .lp import ConstraintSet, LpSolution, LpStatus, binding_rows, build_lp, solve_lp
from .model import Policy, Population, Priors

BINDING_TOL = 1e-6
DEFAULT_CONFIDENCE = 0.9


@dataclass(frozen=True)
class PipelineDiagnostics:
    """Run-level guarantees: the fairness-slack inflation bound at the
    requested confidence, the LP's predicted accuracy, and which caps and
    inequality rows sit within BINDING_TOL of equality."""

    confidence: float
    fairness_bound: float
    predicted_accuracy: float | None
    binding: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class PipelineResult:
    estimates: np.ndarray  # (n, z, y) estimated P(correct | z, y)
    solution: LpSolution
    policy: Policy | None
    diagnostics: PipelineDiagnostics


def build_policy(
    population: Population,
    gold_cfg: GoldPhaseConfig,
    priors: Priors,
    constraints: ConstraintSet,
    seed: int,
    tallies: list[tuple[str, GoldResponseTally]] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> PipelineResult:
    """Estimate every worker, build the LP, and solve it.

    When recorded gold tallies are supplied they are matched to workers by
    id, which must not repeat, and used instead of simulated gold
    responses; otherwise worker i's responses are drawn from the stream
    (seed, "gold", i).
    """
    if tallies is None:
        estimates = run_gold_phase(population, gold_cfg, seed)
    else:
        by_id = dict(tallies)
        if len(by_id) != len(tallies):
            repeated = next(i for i, count in Counter(i for i, _ in tallies).items() if count > 1)
            raise ValueError(f"gold tallies repeat worker id {repeated!r}")
        missing = [i for i in population.ids if i not in by_id]
        if missing:
            raise ValueError(f"gold tallies missing for workers: {', '.join(missing)}")
        ordered = [by_id[i] for i in population.ids]
        try:
            estimates = estimate_tallies(ordered, smoothing=gold_cfg.smoothing)
        except EstimationError as err:
            worker = next(i for i, tally in zip(population.ids, ordered) if 0 in tally.attempted)
            raise EstimationError(f"worker {worker}: {err}") from None

    lp = build_lp(estimates, population.cost, priors, constraints)
    solution = solve_lp(lp)
    delta = fairness_violation_bound(
        BoundQuery(
            n_workers=len(population),
            n_gold_per_type=gold_cfg.n_gold_per_type,
            confidence=confidence,
        )
    )
    if solution.status == LpStatus.OPTIMAL:
        diagnostics = PipelineDiagnostics(
            confidence=confidence,
            fairness_bound=delta,
            predicted_accuracy=solution.objective_value,
            binding=binding_rows(lp, solution.policy, BINDING_TOL),
        )
    else:
        diagnostics = PipelineDiagnostics(
            confidence=confidence,
            fairness_bound=delta,
            predicted_accuracy=None,
            binding=(),
        )
    return PipelineResult(
        estimates=estimates,
        solution=solution,
        policy=solution.policy,
        diagnostics=diagnostics,
    )
