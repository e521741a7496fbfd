"""End-to-end policy construction: gold phase, estimation, LP solve."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundQuery, fairness_violation_bound
from .estimation import GoldPhaseConfig, GoldTallies, estimate_tallies, run_gold_phase
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
    tallies: GoldTallies | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> PipelineResult:
    """Estimate every worker, build the LP, and solve it.

    When recorded gold tallies are supplied they are matched to workers by
    id and used instead of simulated gold responses; tallies of other
    workers are ignored, and the fairness bound is taken at the smallest
    attempted count of the matched tallies, not at
    gold_cfg.n_gold_per_type.  Otherwise worker i's responses are drawn
    from the stream (seed, "gold", i).  The bound's inputs, confidence
    included, are checked before any gold response is drawn or read.
    """
    query = BoundQuery(n_workers=len(population), n_gold_per_type=gold_cfg.n_gold_per_type, confidence=confidence)
    if tallies is None:
        estimates = run_gold_phase(population, gold_cfg, seed)
    else:
        row = dict(zip(tallies.ids, range(len(tallies))))
        order = np.fromiter((row.get(i, -1) for i in population.ids), dtype=np.intp, count=len(population))
        missing = np.flatnonzero(order < 0)
        if missing.size:
            raise ValueError(
                f"gold tallies missing for {missing.size} of {len(population)} workers, "
                f"first {population.ids[missing[0]]!r}"
            )
        ordered = GoldTallies(population.ids, tallies.attempted[order], tallies.correct[order])
        estimates = estimate_tallies(ordered, smoothing=gold_cfg.smoothing)
        query = replace(query, n_gold_per_type=int(ordered.attempted.min()))  # >= 1: estimate_tallies rejects 0

    lp = build_lp(estimates, population.cost, priors, constraints)
    solution = solve_lp(lp)
    delta = fairness_violation_bound(query)
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
