"""End-to-end policy construction: gold tallies (drawn or recorded, one
GoldTallies either way) -> estimate_tallies -> LP solve."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import fairness_violation_bound
from .estimation import GoldPhaseConfig, GoldTallies, estimate_tallies, run_gold_phase
from .lp import ConstraintSet, LpSolution, LpStatus, binding_rows, build_lp, solve_lp
from .model import Population, Priors

BINDING_TOL = 1e-6
DEFAULT_CONFIDENCE = 0.9


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """The estimates, the LP solution (its policy and predicted accuracy
    are solution.policy and solution.objective_value), the fairness-slack
    inflation bound at the requested confidence, and which caps and
    inequality rows sit within BINDING_TOL of equality (none unless the
    solve is optimal)."""

    estimates: np.ndarray  # (n, z, y) estimated P(correct | z, y)
    solution: LpSolution
    fairness_bound: float
    binding: tuple[str, ...]


def _matched(tallies: GoldTallies, population: Population) -> GoldTallies:
    """The tallies of the population's workers, in population order."""
    row = dict(zip(tallies.ids, range(len(tallies))))
    order = np.fromiter((row.get(i, -1) for i in population.ids), dtype=np.intp, count=len(population))
    missing = np.flatnonzero(order < 0)
    if missing.size:
        raise ValueError(
            f"gold tallies missing for {missing.size} of {len(population)} workers, "
            f"first {population.ids[missing[0]]!r}"
        )
    return GoldTallies(population.ids, tallies.attempted[order], tallies.correct[order])


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

    Worker i's gold responses are drawn from the stream (seed, "gold", i),
    unless recorded gold tallies are supplied: those are matched to workers
    by id, and tallies of other workers are ignored.  The fairness bound is
    taken at the smallest attempted count of the tallies used, which is
    gold_cfg.n_gold_per_type for drawn ones.  The bound's inputs,
    confidence included, are checked before any gold response is drawn or
    read.
    """
    fairness_violation_bound(len(population), gold_cfg.n_gold_per_type, confidence)  # raises on bad inputs first
    tallies = run_gold_phase(population, gold_cfg, seed) if tallies is None else _matched(tallies, population)
    estimates = estimate_tallies(tallies, smoothing=gold_cfg.smoothing)
    # >= 1: estimate_tallies rejects a type never attempted
    delta = fairness_violation_bound(len(population), int(tallies.attempted.min()), confidence)

    lp = build_lp(estimates, population.cost, priors, constraints)
    solution = solve_lp(lp)
    binding = binding_rows(lp, solution.policy, BINDING_TOL) if solution.status == LpStatus.OPTIMAL else ()
    return PipelineResult(estimates=estimates, solution=solution, fairness_bound=delta, binding=binding)
