"""Comparison policies: uniform Random and density-Greedy assignment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Policy, Priors, diagonal_accuracies


class CapacityError(ValueError):
    """Greedy cannot place all tasks under the per-worker cap."""


def random_policy(n: int) -> Policy:
    """Every worker equally likely: weight 1/n each."""
    if n < 1:
        raise ValueError(f"need at least one worker, got {n}")
    return Policy(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class GreedyPlan:
    """Per-worker task counts from the density-greedy fill.

    order lists worker indices by decreasing density (accuracy per unit
    fee), which is also the order tasks are handed out in.
    """

    counts: tuple[int, ...]
    order: tuple[int, ...]
    cap: int
    total_tasks: int

    def assignment_sequence(self) -> np.ndarray:
        """Worker index for each task slot, highest-density workers first."""
        order = np.array(self.order, dtype=int)
        return np.repeat(order, np.array(self.counts)[order])


def greedy_plan(
    estimates: np.ndarray | list[np.ndarray],
    costs: list[float] | np.ndarray,
    priors: Priors,
    beta: float,
    total_tasks: int,
) -> GreedyPlan:
    """Fill workers to floor(beta * T) in decreasing density order.

    Estimates are the (n, z, y) correctness array, or a list of per-worker
    (z, y) arrays.  Density is estimated expected accuracy divided by
    fee (infinite for a free worker); ties break toward the lower worker
    index.  Unlike the LP policy the greedy baseline must know the task
    count T in advance.
    """
    n = len(estimates)
    if total_tasks < 1:
        raise ValueError(f"total_tasks must be >= 1, got {total_tasks}")
    costs = np.asarray(costs, dtype=float)
    cap = int(math.floor(beta * total_tasks + 1e-9))
    if cap * n < total_tasks:
        raise CapacityError(
            f"cap floor(beta*T)={cap} over {n} workers cannot hold {total_tasks} tasks"
        )
    accuracy = diagonal_accuracies(estimates, priors)
    free = costs == 0.0
    density = np.where(free, math.inf, accuracy / np.where(free, 1.0, costs))
    order = np.argsort(-density, kind="stable")
    counts = np.zeros(n, dtype=int)
    counts[order] = np.clip(total_tasks - cap * np.arange(n), 0, cap)
    return GreedyPlan(
        counts=tuple(counts.tolist()), order=tuple(order.tolist()), cap=cap, total_tasks=total_tasks
    )
