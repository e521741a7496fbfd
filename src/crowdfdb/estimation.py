"""Worker accuracy estimation from gold tasks.

Each worker answers n_gold_per_type tasks of every (z, y) type; the
fraction answered correctly is the estimated P(correct | z, y), entry
[i, z, y] of the (n, z, y) array that run_gold_phase and estimate_tallies
return; simulate_gold_tally and estimate_matrices are the per-worker
reference they match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AccuracyMatrix, WorkerProfile, label_one_probabilities
from .rng import random_rows

# fixed type order used for simulation draws and file columns
TYPE_ORDER: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


class EstimationError(ValueError):
    """Tally cannot produce an estimate (zero attempted count)."""


@dataclass(frozen=True)
class GoldPhaseConfig:
    """Gold-phase settings.

    smoothing adds one success and one failure to every per-type tally
    (so estimates stay interior); off by default because degenerate 0/1
    estimates keep the LP well-posed.
    """

    n_gold_per_type: int
    smoothing: bool = False

    def __post_init__(self) -> None:
        if self.n_gold_per_type < 1:
            raise ValueError(f"n_gold_per_type must be >= 1, got {self.n_gold_per_type}")


@dataclass(frozen=True)
class GoldResponseTally:
    """Attempted/correct counts per (z, y) task type for one worker."""

    attempted: tuple[int, int, int, int]  # ordered as TYPE_ORDER
    correct: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        for (z, y), a, c in zip(TYPE_ORDER, self.attempted, self.correct):
            if a < 0 or c < 0 or c > a:
                raise ValueError(
                    f"tally for type (z={z}, y={y}) needs 0 <= correct <= attempted, "
                    f"got correct={c} attempted={a}"
                )

    def get(self, z: int, y: int) -> tuple[int, int]:
        idx = TYPE_ORDER.index((z, y))
        return self.attempted[idx], self.correct[idx]


def estimate_matrices(
    tally: GoldResponseTally, smoothing: bool = False
) -> tuple[AccuracyMatrix, AccuracyMatrix]:
    """Estimated (z=0, z=1) accuracy matrices from a gold tally."""
    diag = {}
    for z, y in TYPE_ORDER:
        attempted, correct = tally.get(z, y)
        if attempted == 0:
            raise EstimationError(f"no gold tasks attempted for type (z={z}, y={y})")
        if smoothing:
            diag[(z, y)] = (correct + 1) / (attempted + 2)
        else:
            diag[(z, y)] = correct / attempted
    return (
        AccuracyMatrix.from_diagonals(diag[(0, 0)], diag[(0, 1)]),
        AccuracyMatrix.from_diagonals(diag[(1, 0)], diag[(1, 1)]),
    )


def simulate_gold_tally(
    worker: WorkerProfile, n_gold_per_type: int, rng: np.random.Generator
) -> GoldResponseTally:
    """Draw n_gold_per_type i.i.d. responses per type from the true matrices.

    A response to a type-(z, y) task is correct when the sampled label
    equals y; draws consume the stream in TYPE_ORDER.
    """
    attempted = []
    correct = []
    for z, y in TYPE_ORDER:
        p_one = worker.matrix(z)[y, 1]
        labels = rng.random(n_gold_per_type) < p_one
        attempted.append(n_gold_per_type)
        correct.append(int((labels == bool(y)).sum()))
    return GoldResponseTally(attempted=tuple(attempted), correct=tuple(correct))


def estimate_tallies(tallies: list[GoldResponseTally], smoothing: bool = False) -> np.ndarray:
    """Estimated (n, z, y) correctness array: estimate_matrices for every tally."""
    attempted = np.array([t.attempted for t in tallies]).reshape(-1, 2, 2)
    correct = np.array([t.correct for t in tallies]).reshape(-1, 2, 2)
    empty = np.argwhere(attempted == 0)
    if empty.size:
        _, z, y = empty[0]
        raise EstimationError(f"no gold tasks attempted for type (z={z}, y={y})")
    return (correct + smoothing) / (attempted + 2 * smoothing)  # smoothing: one success, one failure


def run_gold_phase(workers: list[WorkerProfile], cfg: GoldPhaseConfig, seed: int) -> np.ndarray:
    """Simulate the gold phase and return the (n, z, y) estimate array.

    Worker i's draws are those of the derived stream (seed, "gold", i),
    consumed in TYPE_ORDER exactly as simulate_gold_tally does; random_rows
    computes all n streams' draws in one vectorised pass, and each worker's
    estimate depends on its own stream only.
    """
    if not workers:
        raise ValueError("worker list must be nonempty")
    n_gold = cfg.n_gold_per_type
    draws = random_rows(seed, "gold", len(workers), 4 * n_gold)
    labels = draws.reshape(-1, 2, 2, n_gold) < label_one_probabilities(workers)[..., None]
    correct = (labels == np.array([[False], [True]])).sum(axis=-1)  # label == y
    return (correct + cfg.smoothing) / (n_gold + 2 * cfg.smoothing)
