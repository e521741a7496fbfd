"""Core domain types: worker correctness, assignment policies, priors.

A worker is four correctness probabilities and a fee: correct[z, y] is the
probability that the worker labels a task of group z and true label y
correctly.  With binary labels this fixes the worker's 2x2 row-stochastic
accuracy matrix for each group, entry [y, yhat] = P(label yhat | truth y),
which WorkerProfile.matrix(z) derives as a plain 2x2 array; no type holds
such a matrix, and only worker files spell one out.  A population carries
its workers as arrays, Population(ids, correct (n, z, y), cost (n,)),
validated once when it is built; indexing it gives one worker's
WorkerProfile view.  A policy is a probability vector over workers, and its
group-level correctness is the policy-weighted mixture of the workers', one
(z, y) array.

Estimates travel the same way, as one (n, z, y) correctness array
diag[i, z, y] = P(correct | z, y); wherever a list of per-worker (z, y)
arrays is passed instead, it is read with np.asarray.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Fixed numerical tolerances shared across the package (see README).

    structural:     row sums of the worker-file accuracy matrices
    policy_sum:     policy weight sums
    lp_feasibility: constraint residuals accepted from the LP solver
    lp_optimality:  reduced-cost threshold for simplex termination

    One rule joins the LP to the policy: the solver accepts each row at
    lp_feasibility, but the total row of an optimal solution must land
    within policy_sum, or solve_lp raises SolverError (a solver failure,
    not a user error).
    """

    structural: float = 1e-12
    policy_sum: float = 1e-9
    lp_feasibility: float = 1e-7
    lp_optimality: float = 1e-9


TOL = Tolerances()


class DimensionMismatchError(ValueError):
    """Policy length and worker count disagree."""


class FairnessKind(Enum):
    FPR_PARITY = "fpr"
    FNR_PARITY = "fnr"
    ERROR_RATE_PARITY = "error-rate"
    NONE = "none"


@dataclass(frozen=True, eq=False)
class WorkerProfile:
    """One worker: read-only correct[z, y] = P(correct | z, y) and the per-label fee."""

    id: str
    correct: np.ndarray
    cost: float

    def __post_init__(self) -> None:
        c = np.array(self.correct, dtype=float)
        if c.shape != (2, 2):
            raise ValueError(f"worker correctness must be 2x2 [z, y], got shape {c.shape}")
        if not all(0.0 <= v <= 1.0 for v in c.ravel().tolist()):  # NaN fails every comparison
            raise ValueError(f"worker correctness entries must lie in [0, 1]: {c.tolist()}")
        c.flags.writeable = False
        object.__setattr__(self, "correct", c)
        if not (self.cost >= 0.0 and np.isfinite(self.cost)):
            raise ValueError(f"worker cost must be finite and >= 0, got {self.cost}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, WorkerProfile):
            return NotImplemented
        return (self.id, self.cost) == (other.id, other.cost) and bool(
            np.array_equal(self.correct, other.correct)
        )

    def __hash__(self) -> int:
        return hash((self.id, self.cost))

    def matrix(self, z: int) -> np.ndarray:
        """The group-z accuracy matrix implied by the diagonal correct[z], as a
        new 2x2 array: entry [y, yhat] = P(label yhat | truth y)."""
        if z not in (0, 1):
            raise ValueError(f"sensitive attribute must be 0 or 1, got {z}")
        on_0, on_1 = self.correct[z].tolist()
        return np.array([[on_0, 1.0 - on_0], [1.0 - on_1, on_1]])


@dataclass(frozen=True, eq=False)
class Population:
    """Workers in order: their ids, read-only correct[i, z, y] = P(correct | z, y)
    and read-only cost[i], the per-label fee; validated once, when it is built.

    population[i] is worker i as a WorkerProfile, built on demand; the
    package itself reads only the arrays.
    """

    ids: tuple[str, ...]
    correct: np.ndarray
    cost: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ids)
        correct, cost = np.array(self.correct, dtype=float), np.array(self.cost, dtype=float)
        if n == 0:
            raise ValueError("population needs at least one worker")
        if correct.shape != (n, 2, 2) or cost.shape != (n,):
            raise ValueError(
                f"{n} workers need correct of shape ({n}, 2, 2) [i, z, y] and cost of shape ({n},), "
                f"got {correct.shape} and {cost.shape}"
            )
        inside = ((correct >= 0.0) & (correct <= 1.0)).all(axis=(1, 2))  # NaN fails every comparison
        if not inside.all():
            raise ValueError(f"worker correctness entries must lie in [0, 1]: {correct[inside.argmin()].tolist()}")
        valid = (cost >= 0.0) & np.isfinite(cost)
        if not valid.all():
            raise ValueError(f"worker cost must be finite and >= 0, got {float(cost[valid.argmin()])}")
        correct.flags.writeable = cost.flags.writeable = False
        for name, value in (("ids", tuple(self.ids)), ("correct", correct), ("cost", cost)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> WorkerProfile:
        return WorkerProfile(id=self.ids[i], correct=self.correct[i], cost=float(self.cost[i]))


@dataclass(frozen=True, eq=False)
class Policy:
    """Stochastic selection vector: weights[i] = P(task goes to worker i)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("policy weights must be a nonempty 1-D vector")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0) or np.any(w > 1.0):
            raise ValueError("policy weights must lie in [0, 1]")
        total = float(w.sum())
        if abs(total - 1.0) > TOL.policy_sum:
            raise ValueError(f"policy weights must sum to 1 within {TOL.policy_sum}, got {total!r}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return int(self.weights.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Policy):
            return NotImplemented
        return bool(np.array_equal(self.weights, other.weights))

    def __hash__(self) -> int:
        return hash(self.weights.tobytes())

    def entropy(self) -> float:
        """Shannon entropy of the selection distribution, in nats."""
        w = self.weights[self.weights > 0.0]
        return float(-(w * np.log(w)).sum())


@dataclass(frozen=True)
class Priors:
    """Known pool-level priors: P(Z=1) and P(Y=1 | Z=z) for each group."""

    p_z1: float
    p_y1_given_z0: float
    p_y1_given_z1: float

    def __post_init__(self) -> None:
        for name in ("p_z1", "p_y1_given_z0", "p_y1_given_z1"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"prior {name} must lie in [0, 1], got {v}")

    def p_z(self, z: int) -> float:
        return self.p_z1 if z == 1 else 1.0 - self.p_z1

    def p_y(self, z: int, y: int) -> float:
        p1 = self.p_y1_given_z1 if z == 1 else self.p_y1_given_z0
        return p1 if y == 1 else 1.0 - p1

    def type_weight(self, z: int, y: int) -> float:
        """Joint probability that a random task has group z and truth y."""
        return self.p_z(z) * self.p_y(z, y)


def _check_dimensions(policy: Policy, population: Population) -> None:
    if len(policy) != len(population):
        raise DimensionMismatchError(
            f"policy has {len(policy)} weights but there are {len(population)} workers"
        )


def compose_policy_accuracy(policy: Policy, population: Population) -> np.ndarray:
    """The policy's group-level correctness, mixed[z, y]: the policy-weighted
    mixture of the workers' correctness, divided by the exact weight total
    (policy sums are only required to be 1 within the policy_sum tolerance)."""
    _check_dimensions(policy, population)
    w = policy.weights
    mixed = np.tensordot(w, population.correct, axes=1) / float(w.sum())
    return np.clip(mixed, 0.0, 1.0)


def label_one_probabilities(population: Population) -> np.ndarray:
    """True P(label 1 | z, y) of every worker, as an (n, z, y) array."""
    correct = population.correct
    return np.where(np.array([False, True]), correct, 1.0 - correct)  # label 1 is correct iff y == 1


def diagonal_accuracies(estimates: np.ndarray | list[np.ndarray], priors: Priors) -> np.ndarray:
    """Per-worker expected accuracy on a random task, as a vector.

    Estimates are the (n, z, y) correctness array, or a list of per-worker
    (z, y) arrays.  Entry i is sum_z P(Z=z) * sum_y P_z(Y=y) * diag[i, z, y];
    this is both the negated LP objective coefficient and the greedy density
    numerator.
    """
    diag = np.asarray(estimates, dtype=float)
    weight = np.array([[priors.type_weight(z, y) for y in (0, 1)] for z in (0, 1)])
    return np.tensordot(diag, weight, axes=([1, 2], [0, 1]))


def expected_accuracy(policy: Policy, population: Population, priors: Priors) -> float:
    """Probability that a label collected under the policy is correct."""
    _check_dimensions(policy, population)
    return float(np.dot(policy.weights, diagonal_accuracies(population.correct, priors)))


def fairness_gap(mixed: np.ndarray, kind: FairnessKind) -> float:
    """Absolute between-group error-rate difference of a policy's mixed[z, y].

    FPR parity compares the error rates on truth y = 0, FNR parity those on
    y = 1, and error-rate parity takes the larger of the two gaps.
    """
    errors = 1.0 - np.asarray(mixed)  # [z, y]: the FPR at y = 0, the FNR at y = 1
    fpr_gap, fnr_gap = np.abs(errors[0] - errors[1]).tolist()
    if kind is FairnessKind.FPR_PARITY:
        return fpr_gap
    if kind is FairnessKind.FNR_PARITY:
        return fnr_gap
    if kind is FairnessKind.ERROR_RATE_PARITY:
        return max(fpr_gap, fnr_gap)
    raise ValueError(f"fairness_gap is undefined for kind {kind}")
