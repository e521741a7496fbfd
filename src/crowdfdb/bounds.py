"""Closed-form guarantees for policies built from estimated matrices.

Both calculators check the worker count n >= 1, the gold count per type
N_g >= 1 and the confidence in (0, 1), in that order, and accuracy_loss_bound
then its beta in [0, 1).  They share a Hoeffding-style radius

    sqrt((-ln(1 - confidence**(1/root)) + ln 2) / (2 * n_gold_per_type))

whose inner term 1 - confidence**(1/root) underflows when the root is
large (root grows with the worker count), so it is evaluated as
-expm1(ln(confidence) / root), which stays accurate for any n.
"""

from __future__ import annotations

import math


def _radius(n_workers: int, n_gold_per_type: int, confidence: float, root_per_worker: int) -> float:
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_gold_per_type < 1:
        raise ValueError(f"n_gold_per_type must be >= 1, got {n_gold_per_type}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    complement = -math.expm1(math.log(confidence) / (root_per_worker * n_workers))  # 1 - confidence**(1/root)
    return math.sqrt((-math.log(complement) + math.log(2.0)) / (2.0 * n_gold_per_type))


def fairness_violation_bound(n_workers: int, n_gold_per_type: int, confidence: float) -> float:
    """Cap on the extra true fairness gap of an estimate-based policy.

    With probability at least confidence, the policy optimized against
    estimated matrices has a true between-group gap of at most
    alpha + returned value:

        2 * sqrt((-ln(1 - confidence**(1/(2n))) + ln 2) / (2 * N_g))
    """
    return 2.0 * _radius(n_workers, n_gold_per_type, confidence, 2)


def accuracy_loss_bound(n_workers: int, n_gold_per_type: int, confidence: float, beta: float) -> float:
    """Cap on expected-accuracy loss from optimizing against estimates.

    With probability at least confidence (and assuming the true and
    estimate-based optima are feasible for each other's fairness rows):

        2 * n * beta * sqrt((-ln(1 - confidence**(1/(4n))) + ln 2) / (2 * N_g))
    """
    radius = _radius(n_workers, n_gold_per_type, confidence, 4)
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    return 2.0 * n_workers * beta * radius
