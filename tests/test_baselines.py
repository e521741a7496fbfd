import math

import numpy as np
import pytest

from crowdfdb import (
    CapacityError,
    Policy,
    Population,
    Priors,
    compose_policy_accuracy,
    diagonal_accuracies,
    greedy_plan,
    random_policy,
)

PRIORS = Priors(p_z1=0.5, p_y1_given_z0=0.4, p_y1_given_z1=0.6)


def flat_estimates(diagonals):
    """Per-worker (z, y) arrays, each the same accuracy for every type."""
    return [np.full((2, 2), d) for d in diagonals]


class TestRandomPolicy:
    def test_four_hundred_workers(self):
        p = random_policy(400)
        assert np.all(p.weights == 1.0 / 400)

    def test_single_worker(self):
        assert random_policy(1).weights == pytest.approx([1.0])

    def test_three_workers_sum_to_one(self):
        p = random_policy(3)
        assert p.weights == pytest.approx([1 / 3, 1 / 3, 1 / 3])
        assert p.weights.sum() == pytest.approx(1.0)

    def test_composed_accuracy_is_unweighted_mean(self):
        rng = np.random.default_rng(8)
        workers = Population(
            ids=tuple(f"w{i}" for i in range(6)), correct=rng.uniform(0.2, 0.95, (6, 2, 2)), cost=np.ones(6)
        )
        mixed = compose_policy_accuracy(random_policy(6), workers)
        assert np.allclose(mixed, workers.correct.mean(axis=0), atol=1e-12)


class TestGreedyPlan:
    def test_order_matches_sorted_reference(self):
        # few distinct diagonals and fees, so many densities tie, with
        # zero-fee workers tied at infinite density
        rng = np.random.default_rng(12)
        diag = rng.choice([0.45, 0.6, 0.8, 0.9], size=80).tolist()
        costs = rng.choice([0.0, 0.5, 1.0, 2.0], size=80).tolist()
        estimates = flat_estimates(diag)
        plan = greedy_plan(estimates, costs, PRIORS, beta=0.05, total_tasks=437)
        accuracy = diagonal_accuracies(estimates, PRIORS)
        density = [math.inf if c == 0.0 else float(a / c) for a, c in zip(accuracy, costs)]
        reference = sorted(range(len(diag)), key=lambda i: (-density[i], i))
        assert plan.order == tuple(reference)
        counts = [0] * len(diag)
        remaining = 437
        for i in reference:
            counts[i] = min(plan.cap, remaining)
            remaining -= counts[i]
        assert plan.counts == tuple(counts)
        assert 0 < plan.counts.count(plan.cap) < len(diag)

    def test_two_workers_equal_cost(self):
        plan = greedy_plan(flat_estimates([0.9, 0.6]), [1.0, 1.0], PRIORS, beta=0.6, total_tasks=10)
        assert plan.counts == (6, 4)
        assert plan.order == (0, 1)
        assert plan.cap == 6

    def test_identical_workers_fill_in_index_order(self):
        plan = greedy_plan(flat_estimates([0.8] * 4), [1.0] * 4, PRIORS, beta=0.3, total_tasks=10)
        assert plan.order == (0, 1, 2, 3)
        assert plan.counts == (3, 3, 3, 1)

    def test_high_cost_inverts_density_order(self):
        # accuracy 0.9 at fee 3 has density 0.3; accuracy 0.6 at fee 1 has 0.6:
        # the cheap, less accurate worker fills first
        plan = greedy_plan(flat_estimates([0.9, 0.6]), [3.0, 1.0], PRIORS, beta=0.6, total_tasks=10)
        assert plan.order == (1, 0)
        assert plan.counts == (4, 6)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            greedy_plan(flat_estimates([0.9, 0.6]), [1.0, 1.0], PRIORS, beta=0.04, total_tasks=10)

    def test_respects_cap_and_total(self):
        rng = np.random.default_rng(4)
        diag = rng.uniform(0.3, 0.95, size=12)
        costs = rng.uniform(0.5, 3.0, size=12)
        plan = greedy_plan(flat_estimates(diag), costs, PRIORS, beta=0.17, total_tasks=537)
        assert sum(plan.counts) == 537
        assert all(c <= plan.cap for c in plan.counts)
        assert plan.cap == int(np.floor(0.17 * 537))

    def test_uncapped_concentrates_on_best_density(self):
        plan = greedy_plan(
            flat_estimates([0.7, 0.95, 0.8]), [1.0, 1.0, 1.0], PRIORS, beta=1.0, total_tasks=25
        )
        assert plan.counts == (0, 25, 0)

    def test_zero_cost_worker_has_infinite_density(self):
        plan = greedy_plan(flat_estimates([0.5, 0.9]), [0.0, 1.0], PRIORS, beta=0.8, total_tasks=10)
        assert plan.order == (0, 1)
        assert plan.counts == (8, 2)

    def test_assignment_sequence_layout(self):
        plan = greedy_plan(flat_estimates([0.9, 0.6]), [1.0, 1.0], PRIORS, beta=0.6, total_tasks=10)
        seq = plan.assignment_sequence()
        assert seq.tolist() == [0] * 6 + [1] * 4

    @pytest.mark.parametrize("beta, total_tasks", [(0.01, 6150), (0.17, 537), (1.0, 25)])
    def test_assignment_sequence_matches_the_per_worker_loop(self, beta, total_tasks):
        rng = np.random.default_rng(total_tasks)
        estimates = rng.integers(0, 6, size=(400, 2, 2)) / 5  # k/5: many tied densities
        costs = rng.choice([0.0, 1.0, 1.5], size=400)
        plan = greedy_plan(estimates, costs, PRIORS, beta=beta, total_tasks=total_tasks)
        reference = np.concatenate([np.full(plan.counts[i], i, dtype=np.int64) for i in plan.order if plan.counts[i]])
        seq = plan.assignment_sequence()
        assert seq.dtype == np.int64 and seq.tobytes() == reference.tobytes()
