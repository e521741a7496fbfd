import math

import numpy as np
import pytest

from crowdfdb import (
    ConstraintSet,
    FairnessKind,
    GoldPhaseConfig,
    GoldTallies,
    LpStatus,
    Population,
    Priors,
    build_policy,
    compose_policy_accuracy,
    default_population_spec,
    fairness_gap,
    fairness_violation_bound,
    generate_population,
    run_gold_phase,
)
from fixtures import make_binding_fairness_instance

PRIORS = Priors(p_z1=0.5, p_y1_given_z0=0.4, p_y1_given_z1=0.6)


def perfect_workers(n):
    return Population(ids=tuple(f"w{i}" for i in range(n)), correct=np.ones((n, 2, 2)), cost=np.ones(n))


def tallies_of(*rows):
    """GoldTallies from (id, attempted, correct) rows, the same counts for all four types."""
    ids, attempted, correct = zip(*rows)
    return GoldTallies(ids, np.broadcast_to(np.array(attempted)[:, None, None], (len(ids), 2, 2)),
                       np.broadcast_to(np.array(correct)[:, None, None], (len(ids), 2, 2)))


class TestBuildPolicy:
    def test_perfect_workers_reach_accuracy_one(self):
        cs = ConstraintSet(alpha=0.01, beta=0.5, budget=2.0, fairness_kind=FairnessKind.ERROR_RATE_PARITY)
        result = build_policy(perfect_workers(4), GoldPhaseConfig(5), PRIORS, cs, seed=3)
        assert result.solution.status == LpStatus.OPTIMAL
        assert result.solution.objective_value == pytest.approx(1.0)

    def test_single_worker_under_cap_forwards_hint(self):
        cs = ConstraintSet(alpha=math.inf, beta=0.5, budget=math.inf, fairness_kind=FairnessKind.NONE)
        result = build_policy(perfect_workers(1), GoldPhaseConfig(5), PRIORS, cs, seed=3)
        assert result.solution.status == LpStatus.INFEASIBLE
        assert result.solution.policy is None
        assert "diversity" in result.solution.relaxation_hints
        assert result.solution.objective_value is None
        assert result.binding == ()

    def test_mirrored_pair_alpha_zero_binds_fairness(self):
        workers = make_binding_fairness_instance(0.3, 1, seed=6)
        cs = ConstraintSet(alpha=0.0, beta=0.6, budget=math.inf, fairness_kind=FairnessKind.FPR_PARITY)
        # large gold count: the estimated optimum converges on the symmetric
        # split (the exact [0.5, 0.5] vertex is asserted at the LP layer,
        # where the program is built from the true matrices)
        result = build_policy(workers, GoldPhaseConfig(4000), PRIORS, cs, seed=10)
        assert result.solution.status == LpStatus.OPTIMAL
        assert result.solution.policy.weights == pytest.approx([0.5, 0.5], abs=0.02)
        assert any(label.startswith("fpr") for label in result.binding)

    def test_idempotent_for_fixed_seed(self):
        workers = make_binding_fairness_instance(0.2, 3, seed=1)
        cs = ConstraintSet(alpha=0.05, beta=0.4, budget=1.5, fairness_kind=FairnessKind.ERROR_RATE_PARITY)
        a = build_policy(workers, GoldPhaseConfig(15), PRIORS, cs, seed=42)
        b = build_policy(workers, GoldPhaseConfig(15), PRIORS, cs, seed=42)
        assert a.estimates.tobytes() == b.estimates.tobytes()
        assert a.solution == b.solution
        assert (a.fairness_bound, a.binding) == (b.fairness_bound, b.binding)

    def test_bound_taken_at_default_confidence(self):
        workers = perfect_workers(3)
        cs = ConstraintSet(alpha=0.01, beta=0.5, budget=2.0)
        result = build_policy(workers, GoldPhaseConfig(20), PRIORS, cs, seed=0)
        assert result.fairness_bound == fairness_violation_bound(3, 20, 0.9) > 0.0

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.2, math.nan])
    @pytest.mark.parametrize("recorded", [False, True])
    def test_bad_confidence_rejected_before_any_work(self, monkeypatch, confidence, recorded):
        def boom(*args, **kwargs):
            raise AssertionError("work done before the confidence was checked")

        for name in ("run_gold_phase", "estimate_tallies", "solve_lp"):
            monkeypatch.setattr(f"crowdfdb.pipeline.{name}", boom)
        tallies = tallies_of(("w0", 5, 5), ("w1", 5, 5)) if recorded else None
        cs = ConstraintSet(alpha=0.01, beta=0.5, budget=2.0)
        with pytest.raises(ValueError) as err:
            build_policy(perfect_workers(2), GoldPhaseConfig(5), PRIORS, cs, seed=0, tallies=tallies,
                         confidence=confidence)
        assert str(err.value) == f"confidence must lie in (0, 1), got {confidence}"

    def test_tallies_input_used_instead_of_simulation(self):
        workers = perfect_workers(2)
        tallies = tallies_of(("w0", 10, 5), ("w1", 10, 10))
        cs = ConstraintSet(alpha=math.inf, beta=0.9, budget=math.inf, fairness_kind=FairnessKind.NONE)
        result = build_policy(workers, GoldPhaseConfig(10), PRIORS, cs, seed=0, tallies=tallies)
        assert result.estimates[0, 0, 0] == pytest.approx(0.5)
        assert np.all(result.estimates[1] == 1.0)
        # the optimum leans on the worker whose recorded tallies are perfect
        assert result.solution.policy.weights[1] == pytest.approx(0.9, abs=1e-9)

    def test_tallies_follow_the_population_order_not_the_file_order(self):
        workers = Population(ids=("b", "a"), correct=np.ones((2, 2, 2)), cost=np.ones(2))
        tallies = tallies_of(("a", 10, 10), ("b", 10, 5))
        cs = ConstraintSet(alpha=math.inf, beta=0.9, budget=math.inf, fairness_kind=FairnessKind.NONE)
        result = build_policy(workers, GoldPhaseConfig(10), PRIORS, cs, seed=0, tallies=tallies)
        assert result.estimates[:, 0, 0].tolist() == [0.5, 1.0]

    def test_tallies_of_other_workers_are_ignored(self):
        workers = perfect_workers(2)
        tallies = tallies_of(("x", 0, 0), ("w1", 10, 10), ("w0", 10, 5))
        cs = ConstraintSet(alpha=math.inf, beta=0.9, budget=math.inf, fairness_kind=FairnessKind.NONE)
        result = build_policy(workers, GoldPhaseConfig(10), PRIORS, cs, seed=0, tallies=tallies)
        assert result.estimates[:, 0, 0].tolist() == [0.5, 1.0]

    def test_bound_takes_the_fewest_answers_of_the_matched_tallies(self):
        attempted = np.full((3, 2, 2), 12)
        attempted[1, 1, 0] = 7  # w1's (z=1, y=0) type
        attempted[2] = 1  # x is no worker of this population
        tallies = GoldTallies(("w0", "w1", "x"), attempted, attempted)
        cs = ConstraintSet(alpha=math.inf, beta=0.9, budget=math.inf, fairness_kind=FairnessKind.NONE)
        result = build_policy(perfect_workers(2), GoldPhaseConfig(40), PRIORS, cs, seed=0, tallies=tallies)
        assert result.fairness_bound == fairness_violation_bound(2, 7, 0.9)

    @pytest.mark.parametrize("smoothing", [False, True])
    @pytest.mark.parametrize("n_gold", [1, 5, 20])
    def test_drawn_gold_equals_its_tallies_passed_as_recorded(self, n_gold, smoothing):
        workers = generate_population(default_population_spec(seed=5, n_workers=60))
        gold = GoldPhaseConfig(n_gold, smoothing=smoothing)
        cs = ConstraintSet(alpha=0.05, beta=0.05, budget=1.0, fairness_kind=FairnessKind.ERROR_RATE_PARITY)
        drawn = build_policy(workers, gold, PRIORS, cs, seed=8)
        recorded = build_policy(workers, gold, PRIORS, cs, seed=0, tallies=run_gold_phase(workers, gold, 8))
        assert drawn.solution.status == recorded.solution.status == LpStatus.OPTIMAL
        assert drawn.estimates.tobytes() == recorded.estimates.tobytes()
        assert drawn.solution.policy.weights.tobytes() == recorded.solution.policy.weights.tobytes()
        assert drawn.fairness_bound == recorded.fairness_bound == fairness_violation_bound(60, n_gold, 0.9)
        assert drawn.binding == recorded.binding

    def test_tallies_missing_worker_rejected(self):
        workers = perfect_workers(2)
        tallies = tallies_of(("w0", 5, 5))
        cs = ConstraintSet(alpha=math.inf, beta=0.9, budget=math.inf, fairness_kind=FairnessKind.NONE)
        with pytest.raises(ValueError) as err:
            build_policy(workers, GoldPhaseConfig(5), PRIORS, cs, seed=0, tallies=tallies)
        assert str(err.value) == "gold tallies missing for 1 of 2 workers, first 'w1'"

    def test_missing_tallies_are_counted_not_listed(self):
        workers = perfect_workers(400)
        tallies = tallies_of(("w0", 5, 5), ("w7", 5, 5))
        cs = ConstraintSet(alpha=math.inf, beta=0.9, budget=math.inf, fairness_kind=FairnessKind.NONE)
        with pytest.raises(ValueError) as err:
            build_policy(workers, GoldPhaseConfig(5), PRIORS, cs, seed=0, tallies=tallies)
        assert str(err.value) == "gold tallies missing for 398 of 400 workers, first 'w1'"

    def test_tallies_repeating_a_worker_rejected(self):
        with pytest.raises(ValueError, match="repeat worker id 'w0'"):
            tallies_of(("w0", 5, 5), ("w1", 5, 5), ("w0", 5, 0))

    def test_large_gold_count_keeps_true_gap_near_alpha(self):
        # estimated-vs-true consistency at n_gold = 10^4
        rng = np.random.default_rng(17)
        alpha = 0.02
        for trial in range(3):
            diag = rng.uniform(0.55, 0.95, size=(8, 4))
            workers = Population(ids=tuple(f"w{i}" for i in range(8)), correct=diag.reshape(8, 2, 2), cost=np.ones(8))
            cs = ConstraintSet(
                alpha=alpha, beta=0.3, budget=math.inf, fairness_kind=FairnessKind.FPR_PARITY
            )
            result = build_policy(workers, GoldPhaseConfig(10_000), PRIORS, cs, seed=trial)
            assert result.solution.status == LpStatus.OPTIMAL
            true_gap = fairness_gap(
                compose_policy_accuracy(result.solution.policy, workers), FairnessKind.FPR_PARITY
            )
            assert true_gap <= alpha + 0.05
