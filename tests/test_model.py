import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdfdb import (
    DimensionMismatchError,
    FairnessKind,
    Policy,
    Population,
    Priors,
    WorkerProfile,
    compose_policy_accuracy,
    expected_accuracy,
    fairness_gap,
    stream,
)
from fixtures import as_population
from oracles import loop_expected_accuracy


def worker(diag_z0, diag_z1, cost=1.0, wid="w"):
    return WorkerProfile(id=wid, correct=(diag_z0, diag_z1), cost=cost)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def policies(draw, n):
    raw = draw(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n)
    )
    w = np.array(raw)
    return Policy(w / w.sum())


@st.composite
def populations(draw, n):
    return as_population([
        worker(
            (draw(unit), draw(unit)),
            (draw(unit), draw(unit)),
            wid=f"w{i}",
        )
        for i in range(n)
    ])


class TestPolicy:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Policy(np.array([0.6, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            Policy(np.array([1.1, -0.1]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Policy(np.array([np.nan, 1.0]))

    def test_entropy_uniform(self):
        assert Policy(np.full(4, 0.25)).entropy() == pytest.approx(np.log(4))


class TestPriors:
    def test_validation(self):
        with pytest.raises(ValueError):
            Priors(p_z1=1.5, p_y1_given_z0=0.5, p_y1_given_z1=0.5)

    def test_type_weights_sum_to_one(self):
        p = Priors(0.3, 0.6, 0.2)
        total = sum(p.type_weight(z, y) for z in (0, 1) for y in (0, 1))
        assert total == pytest.approx(1.0)


class TestCompose:
    def test_single_worker_identity_case(self):
        w = worker((0.9, 0.7), (0.8, 0.6))
        mixed = compose_policy_accuracy(Policy(np.array([1.0])), as_population([w]))
        assert np.array_equal(mixed, w.correct)

    def test_identical_workers_fixed_point(self):
        w1 = worker((0.8, 0.75), (0.7, 0.9), wid="a")
        w2 = worker((0.8, 0.75), (0.7, 0.9), wid="b")
        mixed = compose_policy_accuracy(Policy(np.array([0.3, 0.7])), as_population([w1, w2]))
        assert np.allclose(mixed, w1.correct)

    def test_half_half_average(self):
        # frozen hand arithmetic: entrywise average of the two workers' correctness
        a = worker((0.8, 0.7), (0.75, 0.85), wid="a")  # a: z0 fpr 0.2
        b = worker((0.6, 0.9), (0.65, 0.8), wid="b")  # b: z0 fpr 0.4
        mixed = compose_policy_accuracy(Policy(np.array([0.5, 0.5])), as_population([a, b]))
        assert 1.0 - mixed[0, 0] == pytest.approx(0.3, abs=1e-15)
        assert np.allclose(mixed, [[0.7, 0.8], [0.7, 0.825]])

    def test_dimension_mismatch(self):
        workers = as_population([worker((0.8, 0.8), (0.8, 0.8), wid=f"w{i}") for i in range(2)])
        with pytest.raises(DimensionMismatchError):
            compose_policy_accuracy(Policy(np.array([1.0])), workers)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_mixture_is_a_correctness_array(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        workers = data.draw(populations(n))
        policy = data.draw(policies(n))
        mixed = compose_policy_accuracy(policy, workers)
        assert mixed.shape == (2, 2)
        assert np.all((mixed >= 0.0) & (mixed <= 1.0))


class TestExpectedAccuracy:
    def test_perfect_workers(self):
        ws = as_population([worker((1.0, 1.0), (1.0, 1.0), wid=f"w{i}") for i in range(3)])
        p = Policy(np.array([0.2, 0.3, 0.5]))
        assert expected_accuracy(p, ws, Priors(0.4, 0.1, 0.9)) == pytest.approx(1.0)

    def test_uniform_diagonal_prior_independent(self):
        w = worker((0.8, 0.8), (0.8, 0.8))
        for priors in (Priors(0.1, 0.2, 0.3), Priors(0.9, 0.8, 0.7)):
            got = expected_accuracy(Policy(np.array([1.0])), as_population([w]), priors)
            assert got == pytest.approx(0.8)

    def test_frozen_four_term_sum(self):
        # value computed by hand with the independent summation oracle
        w1 = worker((0.9, 0.7), (0.8, 0.6), wid="a")
        w2 = worker((0.6, 0.95), (0.75, 0.85), wid="b")
        priors = Priors(p_z1=0.4, p_y1_given_z0=0.3, p_y1_given_z1=0.55)
        policy = Policy(np.array([0.3, 0.7]))
        assert expected_accuracy(policy, as_population([w1, w2]), priors) == pytest.approx(0.7555, abs=1e-12)
        assert loop_expected_accuracy([0.3, 0.7], [w1, w2], priors) == pytest.approx(
            0.7555, abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_linear_in_policy(self, data):
        n = data.draw(st.integers(min_value=2, max_value=5))
        workers = data.draw(populations(n))
        p1 = data.draw(policies(n))
        p2 = data.draw(policies(n))
        lam = data.draw(st.floats(min_value=0.0, max_value=1.0))
        priors = Priors(0.35, 0.45, 0.6)
        blend = Policy(lam * p1.weights + (1.0 - lam) * p2.weights)
        lhs = expected_accuracy(blend, workers, priors)
        rhs = lam * expected_accuracy(p1, workers, priors) + (1.0 - lam) * expected_accuracy(
            p2, workers, priors
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_loop_oracle(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        workers = data.draw(populations(n))
        policy = data.draw(policies(n))
        priors = Priors(0.25, 0.7, 0.4)
        assert expected_accuracy(policy, workers, priors) == pytest.approx(
            loop_expected_accuracy(policy.weights, workers, priors), abs=1e-12
        )


class TestFairnessGap:
    def test_equal_groups_zero_for_every_kind(self):
        mixed = np.array([[0.8, 0.7], [0.8, 0.7]])
        for kind in (FairnessKind.FPR_PARITY, FairnessKind.FNR_PARITY, FairnessKind.ERROR_RATE_PARITY):
            assert fairness_gap(mixed, kind) == 0.0

    def test_fpr_absolute_difference(self):
        mixed = np.array([[0.75, 0.8], [0.90, 0.8]])  # fpr 0.25 against 0.10
        assert fairness_gap(mixed, FairnessKind.FPR_PARITY) == pytest.approx(0.15)

    def test_error_rate_takes_max(self):
        mixed = np.array([[0.75, 0.80], [0.90, 0.85]])  # fpr 0.25, fnr 0.20 against fpr 0.10, fnr 0.15
        assert fairness_gap(mixed, FairnessKind.FPR_PARITY) == pytest.approx(0.15)
        assert fairness_gap(mixed, FairnessKind.FNR_PARITY) == pytest.approx(0.05)
        assert fairness_gap(mixed, FairnessKind.ERROR_RATE_PARITY) == pytest.approx(0.15)

    def test_matches_the_accuracy_matrices_bit_for_bit(self):
        mixed = np.array([[0.7531, 0.6], [0.9117, 0.8125]])
        z0, z1 = (worker(*mixed).matrix(z) for z in (0, 1))  # [y, yhat]: the FPR at [0, 1], the FNR at [1, 0]
        assert fairness_gap(mixed, FairnessKind.FPR_PARITY) == abs(z0[0, 1] - z1[0, 1])
        assert fairness_gap(mixed, FairnessKind.FNR_PARITY) == abs(z0[1, 0] - z1[1, 0])

    def test_none_kind_rejected(self):
        with pytest.raises(ValueError):
            fairness_gap(np.array([[0.8, 0.7], [0.8, 0.7]]), FairnessKind.NONE)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_convexity_and_worker_bound(self, data):
        n = data.draw(st.integers(min_value=2, max_value=5))
        workers = data.draw(populations(n))
        p1 = data.draw(policies(n))
        p2 = data.draw(policies(n))
        lam = data.draw(st.floats(min_value=0.0, max_value=1.0))
        kind = data.draw(
            st.sampled_from(
                [FairnessKind.FPR_PARITY, FairnessKind.FNR_PARITY, FairnessKind.ERROR_RATE_PARITY]
            )
        )
        blend = Policy(lam * p1.weights + (1.0 - lam) * p2.weights)
        g_blend = fairness_gap(compose_policy_accuracy(blend, workers), kind)
        g1 = fairness_gap(compose_policy_accuracy(p1, workers), kind)
        g2 = fairness_gap(compose_policy_accuracy(p2, workers), kind)
        assert g_blend <= lam * g1 + (1.0 - lam) * g2 + 1e-9
        single = [fairness_gap(c, kind) for c in workers.correct]
        assert g_blend <= max(single) + 1e-9


class TestSampleLabel:
    def test_empirical_frequencies_match_all_entries(self):
        w = worker((0.85, 0.65), (0.4, 0.75))
        rng = stream(7, "freq")
        for z in (0, 1):
            for y in (0, 1):
                p = w.matrix(z)[y, 1]
                draws = rng.random(100_000) < p
                assert abs(draws.mean() - p) < 0.01


class TestWorkerProfile:
    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError, match="cost"):
            worker((0.8, 0.8), (0.8, 0.8), cost=-1.0)

    @pytest.mark.parametrize("cost", [math.inf, math.nan])
    def test_rejects_non_finite_cost(self, cost):
        with pytest.raises(ValueError, match="cost"):
            worker((0.8, 0.8), (0.8, 0.8), cost=cost)

    @pytest.mark.parametrize("correct", [np.full(4, 0.8), np.full((2, 3), 0.8), np.full((2, 2, 2), 0.8)])
    def test_rejects_bad_shape(self, correct):
        with pytest.raises(ValueError, match="2x2"):
            WorkerProfile(id="w", correct=correct, cost=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.0 + 1e-12])
    def test_rejects_entry_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            worker((0.8, bad), (0.8, 0.8))

    def test_fields_are_id_correctness_and_cost(self):
        assert [f.name for f in dataclasses.fields(WorkerProfile)] == ["id", "correct", "cost"]

    def test_correctness_is_a_read_only_copy(self):
        source = np.array([[0.8, 0.7], [0.6, 0.9]])
        w = WorkerProfile(id="w", correct=source, cost=1.0)
        source[0, 0] = 0.1
        assert w.correct[0, 0] == 0.8
        with pytest.raises(ValueError):
            w.correct[0, 0] = 0.5

    def test_value_equality(self):
        assert worker((0.8, 0.7), (0.6, 0.9)) == worker((0.8, 0.7), (0.6, 0.9))
        assert hash(worker((0.8, 0.7), (0.6, 0.9))) == hash(worker((0.8, 0.7), (0.6, 0.9)))
        assert worker((0.8, 0.7), (0.6, 0.9)) != worker((0.8, 0.7), (0.6, 0.91))
        assert worker((0.8, 0.7), (0.6, 0.9)) != worker((0.8, 0.7), (0.6, 0.9), cost=2.0)

    def test_matrix_accessor(self):
        w = worker((0.8, 0.7), (0.6, 0.9))
        for z, (on_0, on_1) in enumerate([(0.8, 0.7), (0.6, 0.9)]):
            m = w.matrix(z)
            assert m.dtype == float and m.tolist() == [[on_0, 1.0 - on_0], [1.0 - on_1, on_1]]
            m[0, 0] = 0.0  # a new array each call: the worker is unchanged
            assert w.matrix(z)[0, 0] == on_0
        with pytest.raises(ValueError):
            w.matrix(2)


class TestPopulation:
    def test_rejects_no_workers(self):
        with pytest.raises(ValueError, match="population needs at least one worker"):
            Population(ids=(), correct=np.zeros((0, 2, 2)), cost=np.zeros(0))

    @pytest.mark.parametrize("correct, cost", [
        (np.full((2, 2, 2), 0.8), np.ones(3)),
        (np.full((3, 2, 3), 0.8), np.ones(3)),
        (np.full((3, 4), 0.8), np.ones(3)),
        (np.full((3, 2, 2), 0.8), np.ones(2)),
        (np.full((3, 2, 2), 0.8), np.ones((3, 1))),
    ])
    def test_rejects_mismatched_shapes(self, correct, cost):
        with pytest.raises(ValueError) as err:
            Population(ids=("a", "b", "c"), correct=correct, cost=cost)
        assert str(err.value) == (
            f"3 workers need correct of shape (3, 2, 2) [i, z, y] and cost of shape (3,), "
            f"got {correct.shape} and {cost.shape}"
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.0 + 1e-12])
    def test_entry_checks_keep_the_worker_message(self, bad):
        correct = ((0.8, bad), (0.8, 0.8))
        with pytest.raises(ValueError) as want:
            worker(*correct)
        with pytest.raises(ValueError) as got:
            Population(ids=("a", "b"), correct=[((0.8, 0.8), (0.8, 0.8)), correct], cost=[1.0, 1.0])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("cost", [-1.0, math.inf, math.nan])
    def test_cost_checks_keep_the_worker_message(self, cost):
        with pytest.raises(ValueError) as want:
            worker((0.8, 0.8), (0.8, 0.8), cost=cost)
        with pytest.raises(ValueError) as got:
            Population(ids=("a", "b"), correct=np.full((2, 2, 2), 0.8), cost=[2.0, cost])
        assert str(got.value) == str(want.value)

    def test_arrays_are_read_only_copies(self):
        correct, cost = np.full((2, 2, 2), 0.8), np.array([1.0, 2.0])
        population = Population(ids=["a", "b"], correct=correct, cost=cost)
        correct[0, 0, 0], cost[0] = 0.1, 5.0
        assert population.correct[0, 0, 0] == 0.8 and population.cost[0] == 1.0
        assert population.ids == ("a", "b")
        for array in (population.correct, population.cost):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_rows_are_worker_profiles(self):
        population = Population(ids=("w0", "w1", "w2"), correct=[((0.8, 0.7), (0.6, 0.9))] * 3, cost=[2.5] * 3)
        assert len(population) == 3
        assert population[1] == worker((0.8, 0.7), (0.6, 0.9), cost=2.5, wid="w1")
        assert [w.id for w in population] == ["w0", "w1", "w2"]
        with pytest.raises(IndexError):
            population[3]
