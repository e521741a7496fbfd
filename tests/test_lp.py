import itertools
import math
import time

import numpy as np
import pytest

from crowdfdb import (
    ConstraintSet,
    FairnessKind,
    LpStatus,
    Policy,
    Priors,
    TOL,
    build_lp,
    dump,
    estimate_matrices,
    estimate_tallies,
    load_responses,
    solve_lp,
    stream,
    verify_solution,
)
from crowdfdb import lp as lp_module
from crowdfdb.config import constraint_set, gold_config, resolve, resolve_priors, resolve_workers
from crowdfdb.estimation import estimate_tallies, run_gold_phase
from crowdfdb.lp import (
    LpProblem,
    SolverError,
    _crash,
    _lowest,
    _phase1,
    _solve_bounded,
    _without_family,
    binding_rows,
)
from fixtures import make_binding_fairness_instance
from oracles import grid_search_best_accuracy, random_lp_instance, vertex_enumeration
from test_lp_differential import SEEDED_CASES, check_against, draw_lp, highs

PRIORS = Priors(p_z1=0.5, p_y1_given_z0=0.4, p_y1_given_z1=0.6)


def flat_estimates(diagonals):
    """Per-worker (z, y) arrays: workers whose accuracy is the same constant across z and y."""
    return [np.full((2, 2), d) for d in diagonals]


class TestBuildLp:
    def test_row_counts_error_rate(self):
        lp = build_lp(
            flat_estimates([0.8, 0.7]),
            [1.0, 1.0],
            PRIORS,
            ConstraintSet(alpha=0.05, beta=0.6, budget=2.0, fairness_kind=FairnessKind.ERROR_RATE_PARITY),
        )
        # the total row sum(S) == 1 is implicit: only the <= rows are held
        assert lp.labels == ("fpr[+]", "fpr[-]", "fnr[+]", "fnr[-]", "budget")
        assert lp.coeffs.shape == (5, 2)
        assert lp.rhs.tolist() == [0.05, 0.05, 0.05, 0.05, 2.0]
        # the diversity cap is one bound on every worker, not a row per worker
        assert lp.upper == 0.6

    def test_fpr_only_has_two_fairness_rows(self):
        lp = build_lp(
            flat_estimates([0.8, 0.7]),
            [1.0, 1.0],
            PRIORS,
            ConstraintSet(alpha=0.05, beta=0.6, budget=2.0, fairness_kind=FairnessKind.FPR_PARITY),
        )
        assert lp.labels == ("fpr[+]", "fpr[-]", "budget")

    def test_infinite_budget_and_alpha_omit_rows(self):
        lp = build_lp(
            flat_estimates([0.8, 0.7]),
            [1.0, 1.0],
            PRIORS,
            ConstraintSet(
                alpha=math.inf, beta=0.6, budget=math.inf, fairness_kind=FairnessKind.ERROR_RATE_PARITY
            ),
        )
        assert lp.labels == ()
        assert lp.coeffs.shape == (0, 2) and lp.rhs.shape == (0,)
        assert lp.upper == 0.6

    def test_objective_is_negated_accuracy(self):
        lp = build_lp(flat_estimates([0.9, 0.6]), [1, 1], PRIORS,
                      ConstraintSet(alpha=math.inf, beta=0.999, budget=math.inf))
        assert lp.objective == pytest.approx([-0.9, -0.6])

    def test_uniform_cost_budget_never_binds(self):
        cs = ConstraintSet(alpha=math.inf, beta=0.6, budget=1.0, fairness_kind=FairnessKind.NONE)
        lp = build_lp(flat_estimates([0.9, 0.8, 0.6]), [1.0, 1.0, 1.0], PRIORS, cs)
        sol = solve_lp(lp)
        cs_no_budget = ConstraintSet(
            alpha=math.inf, beta=0.6, budget=math.inf, fairness_kind=FairnessKind.NONE
        )
        lp_free = build_lp(flat_estimates([0.9, 0.8, 0.6]), [1.0, 1.0, 1.0], PRIORS, cs_no_budget)
        sol_free = solve_lp(lp_free)
        assert sol.status == sol_free.status == LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(sol_free.objective_value, abs=1e-12)

    def test_no_fairness_optimum_fills_caps_with_best_workers(self):
        # verified against the brute-force grid oracle
        rng = np.random.default_rng(5)
        diag = rng.uniform(0.3, 0.95, size=(3, 4))
        estimates = diag.reshape(-1, 2, 2)
        cs = ConstraintSet(alpha=math.inf, beta=0.9, budget=math.inf, fairness_kind=FairnessKind.NONE)
        lp = build_lp(estimates, [1.0, 1.0, 1.0], PRIORS, cs)
        sol = solve_lp(lp)
        best_grid = grid_search_best_accuracy(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert best_grid <= sol.objective_value + 2e-3
        assert sol.objective_value == pytest.approx(best_grid, abs=2e-3)

    @pytest.mark.parametrize(
        "coeffs, rhs, labels, upper, match",
        [
            (np.ones((2, 2)), [1.0], ("fpr[+]", "fpr[-]"), 0.5, "shape"),  # fewer right-hand sides than rows
            (np.ones((1, 2)), [1.0], ("fpr[+]", "fpr[-]"), 0.5, "shape"),  # more labels than rows
            (np.ones((1, 3)), [1.0], ("budget",), 0.5, "shape"),  # a row longer than the objective
            (np.ones(2), [1.0], ("budget",), 0.5, "shape"),  # a flat row, not a (rows, n) array
            (np.ones((1, 2)), [1.0], ("budget",), -0.5, "upper"),  # a negative cap
        ],
    )
    def test_rejects_inconsistent_arrays(self, coeffs, rhs, labels, upper, match):
        with pytest.raises(ValueError, match=match):
            LpProblem(objective=np.array([-0.5, -0.25]), coeffs=coeffs, rhs=rhs, labels=labels, upper=upper)


class TestSolveLp:
    def test_symmetric_duplicate_workers(self):
        # degenerate optimum: assert the objective value, not the vertex
        cs = ConstraintSet(alpha=math.inf, beta=0.6, budget=math.inf, fairness_kind=FairnessKind.NONE)
        lp = build_lp(flat_estimates([0.85, 0.85]), [1.0, 1.0], PRIORS, cs)
        sol = solve_lp(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.85, abs=1e-12)
        assert np.all(sol.policy.weights >= 0.4 - 1e-9)
        assert np.all(sol.policy.weights <= 0.6 + 1e-9)

    def test_three_workers_unique_vertex(self):
        cs = ConstraintSet(alpha=math.inf, beta=0.6, budget=math.inf, fairness_kind=FairnessKind.NONE)
        lp = build_lp(flat_estimates([0.9, 0.8, 0.6]), [1.0, 1.0, 1.0], PRIORS, cs)
        sol = solve_lp(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.86, abs=1e-12)
        assert sol.policy.weights == pytest.approx([0.6, 0.4, 0.0], abs=1e-12)

    def test_single_worker_under_cap_infeasible(self):
        cs = ConstraintSet(alpha=math.inf, beta=0.5, budget=math.inf, fairness_kind=FairnessKind.NONE)
        lp = build_lp(flat_estimates([0.9]), [1.0], PRIORS, cs)
        sol = solve_lp(lp)
        assert sol.status == LpStatus.INFEASIBLE
        assert sol.policy is None
        assert "diversity" in sol.relaxation_hints

    def test_infeasibility_hint_names_fairness(self):
        workers = make_binding_fairness_instance(0.4, 1, seed=2)
        estimates = workers.correct
        # force all mass to one side with a cap of 1-eps on worker 0 only:
        # alpha=0 with asymmetric costs and a tight budget that only worker 0 fits
        cs = ConstraintSet(alpha=0.05, beta=0.999, budget=1.0, fairness_kind=FairnessKind.FPR_PARITY)
        lp = build_lp(estimates, [1.0, 5.0], PRIORS, cs)
        sol = solve_lp(lp)
        # budget 1.0 forces S=[1,0]; its fpr gap is 0.4 > alpha
        assert sol.status == LpStatus.INFEASIBLE
        assert "fairness" in sol.relaxation_hints or "budget" in sol.relaxation_hints


class TestVerifySolution:
    def test_optimal_solution_clean(self):
        cs = ConstraintSet(alpha=0.1, beta=0.6, budget=1.5, fairness_kind=FairnessKind.ERROR_RATE_PARITY)
        lp = build_lp(flat_estimates([0.9, 0.7, 0.55]), [1.0, 2.0, 0.5], PRIORS, cs)
        sol = solve_lp(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert verify_solution(lp, sol, tol=1e-7) == []

    def test_reports_diversity_violation(self):
        cs = ConstraintSet(alpha=math.inf, beta=0.6, budget=math.inf, fairness_kind=FairnessKind.NONE)
        lp = build_lp(flat_estimates([0.9, 0.8]), [1.0, 1.0], PRIORS, cs)
        sol = solve_lp(lp)
        forged = type(sol)(
            status=LpStatus.OPTIMAL,
            policy=Policy(np.array([1.0, 0.0])),
            objective_value=0.9,
        )
        labels = [v.label for v in verify_solution(lp, forged, tol=1e-7)]
        assert labels == ["diversity[0]"]

    def test_reports_binding_fairness_row_after_perturbation(self):
        workers = make_binding_fairness_instance(0.3, 1, seed=11)
        estimates = workers.correct
        cs = ConstraintSet(alpha=0.0, beta=0.6, budget=math.inf, fairness_kind=FairnessKind.FPR_PARITY)
        lp = build_lp(estimates, [1.0, 1.0], PRIORS, cs)
        sol = solve_lp(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.policy.weights == pytest.approx([0.5, 0.5], abs=1e-9)
        perturbed = type(sol)(
            status=LpStatus.OPTIMAL,
            policy=Policy(np.array([0.501, 0.499])),
            objective_value=sol.objective_value,
        )
        labels = {v.label for v in verify_solution(lp, perturbed, tol=1e-7)}
        assert labels & {"fpr[+]", "fpr[-]"}

    def test_requires_optimal_status(self):
        cs = ConstraintSet(alpha=math.inf, beta=0.5, budget=math.inf, fairness_kind=FairnessKind.NONE)
        lp = build_lp(flat_estimates([0.9]), [1.0], PRIORS, cs)
        sol = solve_lp(lp)
        with pytest.raises(ValueError):
            verify_solution(lp, sol)


class TestOracleAgreement:
    def test_grid_oracle_interval_method_matches_naive(self):
        # self-check of the n=4 interval trick against naive enumeration
        rng = np.random.default_rng(33)
        for trial in range(6):
            lp, *_ = random_lp_instance(
                rng, 4, alpha=0.1, beta=0.6, budget_kind="loose",
                fairness_kind=FairnessKind.ERROR_RATE_PARITY,
            )
            step = 0.05
            K = round(1 / step)
            best_naive = None
            for ks in itertools.product(range(K + 1), repeat=3):
                if sum(ks) > K:
                    continue
                x = np.array([*ks, K - sum(ks)]) / K
                ok = np.all(x <= lp.upper + 1e-9) and all(
                    float(np.dot(coeffs, x)) <= rhs + 1e-9 for coeffs, rhs in zip(lp.coeffs, lp.rhs)
                )
                if ok:
                    v = -float(np.dot(lp.objective, x))
                    best_naive = v if best_naive is None else max(best_naive, v)
            best_fast = grid_search_best_accuracy(lp, step=step)
            if best_naive is None:
                assert best_fast is None
            else:
                assert best_fast == pytest.approx(best_naive, abs=1e-12)

    def test_small_instances_match_both_oracles(self):
        rng = np.random.default_rng(2024)
        kinds = [FairnessKind.FPR_PARITY, FairnessKind.FNR_PARITY, FairnessKind.ERROR_RATE_PARITY]
        checked_optimal = 0
        checked_infeasible = 0
        for trial in range(40):
            n = int(rng.integers(2, 5))
            alpha = [0.0, 0.05, math.inf][trial % 3]
            beta = [0.4, 0.6, 0.999][(trial // 3) % 3]
            budget_kind = ["tight", "loose"][trial % 2]
            lp, *_ = random_lp_instance(rng, n, alpha, beta, budget_kind, kinds[trial % 3])
            sol = solve_lp(lp)
            status, best_vertex = vertex_enumeration(lp)
            assert sol.status == status, f"trial {trial}: solver {sol.status} oracle {status}"
            if sol.status == LpStatus.OPTIMAL:
                checked_optimal += 1
                assert sol.objective_value == pytest.approx(best_vertex, abs=1e-9)
                best_grid = grid_search_best_accuracy(lp)
                if best_grid is not None:
                    assert best_grid <= sol.objective_value + 2e-3
            else:
                checked_infeasible += 1
        assert checked_optimal >= 20
        assert checked_infeasible >= 1


class TestMonotonicityAndScale:
    def _instance(self, alpha, beta=0.6, budget=math.inf, scale=1.0):
        rng = np.random.default_rng(99)
        diag = rng.uniform(0.4, 0.95, size=(4, 4))
        estimates = diag.reshape(-1, 2, 2)
        costs = np.array([1.0, 1.4, 0.7, 2.0]) * scale
        cs = ConstraintSet(
            alpha=alpha, beta=beta, budget=budget * scale if math.isfinite(budget) else budget,
            fairness_kind=FairnessKind.ERROR_RATE_PARITY,
        )
        return build_lp(estimates, costs, PRIORS, cs)

    def test_objective_non_decreasing_in_alpha(self):
        values = []
        for alpha in (0.0, 0.01, 0.05, 0.1, 0.2, 1.0):
            sol = solve_lp(self._instance(alpha))
            assert sol.status == LpStatus.OPTIMAL
            values.append(sol.objective_value)
        for prev, nxt in zip(values, values[1:]):
            assert nxt >= prev - 1e-12

    def test_objective_non_decreasing_in_budget(self):
        # below 1.0 the budget plus fairness rows are jointly infeasible here
        values = []
        for budget in (1.0, 1.2, 1.6, 2.0):
            sol = solve_lp(self._instance(alpha=0.1, budget=budget))
            assert sol.status == LpStatus.OPTIMAL
            values.append(sol.objective_value)
        for prev, nxt in zip(values, values[1:]):
            assert nxt >= prev - 1e-12

    def test_objective_non_decreasing_in_beta(self):
        values = []
        for beta in (0.3, 0.4, 0.6, 0.9):
            sol = solve_lp(self._instance(alpha=0.1, beta=beta))
            assert sol.status == LpStatus.OPTIMAL
            values.append(sol.objective_value)
        for prev, nxt in zip(values, values[1:]):
            assert nxt >= prev - 1e-12

    def test_ten_thousand_workers_keep_six_rows(self):
        # the cap is a variable bound, so the program keeps at most six rows
        n = 10_000
        rng = np.random.default_rng(10_000)
        diag = rng.integers(0, 21, size=(n, 4)) / 20
        estimates = diag.reshape(-1, 2, 2)
        cs = ConstraintSet(alpha=0.01, beta=0.01, budget=1.0, fairness_kind=FairnessKind.ERROR_RATE_PARITY)
        lp = build_lp(estimates, rng.uniform(0.5, 2.0, size=n), PRIORS, cs)
        assert len(lp.labels) <= 5  # plus the implicit total row
        sol = solve_lp(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert verify_solution(lp, sol, tol=1e-7) == []

    def test_cost_scale_invariance(self):
        base = solve_lp(self._instance(alpha=0.05, budget=1.2, scale=1.0))
        scaled = solve_lp(self._instance(alpha=0.05, budget=1.2, scale=7.5))
        assert base.status == scaled.status == LpStatus.OPTIMAL
        assert base.objective_value == pytest.approx(scaled.objective_value, abs=1e-9)


class TestDumpAndBinding:
    @pytest.mark.parametrize("smoothing", [False, True])
    @pytest.mark.parametrize("kind", list(FairnessKind))
    def test_per_worker_reference_lp_is_the_commands_lp(self, tmp_path, kind, smoothing):
        # a list of per-worker estimate_matrices arrays, as the benchmark's reference
        # builds it, against the one (n, z, y) array that crowdfdb policy builds
        path = tmp_path / "responses.csv"
        rng = stream(17, "responses")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("worker_id,task_id,answer,z,y\n")
            for i in range(30):
                for z, y in itertools.product((0, 1), repeat=2):
                    answers = rng.random(int(rng.integers(1, 9))) < rng.random()
                    handle.writelines(f"w{i:02d},g{z}{y}-{j},{int(a)},{z},{y}\n" for j, a in enumerate(answers))
        tallies = load_responses(path)
        costs = rng.uniform(0.5, 2.0, 30)
        cs = ConstraintSet(alpha=0.02, beta=0.1, budget=1.2, fairness_kind=kind)
        reference = build_lp([estimate_matrices(t, smoothing) for _, t in tallies], costs, PRIORS, cs)
        command = build_lp(estimate_tallies(tallies, smoothing), costs, PRIORS, cs)
        assert dump(reference) == dump(command)
        assert reference.objective.tobytes() == command.objective.tobytes()
        assert reference.coeffs.tobytes() == command.coeffs.tobytes()

    def test_dump_fixed_format(self):
        lp = LpProblem(
            objective=np.array([-0.5, -0.25]),
            coeffs=np.array([[2.0, 0.5]]),
            rhs=np.array([1.5]),
            labels=("budget",),
            upper=0.75,
        )
        assert dump(lp) == (
            "min: -0.5 -0.25\n"
            "total: 1 1 == 1\n"
            "budget: 2 0.5 <= 1.5\n"
            "bounds: 0 <= S[i] <= 0.75\n"
        )

    def test_binding_rows_on_unique_vertex(self):
        cs = ConstraintSet(alpha=math.inf, beta=0.6, budget=math.inf, fairness_kind=FairnessKind.NONE)
        lp = build_lp(flat_estimates([0.9, 0.8, 0.6]), [1.0, 1.0, 1.0], PRIORS, cs)
        sol = solve_lp(lp)
        assert "diversity[0]" in binding_rows(lp, sol.policy)
        assert "diversity[1]" not in binding_rows(lp, sol.policy)


def tied_program(seed, fees, beta, budget=math.inf, alpha=math.inf, kind=FairnessKind.NONE):
    """A program over len(fees) workers with tied k/5 estimates."""
    diag = np.random.default_rng(seed).integers(0, 6, size=(len(fees), 2, 2)) / 5
    return build_lp(diag, fees, PRIORS, ConstraintSet(alpha=alpha, beta=beta, budget=budget, fairness_kind=kind))


def crash_spend(lp, picked):
    j = lp.labels.index("budget")
    return lp.upper * float(lp.coeffs[j, picked].sum()), lp.rhs[j]


class TestCrashStart:
    """Edge cases of the crash start, each checked against an oracle."""

    def test_zero_cap_crashes_nothing(self):
        lp = tied_program(1, [1.0, 1.0, 1.0], beta=0.0)
        assert _crash(lp).size == 0
        assert check_against(lp, vertex_enumeration) == LpStatus.INFEASIBLE
        assert solve_lp(lp).relaxation_hints == ("diversity",)

    @pytest.mark.parametrize("kind, alpha", [(FairnessKind.NONE, math.inf), (FairnessKind.ERROR_RATE_PARITY, 0.0)])
    def test_cap_one_over_93_crashes_all_93(self, kind, alpha):
        # 1/(1/93) is 92.99999999999999, so int(1/beta) would crash one short
        lp = tied_program(2, np.ones(93), beta=1 / 93, budget=1.0, alpha=alpha, kind=kind)
        assert int(1 / lp.upper) == 92
        assert _crash(lp).size == 93
        check_against(lp, highs)

    def test_integer_inverse_cap_starts_the_total_row_at_zero(self):
        lp = tied_program(3, np.ones(6), beta=0.25, alpha=0.05, kind=FairnessKind.ERROR_RATE_PARITY)
        assert lp.upper * _crash(lp).size == 1.0  # the total row's artificial starts degenerate at 0
        assert check_against(lp, vertex_enumeration) == LpStatus.OPTIMAL

    def test_fewer_workers_than_the_crash_wants(self):
        lp = tied_program(4, np.ones(3), beta=0.25, alpha=0.05, kind=FairnessKind.ERROR_RATE_PARITY)
        assert _crash(lp).size == 3
        assert check_against(lp, vertex_enumeration) == LpStatus.INFEASIBLE

    def test_zero_fee_workers_under_a_finite_budget(self):
        lp = tied_program(5, [2.0, 0.0, 2.0, 1.0, 0.0, 1.0], beta=0.3, budget=0.7)
        best_three = np.argsort(lp.objective, kind="stable")[:3]
        spend, budget = crash_spend(lp, best_three)
        assert spend > budget  # the objective order busts, so the crash is priced
        spend, budget = crash_spend(lp, _crash(lp))
        assert spend <= budget
        assert check_against(lp, vertex_enumeration) == LpStatus.OPTIMAL

    def test_budget_below_the_cheapest_crash(self):
        lp = tied_program(6, [1.0, 1.5, 2.0, 2.0, 3.0, 1.0], beta=0.3, budget=0.5)
        spend, budget = crash_spend(lp, _crash(lp))
        assert spend == pytest.approx(0.3 * 3.5) and spend > budget  # the three cheapest
        assert check_against(lp, vertex_enumeration) == LpStatus.INFEASIBLE
        assert solve_lp(lp).relaxation_hints == ("budget",)

    def test_diversity_hint_re_solve_crashes_one_worker(self):
        lp = tied_program(8, [1.0, 2.0, 1.0, 2.0], beta=0.2, alpha=0.2, kind=FairnessKind.ERROR_RATE_PARITY)
        relaxed = _without_family(lp, "diversity")
        assert relaxed.upper == 1.0 and _crash(relaxed).size == 1
        assert check_against(lp, vertex_enumeration) == LpStatus.INFEASIBLE
        assert solve_lp(lp).relaxation_hints == ("diversity",)
        assert check_against(relaxed, vertex_enumeration) == LpStatus.OPTIMAL


class TestCrashSelection:
    """The crash picks the k lowest keys, ties broken by the lower index."""

    @pytest.mark.parametrize("n", [1, 7, 400, 5000])
    @pytest.mark.parametrize("shape", ["twentieths", "twentieths_plus_uniform_fee", "one_value", "distinct"])
    def test_matches_a_stable_sort(self, n, shape):
        rng = np.random.default_rng(n)
        key = {
            "twentieths": rng.integers(0, 21, size=n) / 20,
            "twentieths_plus_uniform_fee": rng.integers(0, 21, size=n) / 20 + 0.37 * np.full(n, 1.5),
            "one_value": np.full(n, 0.25),
            "distinct": rng.permutation(n) / n,
        }[shape]
        for k in sorted({0, 1, n // 3, n - 1, n}):
            expected = np.sort(np.lexsort((np.arange(n), key))[:k])
            assert np.array_equal(_lowest(key, k), expected)

    def test_flat_program_crashes_to_the_first_k(self):
        n = 10
        lp = LpProblem(
            objective=np.full(n, -0.5),
            coeffs=np.outer([0.2, -0.2, 2.0], np.ones(n)),
            rhs=np.array([0.0, 0.0, 1.0]),
            labels=("fpr[+]", "fpr[-]", "budget"),
            upper=0.25,
        )
        assert np.array_equal(_crash(lp), np.arange(4))

    def test_price_search_runs_no_sort(self, monkeypatch):
        lp = tied_program(9, np.linspace(0.5, 2.0, 300), beta=0.01, budget=1.0, alpha=0.01,
                          kind=FairnessKind.ERROR_RATE_PARITY)
        expected = _crash(lp)

        def no_sort(*args, **kwargs):
            raise AssertionError("the crash sorted its keys")

        for name in ("argsort", "lexsort", "sort"):
            monkeypatch.setattr(np, name, no_sort)
        assert np.array_equal(_crash(lp), expected)


class TestIterations:
    """Deterministic work bounds: iteration counts, not timings."""

    def test_hint_re_solves_are_counted(self, monkeypatch):
        """A hint is a feasibility question: its family-removed program runs
        phase 1 alone, one _simplex call, and its iterations are counted."""
        lp = tied_program(8, [1.0, 2.0, 1.0, 2.0], beta=0.2, alpha=0.2, kind=FairnessKind.ERROR_RATE_PARITY)
        status, _, iterations = _solve_bounded(lp)
        relaxed = [_phase1(_without_family(lp, family)) for family in ("fairness", "diversity")]
        assert status == LpStatus.INFEASIBLE
        assert [state is not None for state, _ in relaxed] == [False, True]
        assert iterations > 0 and all(count > 0 for _, count in relaxed)

        calls = []
        simplex = lp_module._simplex
        monkeypatch.setattr(lp_module, "_simplex", lambda *args: calls.append(args[1].copy()) or simplex(*args))
        sol = solve_lp(lp)
        assert sol.relaxation_hints == ("diversity",)
        assert sol.iterations == iterations + sum(count for _, count in relaxed)
        # one phase-1 call for the program and one for each family-removed
        # program: every cost prices the artificials alone, none the weights
        assert len(calls) == 3
        assert all(not cost[: lp.n].any() and cost.any() for cost in calls)

    def test_infeasible_programs_of_the_figure3_recipe(self, tmp_path, monkeypatch):
        """The 3-rep figure3 recipe at seed 5 has five infeasible CrowdFDB
        programs; with their hints they take 95, 88, 105, 90 and 107
        iterations when each hint also runs phase 2, and these with phase 1
        alone."""
        from crowdfdb import cli, pipeline

        solved = []

        def recording_solve(lp):
            solved.append(solve_lp(lp))
            return solved[-1]

        monkeypatch.setattr(pipeline, "solve_lp", recording_solve)
        monkeypatch.delenv("CROWDFDB_THREADS", raising=False)
        args = ["experiment", "--recipe", "figure3", "--repetitions", "3", "--seed", "5", "--methods", "CrowdFDB"]
        assert cli.main(args + ["--out", str(tmp_path / "figure3.csv")]) == 0
        infeasible = [sol.iterations for sol in solved if sol.status == LpStatus.INFEASIBLE]
        assert infeasible == [47, 47, 61, 57, 59]

    def test_infeasible_one_over_n_program_at_5000_workers(self):
        # the last seeded program of test_seeded_programs_match_highs at
        # n = 5000: 19 iterations with its three hint re-solves, against
        # 21,000 from a cold start at S = 0
        rng = np.random.default_rng(9000 + 5000)
        for case in SEEDED_CASES:
            lp = draw_lp(rng, 5000, *case)
        assert lp.upper == 1 / 5000
        sol = solve_lp(lp)
        assert sol.status == LpStatus.INFEASIBLE
        assert sol.relaxation_hints == ("fairness", "diversity")
        assert sol.iterations <= 100

    @pytest.mark.parametrize("case", [0, 3])
    def test_fairness_binding_programs_at_5000_workers(self, case):
        # seeded cases 0 (optimal) and 3 (infeasible, with its hint
        # re-solves) of test_seeded_programs_match_highs at n = 5000:
        # measured 13 and 35 iterations, against 920 and 1,491 from a crash
        # priced on the budget row alone
        rng = np.random.default_rng(9000 + 5000)
        programs = [draw_lp(rng, 5000, *c) for c in SEEDED_CASES]
        assert solve_lp(programs[case]).iterations <= 100

    @pytest.mark.parametrize(
        "kind, bound",
        [
            # measured 14 iterations (8 when a 40-step bisection priced the
            # budget alone), against 3,063 from a cold start
            (FairnessKind.NONE, 300),
            # four fairness rows, all priced into the crash: measured 41,
            # against 557 from a crash priced on the budget row alone and
            # 3,617 from a cold start
            (FairnessKind.ERROR_RATE_PARITY, 100),
        ],
    )
    def test_ten_thousand_workers_at_cap_one_in_a_thousand(self, kind, bound):
        n = 10_000
        rng = np.random.default_rng(10_000)
        diag = (rng.integers(0, 21, size=(n, 4)) / 20).reshape(n, 2, 2)
        cs = ConstraintSet(alpha=0.01, beta=0.001, budget=1.0, fairness_kind=kind)
        lp = build_lp(diag, rng.uniform(0.5, 2.0, size=n), PRIORS, cs)
        sol = solve_lp(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert verify_solution(lp, sol) == []
        assert sol.iterations <= bound


def beale_program(extra_columns):
    """Beale's cycling example (Naval Research Logistics Quarterly, 1955) as
    _simplex arguments: slack basis x0..x2 at the degenerate start, x3..x6
    its structural columns, then extra_columns zero columns that never
    price in.  Its optimum is -5/4."""
    columns = 7 + extra_columns
    A = np.zeros((3, columns))
    A[:, :7] = [[1, 0, 0, 0.25, -8, -1, 9], [0, 1, 0, 0.5, -12, -0.5, 3], [0, 0, 1, 0, 0, 1, 0]]
    cost = np.ones(columns)
    cost[:7] = [0, 0, 0, -0.75, 20, -0.5, 6]
    x = np.zeros(columns)
    x[2] = 1.0
    return A, cost, np.full(columns, np.inf), np.arange(3), np.zeros(columns, dtype=bool), np.eye(3), x


class TestCyclingGuard:
    """Largest-reduced-cost pivoting with the smallest-index leaving row
    cycles on Beale's example; the guard counts steps without objective
    progress, a number fixed per basis row, so the columns do not matter."""

    def test_a_cycle_over_ten_thousand_columns_fails_within_seconds(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_DEGENERATE_SWITCH", math.inf)  # never Bland: the cycle goes on
        start = time.monotonic()
        with pytest.raises(SolverError, match=r"no objective progress in 301 steps \(cycling guard\)"):
            lp_module._simplex(*beale_program(10_000))
        assert time.monotonic() - start < 10.0

    def test_blands_rule_leaves_the_cycle(self):
        A, cost, upper, basis, at_upper, B_inv, x = beale_program(10_000)
        assert lp_module._simplex(A, cost, upper, basis, at_upper, B_inv, x) > 0
        assert float(cost @ x) == pytest.approx(-1.25, abs=1e-12)


def ray_program():
    """_simplex arguments with an improving ray: the slack x0 is basic at 1
    and x1, of cost -1 and no upper bound, raises it without limit."""
    A = np.array([[1.0, -1.0]])
    cost = np.array([0.0, -1.0])
    return A, cost, np.full(2, np.inf), np.arange(1), np.zeros(2, dtype=bool), np.eye(1), np.array([1.0, 0.0])


class TestUnboundedRay:
    """The feasible set lies inside the capped simplex, so a ray can only
    come from a corrupt program: it is a SolverError, never a status."""

    @pytest.mark.parametrize("phase", [1, 2])
    def test_a_ray_in_either_phase_is_a_solver_error(self, phase, monkeypatch):
        calls = []
        simplex = lp_module._simplex

        def ray_on_call(*args):
            calls.append(args)
            return simplex(*(ray_program() if len(calls) == phase else args))

        monkeypatch.setattr(lp_module, "_simplex", ray_on_call)
        lp = tied_program(3, np.ones(4), beta=0.5)
        with pytest.raises(SolverError, match="column 1 improves without bound"):
            solve_lp(lp)
        assert len(calls) == phase


def test_a_program_of_over_a_thousand_pivots_matches_highs():
    """The basis inverse is carried by rank-one updates from the crash's
    identity, never re-inverted, so any drift would grow with the pivots:
    the n = 20,000, beta = 2/n policy program of the default population
    takes 1,538 iterations, 1,477 of them pivots, in about 0.4 s."""
    pytest.importorskip("scipy")
    n = 20_000
    cfg = resolve({"population.n_workers": str(n), "constraints.beta": repr(2 / n)})
    population = resolve_workers(cfg)
    estimates = estimate_tallies(run_gold_phase(population, gold_config(cfg), seed=7))
    lp = build_lp(estimates, population.cost, resolve_priors(cfg), constraint_set(cfg))
    sol = solve_lp(lp)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.iterations > 1_000
    assert sol.objective_value == pytest.approx(highs(lp)[1], abs=1e-9)
    weights = sol.policy.weights
    assert abs(float(weights.sum()) - 1.0) <= TOL.policy_sum
    # every <= row holds to 1e-12 (measured 3.8e-15); rounding B_inv to
    # float32 after each pivot breaks the budget row by 1.7e-10
    assert float((lp.coeffs @ weights - lp.rhs).max()) <= 1e-12
    assert verify_solution(lp, sol) == []


def test_weight_sum_outside_policy_tolerance_is_a_solver_error(monkeypatch):
    lp = tied_program(3, np.ones(4), beta=0.5)
    weights = np.array([0.5, 0.5 + 1e-8, 0.0, 0.0])
    monkeypatch.setattr(lp_module, "_solve_bounded", lambda program: (LpStatus.OPTIMAL, weights, 3))
    with pytest.raises(SolverError, match=r"sum to 1 \+1e-08"):
        solve_lp(lp)
