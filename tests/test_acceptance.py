"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.  Trend criteria use 1-SE dominance (differences compared
against the combined standard error) because per-seed strict
monotonicity is false under Monte-Carlo noise.
"""

import dataclasses
import math
import time

import mpmath
import numpy as np
import pytest

from crowdfdb import (
    AccuracyLinkedCost,
    ConstraintSet,
    ExperimentConfig,
    FairnessKind,
    GoldPhaseConfig,
    LpStatus,
    Policy,
    Priors,
    SweepSpec,
    WorkerProfile,
    accuracy_loss_bound,
    build_lp,
    compose_policy_accuracy,
    default_population_spec,
    default_task_pool_spec,
    estimate_matrices,
    estimate_tallies,
    expected_accuracy,
    fairness_gap,
    fairness_violation_bound,
    generate_population,
    mix,
    run_experiment,
    run_gold_phase,
    solve_lp,
    stream,
    verify_solution,
)
from crowdfdb import cli
from fixtures import make_binding_fairness_instance
from oracles import grid_search_best_accuracy, random_lp_instance, simulate_gold_tally, vertex_enumeration


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def combined_se(a, b) -> float:
    return math.sqrt((a or 0.0) ** 2 + (b or 0.0) ** 2)


# ---------------------------------------------------------------- criterion 1
def test_01_lp_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(811)
    kinds = [FairnessKind.FPR_PARITY, FairnessKind.FNR_PARITY, FairnessKind.ERROR_RATE_PARITY]
    n_instances = 200
    n_optimal = n_infeasible = 0
    for trial in range(n_instances):
        n = int(rng.integers(2, 5))
        alpha = [0.0, 0.05, math.inf][trial % 3]
        beta = [0.4, 0.6, 0.999][(trial // 3) % 3]
        budget_kind = ["tight", "loose"][trial % 2]
        lp, *_ = random_lp_instance(rng, n, alpha, beta, budget_kind, kinds[trial % 3])
        sol = solve_lp(lp)
        status, best_vertex = vertex_enumeration(lp)
        assert sol.status == status, f"instance {trial}: solver={sol.status}, oracle={status}"
        if sol.status == LpStatus.OPTIMAL:
            n_optimal += 1
            assert abs(sol.objective_value - best_vertex) <= 1e-9, (
                f"instance {trial}: solver {sol.objective_value!r} vs vertex {best_vertex!r}"
            )
            best_grid = grid_search_best_accuracy(lp, step=0.001)
            if best_grid is not None:
                assert best_grid <= sol.objective_value + 2e-3, (
                    f"instance {trial}: grid {best_grid!r} beats solver {sol.objective_value!r}"
                )
        else:
            n_infeasible += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, f"{n_optimal} optimal + {n_infeasible} infeasible instances agree "
              f"with both oracles in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2
def test_02_constraint_satisfaction_at_scale():
    start = time.monotonic()
    rng = np.random.default_rng(77001)
    kinds = [
        FairnessKind.FPR_PARITY,
        FairnessKind.FNR_PARITY,
        FairnessKind.ERROR_RATE_PARITY,
        FairnessKind.NONE,
    ]
    n_optimal = n_infeasible = 0
    for trial in range(1000):
        n = int(rng.integers(2, 51))
        beta = float(np.clip(rng.uniform(1.1, 3.0) / n, 0.021, 0.999))
        alpha = [0.01, 0.05, 0.1, 0.3, math.inf][trial % 5]
        budget_kind = ["tight", "loose"][trial % 2]
        lp, *_ = random_lp_instance(rng, n, alpha, beta, budget_kind, kinds[trial % 4])
        sol = solve_lp(lp)
        if sol.status == LpStatus.OPTIMAL:
            n_optimal += 1
            violations = verify_solution(lp, sol, tol=1e-7)
            assert violations == [], f"instance {trial} (n={n}): {violations}"
        else:
            n_infeasible += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    assert n_optimal >= 700
    report(2, f"{n_optimal} optimal solves clean at 1e-7 ({n_infeasible} infeasible) "
              f"in {elapsed:.1f}s")


# ----------------------------------------------------------- criteria 3 and 4
TRIAL_PRIORS = Priors(p_z1=0.5, p_y1_given_z0=0.45, p_y1_given_z1=0.55)
TRIAL_CONSTRAINTS = ConstraintSet(
    alpha=0.01, beta=0.1, budget=math.inf, fairness_kind=FairnessKind.FPR_PARITY
)


@pytest.fixture(scope="module")
def estimate_then_solve_trials():
    start = time.monotonic()
    workers = make_binding_fairness_instance(0.3, 10, seed=301)  # n = 20
    costs = workers.cost
    gold = GoldPhaseConfig(20)
    true_solution = solve_lp(build_lp(workers.correct, costs, TRIAL_PRIORS, TRIAL_CONSTRAINTS))
    assert true_solution.status == LpStatus.OPTIMAL
    trials = []
    for t in range(500):
        estimates = estimate_tallies(run_gold_phase(workers, gold, seed=mix(302, "trial", t)))
        sol = solve_lp(build_lp(estimates, costs, TRIAL_PRIORS, TRIAL_CONSTRAINTS))
        trials.append((estimates, sol))
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"trial battery took {elapsed:.1f}s"
    return workers, true_solution, trials


def test_03_fairness_guarantee_empirical_validity(estimate_then_solve_trials):
    workers, _, trials = estimate_then_solve_trials
    delta = fairness_violation_bound(n_workers=20, n_gold_per_type=20, confidence=0.9)
    alpha = TRIAL_CONSTRAINTS.alpha
    exceed = feasible = 0
    for _, sol in trials:
        if sol.status != LpStatus.OPTIMAL:
            continue
        feasible += 1
        true_gap = fairness_gap(
            compose_policy_accuracy(sol.policy, workers), FairnessKind.FPR_PARITY
        )
        if true_gap > alpha + delta:
            exceed += 1
    fraction = exceed / feasible
    assert feasible >= 450
    assert fraction <= 0.135, f"{exceed}/{feasible} trials exceed alpha + delta"
    report(3, f"true gap exceeded alpha+delta (delta={delta:.3f}) in {exceed}/{feasible} "
              f"trials (fraction {fraction:.3f} <= 0.135)")


def test_04_accuracy_loss_guarantee_empirical_validity(estimate_then_solve_trials):
    workers, true_solution, trials = estimate_then_solve_trials
    alpha = TRIAL_CONSTRAINTS.alpha
    bound = accuracy_loss_bound(n_workers=20, n_gold_per_type=20, confidence=0.9, beta=TRIAL_CONSTRAINTS.beta)
    true_opt_acc = expected_accuracy(true_solution.policy, workers, TRIAL_PRIORS)
    tol = 1e-9

    def estimated_gap(policy, estimates):
        d = (1.0 - estimates[:, 0, 0]) - (1.0 - estimates[:, 1, 0])
        return abs(float(np.dot(policy.weights, d)))

    qualifying = held = skipped = 0
    for estimates, sol in trials:
        if sol.status != LpStatus.OPTIMAL:
            skipped += 1
            continue
        true_gap_of_estimate_policy = fairness_gap(
            compose_policy_accuracy(sol.policy, workers), FairnessKind.FPR_PARITY
        )
        cross_feasible = (
            true_gap_of_estimate_policy <= alpha + tol
            and estimated_gap(true_solution.policy, estimates) <= alpha + tol
        )
        if not cross_feasible:
            skipped += 1
            continue
        qualifying += 1
        loss = true_opt_acc - expected_accuracy(sol.policy, workers, TRIAL_PRIORS)
        if loss <= bound:
            held += 1
    assert qualifying > 0, "no trials satisfied the cross-feasibility assumption"
    slack = 2.33 * math.sqrt(0.9 * 0.1 / qualifying)
    fraction = held / qualifying
    assert fraction >= 0.90 - slack, f"bound held in only {held}/{qualifying}"
    report(4, f"accuracy-loss bound ({bound:.3f}) held in {held}/{qualifying} qualifying "
              f"trials ({skipped} excluded by the cross-feasibility check)")


# ------------------------------------------------------------ criteria 5 to 7
SCALED_POOL = default_task_pool_spec(seed=402)


def scaled_experiment(method, *, cost_model=None, constraints, gold, sweep=None, reps=100):
    return ExperimentConfig(
        method=method,
        gold=gold,
        constraints=constraints,
        repetitions=reps,
        seed=403,
        workers=default_population_spec(seed=401, n_workers=50, cost_model=cost_model),
        tasks=SCALED_POOL,
        sweep=sweep,
    )


@pytest.fixture(scope="module")
def gold_sweep_results():
    constraints = ConstraintSet(
        alpha=0.01, beta=0.04, budget=1.0, fairness_kind=FairnessKind.ERROR_RATE_PARITY
    )
    sweep = SweepSpec("gold", (5, 10, 20, 40))
    start = time.monotonic()
    out = {
        method: run_experiment(
            scaled_experiment(method, constraints=constraints, gold=GoldPhaseConfig(20), sweep=sweep)
        )
        for method in ("CrowdFDB", "Random", "Greedy")
    }
    assert time.monotonic() - start < 600.0
    return out


def test_05_gold_sweep_trend_and_separation(gold_sweep_results):
    crowd = [p.aggregate for p in gold_sweep_results["CrowdFDB"]]
    for metric, se_metric in (("mean_fpr_gap", "se_fpr_gap"), ("mean_fnr_gap", "se_fnr_gap")):
        means = [getattr(a, metric) for a in crowd]
        ses = [getattr(a, se_metric) for a in crowd]
        for i in range(len(means) - 1):
            allowance = combined_se(ses[i], ses[i + 1])
            assert means[i + 1] <= means[i] + allowance, (
                f"{metric} not non-increasing at sweep step {i}: {means}"
            )
    crowd_last = crowd[-1]
    for baseline in ("Random", "Greedy"):
        base_last = gold_sweep_results[baseline][-1].aggregate
        for metric, se_metric in (("mean_fpr_gap", "se_fpr_gap"), ("mean_fnr_gap", "se_fnr_gap")):
            margin = getattr(base_last, metric) - getattr(crowd_last, metric)
            needed = 2.0 * combined_se(getattr(base_last, se_metric), getattr(crowd_last, se_metric))
            assert margin >= needed, (
                f"at the largest gold count, {baseline} {metric} beats us by only {margin:.4f}"
            )
    report(5, "gap trends non-increasing in the gold count; at 40 gold tasks the policy "
              f"sits >=2 SE below both baselines (fpr {crowd_last.mean_fpr_gap:.4f} vs "
              f"random {gold_sweep_results['Random'][-1].aggregate.mean_fpr_gap:.4f}, "
              f"greedy {gold_sweep_results['Greedy'][-1].aggregate.mean_fpr_gap:.4f})")


def test_06_alpha_sweep_accuracy_trend():
    constraints = ConstraintSet(
        alpha=0.01, beta=0.04, budget=1.0, fairness_kind=FairnessKind.ERROR_RATE_PARITY
    )
    results = run_experiment(
        scaled_experiment(
            "CrowdFDB",
            constraints=constraints,
            gold=GoldPhaseConfig(20),
            sweep=SweepSpec("alpha", (0.01, 0.05, 0.1, 0.2)),
        )
    )
    aggs = [p.aggregate for p in results]
    means = [a.mean_accuracy for a in aggs]
    ses = [a.se_accuracy for a in aggs]
    for i in range(len(means) - 1):
        allowance = combined_se(ses[i], ses[i + 1])
        assert means[i + 1] >= means[i] - allowance, f"accuracy trend broken: {means}"
    report(6, "mean accuracy non-decreasing as the fairness slack relaxes: "
              + " -> ".join(f"{m:.4f}" for m in means))


def test_07_non_uniform_costs_budget_and_accuracy():
    # beta = 0.1 here: with fees linked to accuracy only ~15 of the 50
    # workers are cheap, so a 0.04 cap would leave every policy above the
    # 1.5 budget (cheap capacity 15 * 0.04 < 1); 0.1 keeps the scaled run
    # feasible while the full-size recipes retain beta = 0.01
    constraints = ConstraintSet(
        alpha=0.01, beta=0.1, budget=1.5, fairness_kind=FairnessKind.ERROR_RATE_PARITY
    )
    kwargs = dict(
        cost_model=AccuracyLinkedCost(low_fee=1.0, high_fee=3.0),
        constraints=constraints,
        gold=GoldPhaseConfig(20),
    )
    crowd = run_experiment(scaled_experiment("CrowdFDB", **kwargs))[0].aggregate
    greedy = run_experiment(scaled_experiment("Greedy", **kwargs))[0].aggregate
    assert crowd.n_feasible >= 80, f"only {crowd.n_feasible}/100 repetitions feasible"
    n_tasks = SCALED_POOL.n_z0 + SCALED_POOL.n_z1
    slack = 3.0 * 3.0 * math.sqrt(1.0 / (crowd.n_feasible * n_tasks))
    assert crowd.mean_cost <= 1.5 + slack, f"realized cost {crowd.mean_cost:.4f} over budget"
    allowance = combined_se(crowd.se_accuracy, greedy.se_accuracy)
    assert crowd.mean_accuracy >= greedy.mean_accuracy - allowance, (
        f"accuracy {crowd.mean_accuracy:.4f} below greedy {greedy.mean_accuracy:.4f}"
    )
    report(7, f"realized cost {crowd.mean_cost:.4f} <= 1.5+{slack:.4f}; accuracy "
              f"{crowd.mean_accuracy:.4f} vs greedy {greedy.mean_accuracy:.4f}")


# ---------------------------------------------------------------- criterion 8
def test_08_estimator_unbiasedness():
    worker = WorkerProfile(id="w0", correct=((0.73, 0.81), (0.62, 0.90)), cost=1.0)
    n_gold, reps = 20, 1000
    sums = np.zeros((2, 2))
    for r in range(reps):
        tally = simulate_gold_tally(worker, n_gold, stream(801, "unbiased", r))
        sums += estimate_matrices(tally)
    means = sums / reps
    # each off-diagonal matrix entry is 1 minus a correctness entry, so its error is the same
    for z in (0, 1):
        for y in (0, 1):
            p = worker.correct[z, y]
            tolerance = 3.0 * math.sqrt(p * (1.0 - p) / (n_gold * reps))
            assert abs(means[z, y] - p) <= tolerance, (
                f"entry z={z} y={y}: mean {means[z, y]:.5f} vs true {p}"
            )
    report(8, f"all 4 estimated correctness entries (and so all 8 matrix entries) "
              f"within 3 sigma of truth over {reps} gold phases")


# ---------------------------------------------------------------- criterion 9
def test_09_bound_formulas_against_high_precision():
    grid = [
        (1, 5, 0.5, 0.005),
        (1, 20, 0.95, 0.01),
        (2, 10, 0.9, 0.1),
        (5, 5, 0.99, 0.5),
        (5, 100, 0.5, 0.01),
        (10, 20, 0.9, 0.04),
        (10, 1000, 0.999, 0.1),
        (20, 20, 0.9, 0.1),
        (20, 50, 0.75, 0.05),
        (50, 20, 0.9, 0.02),
        (50, 200, 0.99, 0.01),
        (100, 20, 0.9, 0.01),
        (100, 100, 0.5, 0.005),
        (200, 40, 0.95, 0.005),
        (400, 20, 0.9, 0.01),
        (400, 20, 0.99, 0.005),
        (400, 100, 0.999, 0.01),
        (400, 1000, 0.9, 0.01),
        (1000, 20, 0.9, 0.001),
        (1000, 500, 0.9999, 0.01),
    ]
    assert len(grid) == 20
    with mpmath.workdps(50):
        for n, n_gold, gamma, beta in grid:
            g = mpmath.mpf(str(gamma))
            ref_delta = 2 * mpmath.sqrt(
                (-mpmath.log(1 - g ** (mpmath.mpf(1) / (2 * n))) + mpmath.log(2)) / (2 * n_gold)
            )
            got_delta = fairness_violation_bound(n, n_gold, gamma)
            assert abs(got_delta - float(ref_delta)) <= 1e-12 * float(ref_delta)
            ref_loss = (
                2 * n * mpmath.mpf(str(beta))
                * mpmath.sqrt(
                    (-mpmath.log(1 - g ** (mpmath.mpf(1) / (4 * n))) + mpmath.log(2)) / (2 * n_gold)
                )
            )
            got_loss = accuracy_loss_bound(n, n_gold, gamma, beta=beta)
            assert abs(got_loss - float(ref_loss)) <= 1e-12 * float(ref_loss)
    report(9, "both bound formulas match 50-digit evaluation to 12 significant digits "
              "on the 20-point grid")


# --------------------------------------------------------------- criterion 10
def test_10_performance_large_lp_and_full_recipe(tmp_path):
    workers = generate_population(default_population_spec(seed=1001, n_workers=400))
    priors = Priors(p_z1=0.6, p_y1_given_z0=0.3936, p_y1_given_z1=0.5143)
    estimates = estimate_tallies(run_gold_phase(workers, GoldPhaseConfig(20), seed=1002))
    cs = ConstraintSet(alpha=0.01, beta=0.01, budget=1.0, fairness_kind=FairnessKind.ERROR_RATE_PARITY)
    start = time.monotonic()
    lp = build_lp(estimates, workers.cost, priors, cs)
    sol = solve_lp(lp)
    lp_elapsed = time.monotonic() - start
    assert sol.status == LpStatus.OPTIMAL
    assert lp_elapsed < 1.0, f"n=400 build+solve took {lp_elapsed:.2f}s"

    out = tmp_path / "figure1.csv"
    start = time.monotonic()
    assert cli.main(["experiment", "--recipe", "figure1", "--out", str(out)]) == 0
    recipe_elapsed = time.monotonic() - start
    assert recipe_elapsed < 1800.0, f"figure1 recipe took {recipe_elapsed:.0f}s"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 3 * 4 * 102  # header + methods x sweep x (100 reps + mean + se)
    report(10, f"n=400 LP in {lp_elapsed:.2f}s; full gold-sweep recipe "
               f"(100 reps x 4 points x 3 methods) in {recipe_elapsed:.0f}s")


# --------------------------------------------------------------- criterion 11
def test_11_manifest_replay_byte_for_byte(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "population.n_workers = 30\n"
        "tasks.n_z0 = 250\n"
        "tasks.n_z1 = 350\n"
        "constraints.beta = 0.1\n"
        "experiment.repetitions = 3\n",
        encoding="utf-8",
    )
    first = tmp_path / "first.csv"
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(first)]) == 0
    replay = tmp_path / "replay.csv"
    assert cli.main(["experiment", "--config", f"{first}.manifest", "--out", str(replay)]) == 0
    assert first.read_bytes() == replay.read_bytes()

    w1, t1 = tmp_path / "w1.csv", tmp_path / "t1.csv"
    assert cli.main(["generate", "--workers", "25", "--workers-out", str(w1), "--tasks-out", str(t1)]) == 0
    w2, t2 = tmp_path / "w2.csv", tmp_path / "t2.csv"
    assert cli.main(
        ["generate", "--config", f"{w1}.manifest", "--workers-out", str(w2), "--tasks-out", str(t2)]
    ) == 0
    assert w1.read_bytes() == w2.read_bytes()
    assert t1.read_bytes() == t2.read_bytes()
    report(11, "experiment and generate manifests replay byte-for-byte")
