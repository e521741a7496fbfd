"""Differential tests of the LP solver on degenerate programs.

Every draw mixes in the degenerate shapes the experiments produce: tied
k/N_g estimates, alpha = 0, beta * n = 1, zero-cost workers, a budget
equal to the minimum fee, and infeasible programs.  Small draws are
checked against the vertex oracle, large seeded ones against HiGHS.
The family-removed programs behind the relaxation hints are built here,
not through the library, so the hints are checked independently.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdfdb import (
    ConstraintSet,
    FairnessKind,
    LpStatus,
    Policy,
    Priors,
    TOL,
    build_lp,
    solve_lp,
    verify_solution,
)
from crowdfdb import lp as lp_module
from crowdfdb.lp import LpProblem
from oracles import vertex_enumeration

N_GOLD = 5  # few gold tasks per type: estimates k/5 tie often
FAMILIES = ("fairness", "diversity", "budget")
FAMILY_OF = {"fpr[+]": "fairness", "fpr[-]": "fairness", "fnr[+]": "fairness", "fnr[-]": "fairness", "budget": "budget"}
KINDS = (FairnessKind.FPR_PARITY, FairnessKind.FNR_PARITY, FairnessKind.ERROR_RATE_PARITY, FairnessKind.NONE)
FEES = np.array([0.0, 0.5, 1.0, 2.0])
# (alpha, beta kind, budget kind, fairness kind), drawn in this order from
# default_rng(9000 + n) by test_seeded_programs_match_highs
SEEDED_CASES = (
    (0.05, "two_over_n", "mean_fee", FairnessKind.ERROR_RATE_PARITY),
    (0.0, "half", "none", FairnessKind.FPR_PARITY),
    (0.02, "one_over_n", "none", FairnessKind.NONE),
    (0.01, "two_over_n", "min_fee", FairnessKind.ERROR_RATE_PARITY),
    (0.05, "half", "min_fee", FairnessKind.FNR_PARITY),
    (math.inf, "loose", "below_min_fee", FairnessKind.NONE),
    (0.0, "one_over_n", "mean_fee", FairnessKind.ERROR_RATE_PARITY),
)


def draw_lp(rng, n, alpha, beta_kind, budget_kind, kind):
    """A program over n workers with k/N_GOLD estimates and fees from FEES."""
    diag = rng.integers(0, N_GOLD + 1, size=(n, 4)) / N_GOLD
    estimates = diag.reshape(-1, 2, 2)
    costs = FEES[rng.integers(0, FEES.size, size=n)]
    if budget_kind == "below_min_fee":
        costs = costs + 0.5  # keeps the budget below the cheapest fee nonnegative
    priors = Priors(
        p_z1=float(rng.uniform(0.2, 0.8)),
        p_y1_given_z0=float(rng.uniform(0.2, 0.8)),
        p_y1_given_z1=float(rng.uniform(0.2, 0.8)),
    )
    beta = min({"one_over_n": 1.0 / n, "two_over_n": 2.0 / n, "half": 0.5, "loose": 0.999}[beta_kind], 0.999)
    budget = {
        "min_fee": float(costs.min()),
        "below_min_fee": float(costs.min()) - 0.25,
        "mean_fee": float(costs.mean()),
        "none": math.inf,
    }[budget_kind]
    cs = ConstraintSet(alpha=alpha, beta=beta, budget=budget, fairness_kind=kind)
    return build_lp(estimates, costs, priors, cs)


def relaxed(lp, family):
    """The program with one constraint family removed, built independently."""
    if family == "diversity":
        return LpProblem(objective=lp.objective, coeffs=lp.coeffs, rhs=lp.rhs, labels=lp.labels, upper=1.0)
    keep = [j for j, label in enumerate(lp.labels) if FAMILY_OF[label] != family]
    return LpProblem(
        objective=lp.objective,
        coeffs=lp.coeffs[keep],
        rhs=lp.rhs[keep],
        labels=tuple(lp.labels[j] for j in keep),
        upper=lp.upper,
    )


def check_against(lp, reference):
    """Compare solve_lp with reference(lp) -> (status, best accuracy or None)."""
    sol = solve_lp(lp)
    status, best = reference(lp)
    assert sol.status == status
    if status == LpStatus.OPTIMAL:
        assert sol.objective_value == pytest.approx(best, abs=1e-9)
        assert verify_solution(lp, sol, tol=1e-7) == []
        assert abs(float(sol.policy.weights.sum()) - 1.0) <= TOL.policy_sum
        assert Policy(sol.policy.weights) == sol.policy
        assert sol.relaxation_hints == ()
    else:
        expected = tuple(
            f
            for f in FAMILIES
            if (f == "diversity" or any(FAMILY_OF[label] == f for label in lp.labels))
            and reference(relaxed(lp, f))[0] == LpStatus.OPTIMAL
        )
        assert sol.relaxation_hints == expected
    return sol.status


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.0, 0.05, 0.2, math.inf]),
    beta_kind=st.sampled_from(["one_over_n", "two_over_n", "half", "loose"]),
    budget_kind=st.sampled_from(["min_fee", "below_min_fee", "mean_fee", "none"]),
    kind=st.sampled_from(KINDS),
)
def test_small_programs_match_vertex_oracle(n, seed, alpha, beta_kind, budget_kind, kind):
    lp = draw_lp(np.random.default_rng(seed), n, alpha, beta_kind, budget_kind, kind)
    check_against(lp, vertex_enumeration)


def highs(lp):
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = linprog(
        lp.objective,
        A_ub=lp.coeffs if lp.labels else None,
        b_ub=lp.rhs if lp.labels else None,
        A_eq=np.ones((1, lp.n)),
        b_eq=np.array([1.0]),
        bounds=(0.0, lp.upper),
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return (LpStatus.OPTIMAL, -float(res.fun)) if res.status == 0 else (LpStatus.INFEASIBLE, None)


@pytest.mark.parametrize("n", [2, 3, 10, 60, 400, 5000])
def test_seeded_programs_match_highs(n):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(9000 + n)
    statuses = [check_against(draw_lp(rng, n, *case), highs) for case in SEEDED_CASES]
    assert LpStatus.INFEASIBLE in statuses
    if n >= 10:
        assert LpStatus.OPTIMAL in statuses


def test_every_shipped_recipe_lp_matches_highs(tmp_path, monkeypatch):
    """Every CrowdFDB program of the 8 shipped recipes (2 reps, seed 5),
    infeasible ones with their hints against the family-removed programs."""
    pytest.importorskip("scipy")
    from crowdfdb import cli, pipeline

    solved = []

    def recording_solve(lp):
        solved.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(pipeline, "solve_lp", recording_solve)
    monkeypatch.delenv("CROWDFDB_THREADS", raising=False)
    recipes = cli.recipe_names()
    assert len(recipes) == 8
    for recipe in recipes:
        out = tmp_path / f"{recipe}.csv"
        args = ["experiment", "--recipe", recipe, "--repetitions", "2", "--seed", "5", "--methods", "CrowdFDB"]
        assert cli.main(args + ["--out", str(out)]) == 0
    assert len(solved) == 8 * 4 * 2
    statuses = [check_against(lp, highs) for lp in solved]
    assert LpStatus.INFEASIBLE in statuses


@pytest.mark.parametrize("n", [2, 3, 10, 60, 400, 5000])
def test_blands_rule_on_every_pivot_keeps_each_seeded_program(n, monkeypatch):
    """Bland's rule only takes over after _DEGENERATE_SWITCH steps in a row
    without objective progress, a stall no program here reaches; with the
    switch at 0 it picks every pivot, and each program keeps its status,
    hints and optimum."""
    rng = np.random.default_rng(9000 + n)
    programs = [draw_lp(rng, n, *case) for case in SEEDED_CASES]
    dantzig = [solve_lp(lp) for lp in programs]
    monkeypatch.setattr(lp_module, "_DEGENERATE_SWITCH", 0)
    bland = [solve_lp(lp) for lp in programs]
    if n >= 10:  # the rule changed which pivots were taken
        assert [s.iterations for s in bland] != [s.iterations for s in dantzig]
    for lp, before, after in zip(programs, dantzig, bland):
        assert (after.status, after.relaxation_hints) == (before.status, before.relaxation_hints)
        if after.status == LpStatus.OPTIMAL:
            assert after.objective_value == pytest.approx(before.objective_value, abs=1e-9)
            assert verify_solution(lp, after, tol=1e-7) == []


def test_blands_rule_on_every_pivot_matches_the_vertex_oracle(monkeypatch):
    monkeypatch.setattr(lp_module, "_DEGENERATE_SWITCH", 0)
    rng = np.random.default_rng(77)
    for _ in range(150):
        n = int(rng.integers(1, 9))
        case = (
            [0.0, 0.05, 0.2, math.inf][rng.integers(4)],
            ["one_over_n", "two_over_n", "half", "loose"][rng.integers(4)],
            ["min_fee", "below_min_fee", "mean_fee", "none"][rng.integers(4)],
            KINDS[rng.integers(len(KINDS))],
        )
        check_against(draw_lp(rng, n, *case), vertex_enumeration)
