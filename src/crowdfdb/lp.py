"""Linear program over selection probabilities, and a bounded simplex solver.

The program maximizes expected label accuracy (stated below as the
equivalent minimization of its negation) over policies S subject to:

    sum_i S[i] = 1
    0 <= S[i] <= beta                        (diversity cap, a variable bound)
    |sum_i S[i] * gap_i| <= alpha            (fairness rows, per error kind)
    sum_i S[i] * c_i <= C                    (expected per-label budget)

where gap_i is worker i's between-group difference of the constrained
error-rate entry.  A fairness slack or budget of +inf omits the matching
rows, so the program has at most six rows.

The solver is a two-phase bounded-variable primal simplex (Dantzig 1955;
Chvatal, Linear Programming, ch. 8) over an m x m basis of the real rows:
a variable that reaches its cap flips to its upper bound instead of
adding a row, so each iteration costs O(m n).  The basis inverse starts
as the diagonal crash basis (the identity, its own inverse) and is kept
by one rank-one (product-form) update per pivot (Dantzig & Orchard-Hays,
Math. Tables Aids Comput. 1954); the point x is carried by the same
steps, from phase 1 into phase 2.  No inverse is formed and no LAPACK
routine runs.  Pivoting uses Dantzig's largest reduced cost for speed.
One stall counter, the steps in a row that do not lower the objective,
drives the anti-cycling rules: at a fixed threshold Bland's rule engages,
deterministically, and past a number of steps fixed per row, not per
worker, the stall is a SolverError.  So is an improving column that no
row blocks: the feasible set lies inside the capped simplex, so such a
ray means a corrupt program.  Feasibility is accepted at 1e-7 and
reduced costs at 1e-9 (see Tolerances in model.py).  Phase 1 answers
feasibility, so each relaxation hint runs phase 1 alone.

Phase 1 starts from a crash basis (Bixby, "Implementing the simplex
method: the initial basis", ORSA J. Computing 1992) instead of S = 0:
the k = floor(1/beta) workers with the lowest key sit at their cap, and
each row is signed by its residual at that start.  A <= row the start
satisfies keeps its slack basic; the total row and every violated row
get an artificial, so phase 1 repairs only those.  The key is the
objective plus a nonnegative price times each <= row, fairness and
budget alike: a Lagrangian relaxation of those rows (Fisher, "The
Lagrangian relaxation method", Management Science 1981).  Each price is
the least one, found by bisection with the other prices held, at which
the crash fits its row; the crash goes round the rows a fixed number of
times.  The k lowest keys are selected in O(n), equal keys going to the
lower index, so the start is a function of the keys alone.
Relaxation-hint phase-1 runs crash the same way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import FairnessKind, Policy, Priors, TOL, diagonal_accuracies

FEASIBILITY_TOL = TOL.lp_feasibility
OPTIMALITY_TOL = TOL.lp_optimality
_RATIO_TOL = 1e-11
_DEGENERATE_SWITCH = 24  # steps in a row without objective progress before Bland's rule engages
_STALL_STEPS_PER_ROW = 100  # steps in a row without objective progress, per basis row, before SolverError
_PROGRESS_TOL = 1e-12  # objective decrease, relative to max(1, |objective|), that counts as progress
_CRASH_ROUNDS = 2  # passes of the crash over its priced rows
_CRASH_STEPS = 12  # bisection steps per row price
_CRASH_PRICE_SPAN = 2.0**20  # a row price is bisected within [scale / span, scale * span]


class SolverError(RuntimeError):
    """Simplex did not terminate within the cycling guard."""


@dataclass(frozen=True)
class ConstraintSet:
    """Requester constraints: fairness slack, diversity cap, budget cap."""

    alpha: float
    beta: float
    budget: float
    fairness_kind: FairnessKind = FairnessKind.ERROR_RATE_PARITY

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if not self.alpha >= 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.budget >= 0.0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if not isinstance(self.fairness_kind, FairnessKind):
            raise ValueError(f"fairness_kind must be a FairnessKind, got {self.fairness_kind!r}")


@dataclass(frozen=True, eq=False)
class LpProblem:
    """Minimize objective . S subject to sum(S) == 1, coeffs @ S <= rhs and
    0 <= S[i] <= upper (the diversity cap).

    The total row sum(S) == 1 is implicit; coeffs holds only the <= rows,
    one per label: fpr[+], fpr[-], fnr[+], fnr[-] (the fairness family)
    and budget (the budget family)."""

    objective: np.ndarray
    coeffs: np.ndarray
    rhs: np.ndarray
    labels: tuple[str, ...]
    upper: float

    def __post_init__(self) -> None:
        for name in ("objective", "coeffs", "rhs"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        k = len(self.labels)
        if self.coeffs.shape != (k, self.n) or self.rhs.shape != (k,):
            raise ValueError(
                f"{k} labels over {self.n} weights need coeffs of shape {(k, self.n)} and rhs of "
                f"shape {(k,)}, got {self.coeffs.shape} and {self.rhs.shape}"
            )
        if not self.upper >= 0.0:
            raise ValueError(f"upper bound must be >= 0, got {self.upper}")

    @property
    def n(self) -> int:
        return int(self.objective.size)


def _family(label: str) -> str:
    return "budget" if label == "budget" else "fairness"


@dataclass(frozen=True)
class Violation:
    label: str
    amount: float


class LpStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; objective_value is the achieved expected accuracy
    (sign-corrected to positive) when status is optimal, and iterations
    counts every simplex iteration run, hints' phase-1 runs included."""

    status: str
    policy: Policy | None = None
    objective_value: float | None = None
    relaxation_hints: tuple[str, ...] = ()
    iterations: int = 0


def build_lp(
    estimates: np.ndarray | list[np.ndarray],
    costs: list[float] | np.ndarray,
    priors: Priors,
    cs: ConstraintSet,
) -> LpProblem:
    """Assemble the accuracy-maximization LP from per-worker estimates.

    Estimates are the (n, z, y) correctness array, or a list of per-worker
    (z, y) arrays.  The objective coefficient for worker i is the negated
    prior-weighted sum of the estimated correctness diag[i, z, y], so
    minimizing it maximizes expected accuracy.  Fairness rows encode
    the mixture-level gap as a pair of <= alpha rows per constrained error
    kind; they are expanded to per-worker coefficients gap_i = (1 - diag[i,
    0, y]) - (1 - diag[i, 1, y]) because the mixture gap is linear in S.
    """
    d = np.asarray(estimates, dtype=float)
    n = len(d)
    if n < 1:
        raise ValueError("need at least one worker")
    costs = np.asarray(costs, dtype=float)
    if costs.size != n:
        raise ValueError(f"got {costs.size} costs for {n} workers")

    objective = -diagonal_accuracies(d, priors)
    rows = []  # (coeffs, rhs, label) of each <= row

    if cs.fairness_kind is not FairnessKind.NONE and math.isfinite(cs.alpha):
        kinds = []
        if cs.fairness_kind in (FairnessKind.FPR_PARITY, FairnessKind.ERROR_RATE_PARITY):
            kinds.append(("fpr", (1.0 - d[:, 0, 0]) - (1.0 - d[:, 1, 0])))
        if cs.fairness_kind in (FairnessKind.FNR_PARITY, FairnessKind.ERROR_RATE_PARITY):
            kinds.append(("fnr", (1.0 - d[:, 0, 1]) - (1.0 - d[:, 1, 1])))
        for name, gaps in kinds:
            rows += [(gaps, cs.alpha, f"{name}[+]"), (-gaps, cs.alpha, f"{name}[-]")]

    if math.isfinite(cs.budget):
        rows.append((costs, cs.budget, "budget"))

    return LpProblem(
        objective=objective,
        coeffs=np.reshape([coeffs for coeffs, _, _ in rows], (len(rows), n)),
        rhs=[rhs for _, rhs, _ in rows],
        labels=tuple(label for _, _, label in rows),
        upper=cs.beta,
    )


def _simplex(
    A: np.ndarray,
    cost: np.ndarray,
    upper: np.ndarray,
    basis: np.ndarray,
    at_upper: np.ndarray,
    B_inv: np.ndarray,
    x: np.ndarray,
) -> int:
    """Bounded-variable primal simplex on A x = b, 0 <= x <= upper, where
    b is A x at the start.

    Starts from a feasible basis, its inverse B_inv and its point x:
    nonbasic variables sit at 0 or, where at_upper is set, at their upper
    bound.  A bound flip moves the basic values by the step times the
    entering column; a pivot does too, puts the leaving variable at its
    bound and applies one rank-one (product-form) update to B_inv, so no
    inverse is ever formed.  Updates basis, at_upper, B_inv and x in place
    to an optimum and returns the iterations, counting the final pass that
    proves it.  From _DEGENERATE_SWITCH steps in a row, pivots and flips
    alike, that lower the objective by less than _PROGRESS_TOL, Bland's
    rule picks the entering column; after more than _STALL_STEPS_PER_ROW * m
    SolverError is raised (the cycling guard), as it is for a ray.
    """
    m = len(basis)
    movable = upper > 0.0
    stalled = 0
    lowest = math.inf
    for iteration in itertools.count(1):
        reduced = cost - (cost[basis] @ B_inv) @ A
        eligible = movable & np.where(at_upper, reduced > OPTIMALITY_TOL, reduced < -OPTIMALITY_TOL)
        eligible[basis] = False
        if not eligible.any():
            return iteration
        value = float(cost @ x)
        if lowest - value > _PROGRESS_TOL * max(1.0, abs(value)):
            lowest, stalled = value, 0
        else:
            stalled += 1
        if stalled > _STALL_STEPS_PER_ROW * m:
            raise SolverError(f"simplex made no objective progress in {stalled} steps (cycling guard)")
        if stalled >= _DEGENERATE_SWITCH:
            entering = int(np.flatnonzero(eligible)[0])  # Bland: lowest index
        else:
            entering = int(np.argmax(np.where(eligible, np.abs(reduced), -1.0)))

        # basic values change at `rate` per unit step of the entering variable
        column = B_inv @ A[:, entering]
        rate = column if at_upper[entering] else -column
        x_basic = x[basis]
        ratios = np.full(m, np.inf)
        down = rate < -_RATIO_TOL
        ratios[down] = x_basic[down] / -rate[down]
        up = rate > _RATIO_TOL
        ratios[up] = (upper[basis][up] - x_basic[up]) / rate[up]
        ratios = np.maximum(ratios, 0.0)
        best = ratios.min()
        if upper[entering] <= best:  # bound flip: the entering variable crosses its range first
            if math.isinf(upper[entering]):
                raise SolverError(f"column {entering} improves without bound; the program is corrupt")
            x[basis] += upper[entering] * rate
            x[entering] = 0.0 if at_upper[entering] else upper[entering]
            at_upper[entering] = not at_upper[entering]
            continue
        # deterministic anti-cycling tie-break: smallest basis variable index
        tied = np.flatnonzero(ratios <= best + 1e-15)
        leaving = int(tied[np.argmin(basis[tied])])
        x[basis] += best * rate
        x[entering] = upper[entering] - best if at_upper[entering] else best
        leaver = basis[leaving]
        at_upper[leaver] = rate[leaving] > 0.0
        x[leaver] = upper[leaver] if at_upper[leaver] else 0.0
        at_upper[entering] = False
        basis[leaving] = entering
        pivot_row = B_inv[leaving] / column[leaving]
        B_inv -= np.outer(column, pivot_row)
        B_inv[leaving] = pivot_row


def _lowest(key: np.ndarray, k: int) -> np.ndarray:
    """Indices, in increasing order, of the k lowest keys, ties broken by
    the lower index.

    np.partition finds the k-th lowest value v in O(n); the selection is
    every key below v plus the lowest-index keys equal to v, so it does
    not depend on the partition algorithm.
    """
    if k == 0:
        return np.arange(0)
    v = np.partition(key, k - 1)[k - 1]
    picked = key < v
    picked[np.flatnonzero(key == v)[: k - np.count_nonzero(picked)]] = True
    return np.flatnonzero(picked)


def _crash(lp: LpProblem) -> np.ndarray:
    """Indices of the weights the crash start puts at their cap.

    These are the k = min(n, floor(1/beta)) lowest keys (see _lowest).
    The key is the objective plus price_j times row j over every <= row,
    fairness and budget alike.  Every price starts at 0; then
    _CRASH_ROUNDS times round the rows, each row the crash violates
    (beta times its coefficients' sum over the crash exceeds the rhs)
    gets the least price at which the crash fits it, the other prices
    held.  That price is bisected in _CRASH_STEPS geometric steps within
    a factor _CRASH_PRICE_SPAN of the price at which the row spreads the
    keys as far as the rest of the key does; a row that the top of this
    bracket cannot fit is priced at the top.
    """
    beta = lp.upper
    k = 0 if beta == 0.0 else min(lp.n, int(math.floor(1.0 / beta + 1e-9)))
    picked = _lowest(lp.objective, k)
    if k in (0, lp.n):
        return picked  # no price changes which weights are capped
    coeffs = lp.coeffs
    prices = np.zeros(len(coeffs))

    def fits(j: int, capped: np.ndarray) -> bool:
        return beta * float(coeffs[j, capped].sum()) <= lp.rhs[j]

    for _ in range(_CRASH_ROUNDS):
        for j in range(len(coeffs)):
            if fits(j, picked):
                continue
            spread = float(np.ptp(coeffs[j]))
            if spread == 0.0:
                continue  # every crash spends the same on a flat row
            prices[j] = 0.0
            base = lp.objective + prices @ coeffs  # the key without row j
            # at this price the row spreads the keys as far as base does
            # (any price orders the keys by the row when base is flat)
            scale = (float(np.ptp(base)) or 1.0) / spread
            lo, hi = scale / _CRASH_PRICE_SPAN, scale * _CRASH_PRICE_SPAN
            picked = _lowest(base + hi * coeffs[j], k)
            if fits(j, picked):  # else no price in the bracket fits the row
                for _ in range(_CRASH_STEPS):
                    mid = math.sqrt(lo * hi)
                    trial = _lowest(base + mid * coeffs[j], k)
                    if fits(j, trial):
                        hi, picked = mid, trial
                    else:
                        lo = mid
            prices[j] = hi
    return picked


def _phase1(lp: LpProblem) -> tuple[tuple[np.ndarray, ...] | None, int]:
    """Phase 1 from the crash start: the feasible basis state (A, upper,
    basis, at_upper, B_inv, x) with the artificials capped at 0, or None
    if the program is infeasible; and the phase-1 iterations."""
    n, m = lp.n, 1 + len(lp.rhs)
    x0 = np.zeros(n)
    x0[_crash(lp)] = lp.upper
    # row 0 is the total row sum(S) == 1, row r > 0 is <= row r - 1
    coeffs = np.vstack([np.ones(n), lp.coeffs])
    rhs = np.concatenate([[1.0], lp.rhs])
    residual = rhs - coeffs @ x0
    # rows flipped so every crash residual is >= 0 (the total row's too:
    # k * beta can round above 1); the total row and every row the crash
    # violates start with an artificial basic, every other row with its
    # slack
    sign = np.where(residual < 0.0, -1.0, 1.0)
    needs_art = residual < 0.0
    needs_art[0] = True
    art = np.flatnonzero(needs_art)
    n_struct = n + m - 1
    A = np.zeros((m, n_struct + art.size))
    A[:, :n] = sign[:, None] * coeffs
    A[1:, n:n_struct] = np.diag(sign[1:])
    A[art, n_struct + np.arange(art.size)] = 1.0
    b = sign * rhs
    basis = n - 1 + np.arange(m)  # row r > 0 starts with its slack, column n + r - 1
    basis[art] = n_struct + np.arange(art.size)
    upper = np.full(A.shape[1], np.inf)
    upper[:n] = lp.upper
    at_upper = np.zeros(A.shape[1], dtype=bool)
    at_upper[:n] = x0 > 0.0
    # every basic column of the crash is an artificial or the slack of a
    # row whose residual is >= 0, so sign +1: the basis is the identity
    B_inv = np.eye(m)
    x = np.where(at_upper, upper, 0.0)
    x[basis] = b - A @ x

    # phase 1 repairs only the rows with an artificial: the total row
    # always has one, so phase 1 always runs
    phase1 = np.zeros(A.shape[1])
    phase1[n_struct:] = 1.0
    iterations = _simplex(A, phase1, upper, basis, at_upper, B_inv, x)
    if x[n_struct:].sum() > 1e-9:
        return None, iterations
    upper[n_struct:] = 0.0  # artificials still basic stay at 0 on redundant rows
    return (A, upper, basis, at_upper, B_inv, x), iterations


def _solve_bounded(lp: LpProblem) -> tuple[str, np.ndarray | None, int]:
    """Phase 2 on from _phase1's state; returns (status, weights or None,
    iterations of both phases)."""
    state, iterations = _phase1(lp)
    if state is None:
        return LpStatus.INFEASIBLE, None, iterations
    A, upper, basis, at_upper, B_inv, x = state
    cost = np.zeros(A.shape[1])
    cost[: lp.n] = lp.objective
    iterations += _simplex(A, cost, upper, basis, at_upper, B_inv, x)
    return LpStatus.OPTIMAL, x[: lp.n], iterations


def solve_lp(lp: LpProblem) -> LpSolution:
    """Solve to a vertex optimum, or diagnose infeasibility.

    On infeasibility the solution carries relaxation hints: the constraint
    families (fairness / diversity / budget) whose individual removal makes
    the program feasible (phase 1 alone answers each), so the requester
    knows what to relax.  An optimal weight vector whose sum misses 1 by
    more than TOL.policy_sum is a solver failure and raises SolverError.
    """
    status, x, iterations = _solve_bounded(lp)
    if status == LpStatus.OPTIMAL:
        weights = np.clip(x, 0.0, 1.0)
        residual = float(weights.sum()) - 1.0
        if abs(residual) > TOL.policy_sum:
            raise SolverError(
                f"optimal weights sum to 1 {residual:+.3g}, outside the policy tolerance {TOL.policy_sum:g}"
            )
        value = -float(np.dot(lp.objective, weights))
        return LpSolution(status=status, policy=Policy(weights), objective_value=value, iterations=iterations)
    hints = []
    for family in ("fairness", "diversity", "budget"):
        if family == "diversity" or family in map(_family, lp.labels):
            state, relaxed_iterations = _phase1(_without_family(lp, family))
            iterations += relaxed_iterations
            if state is not None:
                hints.append(family)
    return LpSolution(status=status, relaxation_hints=tuple(hints), iterations=iterations)


def _without_family(lp: LpProblem, family: str) -> LpProblem:
    if family == "diversity":
        return replace(lp, upper=1.0)
    keep = [j for j, label in enumerate(lp.labels) if _family(label) != family]
    return replace(lp, coeffs=lp.coeffs[keep], rhs=lp.rhs[keep], labels=tuple(lp.labels[j] for j in keep))


def verify_solution(lp: LpProblem, sol: LpSolution, tol: float = FEASIBILITY_TOL) -> list[Violation]:
    """Rows and variable bounds violated by more than tol.

    A weight above the cap is reported as diversity[i], one below zero as
    nonneg[i], a weight sum off 1 as total.

    An empty list is the pass condition used throughout the test suite.
    """
    if sol.status != LpStatus.OPTIMAL or sol.policy is None:
        raise ValueError(f"verify_solution requires an optimal solution, got status {sol.status!r}")
    w = sol.policy.weights
    out = []
    for i in np.flatnonzero(w < -tol):
        out.append(Violation(label=f"nonneg[{int(i)}]", amount=float(-w[i])))
    for i in np.flatnonzero(w > lp.upper + tol):
        out.append(Violation(label=f"diversity[{int(i)}]", amount=float(w[i] - lp.upper)))
    amount = abs(float(np.dot(np.ones(lp.n), w) - 1.0))
    if amount > tol:
        out.append(Violation(label="total", amount=amount))
    for label, amount in zip(lp.labels, (lp.coeffs @ w - lp.rhs).tolist()):
        if amount > tol:
            out.append(Violation(label=label, amount=amount))
    return out


def binding_rows(lp: LpProblem, policy: Policy, tol: float = 1e-6) -> tuple[str, ...]:
    """Labels of caps and inequality rows within tol of equality at the policy.

    Weights at the cap come first as diversity[i], in index order.
    """
    w = policy.weights
    capped = tuple(f"diversity[{int(i)}]" for i in np.flatnonzero(np.abs(w - lp.upper) <= tol))
    residual = lp.coeffs @ w - lp.rhs
    return capped + tuple(label for label, r in zip(lp.labels, residual) if abs(r) <= tol)


def dump(lp: LpProblem) -> str:
    """Fixed-format text rendering of the program, for diffing in tests."""

    def fmt(values) -> str:
        return " ".join(f"{float(v):.12g}" for v in values)

    lines = [f"min: {fmt(lp.objective)}", f"total: {fmt(np.ones(lp.n))} == 1"]
    for label, coeffs, rhs in zip(lp.labels, lp.coeffs, lp.rhs):
        lines.append(f"{label}: {fmt(coeffs)} <= {float(rhs):.12g}")
    lines.append(f"bounds: 0 <= S[i] <= {float(lp.upper):.12g}")
    return "\n".join(lines) + "\n"
