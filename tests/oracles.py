"""Independent reference computations for the test suite.

These deliberately avoid the library's solver and vectorized paths:
the vertex oracle enumerates active-constraint subsets and solves tiny
linear systems, the grid oracle scans the 0.001-step probability grid,
and the scalar oracles are plain loops.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

FEAS_EPS = 1e-9


def _constraint_pool(lp):
    """All inequality constraints as (coeffs, rhs) with sense <=."""
    n = lp.n
    pool = []
    for row in lp.rows:
        if row.relation == "<=":
            pool.append((np.array(row.coeffs, dtype=float), float(row.rhs)))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        pool.append((e, float(lp.upper)))  # x_i <= upper
        pool.append((-e, 0.0))  # -x_i <= 0
    return pool


def _equality(lp):
    eq = [row for row in lp.rows if row.relation == "=="]
    assert len(eq) == 1
    return np.array(eq[0].coeffs, dtype=float), float(eq[0].rhs)


def _feasible(lp, x):
    eq_c, eq_r = _equality(lp)
    if abs(float(eq_c @ x) - eq_r) > FEAS_EPS:
        return False
    for coeffs, rhs in _constraint_pool(lp):
        if float(coeffs @ x) - rhs > FEAS_EPS:
            return False
    return True


def vertex_enumeration(lp):
    """Exact optimum by enumerating candidate vertices.

    Returns (status, best_accuracy): status "optimal" with the maximum of
    -objective over all vertices of the feasible polytope, or
    ("infeasible", None) when no candidate vertex is feasible.  Only
    sensible for small n (combinatorial in the constraint count); the
    candidate systems are solved in batches, skipping singular ones.
    """
    n = lp.n
    eq_c, eq_r = _equality(lp)
    pool = _constraint_pool(lp)
    best = None
    if n == 1:
        x = np.array([eq_r / eq_c[0]])
        if _feasible(lp, x):
            best = -float(lp.objective @ x)
        return ("optimal", best) if best is not None else ("infeasible", None)

    P = np.array([coeffs for coeffs, _ in pool])
    r = np.array([rhs for _, rhs in pool])
    combos = itertools.combinations(range(len(pool)), n - 1)
    while True:
        idx = np.array(list(itertools.islice(combos, 4096)), dtype=int).reshape(-1, n - 1)
        if idx.size == 0:
            break
        A = np.concatenate([np.broadcast_to(eq_c, (len(idx), 1, n)), P[idx]], axis=1)
        b = np.concatenate([np.full((len(idx), 1), eq_r), r[idx]], axis=1)
        solvable = np.linalg.det(A) != 0.0  # an exactly singular LU pivot
        x = np.linalg.solve(A[solvable], b[solvable][..., None])[..., 0]
        ok = np.all(np.isfinite(x), axis=1)
        ok &= np.abs(x @ eq_c - eq_r) <= FEAS_EPS
        ok &= np.all(x @ P.T - r <= FEAS_EPS, axis=1)
        if ok.any():
            value = float((-(x[ok] @ lp.objective)).max())
            if best is None or value > best:
                best = value
    return ("optimal", best) if best is not None else ("infeasible", None)


def grid_search_best_accuracy(lp, step=0.001):
    """Maximum of -objective over feasible points of the step-grid simplex.

    Exhaustive over every grid point for n <= 3; for n = 4 the last two
    coordinates are handled analytically (the objective is linear in the
    split of their fixed remainder, so only the endpoints of the feasible
    integer interval need evaluation, which is exact).  Returns None when
    no grid point is feasible.
    """
    n = lp.n
    K = round(1.0 / step)
    ineqs = _constraint_pool(lp)
    c = np.array(lp.objective, dtype=float)

    if n == 1:
        x = np.array([1.0])
        return -float(c @ x) if _feasible(lp, x) else None

    if n == 2:
        t = np.arange(K + 1)
        pts = np.stack([t, K - t], axis=1) / K
        mask = np.ones(len(pts), dtype=bool)
        for coeffs, rhs in ineqs:
            mask &= pts @ coeffs <= rhs + FEAS_EPS
        if not mask.any():
            return None
        return float((-(pts[mask] @ c)).max())

    if n == 3:
        best = None
        for k1 in range(K + 1):
            t = np.arange(K - k1 + 1)
            pts = np.stack([np.full_like(t, k1), t, K - k1 - t], axis=1) / K
            mask = np.ones(len(pts), dtype=bool)
            for coeffs, rhs in ineqs:
                mask &= pts @ coeffs <= rhs + FEAS_EPS
            if mask.any():
                value = float((-(pts[mask] @ c)).max())
                if best is None or value > best:
                    best = value
        return best

    assert n == 4
    best = None
    for k1 in range(K + 1):
        k2 = np.arange(K - k1 + 1)
        rest = K - k1 - k2  # k3 + k4 per column
        lo = np.zeros(len(k2))
        hi = rest.astype(float)
        ok = np.ones(len(k2), dtype=bool)
        for coeffs, rhs in ineqs:
            a1, a2, a3, a4 = coeffs
            const = a1 * k1 + a2 * k2 + a4 * rest  # value at k3 = t with t-coeff below
            coef_t = a3 - a4
            bound = rhs * K + FEAS_EPS * K
            if coef_t > 0:
                hi = np.minimum(hi, (bound - const) / coef_t)
            elif coef_t < 0:
                lo = np.maximum(lo, (bound - const) / coef_t)
            else:
                ok &= const <= bound
        t_lo = np.ceil(lo - 1e-12)
        t_hi = np.floor(hi + 1e-12)
        ok &= t_lo <= t_hi
        if not ok.any():
            continue
        for t in (t_lo, t_hi):  # objective linear in t: optimum at an endpoint
            k2v = k2[ok]
            tv = t[ok]
            pts = np.stack([np.full_like(k2v, k1, dtype=float), k2v, tv, rest[ok] - tv], axis=1) / K
            value = float((-(pts @ c)).max())
            if best is None or value > best:
                best = value
    return best


def loop_expected_accuracy(weights, workers, priors) -> float:
    """Plain four-term summation of the expected-accuracy definition."""
    total = 0.0
    for z in (0, 1):
        p_z = priors.p_z1 if z == 1 else 1.0 - priors.p_z1
        for y in (0, 1):
            p_y1 = priors.p_y1_given_z1 if z == 1 else priors.p_y1_given_z0
            p_y = p_y1 if y == 1 else 1.0 - p_y1
            for i, w in enumerate(workers):
                total += p_z * p_y * weights[i] * w.matrix(z)[y, y]
    return total


def recount_scores(records):
    """Spreadsheet-style recount of rates from (z, y, yhat) triples."""
    cells = {}
    wrong = {}
    for z, y, yhat in records:
        cells[(z, y)] = cells.get((z, y), 0) + 1
        if yhat != y:
            wrong[(z, y)] = wrong.get((z, y), 0) + 1
    def rate(z, y):
        if cells.get((z, y), 0) == 0:
            return None
        return wrong.get((z, y), 0) / cells[(z, y)]
    fpr0, fpr1 = rate(0, 0), rate(1, 0)
    fnr0, fnr1 = rate(0, 1), rate(1, 1)
    accuracy = 1.0 - sum(wrong.values()) / len(records)
    fpr_gap = abs(fpr0 - fpr1) if fpr0 is not None and fpr1 is not None else None
    fnr_gap = abs(fnr0 - fnr1) if fnr0 is not None and fnr1 is not None else None
    return fpr_gap, fnr_gap, accuracy


def random_lp_instance(rng, n, alpha, beta, budget_kind, fairness_kind):
    """Random matrices/costs/priors and the matching built LP.

    budget_kind "tight" barely covers the cheapest cap-respecting mix,
    "loose" can never bind (an average of costs is at most the maximum).
    """
    from crowdfdb import AccuracyMatrix, ConstraintSet, Priors, build_lp

    estimates = []
    for _ in range(n):
        diag = rng.uniform(0.05, 0.95, size=4)
        estimates.append(
            (
                AccuracyMatrix.from_diagonals(diag[0], diag[1]),
                AccuracyMatrix.from_diagonals(diag[2], diag[3]),
            )
        )
    costs = rng.uniform(0.5, 2.0, size=n)
    priors = Priors(
        p_z1=float(rng.uniform(0.2, 0.8)),
        p_y1_given_z0=float(rng.uniform(0.2, 0.8)),
        p_y1_given_z1=float(rng.uniform(0.2, 0.8)),
    )
    if budget_kind == "loose":
        budget = float(costs.max())
    else:
        asc = np.sort(costs)
        remaining, spend = 1.0, 0.0
        for fee in asc:
            take = min(beta, remaining)
            spend += take * fee
            remaining -= take
            if remaining <= 0:
                break
        budget = spend * 1.02 if remaining <= 0 else float(costs.mean())
    cs = ConstraintSet(alpha=alpha, beta=beta, budget=budget, fairness_kind=fairness_kind)
    lp = build_lp(estimates, costs, priors, cs)
    return lp, estimates, costs, priors, cs


def reference_population(spec):
    """generate_population as a per-worker loop: one stream(seed, "population", i)
    per worker, drawn with scalar Generator.uniform/random calls."""
    from crowdfdb.datagen import IntervalBiasModel, UniformCost, _worker_id
    from crowdfdb.model import WorkerProfile
    from crowdfdb.rng import stream

    model = spec.bias_model
    workers = []
    for i in range(spec.n_workers):
        rng = stream(spec.seed, "population", i)
        if isinstance(model, IntervalBiasModel):
            correct = np.array(
                [[rng.uniform(*getattr(model, f"diag_z{z}_y{y}")) for y in (0, 1)] for z in (0, 1)]
            )
        else:
            prefix = "biased" if bool(rng.random() < model.biased_fraction) else "unbiased"
            errors = [1.0 - rng.uniform(*getattr(model, f"{prefix}_diag_y{y}")) for y in (0, 1)]
            halves = [getattr(model, f"{prefix}_{rate}_offset") / 2.0 for rate in ("fpr", "fnr")]
            correct = np.array(
                [[1.0 - min(max(e + sign * h, 0.0), 1.0) for e, h in zip(errors, halves)]
                 for sign in (1.0, -1.0)]
            )
        if isinstance(spec.cost_model, UniformCost):
            cost = spec.cost_model.fee
        else:
            high = bool(rng.random() < sum(correct.flat) / 4.0)
            cost = spec.cost_model.high_fee if high else spec.cost_model.low_fee
        workers.append(WorkerProfile(id=_worker_id(i, spec.n_workers), correct=correct, cost=cost))
    return workers
