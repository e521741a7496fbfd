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
    pool = [(np.array(coeffs, dtype=float), float(rhs)) for coeffs, rhs in zip(lp.coeffs, lp.rhs)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        pool.append((e, float(lp.upper)))  # x_i <= upper
        pool.append((-e, 0.0))  # -x_i <= 0
    return pool


def _equality(lp):
    """The total row sum(S) == 1, which the program holds implicitly."""
    return np.ones(lp.n), 1.0


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
    """Spreadsheet-style recount from (z, y, yhat) triples: the FPR gap, FNR
    gap and accuracy, then the task and error counts of cells (0, 0), (0, 1),
    (1, 0), (1, 1)."""
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
    order = ((0, 0), (0, 1), (1, 0), (1, 1))
    cell_tasks = tuple(cells.get(cell, 0) for cell in order)
    cell_errors = tuple(wrong.get(cell, 0) for cell in order)
    return fpr_gap, fnr_gap, accuracy, cell_tasks, cell_errors


def random_lp_instance(rng, n, alpha, beta, budget_kind, fairness_kind):
    """Random matrices/costs/priors and the matching built LP.

    budget_kind "tight" barely covers the cheapest cap-respecting mix,
    "loose" can never bind (an average of costs is at most the maximum).
    """
    from crowdfdb import ConstraintSet, Priors, build_lp

    estimates = [rng.uniform(0.05, 0.95, size=4).reshape(2, 2) for _ in range(n)]
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
    from crowdfdb.datagen import IntervalBiasModel, UniformCost
    from crowdfdb.model import WorkerProfile
    from crowdfdb.rng import stream

    model = spec.bias_model
    width = max(4, len(str(spec.n_workers - 1)))
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
        workers.append(WorkerProfile(id=f"w{i:0{width}d}", correct=correct, cost=cost))
    return workers


def reference_task_pool(spec):
    """generate_task_pool as the per-task loop it replaced: one (id, z, y)
    per task, each group's labels drawn in turn, then one permutation."""
    from crowdfdb.rng import stream

    rng = stream(spec.seed, "tasks")
    zs = np.concatenate([np.zeros(spec.n_z0, dtype=int), np.ones(spec.n_z1, dtype=int)])
    ys = np.concatenate(
        [
            (rng.random(spec.n_z0) < spec.base_rate_z0).astype(int),
            (rng.random(spec.n_z1) < spec.base_rate_z1).astype(int),
        ]
    )
    order = rng.permutation(zs.size)
    width = max(5, len(str(max(zs.size - 1, 0))))
    return [(f"t{pos:0{width}d}", int(zs[j]), int(ys[j])) for pos, j in enumerate(order)]


def _reference_rows(path, columns):
    """(line number, row) for each data row, checked for text and width one
    row at a time, as the per-row loaders read them."""
    from crowdfdb.datagen import _check_row, _data_rows

    for lineno, row in _data_rows(path, columns):
        _check_row(path, lineno, row, len(columns))
        yield lineno, row


def reference_load_workers(path):
    """load_workers as the per-row loop it replaced: each row's fields parsed
    in turn, then both of its matrices checked by the rule stated here (entries
    in [0, 1], then rows summing to 1 within 1e-12) and the worker validated
    as an object; a list of WorkerProfiles, which must not be empty."""
    from crowdfdb.datagen import _WORKER_COLUMNS, FileFormatError, _parse_float
    from crowdfdb.model import WorkerProfile

    workers, seen = [], {}
    for lineno, row in _reference_rows(path, _WORKER_COLUMNS):
        cost, *entries = (
            _parse_float(path, lineno, field, raw) for field, raw in zip(_WORKER_COLUMNS[1:], row[1:])
        )
        grids = np.array(entries).reshape(2, 2, 2)  # [z, y, yhat]
        for z in (0, 1):
            m = grids[z].tolist()
            if not all(0.0 <= v <= 1.0 for row in m for v in row):  # NaN fails every comparison
                raise FileFormatError(f"{path} line {lineno}: matrix a{z}_*: "
                                      f"accuracy matrix entries must lie in [0, 1]: {m}")
            sums = [row[0] + row[1] for row in m]
            if any(abs(s - 1.0) > 1e-12 for s in sums):
                raise FileFormatError(f"{path} line {lineno}: matrix a{z}_*: "
                                      f"accuracy matrix rows must sum to 1, got sums {sums}")
        try:
            workers.append(WorkerProfile(id=row[0], correct=grids.diagonal(axis1=1, axis2=2), cost=cost))
        except ValueError as err:
            raise FileFormatError(f"{path} line {lineno}: {err}")
        if row[0] in seen:
            raise FileFormatError(f"{path} line {lineno}: repeated id {row[0]!r}, first on line {seen[row[0]]}")
        seen[row[0]] = lineno
    if not workers:
        raise FileFormatError(f"{path} line 1: population needs at least one worker")
    return workers


def reference_load_gold_tallies(path):
    """load_gold_tallies as the per-row loop it replaced: each row's counts
    parsed in turn and validated as a GoldResponseTally; a list of (id,
    tally) pairs, which must not be empty and whose counts must fit int64."""
    from crowdfdb.datagen import _TALLY_COLUMNS, FileFormatError, _parse_int
    from crowdfdb.estimation import GoldResponseTally

    out, seen = [], {}
    for lineno, row in _reference_rows(path, _TALLY_COLUMNS):
        numbers = []
        for field, raw in zip(_TALLY_COLUMNS[1:], row[1:]):
            numbers.append(_parse_int(path, lineno, field, raw))
            if numbers[-1] >= 2**63:
                raise FileFormatError(f"{path} line {lineno}: field {field} exceeds the largest count, {2**63 - 1}")
        try:
            tally = GoldResponseTally(attempted=tuple(numbers[0::2]), correct=tuple(numbers[1::2]))
        except ValueError as err:
            raise FileFormatError(f"{path} line {lineno}: {err}")
        if row[0] in seen:
            raise FileFormatError(f"{path} line {lineno}: repeated id {row[0]!r}, first on line {seen[row[0]]}")
        seen[row[0]] = lineno
        out.append((row[0], tally))
    if not out:
        raise FileFormatError(f"{path} line 1: gold tallies need at least one worker")
    return out


def reference_load_responses(path):
    """load_responses as the per-row loop it replaced: three bits parsed per
    row, and per-worker count lists in dicts; the file must hold a response."""
    from crowdfdb.datagen import _RESPONSE_COLUMNS, FileFormatError, _parse_bit
    from crowdfdb.estimation import TYPE_ORDER, GoldResponseTally

    attempted, correct = {}, {}
    for lineno, row in _reference_rows(path, _RESPONSE_COLUMNS):
        worker_id = row[0]
        answer = _parse_bit(path, lineno, "answer", row[2])
        z = _parse_bit(path, lineno, "z", row[3])
        y = _parse_bit(path, lineno, "y", row[4])
        if worker_id not in attempted:
            attempted[worker_id] = [0, 0, 0, 0]
            correct[worker_id] = [0, 0, 0, 0]
        idx = TYPE_ORDER.index((z, y))
        attempted[worker_id][idx] += 1
        if answer == y:
            correct[worker_id][idx] += 1
    if not attempted:
        raise FileFormatError(f"{path} line 1: gold tallies need at least one worker")
    return [
        (wid, GoldResponseTally(attempted=tuple(attempted[wid]), correct=tuple(correct[wid])))
        for wid in attempted
    ]


def reference_load_tasks(path):
    """load_tasks as a per-row loop: both bits of each row parsed in turn."""
    from crowdfdb.datagen import _TASK_COLUMNS, TaskPool, _parse_bit

    ids, zs, ys = [], [], []
    for lineno, row in _reference_rows(path, _TASK_COLUMNS):
        zs.append(_parse_bit(path, lineno, "z", row[1]))
        ys.append(_parse_bit(path, lineno, "y", row[2]))
        ids.append(row[0])
    return TaskPool(ids=tuple(ids), z=np.array(zs, dtype=int), y=np.array(ys, dtype=int))
