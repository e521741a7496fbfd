"""Frozen reference for the sweep results CSV.

This file re-derives, with numpy and the stream-key scheme documented in
``crowdfdb/rng.py``, what the seed commit's ``crowdfdb experiment`` writes
for the methods that never touch the LP (every Random and Greedy row,
byte for byte) and the LP status of every CrowdFDB repetition (from
HiGHS on the same program).  It reads the input files itself and calls no
crowdfdb code, so a later change to the program cannot move the reference
along with it.  CrowdFDB's other columns depend on which optimal vertex
the solver picks, so they are checked for shape only.  ``program`` also
gives the policy-files check its independent HiGHS optimum.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

TYPE_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))
HEADER = [
    "sweep_param", "sweep_value", "method", "row_kind", "rep", "lp_status",
    "fpr_gap", "fnr_gap", "accuracy", "mean_cost", "entropy",
    "n_z0_y0", "n_z0_y1", "n_z1_y0", "n_z1_y1",
    "err_z0_y0", "err_z0_y1", "err_z1_y0", "err_z1_y1",
    "n_reps", "n_feasible", "n_infeasible", "pooled_fpr_gap", "pooled_fnr_gap",
]
_MASK64 = 0xFFFFFFFFFFFFFFFF


def mix(master_seed: int, *parts: int | str) -> int:
    """FNV-1a over (seed, parts) plus the final avalanche of crowdfdb/rng.py."""
    h = 0xCBF29CE484222325
    for part in (master_seed, *parts):
        raw = (int(part) & _MASK64).to_bytes(8, "little") if isinstance(part, int) else part.encode()
        for byte in raw:
            h = ((h ^ byte) * 0x100000001B3) & _MASK64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    return h ^ (h >> 33)


def stream(master_seed: int, *parts: int | str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=mix(master_seed, *parts)))


def read_workers(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Worker ids, P(label 1 | z, y) with shape (n, z, y), and fees."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    p_one = np.array([[[float(r[f"a{z}_{y}1"]) for y in (0, 1)] for z in (0, 1)] for r in rows])
    return [r["id"] for r in rows], p_one, np.array([float(r["cost"]) for r in rows])


def read_tasks(path) -> tuple[np.ndarray, np.ndarray]:
    """Group and true label of every pool task, in file order."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    return np.array([int(r["z"]) for r in rows]), np.array([int(r["y"]) for r in rows])


def read_responses(path, ids: list[str]) -> np.ndarray:
    """Unsmoothed estimate of P(correct | z, y) per worker from raw responses."""
    index = {wid: i for i, wid in enumerate(ids)}
    attempted = np.zeros((len(ids), 2, 2), dtype=int)
    correct = np.zeros((len(ids), 2, 2), dtype=int)
    with open(path, encoding="utf-8", newline="") as handle:
        for r in csv.DictReader(handle):
            i, z, y = index[r["worker_id"]], int(r["z"]), int(r["y"])
            attempted[i, z, y] += 1
            correct[i, z, y] += int(r["answer"]) == y
    return correct / attempted


def type_weights(cfg: dict[str, str]) -> np.ndarray:
    """P(z, y) of a pool task, from the resolved task-pool settings."""
    n_z0, n_z1 = int(cfg["tasks.n_z0"]), int(cfg["tasks.n_z1"])
    p_z1 = n_z1 / (n_z0 + n_z1)
    p_y1 = (float(cfg["tasks.base_rate_z0"]), float(cfg["tasks.base_rate_z1"]))
    p_z = (1.0 - p_z1, p_z1)
    return np.array(
        [[p_z[z] * (p_y1[z] if y == 1 else 1.0 - p_y1[z]) for y in (0, 1)] for z in (0, 1)]
    )


@dataclass(frozen=True)
class Program:
    """The CrowdFDB program: min c.S, A_ub S <= b_ub, sum S = 1, 0 <= S <= beta."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    beta: float

    def solve(self):
        return linprog(
            self.c, A_ub=self.a_ub, b_ub=self.b_ub, A_eq=np.ones((1, self.c.size)), b_eq=[1.0],
            bounds=(0.0, self.beta), method="highs",
        )

    def violations(self, w: np.ndarray, tol: float) -> list[str]:
        out = [f"row {k} exceeds its bound by {v:.3g}" for k, v in enumerate(self.a_ub @ w - self.b_ub) if v > tol]
        if abs(w.sum() - 1.0) > tol:
            out.append(f"weights sum to {w.sum()!r}")
        if (w < -tol).any() or (w > self.beta + tol).any():
            out.append("a weight lies outside [0, beta]")
        return out


def program(diag: np.ndarray, weight: np.ndarray, costs: np.ndarray, alpha: float, beta: float,
            budget: float) -> Program:
    """Error-rate fairness rows (FPR and FNR gaps, both signs) and the budget row."""
    fpr_gap = (1.0 - diag[:, 0, 0]) - (1.0 - diag[:, 1, 0])
    fnr_gap = (1.0 - diag[:, 0, 1]) - (1.0 - diag[:, 1, 1])
    rows, rhs = [fpr_gap, -fpr_gap, fnr_gap, -fnr_gap], [alpha] * 4
    if math.isfinite(budget):
        rows.append(costs)
        rhs.append(budget)
    c = -np.tensordot(diag, weight, axes=([1, 2], [0, 1]))
    return Program(c=c, a_ub=np.array(rows), b_ub=np.array(rhs), beta=beta)


class SweepInputs:
    """Workers, tasks and resolved recipe settings as plain arrays."""

    def __init__(self, cfg: dict[str, str], workers_file, tasks_file):
        _, self.p_one, self.costs = read_workers(workers_file)
        self.zs, self.ys = read_tasks(tasks_file)
        self.seed = int(cfg["experiment.seed"])
        self.reps = int(cfg["experiment.repetitions"])
        self.methods = [m.strip() for m in cfg["experiment.methods"].split(",") if m.strip()]
        self.sweep = cfg["experiment.sweep"]
        self.values = [float(v) for v in cfg["experiment.sweep_values"].split(",") if v.strip()]
        self.n_gold = int(cfg["gold.n_per_type"])
        self.alpha = float(cfg["constraints.alpha"])
        self.beta = float(cfg["constraints.beta"])
        self.budget = float(cfg["constraints.budget"])
        if cfg["constraints.fairness"] != "error-rate" or cfg.get("gold.smoothing") != "false":
            raise ValueError("the reference covers unsmoothed error-rate recipes only")
        self.type_weight = type_weights(cfg)

    def point(self, value: float) -> tuple[int, float]:
        """(gold count, alpha) at one sweep point."""
        if self.sweep == "gold":
            return int(value), self.alpha
        return self.n_gold, float(value)

    def value_str(self, value: float) -> str:
        return str(int(value)) if self.sweep == "gold" else repr(float(value))


def gold_diagonals(inp: SweepInputs, n_gold: int, gold_seed: int) -> np.ndarray:
    """Estimated P(correct | z, y) per worker from the simulated gold phase."""
    diag = np.empty(inp.p_one.shape)
    for i in range(diag.shape[0]):
        rng = stream(gold_seed, "gold", i)
        for z, y in TYPE_ORDER:
            labels = rng.random(n_gold) < inp.p_one[i, z, y]
            diag[i, z, y] = int((labels == bool(y)).sum()) / n_gold
    return diag


def lp_status(inp: SweepInputs, diag: np.ndarray, alpha: float) -> str:
    """HiGHS status of the CrowdFDB program built from these estimates."""
    res = program(diag, inp.type_weight, inp.costs, alpha, inp.beta, inp.budget).solve()
    if res.status == 0:
        return "optimal"
    if res.status == 2:
        return "infeasible"
    raise RuntimeError(f"HiGHS could not classify a reference program: {res.message}")


def _entropy(w: np.ndarray) -> float:
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def _collect(inp: SweepInputs, rep: int, weights=None, assignment=None) -> dict:
    """Hand every task to a worker, draw the labels, and score them."""
    n, n_tasks = inp.costs.size, inp.zs.size
    rng = stream(inp.seed, "collect", rep)
    if assignment is None:
        chosen = np.searchsorted(np.cumsum(weights), rng.random(n_tasks), side="right")
        chosen = np.minimum(chosen, n - 1)
    else:
        chosen = assignment
    yhats = (rng.random(n_tasks) < inp.p_one[chosen, inp.zs, inp.ys]).astype(int)
    errors = yhats != inp.ys
    cells, errs, rate = [], [], {}
    for z in (0, 1):
        for y in (0, 1):
            mask = (inp.zs == z) & (inp.ys == y)
            count, wrong = int(mask.sum()), int(errors[mask].sum())
            cells.append(count)
            errs.append(wrong)
            rate[(z, y)] = wrong / count if count > 0 else None

    def gap(a, b):
        return abs(rate[a] - rate[b]) if rate[a] is not None and rate[b] is not None else None

    return {
        "lp_status": "-",
        "fpr_gap": gap((0, 0), (1, 0)),
        "fnr_gap": gap((0, 1), (1, 1)),
        "accuracy": 1.0 - float(errors.sum()) / float(n_tasks),
        "mean_cost": float(inp.costs[chosen].mean()),
        "cells": cells,
        "errs": errs,
    }


def random_report(inp: SweepInputs, rep: int) -> dict:
    weights = np.full(inp.costs.size, 1.0 / inp.costs.size)
    return {**_collect(inp, rep, weights=weights), "entropy": _entropy(weights)}


def greedy_report(inp: SweepInputs, diag: np.ndarray, rep: int) -> dict:
    n, n_tasks = inp.costs.size, inp.zs.size
    cap = int(math.floor(inp.beta * n_tasks + 1e-9))
    if cap * n < n_tasks:
        return {"lp_status": "infeasible"}
    accuracy = np.tensordot(diag, inp.type_weight, axes=([1, 2], [0, 1]))
    density = [math.inf if inp.costs[i] == 0.0 else float(accuracy[i] / inp.costs[i]) for i in range(n)]
    order = sorted(range(n), key=lambda i: (-density[i], i))
    counts = [0] * n
    remaining = n_tasks
    for i in order:
        counts[i] = min(cap, remaining)
        remaining -= counts[i]
        if remaining == 0:
            break
    assignment = np.concatenate([np.full(counts[i], i, dtype=int) for i in order if counts[i]])
    report = _collect(inp, rep, assignment=assignment)
    return {**report, "entropy": _entropy(np.array(counts) / n_tasks)}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _mean_se(values: list[float]):
    if not values:
        return None, None
    arr = np.array(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, None
    return mean, float(arr.std(ddof=1) / np.sqrt(arr.size))


def point_rows(param: str, value_str: str, method: str, reports: list[dict]) -> list[list[str]]:
    """The rep rows plus the mean and se rows of one (method, sweep point)."""
    rows = []
    for rep, r in enumerate(reports):
        cells = r.get("cells") or [None] * 4
        errs = r.get("errs") or [None] * 4
        rows.append(
            [param, value_str, method, "rep", str(rep), r["lp_status"]]
            + [_fmt(r.get(k)) for k in ("fpr_gap", "fnr_gap", "accuracy", "mean_cost", "entropy")]
            + [_fmt(c) for c in cells] + [_fmt(e) for e in errs] + [""] * 5
        )
    feasible = [r for r in reports if r["lp_status"] != "infeasible"]
    stats = {
        k: _mean_se([r[k] for r in feasible if r.get(k) is not None])
        for k in ("fpr_gap", "fnr_gap", "accuracy", "mean_cost", "entropy")
    }
    tasks = np.zeros(4, dtype=int)
    errors = np.zeros(4, dtype=int)
    for r in feasible:
        if r.get("cells") is not None:
            tasks += np.array(r["cells"])
            errors += np.array(r["errs"])

    def pooled(a: int, b: int):
        if tasks[a] > 0 and tasks[b] > 0:
            return abs(errors[a] / tasks[a] - errors[b] / tasks[b])
        return None

    counts = [str(len(reports)), str(len(feasible)), str(len(reports) - len(feasible))]
    for kind, pick in (("mean", 0), ("se", 1)):
        pooled_cols = [_fmt(pooled(0, 2)), _fmt(pooled(1, 3))] if kind == "mean" else ["", ""]
        rows.append(
            [param, value_str, method, kind, "", ""]
            + [_fmt(stats[k][pick]) for k in ("fpr_gap", "fnr_gap", "accuracy", "mean_cost", "entropy")]
            + [""] * 8 + counts + pooled_cols
        )
    return rows


def expected_sweep(inp: SweepInputs) -> dict:
    """Reference for one results CSV.

    Returns the expected row count, the exact rows of the LP-free
    methods keyed by row position, and CrowdFDB's per-repetition LP
    status keyed the same way.
    """
    exact: dict[int, list[str]] = {}
    statuses: dict[int, str] = {}
    position = 1  # row 0 is the header
    memo: dict[tuple, object] = {}

    def once(key: tuple, compute):
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def diag_for(n_gold: int, rep: int) -> np.ndarray:
        gold_seed = mix(inp.seed, "goldphase", n_gold, rep)
        return once(("gold", n_gold, rep), lambda: gold_diagonals(inp, n_gold, gold_seed))

    for method in inp.methods:
        for value in inp.values:
            n_gold, alpha = inp.point(value)
            if method == "CrowdFDB":
                for rep in range(inp.reps):
                    statuses[position + rep] = lp_status(inp, diag_for(n_gold, rep), alpha)
            else:
                if method == "Random":
                    reports = [
                        once(("Random", rep), lambda rep=rep: random_report(inp, rep))
                        for rep in range(inp.reps)
                    ]
                else:
                    reports = [
                        once(("Greedy", n_gold, rep),
                             lambda rep=rep: greedy_report(inp, diag_for(n_gold, rep), rep))
                        for rep in range(inp.reps)
                    ]
                for offset, row in enumerate(point_rows(inp.sweep, inp.value_str(value), method, reports)):
                    exact[position + offset] = row
            position += inp.reps + 2
    return {"rows": position, "exact": exact, "statuses": statuses}
