"""Output checks: every command's output is checked outside the timed region.

A sweep command passes when its results CSV has the right shape, every
Random and Greedy row equals the frozen reference in ``oracle.py``, and
every CrowdFDB repetition has the reference LP status.  Byte equality of
the whole CSV with a digest captured at the seed commit is counted
separately, not as a failure: a new solver may pick another optimal
vertex when estimates tie.

A policy command passes when its policy satisfies, at 1e-7, both the
program the oracle builds from the input files and crowdfdb's
``verify_solution`` on the program crowdfdb builds from them, and when its
objective is within 1e-9 of HiGHS on the oracle's program.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import workloads as wl

POLICY_RESIDUAL_TOL = 1e-7
POLICY_OBJECTIVE_TOL = 1e-9
DIGESTS_FILE = Path(__file__).resolve().parent / "reference_digests.json"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_digests(workload: str) -> dict[str, str]:
    """Digests of the outputs the seed commit wrote, by instance seed."""
    if not DIGESTS_FILE.is_file():
        return {}
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8")).get(workload, {})


def sweep_reference(work: Path, seed: int) -> dict:
    """Reference for the results of the recipe in `work` run with experiment seed `seed`."""
    cfg = json.loads((work / wl.RESOLVED_CONFIG_FILE).read_text(encoding="utf-8"))
    cfg["experiment.seed"] = str(seed)
    return oracle.expected_sweep(
        oracle.SweepInputs(cfg, work / wl.WORKERS_FILE, work / wl.TASKS_FILE)
    )


def check_results_csv(path: Path, expected: dict) -> list[str]:
    """Problems with one results CSV; an empty list is a pass."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        return [f"unreadable results: {err}"]
    problems = []
    if not rows or rows[0] != oracle.HEADER:
        problems.append("header differs from the results column contract")
    if len(rows) != expected["rows"]:
        problems.append(f"{len(rows)} rows, expected {expected['rows']}")
        return problems
    for position, row in expected["exact"].items():
        if rows[position] != row:
            problems.append(f"row {position} ({row[2]} {row[3]}, {row[0]}={row[1]}) differs from the reference")
    for position, status in expected["statuses"].items():
        row = rows[position]
        if len(row) != len(oracle.HEADER) or row[2] != "CrowdFDB" or row[3] != "rep":
            problems.append(f"row {position} should be a CrowdFDB rep row")
        elif row[5] != status:
            problems.append(f"row {position}: lp_status {row[5]!r}, reference {status!r}")
    return problems


@dataclass(frozen=True)
class PolicyReference:
    worker_ids: tuple[str, ...]
    program: oracle.Program  # built from the files by the oracle, for HiGHS
    optimum: float | None  # expected accuracy at the HiGHS optimum
    lp: object  # crowdfdb's own LpProblem from the same files, for verify_solution


def policy_reference(work: Path) -> PolicyReference:
    """The program from the input files: solved by HiGHS, and built by crowdfdb."""
    from crowdfdb import (
        ConstraintSet,
        FairnessKind,
        build_lp,
        config,
        estimate_matrices,
        load_responses,
        load_workers,
    )

    cfg = json.loads((work / wl.RESOLVED_CONFIG_FILE).read_text(encoding="utf-8"))
    ids, _, costs = oracle.read_workers(work / wl.WORKERS_FILE)
    diag = oracle.read_responses(work / wl.RESPONSES_FILE, ids)
    program = oracle.program(
        diag, oracle.type_weights(cfg), costs, wl.POLICY_ALPHA, wl.POLICY_BETA, wl.POLICY_BUDGET
    )
    res = program.solve()

    workers = load_workers(work / wl.WORKERS_FILE)
    tallies = dict(load_responses(work / wl.RESPONSES_FILE))
    constraints = ConstraintSet(
        alpha=wl.POLICY_ALPHA, beta=wl.POLICY_BETA, budget=wl.POLICY_BUDGET,
        fairness_kind=FairnessKind.ERROR_RATE_PARITY,
    )
    lp = build_lp(
        [estimate_matrices(tallies[w.id]) for w in workers], [w.cost for w in workers],
        config.resolve_priors(cfg), constraints,
    )
    return PolicyReference(
        worker_ids=tuple(ids),
        program=program,
        optimum=-float(res.fun) if res.status == 0 else None,
        lp=lp,
    )


def check_policy_file(path: Path, ref: PolicyReference) -> list[str]:
    """Problems with one written policy; an empty list is a pass."""
    from crowdfdb import LpSolution, LpStatus, Policy, verify_solution

    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        ids = tuple(row[0] for row in rows[1:])
        weights = np.array([float(row[1]) for row in rows[1:]])
    except (OSError, UnicodeDecodeError, csv.Error, IndexError, ValueError) as err:
        return [f"unreadable policy: {err}"]
    if not rows or rows[0] != ["id", "weight"] or ids != ref.worker_ids:
        return ["policy rows do not match the worker file"]
    if ref.optimum is None:
        return ["a policy was written for a program HiGHS finds infeasible"]
    problems = ref.program.violations(weights, POLICY_RESIDUAL_TOL)
    try:
        solution = LpSolution(status=LpStatus.OPTIMAL, policy=Policy(weights))
        problems += [
            f"verify_solution: {v.label} violated by {v.amount:.3g}"
            for v in verify_solution(ref.lp, solution, POLICY_RESIDUAL_TOL)
        ]
    except ValueError as err:
        problems.append(f"not a policy: {err}")
    value = -float(np.dot(ref.program.c, weights))
    if abs(value - ref.optimum) > POLICY_OBJECTIVE_TOL:
        problems.append(f"objective {value!r} is not the optimum {ref.optimum!r}")
    return problems
