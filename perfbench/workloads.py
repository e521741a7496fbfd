"""The benchmark's workloads: what each one runs, and with which flags.

Both sweeps run a shipped recipe through ``crowdfdb experiment`` with the
workload seed as ``--seed``; ``policy-files`` runs ``crowdfdb policy`` on
files made from the workload seed.  Everything else is fixed here so two
commits are always measured on identical settings.
"""

from __future__ import annotations

SWEEP_RECIPES = {"gold-sweep": "figure1", "alpha-sweep": "figure4"}
POLICY_WORKLOAD = "policy-files"
WORKLOADS = (*SWEEP_RECIPES, POLICY_WORKLOAD)

# Repetitions per experiment command: enough that the LP and gold phase
# dominate the per-command start-up, few enough for several commands per
# run, whose median then absorbs timing noise.
SWEEP_REPS = 2
# Result rows per command: a policy, or one row per method, sweep point and
# repetition (both recipes run 3 methods at 4 sweep points).
REPS_PER_COMMAND = {
    **{name: 3 * 4 * SWEEP_REPS for name in SWEEP_RECIPES},
    POLICY_WORKLOAD: 1,
}

# policy-files: an 800-worker accuracy-linked pool, 20 raw gold responses
# per (z, y) type per worker, and the README's policy flags.
POLICY_WORKERS = 800
RESPONSES_PER_TYPE = 20
POLICY_ALPHA = 0.01
POLICY_BETA = 0.01
POLICY_BUDGET = 1.5
POPULATION_CONFIG = (
    "population.cost_model = accuracy-linked\n"
    "population.low_fee = 1.0\n"
    "population.high_fee = 3.0\n"
)

# File names inside a run's work directory.
WORKERS_FILE = "workers.csv"
TASKS_FILE = "tasks.csv"
RESPONSES_FILE = "responses.csv"
RESOLVED_CONFIG_FILE = "resolved.json"


def policy_argv(work: str, out: str) -> list[str]:
    """``crowdfdb policy`` arguments for one requester call."""
    return [
        "policy",
        "--workers-file", f"{work}/{WORKERS_FILE}",
        "--responses", f"{work}/{RESPONSES_FILE}",
        "--fairness", "error-rate",
        "--alpha", repr(POLICY_ALPHA),
        "--beta", repr(POLICY_BETA),
        "--budget", repr(POLICY_BUDGET),
        "--out", out,
    ]


def experiment_argv(workload: str, seed: int, out: str, reps: int = SWEEP_REPS) -> list[str]:
    """``crowdfdb experiment`` arguments for one sweep command."""
    return [
        "experiment",
        "--recipe", SWEEP_RECIPES[workload],
        "--repetitions", str(reps),
        "--seed", str(seed),
        "--out", out,
    ]


def command_argv(workload: str, seed: int, work: str, out: str) -> list[str]:
    if workload == POLICY_WORKLOAD:
        return policy_argv(work, out)
    return experiment_argv(workload, seed, out)
