"""Build one workload's inputs through crowdfdb's public generators and savers.

    python3 perfbench/inputs.py --workload policy-files --seed 3 --dir WORK

The benchmark runs this in a fresh process for every set-up, so the time
it measures includes importing crowdfdb.  Sweeps get the recipe's resolved
configuration plus its population and task pool (the checker's inputs);
``policy-files`` gets a worker file and a task file from ``crowdfdb
generate`` and a raw gold-response file drawn from the workers' true
matrices.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from importlib import resources
from pathlib import Path

import workloads as wl


def build_sweep_inputs(workload: str, seed: int, work: Path, reps: int = wl.SWEEP_REPS) -> None:
    from crowdfdb import config, generate_task_pool, save_tasks, save_workers

    recipe = resources.files("crowdfdb") / "recipes" / f"{wl.SWEEP_RECIPES[workload]}.cfg"
    cfg = config.resolve(
        config.parse_config_text(recipe.read_text(encoding="utf-8")),
        {"experiment.seed": str(seed), "experiment.repetitions": str(reps)},
    )
    (work / wl.RESOLVED_CONFIG_FILE).write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
    save_workers(config.resolve_workers(cfg), work / wl.WORKERS_FILE)
    save_tasks(generate_task_pool(config.task_pool_spec(cfg)), work / wl.TASKS_FILE)


def build_policy_inputs(seed: int, work: Path, n_workers: int = wl.POLICY_WORKERS) -> None:
    from crowdfdb import config, load_workers, stream
    from crowdfdb.cli import main as crowdfdb_main

    population = work / "population.cfg"
    population.write_text(wl.POPULATION_CONFIG, encoding="utf-8")
    argv = [
        "generate",
        "--config", str(population),
        "--seed", str(seed),
        "--workers", str(n_workers),
        "--workers-out", str(work / wl.WORKERS_FILE),
        "--tasks-out", str(work / wl.TASKS_FILE),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = crowdfdb_main(argv)
    if code != 0:
        raise RuntimeError(f"crowdfdb generate exited with {code}")

    # the policy command resolves its priors from these default task-pool keys
    (work / wl.RESOLVED_CONFIG_FILE).write_text(json.dumps(config.resolve(), sort_keys=True), encoding="utf-8")
    workers = load_workers(work / wl.WORKERS_FILE)
    k = wl.RESPONSES_PER_TYPE
    with open(work / wl.RESPONSES_FILE, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["worker_id", "task_id", "answer", "z", "y"])
        for i, worker in enumerate(workers):
            rng = stream(seed, "bench-responses", i)
            for z, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
                answers = rng.random(k) < worker.matrix(z)[y, 1]
                writer.writerows(
                    (worker.id, f"gold-z{z}y{y}-{j:02d}", int(a), z, y)
                    for j, a in enumerate(answers)
                )


def build_inputs(workload: str, seed: int, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    if workload == wl.POLICY_WORKLOAD:
        build_policy_inputs(seed, work)
    elif workload in wl.SWEEP_RECIPES:
        build_sweep_inputs(workload, seed, work)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args(argv)
    build_inputs(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
