"""Command-line front end.

Subcommands: generate (synthetic worker/task files), policy (one
estimate-then-optimize run), experiment (repeated runs, sweeps, CSV
results), bounds (guarantee calculators).  Exit codes are a stable
contract: 0 success, 2 validation error, 3 infeasible program,
4 numerical solver failure.

Every output-producing run writes a ``<output>.manifest`` capturing the
fully resolved configuration; passing a manifest back via --config
replays the run and reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import sys
from importlib import resources

from . import config as cfgmod
from ._version import __version__
from .bounds import BoundQuery, accuracy_loss_bound, fairness_violation_bound
from .config import ConfigError
from .datagen import (
    FileFormatError,
    generate_task_pool,
    load_gold_tallies,
    load_responses,
    save_tasks,
    save_workers,
)
from .lp import LpStatus, SolverError
from .pipeline import build_policy
from .simulator import run_experiment, write_results_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def recipe_names() -> list[str]:
    root = resources.files("crowdfdb") / "recipes"
    return sorted(p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg"))


def _load_recipe(name: str) -> dict[str, str]:
    root = resources.files("crowdfdb") / "recipes"
    candidate = root / f"{name}.cfg"
    if not candidate.is_file():
        raise ConfigError(f"unknown recipe {name!r}; available: {', '.join(recipe_names())}")
    parsed = cfgmod.parse_config_text(candidate.read_text(encoding="utf-8"), source=f"recipe {name}")
    return {k: v for k, v in parsed.items() if not k.startswith("manifest.")}


def _resolved_config(args, overrides: dict[str, str]) -> dict[str, str]:
    file_cfg = None
    if getattr(args, "recipe", None):
        file_cfg = _load_recipe(args.recipe)
    elif getattr(args, "config", None):
        file_cfg = cfgmod.load_config(args.config)
    return cfgmod.resolve(file_cfg, overrides)


def _common_constraint_overrides(args) -> dict[str, str]:
    overrides = {}
    if args.alpha is not None:
        overrides["constraints.alpha"] = repr(args.alpha)
    if args.beta is not None:
        overrides["constraints.beta"] = repr(args.beta)
    if args.budget is not None:
        overrides["constraints.budget"] = repr(args.budget)
    if args.fairness is not None:
        overrides["constraints.fairness"] = args.fairness
    if args.gold is not None:
        overrides["gold.n_per_type"] = str(args.gold)
    return overrides


def cmd_generate(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["population.seed"] = str(args.seed)
        overrides["tasks.seed"] = str(args.seed)
    if args.workers is not None:
        overrides["population.n_workers"] = str(args.workers)
    cfg = _resolved_config(args, overrides)
    workers = cfgmod.resolve_workers(cfg)
    tasks = generate_task_pool(cfgmod.task_pool_spec(cfg))
    save_workers(workers, args.workers_out)
    save_tasks(tasks, args.tasks_out)
    manifest_path = str(args.workers_out) + ".manifest"
    cfgmod.write_manifest(
        manifest_path,
        "generate",
        cfg,
        outputs={"workers": str(args.workers_out), "tasks": str(args.tasks_out)},
    )
    print(f"wrote {len(workers)} workers to {args.workers_out}")
    print(f"wrote {len(tasks)} tasks to {args.tasks_out}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_policy(args) -> int:
    overrides = _common_constraint_overrides(args)
    if args.workers_file is not None:
        overrides["workers.file"] = args.workers_file
    if args.seed is not None:
        overrides["experiment.seed"] = str(args.seed)
    if args.gamma is not None:
        overrides["policy.gamma"] = repr(args.gamma)
    cfg = _resolved_config(args, overrides)

    gamma, seed = cfgmod.policy_settings(cfg)
    workers = cfgmod.resolve_workers(cfg)
    priors = cfgmod.resolve_priors(cfg)
    constraints = cfgmod.constraint_set(cfg)
    gold = cfgmod.gold_config(cfg)
    if args.tallies and args.responses:
        raise ConfigError("--tallies and --responses are mutually exclusive")
    tallies = None
    if args.tallies:
        tallies = load_gold_tallies(args.tallies)
    elif args.responses:
        tallies = load_responses(args.responses)

    result = build_policy(
        workers, gold, priors, constraints, seed=seed, tallies=tallies, confidence=gamma
    )
    diag = result.diagnostics
    print(f"status: {result.solution.status}")
    print(f"fairness inflation bound (gamma={gamma}): {diag.fairness_bound:.6g}")
    if result.solution.status != LpStatus.OPTIMAL:
        hints = result.solution.relaxation_hints
        if hints:
            print(f"relaxing any of these constraint families restores feasibility: "
                  f"{', '.join(hints)}", file=sys.stderr)
        else:
            print("no single constraint family removal restores feasibility", file=sys.stderr)
        return EXIT_INFEASIBLE

    print(f"predicted accuracy: {diag.predicted_accuracy:.6g}")
    print(f"binding constraints: {', '.join(diag.binding) if diag.binding else '(none)'}")
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "weight"])
        for worker, weight in zip(workers, result.policy.weights):
            writer.writerow([worker.id, repr(float(weight))])
    manifest_path = str(args.out) + ".manifest"
    cfgmod.write_manifest(manifest_path, "policy", cfg, outputs={"policy": str(args.out)})
    print(f"policy written to {args.out}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    overrides = {}
    if args.repetitions is not None:
        overrides["experiment.repetitions"] = str(args.repetitions)
    if args.seed is not None:
        overrides["experiment.seed"] = str(args.seed)
    if args.methods is not None:
        overrides["experiment.methods"] = args.methods
    cfg = _resolved_config(args, overrides)

    configs = cfgmod.experiment_configs(cfg)
    results = []
    for run_cfg in configs:
        points = run_experiment(run_cfg)
        results.append((run_cfg.method, points))
        for point in points:
            agg = point.aggregate
            label = f"{point.parameter}={point.value:g}" if point.parameter else "single point"
            acc = f"{agg.mean_accuracy:.4f}" if agg.mean_accuracy is not None else "n/a"
            gap = f"{agg.mean_fpr_gap:.4f}" if agg.mean_fpr_gap is not None else "n/a"
            print(
                f"{run_cfg.method:9s} {label:12s} accuracy={acc} |dFPR|={gap} "
                f"infeasible={agg.n_infeasible}/{agg.n_reps}"
            )
    write_results_csv(args.out, results)
    manifest_path = str(args.out) + ".manifest"
    cfgmod.write_manifest(manifest_path, "experiment", cfg, outputs={"results": str(args.out)})
    print(f"results written to {args.out}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    delta = fairness_violation_bound(
        BoundQuery(n_workers=args.workers, n_gold_per_type=args.gold, confidence=args.gamma)
    )
    print(f"fairness violation bound (gamma={args.gamma}): {delta:.12g}")
    loss = accuracy_loss_bound(
        BoundQuery(
            n_workers=args.workers,
            n_gold_per_type=args.gold,
            confidence=args.gamma_prime,
            beta=args.beta,
        )
    )
    print(f"accuracy loss bound (gamma'={args.gamma_prime}, beta={args.beta}): {loss:.12g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdfdb",
        description="Fairness-, diversity- and budget-constrained crowdsourcing assignment.",
    )
    parser.add_argument("--version", action="version", version=f"crowdfdb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write synthetic worker and task files")
    p_gen.add_argument("--config", help="config file (a manifest also works)")
    p_gen.add_argument("--seed", type=int, help="override population and task seeds")
    p_gen.add_argument("--workers", type=int, help="override worker count")
    p_gen.add_argument("--workers-out", default="workers.csv")
    p_gen.add_argument("--tasks-out", default="tasks.csv")
    p_gen.set_defaults(handler=cmd_generate)

    p_pol = sub.add_parser("policy", help="estimate workers and solve for a policy")
    p_pol.add_argument("--config", help="config file (a manifest also works)")
    p_pol.add_argument("--workers-file", help="worker file (default: synthetic population)")
    p_pol.add_argument("--tallies", help="recorded gold tallies instead of simulated gold answers")
    p_pol.add_argument("--responses", help="raw labeled responses (worker_id,task_id,answer,z,y)")
    p_pol.add_argument("--alpha", type=float, help="fairness slack")
    p_pol.add_argument("--beta", type=float, help="diversity cap")
    p_pol.add_argument("--budget", type=float, help="expected per-label budget (inf allowed)")
    p_pol.add_argument("--fairness", choices=["fpr", "fnr", "error-rate", "none"])
    p_pol.add_argument("--gold", type=int, help="gold tasks per type")
    p_pol.add_argument("--gamma", type=float, help="confidence for the fairness bound")
    p_pol.add_argument("--seed", type=int, help="master seed for the gold phase")
    p_pol.add_argument("--out", default="policy.csv")
    p_pol.set_defaults(handler=cmd_policy)

    p_exp = sub.add_parser("experiment", help="run repeated experiments and write results CSV")
    group = p_exp.add_mutually_exclusive_group()
    group.add_argument("--config", help="config file (a manifest also works)")
    group.add_argument("--recipe", help=f"shipped recipe name: {', '.join(recipe_names())}")
    p_exp.add_argument("--repetitions", type=int)
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--methods", help="comma list, e.g. CrowdFDB,Random")
    p_exp.add_argument("--out", default="results.csv")
    p_exp.set_defaults(handler=cmd_experiment)

    p_bnd = sub.add_parser("bounds", help="print the guarantee calculators' values")
    p_bnd.add_argument("-n", "--workers", type=int, required=True)
    p_bnd.add_argument("--gold", type=int, required=True)
    p_bnd.add_argument("--gamma", type=float, default=0.9)
    p_bnd.add_argument("--gamma-prime", type=float, default=0.9)
    p_bnd.add_argument("--beta", type=float, default=0.01)
    p_bnd.set_defaults(handler=cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, FileFormatError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
