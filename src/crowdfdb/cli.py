"""Command-line front end.

Subcommands: generate (synthetic worker/task files), policy (one
estimate-then-optimize run), experiment (repeated runs, sweeps, CSV
results), bounds (guarantee calculators).  Exit codes are a stable
contract: 0 success, 2 validation error, 3 infeasible program,
4 numerical solver failure.

Each input flag of generate, policy and experiment has the config key it
sets as its dest, and _resolved_config turns the flags given into the
override layer, so every input the run reads reaches its manifest.

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
from .bounds import accuracy_loss_bound, fairness_violation_bound
from .config import ConfigError
from .datagen import FileFormatError, save_tasks, save_workers
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


def _resolved_config(args) -> dict[str, str]:
    """Defaults, overlaid by the recipe or --config file, overlaid by the
    flags given, each under the config key that is its dest."""
    file_cfg = None
    if getattr(args, "recipe", None):
        file_cfg = _load_recipe(args.recipe)
    elif args.config:
        file_cfg = cfgmod.load_config(args.config)
    overrides = {
        key: repr(value) if isinstance(value, float) else str(value)
        for key, value in vars(args).items()
        if key in cfgmod.KNOWN_KEYS and value is not None
    }
    if "population.seed" in overrides:  # generate --seed seeds the task pool too
        overrides["tasks.seed"] = overrides["population.seed"]
    return cfgmod.resolve(file_cfg, overrides)


def cmd_generate(args) -> int:
    cfg = _resolved_config(args)
    population = cfgmod.resolve_workers(cfg)
    tasks = cfgmod.resolve_tasks(cfg)
    save_workers(population, args.workers_out)
    save_tasks(tasks, args.tasks_out)
    manifest_path = str(args.workers_out) + ".manifest"
    cfgmod.write_manifest(
        manifest_path,
        "generate",
        cfg,
        outputs={"workers": str(args.workers_out), "tasks": str(args.tasks_out)},
    )
    print(f"wrote {len(population)} workers to {args.workers_out}")
    print(f"wrote {len(tasks)} tasks to {args.tasks_out}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_policy(args) -> int:
    cfg = _resolved_config(args)
    gamma, seed = cfgmod.policy_settings(cfg)
    population = cfgmod.resolve_workers(cfg)
    priors = cfgmod.resolve_priors(cfg)
    constraints = cfgmod.constraint_set(cfg)
    gold = cfgmod.gold_config(cfg)
    tallies = cfgmod.resolve_tallies(cfg)

    result = build_policy(
        population, gold, priors, constraints, seed=seed, tallies=tallies, confidence=gamma
    )
    print(f"status: {result.solution.status}")
    print(f"fairness inflation bound (gamma={gamma}): {result.fairness_bound:.6g}")
    if result.solution.status != LpStatus.OPTIMAL:
        hints = result.solution.relaxation_hints
        if hints:
            print(f"relaxing any of these constraint families restores feasibility: "
                  f"{', '.join(hints)}", file=sys.stderr)
        else:
            print("no single constraint family removal restores feasibility", file=sys.stderr)
        return EXIT_INFEASIBLE

    print(f"predicted accuracy: {result.solution.objective_value:.6g}")
    rows = [label for label in result.binding if not label.startswith("diversity[")]
    capped = len(result.binding) - len(rows)  # a label per capped weight would be O(workers): print the count
    summary = [", ".join(rows)] if rows else []
    if capped:
        summary.append(f"{capped} weight{'' if capped == 1 else 's'} at the diversity cap")
    print(f"binding constraints: {'; '.join(summary) or '(none)'}")
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "weight"])
        writer.writerows(zip(population.ids, map(repr, result.solution.policy.weights.tolist())))
    manifest_path = str(args.out) + ".manifest"
    cfgmod.write_manifest(manifest_path, "policy", cfg, outputs={"policy": str(args.out)})
    print(f"policy written to {args.out}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = _resolved_config(args)
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
    delta = fairness_violation_bound(args.workers, args.gold, args.gamma)
    print(f"fairness violation bound (gamma={args.gamma}): {delta:.12g}")
    loss = accuracy_loss_bound(args.workers, args.gold, args.gamma_prime, args.beta)
    print(f"accuracy loss bound (gamma'={args.gamma_prime}, beta={args.beta}): {loss:.12g}")
    return EXIT_OK


def _key_flag(parser, flag: str, key: str, **kwargs) -> None:
    """Add a flag that sets config key `key`, showing the metavar argparse
    derives from the flag (or the choices, where it has them)."""
    if "choices" not in kwargs:
        kwargs["metavar"] = flag.lstrip("-").replace("-", "_").upper()
    parser.add_argument(flag, dest=key, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdfdb",
        description="Fairness-, diversity- and budget-constrained crowdsourcing assignment.",
    )
    parser.add_argument("--version", action="version", version=f"crowdfdb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write synthetic worker and task files")
    p_gen.add_argument("--config", help="config file (a manifest also works)")
    _key_flag(p_gen, "--seed", "population.seed", type=int, help="override population and task seeds")
    _key_flag(p_gen, "--workers", "population.n_workers", type=int, help="override worker count")
    p_gen.add_argument("--workers-out", default="workers.csv")
    p_gen.add_argument("--tasks-out", default="tasks.csv")
    p_gen.set_defaults(handler=cmd_generate)

    p_pol = sub.add_parser("policy", help="estimate workers and solve for a policy")
    p_pol.add_argument("--config", help="config file (a manifest also works)")
    _key_flag(p_pol, "--workers-file", "workers.file", help="worker file (default: synthetic population)")
    gold_source = p_pol.add_mutually_exclusive_group()
    _key_flag(gold_source, "--tallies", "gold.tallies_file",
              help="recorded gold tallies instead of simulated gold answers")
    _key_flag(gold_source, "--responses", "gold.responses_file",
              help="raw labeled responses (worker_id,task_id,answer,z,y)")
    _key_flag(p_pol, "--alpha", "constraints.alpha", type=float, help="fairness slack")
    _key_flag(p_pol, "--beta", "constraints.beta", type=float, help="diversity cap")
    _key_flag(p_pol, "--budget", "constraints.budget", type=float, help="expected per-label budget (inf allowed)")
    _key_flag(p_pol, "--fairness", "constraints.fairness", choices=["fpr", "fnr", "error-rate", "none"])
    _key_flag(p_pol, "--gold", "gold.n_per_type", type=int, help="gold tasks per type")
    _key_flag(p_pol, "--gamma", "policy.gamma", type=float, help="confidence for the fairness bound")
    _key_flag(p_pol, "--seed", "experiment.seed", type=int, help="master seed for the gold phase")
    p_pol.add_argument("--out", default="policy.csv")
    p_pol.set_defaults(handler=cmd_policy)

    p_exp = sub.add_parser("experiment", help="run repeated experiments and write results CSV")
    group = p_exp.add_mutually_exclusive_group()
    group.add_argument("--config", help="config file (a manifest also works)")
    group.add_argument("--recipe", help=f"shipped recipe name: {', '.join(recipe_names())}")
    _key_flag(p_exp, "--repetitions", "experiment.repetitions", type=int)
    _key_flag(p_exp, "--seed", "experiment.seed", type=int)
    _key_flag(p_exp, "--methods", "experiment.methods", help="comma list, e.g. CrowdFDB,Random")
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
