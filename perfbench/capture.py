"""Record output digests that later runs count byte equality against.

    python3 perfbench/capture.py --workload gold-sweep --seeds 0-10

For the given workload seeds this builds the inputs the way a benchmark
run does, runs the first ``--commands`` commands of a run once each, and
stores the sha256 of each output in ``reference_digests.json`` under the
command's instance seed.  Run it on the commit whose outputs are the reference; a benchmark
run only reports how many outputs match, it never fails on a mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import checks
import run
import workloads as wl


def seed_range(text: str) -> range:
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 0-10")
    parser.add_argument("--commands", type=int, default=run.SETUPS, help="commands per seed")
    args = parser.parse_args(argv)

    os.environ.update(run.PINNED_ENV)
    run.import_crowdfdb()
    table = json.loads(checks.DIGESTS_FILE.read_text()) if checks.DIGESTS_FILE.is_file() else {}
    digests = table.setdefault(args.workload, {})
    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / f"capture-{args.workload}-{os.getpid()}"
    try:
        for seed in args.seeds:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            instances = [run.set_up(args.workload, seed, j, work)[0] for j in range(run.SETUPS)]
            for k in range(args.commands):
                inst = run.command_instance(args.workload, seed, instances, k)
                out = work / f"out-{inst.seed}.csv"
                argv = wl.command_argv(args.workload, inst.seed, str(inst.work), str(out))
                done = run.run_child([sys.executable, "-m", "crowdfdb.cli", *argv], work / "cmd.err")
                if done.code != 0:
                    raise run.BenchError(f"instance seed {inst.seed} exited with {done.code}")
                digests[str(inst.seed)] = checks.sha256(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    table[args.workload] = dict(sorted(digests.items(), key=lambda kv: int(kv[0])))
    checks.DIGESTS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
