"""crowdfdb benchmark: one workload, timed or traced, with checked outputs.

    python3 perfbench/run.py --workload gold-sweep --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; it uses the crowdfdb under
the checkout's ``src/`` and nothing installed elsewhere.  Workloads:

* ``gold-sweep``: ``crowdfdb experiment --recipe figure1`` (gold-count sweep)
* ``alpha-sweep``: ``crowdfdb experiment --recipe figure4`` (fairness-slack sweep)
* ``policy-files``: ``crowdfdb policy`` on an 800-worker pool and raw responses

A run sets up ``SETUPS`` input instances, each in a fresh process, and
runs the workload's command in one fresh process after another, one at a
time (a closed loop with one client), until the commands have used
``--seconds`` of wall time.  Command k of a run with seed s has instance
seed ``1000 * s + k``: on the sweeps it is the experiment seed, so every
command draws its own gold phases; on policy-files the commands cycle
over the set-up instances, which carry the seeds of commands 0 to
SETUPS - 1.  Outputs are checked after the clock stops.  With
``--trace 1`` the commands instead run in this process, alternating
untraced and traced, and the run reports per-layer self times and counts
from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON ``detail`` record with the environment, sample counts, the error
rate and the byte-equality counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUPS = 5
COMMAND_TIMEOUT_S = 60.0  # a command takes a few seconds; a run must end within 180 s
# One worker process, and no BLAS thread pool competing for the two cores.
PINNED_ENV = {
    "CROWDFDB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark itself cannot run: no result is printed."""


@dataclass(frozen=True)
class Finished:
    code: int
    wall_s: float
    maxrss_mb: float


def run_child(argv: list[str], log: Path) -> Finished:
    """Run one process to completion; wall time and its own peak RSS."""
    env = {**os.environ, **PINNED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    waited: dict[str, tuple] = {}
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        waiter = threading.Thread(target=lambda: waited.update(r=os.wait4(proc.pid, 0)))
        waiter.start()
        waiter.join(COMMAND_TIMEOUT_S)
        if waiter.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            waiter.join()
        wall = time.perf_counter() - start
    _, status, usage = waited["r"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def import_crowdfdb():
    if not (SRC / "crowdfdb" / "__init__.py").is_file():
        raise BenchError(f"no crowdfdb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crowdfdb

    if SRC.resolve() not in Path(crowdfdb.__file__).resolve().parents:
        raise BenchError(f"imported crowdfdb from {crowdfdb.__file__}, not from {SRC}")
    return crowdfdb


def environment(seed: int) -> dict:
    import numpy
    import scipy

    import crowdfdb

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = {"Data": "d", "Instruction": "i"}.get((index / "type").read_text().strip(), "")
            caches[f"L{level}{kind}"] = (index / "size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "crowdfdb": crowdfdb.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "seed": seed,
        **{k: os.environ.get(k) for k in PINNED_ENV},
    }


@dataclass(frozen=True)
class Instance:
    seed: int
    work: Path


def instance_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def set_up(workload: str, seed: int, j: int, work: Path) -> tuple[Instance, float]:
    """Build input instance j in a fresh process; the instance and its wall time."""
    inst = Instance(seed=instance_seed(seed, j), work=work / f"inputs-{j}")
    log = work / f"setup-{j}.err"
    done = run_child(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
         "--seed", str(inst.seed), "--dir", str(inst.work)],
        log,
    )
    if done.code != 0:
        raise BenchError(f"set-up {j} exited with {done.code}: {log.read_text()[-2000:]}")
    return inst, done.wall_s


def command_instance(workload: str, seed: int, instances: list[Instance], k: int) -> Instance:
    """Inputs of command k: a set-up instance, with its own seed on the sweeps."""
    inst = instances[k % len(instances)]
    if workload == wl.POLICY_WORKLOAD:
        return inst
    return Instance(seed=instance_seed(seed, k), work=inst.work)


def check_outputs(workload: str, outputs: list[tuple[Instance, int, Path]]) -> dict:
    """Check every command's output; failed and byte-equality counts."""
    import checks

    if workload == wl.POLICY_WORKLOAD:
        check = checks.check_policy_file

        def reference_of(inst: Instance):
            return checks.policy_reference(inst.work)
    else:
        check = checks.check_results_csv

        def reference_of(inst: Instance):
            return checks.sweep_reference(inst.work, inst.seed)
    references: dict[Instance, object] = {}
    digests = checks.reference_digests(workload)
    failed, byte_compared, byte_equal, problems = 0, 0, 0, []
    for inst, code, out in outputs:
        if inst not in references:
            references[inst] = reference_of(inst)
        found = [f"exit code {code}"] if code != 0 else check(out, references[inst])
        if code == 0 and str(inst.seed) in digests:
            byte_compared += 1
            byte_equal += checks.sha256(out) == digests[str(inst.seed)]
        if found:
            failed += 1
            problems.append(f"{out.name}: {'; '.join(found[:3])}")
    return {
        "attempted": len(outputs),
        "failed": failed,
        "byte_equal": byte_equal,
        "byte_compared": byte_compared,
        "problems": problems[:10],
    }


def timed_run(workload: str, seed: int, seconds: float, work: Path):
    """Commands in fresh processes, one at a time, until `seconds` of wall.

    Set-up j runs just before command j, so the set-up samples are spread
    over the run like the command samples, not bunched at its start.
    """
    instances: list[Instance] = []
    setup_walls: list[float] = []
    runs: list[Finished] = []
    outputs = []
    while sum(r.wall_s for r in runs) < seconds or len(runs) < SETUPS:
        k = len(runs)
        if k < SETUPS:
            inst, wall = set_up(workload, seed, k, work)
            instances.append(inst)
            setup_walls.append(wall)
        inst = command_instance(workload, seed, instances, k)
        out = work / f"out-{k}.csv"
        argv = wl.command_argv(workload, inst.seed, str(inst.work), str(out))
        runs.append(run_child([sys.executable, "-m", "crowdfdb.cli", *argv], work / f"out-{k}.err"))
        outputs.append((inst, runs[-1].code, out))
    walls = [r.wall_s for r in runs]
    p50 = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "command_s_p50": (p50, "s"),
        # the median, not the total, because the host's slowdowns come in bursts
        "reps_per_s": (wl.REPS_PER_COMMAND[workload] / p50, "1/s"),
        "peak_rss_mb": (max(r.maxrss_mb for r in runs), "MB"),
    }
    notes = {"command_walls_s": walls, "setup_walls_s": setup_walls}
    return metrics, outputs, notes


def traced_run(workload: str, seed: int, seconds: float, work: Path, dump: Path):
    """Commands in this process, alternating untraced and traced."""
    import crowdfdb.cli
    from spans import Tracer

    instances = [set_up(workload, seed, j, work)[0] for j in range(SETUPS)]
    tracer = Tracer()
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    outputs = []
    traced_ops: list[int] = []
    started = time.perf_counter()
    k = 0
    # op 0 warms lazy state up and is not timed; then pairs (untraced, traced)
    while k < 3 or time.perf_counter() - started < seconds or k % 2 == 0:
        inst = command_instance(workload, seed, instances, (k + 1) // 2)  # pairs share inputs
        out = work / f"out-{k}.csv"
        argv = wl.command_argv(workload, inst.seed, str(inst.work), str(out))
        kind = "traced" if k % 2 == 0 and k > 0 else "untraced"
        tracer.op = k
        with contextlib.redirect_stdout(io.StringIO()), (tracer if kind == "traced" else contextlib.nullcontext()):
            t0 = time.perf_counter()
            try:
                code = crowdfdb.cli.main(argv)
            except Exception:  # a crash is one failed operation, as in a timed run
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - t0
        if k > 0:
            walls[kind].append(wall)
        if kind == "traced":
            traced_ops.append(k)
        outputs.append((inst, code, out))
        k += 1

    metrics = {name: (value, _layer_unit(name)) for name, value in tracer.summary(traced_ops).items()}
    self_total = tracer.self_totals()
    remainders = [w - self_total[op] for w, op in zip(walls["traced"], traced_ops)]
    metrics["trace.wall_s"] = (statistics.fmean(walls["traced"]), "s")
    metrics["trace.remainder_s"] = (statistics.fmean(remainders), "s")
    metrics["trace.overhead"] = (
        statistics.median(walls["traced"]) / statistics.median(walls["untraced"]) - 1.0, "ratio"
    )
    dump.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "traced_ops": traced_ops,
                "walls": walls,
                "missing": tracer.missing,
                "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans],
            }
        ),
        encoding="utf-8",
    )
    notes = {"missing": tracer.missing, "unkeyed": sorted(tracer.unkeyed), "spans_dump": str(dump)}
    return metrics, outputs, notes


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="crowdfdb benchmark")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        os.environ.update(PINNED_ENV)
        import_crowdfdb()
    except (BenchError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if args.trace:
            dump = OUT / f"spans-{args.workload}.json"  # the latest traced run only
            metrics, outputs, notes = traced_run(args.workload, args.seed, args.seconds, work, dump)
        else:
            metrics, outputs, notes = timed_run(args.workload, args.seed, args.seconds, work)
        checked = check_outputs(args.workload, outputs)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "instance_seeds": sorted({inst.seed for inst, _, _ in outputs}),
        "error_rate": checked["failed"] / checked["attempted"],
        **checked,
        **notes,
    }
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"samples: {len(outputs)} commands, {len(notes['setup_walls_s'])} set-ups")
    print(
        f"error_rate = {detail['error_rate']:.6g} ({checked['failed']} of {checked['attempted']} "
        f"commands failed); byte-equal to reference: {checked['byte_equal']} of {checked['byte_compared']}"
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": checked["failed"] == 0,
                "attempted": checked["attempted"],
                "failed": checked["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
