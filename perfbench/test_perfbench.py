"""Tests of the benchmark itself: span arithmetic, wrapper lifetime,
checkers, distinct-work keys, and agreement with BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("scipy")

import crowdfdb  # noqa: E402
import crowdfdb.cli  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((Path(__file__).resolve().parent / "layer_map.json").read_text())


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return crowdfdb.cli.main(argv)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 6.5, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("other-op-root", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.5, 1.0, 1.0])
    # self times of one operation add up to its root span
    assert sum(self_times(spans)[:4]) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    spans = [Span("root", 0.0, 10.0, -1, 0), Span("a", 1.0, 5.0, 0, 0), Span("b", 3.0, 12.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def _crowdfdb_bindings() -> dict[tuple[str, str], int]:
    import sys

    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "crowdfdb" or name.startswith("crowdfdb."))
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_wrappers_cover_every_binding_and_are_removed():
    import crowdfdb.lp
    import crowdfdb.pipeline
    import crowdfdb.simulator

    before = _crowdfdb_bindings()
    original = crowdfdb.lp.solve_lp
    with Tracer() as tracer:
        assert crowdfdb.lp.solve_lp is not original
        assert crowdfdb.pipeline.solve_lp is crowdfdb.lp.solve_lp
        assert crowdfdb.solve_lp is crowdfdb.lp.solve_lp
        assert crowdfdb.simulator.build_policy is crowdfdb.pipeline.build_policy
        assert tracer.missing == []
    assert _crowdfdb_bindings() == before
    assert crowdfdb.lp.solve_lp is original


def test_missing_function_is_reported_not_raised():
    tracer = Tracer(spanned=("lp.solve_lp", "lp.no_longer_here"), counted=("rng.gone",), distinct_keys={})
    with tracer:
        pass
    assert tracer.missing == ["lp.no_longer_here", "rng.gone"]
    summary = tracer.summary([0])
    assert summary["lp.no_longer_here.calls"] == 0 and summary["rng.gone.calls"] == 0


def test_timed_runs_install_no_wrappers(tmp_path, monkeypatch):
    seen = []

    def fake_child(argv, log):
        seen.append((argv, _crowdfdb_bindings()))
        return run.Finished(code=0, wall_s=1.0, maxrss_mb=50.0)

    before = _crowdfdb_bindings()
    monkeypatch.setattr(run, "run_child", fake_child)
    metrics, outputs, notes = run.timed_run("policy-files", 1, 2.5, tmp_path)
    assert len(outputs) == run.SETUPS and len(notes["setup_walls_s"]) == run.SETUPS
    commands = [(argv, b) for argv, b in seen if "crowdfdb.cli" in argv]
    assert len(commands) == run.SETUPS and len(seen) == 2 * run.SETUPS
    for argv, bindings in commands:
        # the timed command is crowdfdb's own entry point in a fresh process
        assert argv[1:3] == ["-m", "crowdfdb.cli"]
        assert bindings == before
    assert metrics["command_s_p50"] == (1.0, "s")


def test_metric_names_agree_with_benchmark_json(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "run_child", lambda argv, log: run.Finished(0, 1.0, 50.0))
    timed, _, _ = run.timed_run("gold-sweep", 1, 0.5, tmp_path)
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == set(timed)
    traced = set(Tracer().summary([0])) | {"trace.overhead", "trace.remainder_s", "trace.wall_s"}
    assert {m["name"] for m in BENCHMARK["per_layer"]} == traced
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(wl.WORKLOADS)
    for entry in LAYER_MAP["layers"]:
        assert set(entry["layer_metrics"]) <= traced, entry
        for metric, names in entry["moves"].items():
            assert metric in end_to_end and set(names) <= set(wl.WORKLOADS), entry


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("sweep")
    inputs.build_sweep_inputs("gold-sweep", 5, work, reps=1)
    out = work / "results.csv"
    assert _cli(wl.experiment_argv("gold-sweep", 5, str(out), reps=1)) == 0
    return work, out


def _rewrite(rows: list[list[str]], path: Path) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    return path


def test_checker_counts_corrupted_results(sweep_run, tmp_path):
    work, good = sweep_run
    expected = checks.sweep_reference(work, 5)
    assert checks.check_results_csv(good, expected) == []
    rows = list(csv.reader(open(good, encoding="utf-8", newline="")))

    random_row = next(i for i, r in enumerate(rows) if r[2] == "Random" and r[3] == "rep")
    status_row = next(i for i, r in enumerate(rows) if r[2] == "CrowdFDB" and r[3] == "rep")
    changed = [list(r) for r in rows]
    changed[random_row][8] = repr(float(changed[random_row][8]) + 1e-12)
    flipped = [list(r) for r in rows]
    flipped[status_row][5] = "infeasible"
    bad = [
        _rewrite(changed, tmp_path / "changed.csv"),
        _rewrite(flipped, tmp_path / "flipped.csv"),
        _rewrite(rows[:-1], tmp_path / "short.csv"),
    ]
    for path in bad:
        assert checks.check_results_csv(path, expected), path.name

    inst = run.Instance(seed=5, work=work)
    outputs = [(inst, 0, good), *[(inst, 0, path) for path in bad], (inst, 3, good)]
    counted = run.check_outputs("gold-sweep", outputs)
    assert (counted["attempted"], counted["failed"]) == (5, 4)


@pytest.fixture(scope="module")
def policy_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("policy")
    inputs.build_policy_inputs(3, work, n_workers=400)
    out = work / "policy.csv"
    assert _cli(wl.policy_argv(str(work), str(out))) == 0
    return work, out


def _write_policy(ids, weights, path: Path) -> Path:
    return _rewrite([["id", "weight"], *[[i, repr(float(w))] for i, w in zip(ids, weights)]], path)


def test_checker_counts_suboptimal_and_infeasible_policies(policy_run, tmp_path):
    work, good = policy_run
    ref = checks.policy_reference(work)
    assert checks.check_policy_file(good, ref) == []

    prog = ref.program
    worst = linprog(  # a feasible policy with the lowest accuracy
        -prog.c, A_ub=prog.a_ub, b_ub=prog.b_ub, A_eq=np.ones((1, prog.c.size)), b_eq=[1.0],
        bounds=(0.0, prog.beta), method="highs",
    )
    assert worst.status == 0
    suboptimal = _write_policy(ref.worker_ids, np.clip(worst.x, 0.0, 1.0), tmp_path / "sub.csv")
    one_hot = np.zeros(prog.c.size)
    one_hot[0] = 1.0
    infeasible = _write_policy(ref.worker_ids, one_hot, tmp_path / "inf.csv")
    assert any("not the optimum" in p for p in checks.check_policy_file(suboptimal, ref))
    found = checks.check_policy_file(infeasible, ref)
    assert any("outside [0, beta]" in p for p in found)
    assert any("verify_solution: diversity[0]" in p for p in found)

    inst = run.Instance(seed=3, work=work)
    counted = run.check_outputs("policy-files", [(inst, 0, good), (inst, 0, suboptimal), (inst, 0, infeasible)])
    assert (counted["attempted"], counted["failed"]) == (3, 2)


@pytest.mark.parametrize(
    "workload, gold_ratio, run_once_ratio",
    [("gold-sweep", 0.5, 0.75), ("alpha-sweep", 0.125, 0.5)],
)
def test_distinct_ratios_on_a_two_rep_run(workload, gold_ratio, run_once_ratio, tmp_path):
    tracer = Tracer()
    with tracer:
        assert _cli(wl.experiment_argv(workload, 11, str(tmp_path / "r.csv"), reps=2)) == 0
    summary = tracer.summary([0])
    assert summary["estimation.run_gold_phase.distinct_ratio"] == gold_ratio
    assert summary["simulator.run_once.distinct_ratio"] == run_once_ratio
    assert summary["simulator.resolve_inputs.calls"] == 3
    assert summary["simulator.run_once.calls"] == 3 * 4 * 2
    wall = tracer.spans[0].end - tracer.spans[0].start
    assert tracer.spans[0].name == "cli.main"
    assert sum(tracer.self_totals().values()) == pytest.approx(wall)
