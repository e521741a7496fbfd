import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crowdfdb
from crowdfdb import cli
from crowdfdb.config import KNOWN_KEYS
from crowdfdb.simulator import RESULTS_COLUMNS


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_importing_the_cli_loads_no_process_pool():
    """Only an experiment run with more than one process imports multiprocessing."""
    code = "import sys, crowdfdb.cli; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(crowdfdb.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def run_commands_in_subprocess(tmp_path, prelude, report):
    """Run figure1 and figure4 at 2 reps, a policy from the default spec and
    one from a responses file, in a fresh interpreter after prelude; report
    prints from codes, the commands' exit codes.  Returns that stdout."""
    workers, responses, _ = write_gold_files(tmp_path, n_workers=60)
    commands = [
        ["experiment", "--recipe", "figure1", "--repetitions", "2", "--out", f"{tmp_path}/figure1.csv"],
        ["experiment", "--recipe", "figure4", "--repetitions", "2", "--out", f"{tmp_path}/figure4.csv"],
        ["policy", "--out", f"{tmp_path}/spec.csv"],
        ["policy", "--workers-file", str(workers), "--responses", str(responses), "--beta", "0.1", "--budget", "2.0",
         "--out", f"{tmp_path}/resp.csv"],
    ]
    code = (
        "import contextlib, io, json, sys, numpy\n"
        f"{prelude}"
        "from crowdfdb import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(args) for args in json.loads(sys.argv[1])]\n"
        f"{report}"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(crowdfdb.__file__).parents[1]), "CROWDFDB_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_commands_never_import_numpy_random(tmp_path):
    """Every runtime draw comes from the in-place Philox kernel: experiment
    and policy runs build no numpy Generator, so numpy.random stays unloaded."""
    out = run_commands_in_subprocess(
        tmp_path,
        "if 'numpy.random' in sys.modules: print('numpy loads it'); sys.exit()\n",
        "print(codes, sorted(m for m in sys.modules if m.startswith('numpy.random')))\n",
    )
    if out == "numpy loads it":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert out == "[0, 0, 0, 0] []"


def test_commands_never_call_numpy_linalg(tmp_path):
    """The simplex keeps its basis inverse by rank-one updates, so no command
    inverts or solves a matrix through numpy.linalg (LAPACK)."""
    out = run_commands_in_subprocess(
        tmp_path,
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('numpy.linalg called')\n"
        "for name in ('inv', 'solve', 'pinv', 'lstsq'):\n"
        "    setattr(numpy.linalg, name, refuse)\n",
        "print(codes)\n",
    )
    assert out == "[0, 0, 0, 0]"


@pytest.mark.parametrize("command", [
    ["policy", "--workers-file", "{workers}", "--out", "{out}/p.csv"],
    ["policy", "--workers-file", "{workers}", "--tallies", "{tallies}", "--out", "{out}/p.csv"],
    ["experiment", "--config", "{cfg}", "--methods", "CrowdFDB", "--out", "{out}/r.csv"],
    ["experiment", "--config", "{cfg}", "--methods", "Random", "--out", "{out}/r.csv"],
    ["experiment", "--config", "{cfg}", "--methods", "Greedy", "--out", "{out}/r.csv"],
    ["generate", "--config", "{cfg}", "--workers-out", "{out}/w.csv", "--tasks-out", "{out}/t.csv"],
], ids=["policy", "policy-tallies", "CrowdFDB", "Random", "Greedy", "generate"])
def test_header_only_worker_file_exits_2_naming_line_1(tmp_path, capsys, command):
    paths = {name: tmp_path / name for name in ("workers", "tallies", "cfg", "out")}
    paths["workers"].write_text("id,cost,a0_00,a0_01,a0_10,a0_11,a1_00,a1_01,a1_10,a1_11\n", encoding="utf-8")
    paths["tallies"].write_text(
        "id,att_z0_y0,cor_z0_y0,att_z0_y1,cor_z0_y1,att_z1_y0,cor_z1_y0,att_z1_y1,cor_z1_y1\n", encoding="utf-8"
    )
    paths["cfg"].write_text(f"workers.file = {paths['workers']}\nexperiment.repetitions = 2\n", encoding="utf-8")
    paths["out"].mkdir()
    assert run_cli([arg.format(**paths) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {paths['workers']} line 1: population needs at least one worker\n"
    assert list(paths["out"].iterdir()) == []


def _subcommands():
    (subparsers,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices


# dests that name no config key: the config file, the recipe and the output paths
NOT_KEYS = {"config", "recipe", "out", "workers_out", "tasks_out", "help"}
# a value for each key flag, written as the manifest writes it
FLAG_VALUES = {
    "--seed": "3", "--workers": "30", "--workers-file": "{workers}", "--tallies": "{tallies}",
    "--responses": "{responses}", "--alpha": "0.05", "--beta": "0.2", "--budget": "2.5", "--fairness": "fpr",
    "--gold": "5", "--gamma": "0.8", "--repetitions": "1", "--methods": "Random",
}
KEY_FLAGS = [
    pytest.param(command, action.option_strings[-1], action.dest, id=f"{command} {action.option_strings[-1]}")
    for command, parser in _subcommands().items() if command != "bounds"
    for action in parser._actions if action.dest in KNOWN_KEYS
]


@pytest.mark.parametrize("command", ["generate", "policy", "experiment"])
def test_every_input_flag_names_a_config_key(command):
    assert {a.dest for a in _subcommands()[command]._actions} - KNOWN_KEYS <= NOT_KEYS


@pytest.mark.parametrize("command, flag, key", KEY_FLAGS)
def test_each_key_flag_writes_its_value_into_the_manifest(tmp_path, capsys, command, flag, key):
    workers, responses, tallies = write_gold_files(tmp_path, n_workers=60)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("population.n_workers = 30\ntasks.n_z0 = 300\ntasks.n_z1 = 400\nconstraints.beta = 0.1\n"
                   "experiment.repetitions = 2\nexperiment.methods = Greedy\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    base = {
        "generate": ["--config", cfg, "--workers-out", out, "--tasks-out", tmp_path / "t.csv"],
        "policy": ["--workers-file", workers, "--beta", 0.1, "--budget", 2.0, "--out", out],
        "experiment": ["--config", cfg, "--out", out],
    }[command]
    value = FLAG_VALUES[flag].format(workers=workers, responses=responses, tallies=tallies)
    assert run_cli([command, *base, flag, value]) == 0
    manifest = (tmp_path / "out.csv.manifest").read_text(encoding="utf-8").splitlines()
    assert f"{key} = {value}" in manifest
    if flag == "--seed" and command == "generate":
        assert "tasks.seed = 3" in manifest


class TestGenerate:
    def test_default_spec_counts(self, tmp_path, capsys):
        w, t = tmp_path / "w.csv", tmp_path / "t.csv"
        assert run_cli(["generate", "--workers-out", w, "--tasks-out", t]) == 0
        assert sum(1 for _ in open(w)) == 401  # header + 400 workers
        assert sum(1 for _ in open(t)) == 6151  # header + 6150 tasks
        assert (tmp_path / "w.csv.manifest").exists()

    def test_default_files_keep_their_bytes(self, tmp_path):
        w, t = tmp_path / "w.csv", tmp_path / "t.csv"
        assert run_cli(["generate", "--workers-out", w, "--tasks-out", t]) == 0
        assert hashlib.sha256(t.read_bytes()).hexdigest() == (
            "f9eeac133580131a76e507ddfd38f63e526949eb626a55df6c4d9d3e38e31d2e"
        )
        assert hashlib.sha256(w.read_bytes()).hexdigest() == (
            "ec7383cbc1992cd9edc92bbfd8f2c106ce9a9f4e770afe2fe0acd5a41f96f423"
        )

    def test_repeated_seed_identical_files(self, tmp_path):
        out = []
        for tag in ("a", "b"):
            w, t = tmp_path / f"w{tag}.csv", tmp_path / f"t{tag}.csv"
            assert run_cli(
                ["generate", "--seed", 9, "--workers", 25, "--workers-out", w, "--tasks-out", t]
            ) == 0
            out.append((w.read_bytes(), t.read_bytes()))
        assert out[0] == out[1]

    def test_invalid_base_rate_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tasks.base_rate_z0 = 1.2\n", encoding="utf-8")
        code = run_cli(
            ["generate", "--config", cfg, "--workers-out", tmp_path / "w.csv",
             "--tasks-out", tmp_path / "t.csv"]
        )
        assert code == 2
        assert "base_rate" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tasks.base_rate_z9 = 0.5\n", encoding="utf-8")
        assert run_cli(
            ["generate", "--config", cfg, "--workers-out", tmp_path / "w.csv",
             "--tasks-out", tmp_path / "t.csv"]
        ) == 2

    def test_manifest_replay_byte_identical(self, tmp_path):
        w1, t1 = tmp_path / "w1.csv", tmp_path / "t1.csv"
        assert run_cli(["generate", "--workers", 40, "--workers-out", w1, "--tasks-out", t1]) == 0
        w2, t2 = tmp_path / "w2.csv", tmp_path / "t2.csv"
        assert run_cli(
            ["generate", "--config", f"{w1}.manifest", "--workers-out", w2, "--tasks-out", t2]
        ) == 0
        assert w1.read_bytes() == w2.read_bytes()
        assert t1.read_bytes() == t2.read_bytes()

    def test_gold_file_keys_are_ignored(self, tmp_path):
        missing = tmp_path / "missing.csv"
        cfg = tmp_path / "gold.cfg"
        cfg.write_text(f"gold.tallies_file = {missing}\ngold.responses_file = {missing}\n", encoding="utf-8")
        files = []
        for tag, config in (("a", []), ("b", ["--config", cfg])):
            w, t = tmp_path / f"w{tag}.csv", tmp_path / f"t{tag}.csv"
            assert run_cli(["generate", *config, "--workers", 25, "--workers-out", w, "--tasks-out", t]) == 0
            files.append((w.read_bytes(), t.read_bytes()))
        assert files[0] == files[1]

    def test_regenerating_from_the_worker_file_is_byte_identical(self, tmp_path):
        w1, t1 = tmp_path / "w1.csv", tmp_path / "t1.csv"
        assert run_cli(["generate", "--workers", 40, "--workers-out", w1, "--tasks-out", t1]) == 0
        cfg = tmp_path / "from-file.cfg"
        cfg.write_text(f"workers.file = {w1}\n", encoding="utf-8")
        w2, t2 = tmp_path / "w2.csv", tmp_path / "t2.csv"
        assert run_cli(["generate", "--config", cfg, "--workers-out", w2, "--tasks-out", t2]) == 0
        assert w1.read_bytes() == w2.read_bytes()
        assert t1.read_bytes() == t2.read_bytes()


class TestPolicy:
    def test_constrained_run_satisfies_all_rows(self, tmp_path, capsys):
        # non-uniform-cost parameter set: error-rate fairness, alpha=beta=0.01,
        # budget 1.5, 20 gold tasks per type, synthetic 400-worker population
        out = tmp_path / "policy.csv"
        cfg = tmp_path / "pol.cfg"
        cfg.write_text("population.cost_model = accuracy-linked\n", encoding="utf-8")
        code = run_cli(
            ["policy", "--config", cfg, "--fairness", "error-rate", "--alpha", 0.01,
             "--beta", 0.01, "--budget", 1.5, "--gold", 20, "--seed", 6, "--out", out]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "status: optimal" in captured

        with open(out, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        weights = [float(r["weight"]) for r in rows]
        assert len(weights) == 400

        # rebuild the same program and verify the written policy against it
        import numpy as np

        from crowdfdb import (
            ConstraintSet, FairnessKind, GoldPhaseConfig, LpStatus, Policy,
            build_lp, estimate_tallies, run_gold_phase, verify_solution,
        )
        from crowdfdb.config import DEFAULTS, resolve, resolve_priors, resolve_workers
        from crowdfdb.lp import LpSolution

        resolved = resolve({"population.cost_model": "accuracy-linked"}, {
            "constraints.alpha": "0.01", "constraints.beta": "0.01",
            "constraints.budget": "1.5", "constraints.fairness": "error-rate",
            "gold.n_per_type": "20", "experiment.seed": "6",
        })
        population = resolve_workers(resolved)
        priors = resolve_priors(resolved)
        estimates = estimate_tallies(run_gold_phase(population, GoldPhaseConfig(20), seed=6))
        lp = build_lp(
            estimates,
            population.cost,
            priors,
            ConstraintSet(0.01, 0.01, 1.5, FairnessKind.ERROR_RATE_PARITY),
        )
        sol = LpSolution(status=LpStatus.OPTIMAL, policy=Policy(np.array(weights)), objective_value=0.0)
        assert verify_solution(lp, sol, tol=1e-7) == []

    def test_single_worker_under_cap_exits_3(self, tmp_path, capsys):
        workers = tmp_path / "one.csv"
        workers.write_text(
            "id,cost,a0_00,a0_01,a0_10,a0_11,a1_00,a1_01,a1_10,a1_11\n"
            "w0,1.0,0.9,0.1,0.1,0.9,0.9,0.1,0.1,0.9\n",
            encoding="utf-8",
        )
        code = run_cli(
            ["policy", "--workers-file", workers, "--fairness", "none", "--beta", 0.5,
             "--out", tmp_path / "p.csv"]
        )
        assert code == 3
        assert "diversity" in capsys.readouterr().err

    def test_dropping_fairness_never_hurts_accuracy(self, tmp_path, capsys):
        def predicted(fairness, out):
            code = run_cli(
                ["policy", "--fairness", fairness, "--alpha", 0.01, "--beta", 0.01,
                 "--gold", 20, "--seed", 4, "--out", out]
            )
            assert code == 0
            text = capsys.readouterr().out
            line = [l for l in text.splitlines() if l.startswith("predicted accuracy:")][-1]
            return float(line.split(":")[1])

        constrained = predicted("error-rate", tmp_path / "a.csv")
        free = predicted("none", tmp_path / "b.csv")
        assert free >= constrained - 1e-12

    def test_policy_manifest_replay(self, tmp_path):
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        args = ["policy", "--alpha", 0.05, "--beta", 0.01, "--gold", 5, "--seed", 12]
        assert run_cli(args + ["--out", out1]) == 0
        assert run_cli(["policy", "--config", f"{out1}.manifest", "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "line, key", [("policy.gamma = abc", "policy.gamma"), ("experiment.seed = x1", "experiment.seed")]
    )
    def test_malformed_policy_setting_exits_2_naming_the_key(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        assert run_cli(["policy", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"config key {key} must be" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad_id", [b"x" * 200_000, b"\xff"], ids=["oversized-field", "non-utf8"])
    def test_malformed_workers_file_exits_2_with_line(self, tmp_path, capsys, bad_id):
        workers = tmp_path / "workers.csv"
        workers.write_bytes(
            b"id,cost,a0_00,a0_01,a0_10,a0_11,a1_00,a1_01,a1_10,a1_11\n"
            + bad_id + b",1.0,0.9,0.1,0.1,0.9,0.9,0.1,0.1,0.9\n"
        )
        code = run_cli(["policy", "--workers-file", workers, "--out", tmp_path / "p.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{workers} line 2" in err
        assert "Traceback" not in err

    def test_solver_failure_exits_4(self, tmp_path, monkeypatch):
        from crowdfdb.lp import SolverError

        def boom(*args, **kwargs):
            raise SolverError("forced failure")

        monkeypatch.setattr("crowdfdb.pipeline.solve_lp", boom)
        code = run_cli(["policy", "--gold", 5, "--out", tmp_path / "p.csv"])
        assert code == 4

    def test_weight_sum_outside_policy_tolerance_exits_4(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        def off_by_1e_8(lp):
            weights = np.zeros(lp.n)
            weights[:2] = 0.5
            weights[0] += 1e-8
            return "optimal", weights, 1

        monkeypatch.setattr("crowdfdb.lp._solve_bounded", off_by_1e_8)
        out = tmp_path / "p.csv"
        assert run_cli(["policy", "--gold", 5, "--out", out]) == 4
        err = capsys.readouterr().err
        assert "numerical failure: optimal weights sum to 1 +1e-08" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_responses_and_the_same_counts_as_tallies_give_identical_policies(self, tmp_path):
        workers, responses, tallies = write_gold_files(tmp_path, n_workers=60)
        flags = ["policy", "--workers-file", workers, "--fairness", "error-rate", "--alpha", 0.01,
                 "--beta", 0.1, "--budget", 2.0]
        assert run_cli(flags + ["--responses", responses, "--out", tmp_path / "from-responses.csv"]) == 0
        assert run_cli(flags + ["--tallies", tallies, "--out", tmp_path / "from-tallies.csv"]) == 0
        policy = (tmp_path / "from-responses.csv").read_bytes()
        assert policy == (tmp_path / "from-tallies.csv").read_bytes()
        assert policy.count(b"\n") == 61

    @pytest.mark.parametrize("source", ["--responses", "--tallies"])
    def test_recorded_gold_bounds_at_the_fewest_recorded_answers(self, tmp_path, capsys, source):
        """6 recorded answers per type set N_g, whatever --gold says."""
        from crowdfdb import fairness_violation_bound

        workers, responses, tallies = write_gold_files(tmp_path, n_workers=60)
        capsys.readouterr()
        expected = f"fairness inflation bound (gamma=0.9): {fairness_violation_bound(60, 6, 0.9):.6g}"
        assert expected.endswith(": 1.60535")
        files = {"--responses": responses, "--tallies": tallies}
        for gold in ([], ["--gold", 5], ["--gold", 40]):
            args = ["policy", "--workers-file", workers, source, files[source], *gold, "--beta", 0.1, "--budget", 2.0,
                    "--out", tmp_path / "p.csv"]
            assert run_cli(args) == 0
            assert capsys.readouterr().out.splitlines()[1] == expected

    @pytest.mark.parametrize("gamma", ["0", "1", "1.5", "-0.2", "nan"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_gamma_outside_the_unit_interval_exits_2_before_the_gold_phase(
        self, tmp_path, capsys, monkeypatch, gamma, where
    ):
        def no_gold_phase(*args, **kwargs):
            raise AssertionError("gold phase ran with an invalid gamma")

        monkeypatch.setattr("crowdfdb.pipeline.run_gold_phase", no_gold_phase)
        cfg = tmp_path / "gamma.cfg"
        cfg.write_text(f"policy.gamma = {gamma}\n", encoding="utf-8")
        args = ["--gamma", gamma] if where == "flag" else ["--config", cfg]
        out = tmp_path / "p.csv"
        assert run_cli(["policy", *args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: confidence must lie in (0, 1), got {float(gamma)}\n"
        assert not out.exists()

    def test_zero_attempts_name_the_worker(self, tmp_path, capsys):
        workers, responses, _ = write_gold_files(tmp_path, n_workers=8, skip=("w0003", 1, 0))
        out = tmp_path / "p.csv"
        assert run_cli(["policy", "--workers-file", workers, "--responses", responses, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: worker w0003: no gold tasks attempted for type (z=1, y=0)"
        assert not out.exists()

    def test_repeated_tally_id_exits_2_naming_both_lines(self, tmp_path, capsys):
        workers, _, tallies = write_gold_files(tmp_path, n_workers=4)
        lines = tallies.read_text(encoding="utf-8").splitlines()
        tallies.write_text("\n".join(lines + [lines[2]]) + "\n", encoding="utf-8")
        code = run_cli(["policy", "--workers-file", workers, "--tallies", tallies, "--out", tmp_path / "p.csv"])
        assert code == 2
        assert f"{tallies} line 6: repeated id 'w0001', first on line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, header", [
        ("--tallies", "id,att_z0_y0,cor_z0_y0,att_z0_y1,cor_z0_y1,att_z1_y0,cor_z1_y0,att_z1_y1,cor_z1_y1"),
        ("--responses", "worker_id,task_id,answer,z,y"),
    ])
    def test_header_only_gold_file_exits_2_naming_line_1(self, tmp_path, capsys, flag, header):
        source = tmp_path / "gold.csv"
        source.write_text(header + "\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        assert run_cli(["policy", flag, source, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {source} line 1: gold tallies need at least one worker\n"
        assert len(err.encode()) < 200
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["--workers-file", "--responses"])
    def test_missing_input_file_exits_2(self, tmp_path, capsys, missing):
        workers, responses, _ = write_gold_files(tmp_path, n_workers=4)
        files = {"--workers-file": workers, "--responses": responses}
        files[missing] = tmp_path / "missing.csv"
        out = tmp_path / "p.csv"
        args = ["policy", "--workers-file", files["--workers-file"], "--responses", files["--responses"]]
        assert run_cli(args + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory") and str(tmp_path / "missing.csv") in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_tallies_and_responses_together_exit_2_before_any_file_is_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        args = ["policy", "--workers-file", missing, "--tallies", missing, "--responses", missing,
                "--out", tmp_path / "p.csv"]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(args)
        assert exit_info.value.code == 2
        assert "argument --responses: not allowed with argument --tallies" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("source", ["--responses", "--tallies"])
    def test_recorded_gold_run_replays_from_its_manifest(self, tmp_path, capsys, source):
        workers, responses, tallies = write_gold_files(tmp_path, n_workers=60)
        files = {"--responses": responses, "--tallies": tallies}
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        capsys.readouterr()
        args = ["policy", "--workers-file", workers, source, files[source], "--beta", 0.1, "--budget", 2.0]
        assert run_cli(args + ["--out", out1]) == 0
        run = capsys.readouterr().out.splitlines()
        assert run_cli(["policy", "--config", f"{out1}.manifest", "--out", out2]) == 0
        replay = capsys.readouterr().out.splitlines()
        assert out1.read_bytes() == out2.read_bytes()
        assert replay[:4] == run[:4]
        assert run[1].endswith(": 1.60535")  # the recorded 6 answers per type, not 20 simulated ones

    @pytest.mark.parametrize("source", ["responses", "tallies"])
    def test_a_manifest_of_relative_paths_replays_from_another_directory(self, tmp_path, monkeypatch, source):
        run_dir, replay_dir = tmp_path / "a", tmp_path / "b"
        run_dir.mkdir()
        replay_dir.mkdir()
        write_gold_files(run_dir, n_workers=60)
        (run_dir / "p.cfg").write_text("tasks.file = tasks.csv\n", encoding="utf-8")
        monkeypatch.chdir(run_dir)
        assert run_cli(["policy", "--config", "p.cfg", "--workers-file", "workers.csv", f"--{source}",
                        f"{source}.csv", "--beta", 0.1, "--budget", 2.0, "--out", "p.csv"]) == 0
        manifest = (run_dir / "p.csv.manifest").read_text(encoding="utf-8").splitlines()
        for key, name in [("workers.file", "workers.csv"), ("tasks.file", "tasks.csv"),
                          (f"gold.{source}_file", f"{source}.csv")]:
            assert f"{key} = {run_dir / name}" in manifest
        monkeypatch.chdir(replay_dir)
        assert run_cli(["policy", "--config", "../a/p.csv.manifest", "--out", "p.csv"]) == 0
        assert (replay_dir / "p.csv").read_bytes() == (run_dir / "p.csv").read_bytes()

    def test_a_config_naming_both_gold_files_exits_2_naming_both(self, tmp_path, capsys):
        workers, responses, tallies = write_gold_files(tmp_path, n_workers=4)
        cfg = tmp_path / "gold.cfg"
        cfg.write_text(f"gold.tallies_file = {tallies}\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        args = ["policy", "--config", cfg, "--workers-file", workers, "--responses", responses, "--out", out]
        assert run_cli(args) == 2
        assert capsys.readouterr().err == "error: set at most one of gold.tallies_file and gold.responses_file\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["{w} ", " {w}", "{w}\n", "{w}\rx"])
    def test_a_flag_value_the_manifest_cannot_read_back_exits_2_before_any_input_is_read(
        self, tmp_path, capsys, monkeypatch, value
    ):
        def no_input(*args, **kwargs):
            raise AssertionError("an input was read")

        for name in ("load_workers", "load_tasks", "load_responses", "generate_population"):
            monkeypatch.setattr(f"crowdfdb.config.{name}", no_input)
        value = value.format(w=tmp_path / "w.csv")
        out = tmp_path / "p.csv"
        assert run_cli(["policy", "--workers-file", value, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: workers.file = {value!r} would not read back from a manifest")
        assert not out.exists()


def write_gold_files(tmp_path, n_workers, per_type=6, skip=None):
    """A generated worker file, raw responses drawn from the workers' true
    correctness, and the same counts written as a gold-tally file; the
    (id, z, y) in `skip` gets no responses."""
    import numpy as np

    from crowdfdb import GoldTallies, load_workers, save_gold_tallies

    workers = tmp_path / "workers.csv"
    cfg = tmp_path / "linked.cfg"
    cfg.write_text("population.cost_model = accuracy-linked\n", encoding="utf-8")
    assert run_cli(["generate", "--config", cfg, "--workers", n_workers, "--seed", 3,
                    "--workers-out", workers, "--tasks-out", tmp_path / "tasks.csv"]) == 0
    rng = np.random.default_rng(8)
    responses = tmp_path / "responses.csv"
    population = load_workers(workers)
    attempted = np.zeros((len(population), 2, 2), dtype=int)
    correct = np.zeros_like(attempted)
    with open(responses, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["worker_id", "task_id", "answer", "z", "y"])
        for i, worker_id in enumerate(population.ids):
            for z, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
                count = 0 if (worker_id, z, y) == skip else per_type
                right = rng.random(count) < population.correct[i, z, y]
                writer.writerows(
                    (worker_id, f"g{z}{y}-{j}", y if ok else 1 - y, z, y) for j, ok in enumerate(right)
                )
                attempted[i, z, y], correct[i, z, y] = count, right.sum()
    tally_file = tmp_path / "tallies.csv"
    save_gold_tallies(GoldTallies(population.ids, attempted, correct), tally_file)
    return workers, responses, tally_file


class TestExperiment:
    def smoke_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "population.n_workers = 30\n"
            "tasks.n_z0 = 300\n"
            "tasks.n_z1 = 400\n"
            "constraints.beta = 0.1\n"
            "experiment.repetitions = 2\n"
            "experiment.seed = 5\n",
            encoding="utf-8",
        )
        return cfg

    def test_smoke_run_under_ten_seconds(self, tmp_path, capsys):
        import time

        out = tmp_path / "res.csv"
        start = time.monotonic()
        assert run_cli(["experiment", "--config", self.smoke_config(tmp_path), "--out", out]) == 0
        assert time.monotonic() - start < 10.0
        with open(out, encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            assert reader.fieldnames == RESULTS_COLUMNS
            rows = list(reader)
        methods = {r["method"] for r in rows}
        assert methods == {"CrowdFDB", "Random", "Greedy"}
        for row in rows:
            if row["row_kind"] == "mean":
                assert row["fpr_gap"] != ""
                assert row["fnr_gap"] != ""
                assert row["accuracy"] != ""

    def test_manifest_replay_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli(["experiment", "--config", self.smoke_config(tmp_path), "--out", out1]) == 0
        assert run_cli(["experiment", "--config", f"{out1}.manifest", "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("key", ["gold.tallies_file", "gold.responses_file"])
    def test_a_gold_file_key_exits_2_naming_it(self, tmp_path, capsys, key):
        cfg = self.smoke_config(tmp_path)
        cfg.write_text(cfg.read_text(encoding="utf-8") + f"{key} = {tmp_path / 'gold.csv'}\n", encoding="utf-8")
        out = tmp_path / "r.csv"
        assert run_cli(["experiment", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {key} is read only by the policy command; an experiment simulates its gold answers\n"
        assert not out.exists()

    def test_recipes_are_loadable(self):
        names = cli.recipe_names()
        assert names == [
            "appendix-figure5", "appendix-figure6", "appendix-figure7", "appendix-figure8",
            "figure1", "figure2", "figure3", "figure4",
        ]
        for name in names:
            cfg = cli._load_recipe(name)
            assert "experiment.sweep" in cfg

    def test_unknown_recipe_exits_2(self, tmp_path):
        assert run_cli(["experiment", "--recipe", "figure99", "--out", tmp_path / "r.csv"]) == 2

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_gold_sweep_value_exits_2(self, tmp_path, capsys, bad):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"experiment.sweep = gold\nexperiment.sweep_values = 5,{bad}\n", encoding="utf-8")
        out = tmp_path / "r.csv"
        assert run_cli(["experiment", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "gold sweep values must be integers >= 1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_empty_task_pool_exits_2_before_the_gold_phase(self, tmp_path, capsys, monkeypatch):
        def no_gold_phase(*args, **kwargs):
            raise AssertionError("gold phase ran on an empty task pool")

        monkeypatch.setattr("crowdfdb.pipeline.run_gold_phase", no_gold_phase)
        monkeypatch.setattr("crowdfdb.simulator.run_gold_phase", no_gold_phase)
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(
            "population.n_workers = 20\ntasks.n_z0 = 0\ntasks.n_z1 = 0\n"
            "priors.p_z1 = 0.5\npriors.p_y1_given_z0 = 0.4\npriors.p_y1_given_z1 = 0.6\n"
            "experiment.repetitions = 1\n",
            encoding="utf-8",
        )
        out = tmp_path / "r.csv"
        assert run_cli(["experiment", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "task pool has no tasks" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_task_file_exits_2(self, tmp_path, capsys):
        tasks = tmp_path / "missing.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"tasks.file = {tasks}\npopulation.n_workers = 20\nexperiment.repetitions = 1\n",
                       encoding="utf-8")
        out = tmp_path / "r.csv"
        assert run_cli(["experiment", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory") and str(tasks) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_task_file_outside_0_1_exits_2_with_line(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.csv"
        tasks.write_text("id,z,y\nt0,0,1\nt1,1,0\nt2,256,1\n", encoding="utf-8")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"tasks.file = {tasks}\npopulation.n_workers = 20\nexperiment.repetitions = 1\n",
                       encoding="utf-8")
        out = tmp_path / "r.csv"
        assert run_cli(["experiment", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"{tasks} line 4: field z must be 0 or 1, got 256" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_run_from_the_generated_task_file_matches_the_run_from_the_spec(self, tmp_path):
        from crowdfdb import config as cfgmod

        workers, tasks = tmp_path / "w.csv", tmp_path / "t.csv"
        assert run_cli(["generate", "--workers-out", workers, "--tasks-out", tasks]) == 0
        from_file = tmp_path / "from-file.cfg"
        from_file.write_text(cfgmod.format_config({
            **cli._load_recipe("figure1"),
            "workers.file": str(workers),
            "tasks.file": str(tasks),
            # the default spec's priors; a task file alone implies its empirical frequencies
            "priors.p_z1": "0.6009756097560975",
            "priors.p_y1_given_z0": "0.3936",
            "priors.p_y1_given_z1": "0.5143",
        }), encoding="utf-8")
        spec_out, file_out = tmp_path / "spec.csv", tmp_path / "file.csv"
        assert run_cli(["experiment", "--recipe", "figure1", "--repetitions", 2, "--out", spec_out]) == 0
        assert run_cli(["experiment", "--config", from_file, "--repetitions", 2, "--out", file_out]) == 0
        assert spec_out.read_bytes() == file_out.read_bytes()

    def test_solver_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        from crowdfdb.lp import SolverError

        def boom(*args, **kwargs):
            raise SolverError("forced failure")

        monkeypatch.setattr("crowdfdb.pipeline.solve_lp", boom)
        out = tmp_path / "r.csv"
        assert run_cli(["experiment", "--config", self.smoke_config(tmp_path), "--out", out]) == 4
        assert "numerical failure: forced failure" in capsys.readouterr().err
        assert not out.exists()


class TestBounds:
    def test_matches_library_values(self, capsys):
        from crowdfdb import accuracy_loss_bound, fairness_violation_bound

        assert run_cli(
            ["bounds", "-n", 400, "--gold", 20, "--gamma", 0.9, "--gamma-prime", 0.9,
             "--beta", 0.01]
        ) == 0
        out = capsys.readouterr().out
        delta = float(out.splitlines()[0].split(":")[1])
        loss = float(out.splitlines()[1].split(":")[1])
        assert delta == pytest.approx(fairness_violation_bound(400, 20, 0.9), rel=1e-10)
        assert loss == pytest.approx(
            accuracy_loss_bound(400, 20, 0.9, beta=0.01), rel=1e-10
        )

    def test_invalid_gamma_exits_2(self):
        assert run_cli(["bounds", "-n", 5, "--gold", 20, "--gamma", 1.5]) == 2
