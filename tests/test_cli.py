import csv

import pytest

from crowdfdb import cli
from crowdfdb.simulator import RESULTS_COLUMNS


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestGenerate:
    def test_default_spec_counts(self, tmp_path, capsys):
        w, t = tmp_path / "w.csv", tmp_path / "t.csv"
        assert run_cli(["generate", "--workers-out", w, "--tasks-out", t]) == 0
        assert sum(1 for _ in open(w)) == 401  # header + 400 workers
        assert sum(1 for _ in open(t)) == 6151  # header + 6150 tasks
        assert (tmp_path / "w.csv.manifest").exists()

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
            build_lp, run_gold_phase, verify_solution,
        )
        from crowdfdb.config import DEFAULTS, resolve, resolve_priors, resolve_workers
        from crowdfdb.lp import LpSolution

        resolved = resolve({"population.cost_model": "accuracy-linked"}, {
            "constraints.alpha": "0.01", "constraints.beta": "0.01",
            "constraints.budget": "1.5", "constraints.fairness": "error-rate",
            "gold.n_per_type": "20", "experiment.seed": "6",
        })
        workers = resolve_workers(resolved)
        priors = resolve_priors(resolved)
        estimates = run_gold_phase(workers, GoldPhaseConfig(20), seed=6)
        lp = build_lp(
            estimates,
            [w.cost for w in workers],
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


class TestBounds:
    def test_matches_library_values(self, capsys):
        from crowdfdb import BoundQuery, accuracy_loss_bound, fairness_violation_bound

        assert run_cli(
            ["bounds", "-n", 400, "--gold", 20, "--gamma", 0.9, "--gamma-prime", 0.9,
             "--beta", 0.01]
        ) == 0
        out = capsys.readouterr().out
        delta = float(out.splitlines()[0].split(":")[1])
        loss = float(out.splitlines()[1].split(":")[1])
        assert delta == pytest.approx(fairness_violation_bound(BoundQuery(400, 20, 0.9)), rel=1e-10)
        assert loss == pytest.approx(
            accuracy_loss_bound(BoundQuery(400, 20, 0.9, beta=0.01)), rel=1e-10
        )

    def test_invalid_gamma_exits_2(self):
        assert run_cli(["bounds", "-n", 5, "--gold", 20, "--gamma", 1.5]) == 2
