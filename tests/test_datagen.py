import numpy as np
import pytest

from crowdfdb import (
    AccuracyLinkedCost,
    ClusterBiasModel,
    FairnessKind,
    FileFormatError,
    GoldResponseTally,
    GoldTallies,
    IntervalBiasModel,
    Policy,
    PopulationSpec,
    Priors,
    TaskPool,
    TaskPoolSpec,
    UniformCost,
    ConstraintSet,
    ExperimentConfig,
    GoldPhaseConfig,
    WorkerProfile,
    build_policy,
    compose_policy_accuracy,
    default_population_spec,
    default_task_pool_spec,
    expected_accuracy,
    fairness_gap,
    generate_population,
    generate_task_pool,
    load_gold_tallies,
    load_responses,
    load_tasks,
    load_workers,
    random_policy,
    run_experiment,
    run_gold_phase,
    save_gold_tallies,
    save_tasks,
    save_workers,
)
from crowdfdb import cli
from crowdfdb.model import label_one_probabilities

from fixtures import as_population, make_binding_fairness_instance, traced_peak
from oracles import reference_population, reference_task_pool


def interval_spec(n, lo, hi, cost_model, seed=1):
    return PopulationSpec(
        n_workers=n,
        bias_model=IntervalBiasModel(
            diag_z0_y0=(lo, hi), diag_z0_y1=(lo, hi), diag_z1_y0=(lo, hi), diag_z1_y1=(lo, hi)
        ),
        cost_model=cost_model,
        seed=seed,
    )


class TestGeneratePopulation:
    def test_uniform_cost_model(self):
        workers = generate_population(interval_spec(50, 0.5, 0.9, UniformCost(fee=1.0)))
        assert len(workers) == 50
        assert all(w.cost == 1.0 for w in workers)

    def test_accuracy_linked_perfect_worker_always_high_fee(self):
        workers = generate_population(interval_spec(30, 1.0, 1.0, AccuracyLinkedCost(1.0, 3.0)))
        assert all(w.cost == 3.0 for w in workers)

    def test_accuracy_linked_fee_fraction(self):
        # every worker has average diagonal accuracy exactly 0.7
        workers = generate_population(
            interval_spec(10_000, 0.7, 0.7, AccuracyLinkedCost(1.0, 3.0), seed=12)
        )
        frac_high = np.mean([w.cost == 3.0 for w in workers])
        assert frac_high == pytest.approx(0.7, abs=0.02)

    def test_determinism(self):
        spec = interval_spec(20, 0.4, 0.9, AccuracyLinkedCost(1.0, 3.0), seed=77)
        a = generate_population(spec)
        b = generate_population(spec)
        assert all(
            x.id == y.id and x.cost == y.cost and np.array_equal(x.correct, y.correct)
            for x, y in zip(a, b)
        )

    def test_cluster_model_offsets(self):
        spec = PopulationSpec(
            n_workers=200,
            bias_model=ClusterBiasModel(
                biased_fraction=1.0,
                biased_diag_y0=(0.6, 0.8),
                biased_diag_y1=(0.6, 0.8),
                unbiased_diag_y0=(0.6, 0.8),
                unbiased_diag_y1=(0.6, 0.8),
                biased_fpr_offset=0.2,
                biased_fnr_offset=-0.1,
            ),
            cost_model=UniformCost(1.0),
            seed=3,
        )
        for w in generate_population(spec):
            assert w.matrix(0)[0, 1] - w.matrix(1)[0, 1] == pytest.approx(0.2, abs=1e-12)  # FPR
            assert w.matrix(0)[1, 0] - w.matrix(1)[1, 0] == pytest.approx(-0.1, abs=1e-12)  # FNR

    def test_generators_and_array_helpers_build_no_matrix(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("a WorkerProfile was constructed")

        monkeypatch.setattr(WorkerProfile, "__post_init__", forbidden)  # matrix(z) is only on a WorkerProfile
        for population in (
            generate_population(default_population_spec(n_workers=20)),
            generate_population(interval_spec(20, 0.3, 0.9, AccuracyLinkedCost(1.0, 3.0))),
            make_binding_fairness_instance(0.3, 3, seed=1),
        ):
            policy = random_policy(len(population))
            assert label_one_probabilities(population).shape == (len(population), 2, 2)
            expected_accuracy(policy, population, Priors(0.5, 0.4, 0.6))
            assert fairness_gap(compose_policy_accuracy(policy, population), FairnessKind.FPR_PARITY) >= 0.0

    def test_no_runtime_path_builds_a_worker_profile(self, monkeypatch, tmp_path):
        def forbidden(self):
            raise AssertionError("a WorkerProfile was constructed")

        monkeypatch.setattr(WorkerProfile, "__post_init__", forbidden)
        path = tmp_path / "workers.csv"
        save_workers(generate_population(default_population_spec(n_workers=30)), path)
        population = load_workers(path)
        save_workers(population, tmp_path / "again.csv")
        gold = GoldPhaseConfig(5)
        priors = Priors(0.5, 0.4, 0.6)
        constraints = ConstraintSet(alpha=0.05, beta=0.1, budget=1.0, fairness_kind=FairnessKind.FPR_PARITY)
        assert run_gold_phase(population, gold, seed=3).correct.shape == (30, 2, 2)
        build_policy(population, gold, priors, constraints, seed=3)
        tallies = GoldTallies(population.ids, np.full((30, 2, 2), 5), np.tile([[4, 3], [2, 1]], (30, 1, 1)))
        build_policy(population, gold, priors, constraints, seed=3, tallies=tallies)
        for method in ("CrowdFDB", "Random", "Greedy"):
            cfg = ExperimentConfig(
                method=method, gold=gold, constraints=constraints, repetitions=2, seed=5,
                worker_file=str(path), task_pool=TaskPoolSpec(100, 100, 0.4, 0.6, seed=6),
            )
            assert len(run_experiment(cfg)[0].reports) == 2


    def test_no_runtime_path_builds_a_gold_response_tally(self, monkeypatch, tmp_path):
        def forbidden(self):
            raise AssertionError("a GoldResponseTally was constructed")

        monkeypatch.setattr(GoldResponseTally, "__post_init__", forbidden)
        workers, responses, tallies = (tmp_path / name for name in ("workers.csv", "responses.csv", "tallies.csv"))
        population = generate_population(default_population_spec(n_workers=12))
        save_workers(population, workers)
        with open(responses, "w", encoding="utf-8") as handle:
            handle.write("worker_id,task_id,answer,z,y\n")
            handle.writelines(f"{i},g{z}{y}-{j},{(j + k) % 2},{z},{y}\n" for k, i in enumerate(population.ids)
                              for z in (0, 1) for y in (0, 1) for j in range(3))
        save_gold_tallies(load_responses(responses), tallies)
        loaded = load_gold_tallies(tallies)
        assert loaded.ids == population.ids
        gold, priors = GoldPhaseConfig(3), Priors(0.5, 0.4, 0.6)
        constraints = ConstraintSet(alpha=0.05, beta=0.2, budget=1.0, fairness_kind=FairnessKind.FPR_PARITY)
        assert build_policy(population, gold, priors, constraints, seed=3, tallies=loaded).estimates.shape == (12, 2, 2)
        for flag, source in (("--responses", responses), ("--tallies", tallies)):
            out = tmp_path / f"policy{flag}.csv"
            args = ["policy", "--workers-file", workers, flag, source, "--gold", 3, "--beta", 0.2, "--out", out]
            assert cli.main([str(a) for a in args]) == 0
            assert out.exists()

    def test_generated_profiles_always_valid(self):
        # validity is enforced by the Population constructor;
        # just exercise a spread of specs
        for seed in range(5):
            generate_population(interval_spec(40, 0.0, 1.0, UniformCost(0.0), seed=seed))


def cluster_model(biased_fraction, fpr_offset=-0.25, fnr_offset=0.25, unbiased_offsets=(0.0, 0.0)):
    return ClusterBiasModel(
        biased_fraction=biased_fraction,
        biased_diag_y0=(0.0, 1.0),
        biased_diag_y1=(0.6, 0.86),
        unbiased_diag_y0=(0.75, 0.75),
        unbiased_diag_y1=(0.2, 0.9),
        biased_fpr_offset=fpr_offset,
        biased_fnr_offset=fnr_offset,
        unbiased_fpr_offset=unbiased_offsets[0],
        unbiased_fnr_offset=unbiased_offsets[1],
    )


BIAS_MODELS = {
    "clusters-default": default_population_spec().bias_model,
    "clusters-clipping": cluster_model(0.5, fpr_offset=1.0, fnr_offset=-1.0, unbiased_offsets=(-1.0, 1.0)),
    "clusters-all-biased": cluster_model(1.0),
    "clusters-none-biased": cluster_model(0.0, unbiased_offsets=(0.3, -0.6)),
    "intervals": IntervalBiasModel(
        diag_z0_y0=(0.1, 0.9), diag_z0_y1=(0.5, 0.5), diag_z1_y0=(0.0, 1.0), diag_z1_y1=(1.0, 1.0)
    ),
}


class TestVectorisedMatchesPerWorkerReference:
    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize(
        "cost_model", [UniformCost(1.5), AccuracyLinkedCost(0.5, 2.0)], ids=["uniform", "linked"]
    )
    @pytest.mark.parametrize("bias", BIAS_MODELS.values(), ids=BIAS_MODELS.keys())
    def test_population_bytes(self, tmp_path, bias, cost_model, n):
        spec = PopulationSpec(n_workers=n, bias_model=bias, cost_model=cost_model, seed=4482)
        got, reference = generate_population(spec), reference_population(spec)
        assert [(w.id, w.cost) for w in got] == [(w.id, w.cost) for w in reference]
        assert got.correct.tobytes() == np.stack([w.correct for w in reference]).tobytes()
        save_workers(got, tmp_path / "got.csv")
        save_workers(as_population(reference), tmp_path / "reference.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_clipping_reaches_both_ends(self):
        spec = PopulationSpec(300, BIAS_MODELS["clusters-clipping"], UniformCost(1.0), seed=4482)
        correct = generate_population(spec).correct
        assert (correct == 0.0).any() and (correct == 1.0).any()


class TestGenerateTaskPool:
    def test_default_counts(self):
        spec = TaskPoolSpec(n_z0=2454, n_z1=3696, base_rate_z0=0.3936, base_rate_z1=0.5143, seed=5)
        tasks = generate_task_pool(spec)
        assert len(tasks) == len(tasks.ids) == tasks.z.size == tasks.y.size == 6150
        assert tasks.z.dtype == tasks.y.dtype == np.int8
        assert int((tasks.z == 1).sum()) == 3696
        assert int((tasks.z == 0).sum()) == 2454

    def test_zero_base_rate(self):
        spec = TaskPoolSpec(n_z0=500, n_z1=0, base_rate_z0=0.0, base_rate_z1=0.5, seed=5)
        tasks = generate_task_pool(spec)
        assert (tasks.y == 0).all()

    def test_base_rate_tolerance(self):
        spec = TaskPoolSpec(n_z0=0, n_z1=3696, base_rate_z0=0.5, base_rate_z1=0.5143, seed=6)
        tasks = generate_task_pool(spec)
        assert tasks.y.mean() == pytest.approx(0.5143, abs=0.025)

    def test_shuffled_and_deterministic(self):
        spec = TaskPoolSpec(n_z0=50, n_z1=50, base_rate_z0=0.3, base_rate_z1=0.7, seed=9)
        a = generate_task_pool(spec)
        b = generate_task_pool(spec)
        assert a.ids == b.ids
        assert np.array_equal(a.z, b.z) and np.array_equal(a.y, b.y)
        assert (a.z[:50] == 1).any()  # groups interleaved, not in blocks

    @pytest.mark.parametrize("spec", [
        default_task_pool_spec(),
        TaskPoolSpec(n_z0=0, n_z1=700, base_rate_z0=0.5, base_rate_z1=0.3, seed=3),
        TaskPoolSpec(n_z0=0, n_z1=0, base_rate_z0=0.5, base_rate_z1=0.5, seed=3),
        TaskPoolSpec(n_z0=40_000, n_z1=60_001, base_rate_z0=0.25, base_rate_z1=0.6, seed=8),
    ], ids=["default", "one-group", "empty", "six-digit-ids"])
    def test_matches_the_per_task_loop(self, spec):
        tasks = generate_task_pool(spec)
        assert list(zip(tasks.ids, tasks.z.tolist(), tasks.y.tolist())) == reference_task_pool(spec)


class TestTaskPool:
    @pytest.mark.parametrize("z, y", [([0, 2], [0, 1]), ([0, 1], [256, 1]), ([0, 1], [0, -1]),
                                      ([0, 1], [0.5, 1.0]), ([0], [0, 1])])
    def test_rejects_non_bits_and_wrong_lengths(self, z, y):
        with pytest.raises(ValueError, match="must hold one 0 or 1 per task id"):
            TaskPool(ids=("t0", "t1"), z=np.array(z), y=np.array(y))

    def test_narrows_validated_bits_to_read_only_int8(self):
        tasks = TaskPool(ids=("t0", "t1"), z=np.array([1, 0]), y=np.array([True, False]))
        assert tasks.z.dtype == tasks.y.dtype == np.int8
        assert tasks.z.tolist() == [1, 0] and tasks.y.tolist() == [1, 0]
        with pytest.raises(ValueError, match="read-only"):
            tasks.z[0] = 2


class TestMirroredPairs:
    def test_one_sided_policy_has_exact_gap(self):
        workers = make_binding_fairness_instance(0.3, 1, seed=4)
        pa = compose_policy_accuracy(Policy(np.array([1.0, 0.0])), workers)
        assert fairness_gap(pa, FairnessKind.FPR_PARITY) == pytest.approx(0.3, abs=1e-12)

    def test_symmetric_policy_is_fair(self):
        workers = make_binding_fairness_instance(0.3, 1, seed=4)
        pa = compose_policy_accuracy(Policy(np.array([0.5, 0.5])), workers)
        assert fairness_gap(pa, FairnessKind.FPR_PARITY) == pytest.approx(0.0, abs=1e-12)

    def test_pair_members_have_equal_diagonal_sums(self):
        for w_a, w_b in zip(*[iter(make_binding_fairness_instance(0.4, 5, seed=8))] * 2):
            sum_a = sum(w_a.matrix(z)[y, y] for z in (0, 1) for y in (0, 1))
            sum_b = sum(w_b.matrix(z)[y, y] for z in (0, 1) for y in (0, 1))
            assert sum_a == pytest.approx(sum_b, abs=1e-12)

    def test_extreme_gap_still_valid(self):
        workers = make_binding_fairness_instance(1.0, 2, seed=1)
        assert len(workers) == 4


class TestFileRoundTrips:
    def test_workers_round_trip(self, tmp_path):
        spec = interval_spec(25, 0.2, 0.95, AccuracyLinkedCost(1.0, 3.0), seed=2)
        workers = generate_population(spec)
        path = tmp_path / "workers.csv"
        save_workers(workers, path)
        loaded = load_workers(path)
        assert len(loaded) == len(workers)
        for a, b in zip(workers, loaded):
            assert a.id == b.id
            assert a.cost == b.cost
            assert np.array_equal(a.correct, b.correct)

    @pytest.mark.parametrize("spec", [
        interval_spec(40, 0.0, 1.0, AccuracyLinkedCost(1.0, 3.0), seed=4),
        default_population_spec(seed=5, n_workers=40),
    ], ids=["intervals", "clusters"])
    def test_workers_save_load_save_byte_identical(self, tmp_path, spec):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        save_workers(generate_population(spec), first)
        save_workers(load_workers(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_off_diagonal_within_tolerance_is_implied_by_the_diagonal(self, tmp_path):
        path = tmp_path / "workers.csv"
        header = "id,cost,a0_00,a0_01,a0_10,a0_11,a1_00,a1_01,a1_10,a1_11"
        path.write_text(header + "\nw0,1.0,0.9,0.1000000000005,0.2,0.8,0.7,0.3,0.4,0.6\n", encoding="utf-8")
        population = load_workers(path)
        assert population.correct.tolist() == [[[0.9, 0.8], [0.7, 0.6]]]
        assert label_one_probabilities(population)[0, 0, 0] == 1.0 - 0.9

    def test_tasks_round_trip(self, tmp_path):
        spec = TaskPoolSpec(n_z0=2454, n_z1=3696, base_rate_z0=0.3936, base_rate_z1=0.5143, seed=5)
        tasks = generate_task_pool(spec)
        path = tmp_path / "tasks.csv"
        save_tasks(tasks, path)
        loaded = load_tasks(path)
        assert loaded.ids == tasks.ids
        assert np.array_equal(loaded.z, tasks.z) and np.array_equal(loaded.y, tasks.y)
        assert loaded.z.dtype == loaded.y.dtype == np.int8

    def test_tallies_round_trip(self, tmp_path):
        attempted = np.array([[[5, 5], [5, 5]], [[9, 9], [9, 9]]])
        correct = np.array([[[5, 3], [0, 4]], [[1, 2], [3, 4]]])
        path = tmp_path / "gold.csv"
        save_gold_tallies(GoldTallies(("w0", "w1"), attempted, correct), path)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == ["w0,5,5,5,3,5,0,5,4", "w1,9,1,9,2,9,3,9,4"]
        loaded = load_gold_tallies(path)
        assert loaded.ids == ("w0", "w1")
        assert loaded.attempted.tolist() == attempted.tolist() and loaded.correct.tolist() == correct.tolist()
        assert loaded.attempted.dtype == loaded.correct.dtype == np.int64
        assert list(loaded) == [
            ("w0", GoldResponseTally(attempted=(5, 5, 5, 5), correct=(5, 3, 0, 4))),
            ("w1", GoldResponseTally(attempted=(9, 9, 9, 9), correct=(1, 2, 3, 4))),
        ]

    @pytest.mark.parametrize("kind", ["tallies", "responses"])
    def test_header_only_tally_source_rejected_on_line_1(self, tmp_path, kind):
        loader, header, _ = LOADERS[kind]
        path = tmp_path / f"{kind}.csv"
        path.write_text(header + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            loader(path)
        assert str(err.value) == f"{path} line 1: gold tallies need at least one worker"

    def test_tally_count_beyond_int64_names_its_line_and_field(self, tmp_path):
        _, header, row = LOADERS["tallies"]
        path = tmp_path / "tallies.csv"
        path.write_text(f"{header}\n{row}\nw1,5,5,{2**63},3,5,0,5,4\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_gold_tallies(path)
        assert str(err.value) == f"{path} line 3: field att_z0_y1 exceeds the largest count, {2**63 - 1}"

    def test_header_only_worker_file_rejected_on_line_1(self, tmp_path):
        path = tmp_path / "workers.csv"
        path.write_text("id,cost,a0_00,a0_01,a0_10,a0_11,a1_00,a1_01,a1_10,a1_11\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_workers(path)
        assert str(err.value) == f"{path} line 1: population needs at least one worker"

    def test_bad_row_sum_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "workers.csv"
        header = "id,cost,a0_00,a0_01,a0_10,a0_11,a1_00,a1_01,a1_10,a1_11"
        row = "w0,1.0,0.7,0.5,0.2,0.8,0.5,0.5,0.5,0.5"  # first row sums to 1.2
        path.write_text(header + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="line 2"):
            load_workers(path)

    def test_bad_second_matrix_names_its_line_and_matrix(self, tmp_path):
        path = tmp_path / "workers.csv"
        header = "id,cost,a0_00,a0_01,a0_10,a0_11,a1_00,a1_01,a1_10,a1_11"
        good = "w0,1.0,0.9,0.1,0.1,0.9,0.9,0.1,0.1,0.9"
        bad = "w1,1.0,0.9,0.1,0.1,0.9,0.9,0.1,0.2,0.9"  # a1 row y=1 sums to 1.1
        path.write_text(f"{header}\n{good}\n{bad}\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r"line 3: matrix a1_\*: .*sum to 1"):
            load_workers(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "workers.csv"
        path.write_text("id,cost,extra\nw0,1.0,2\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="header"):
            load_workers(path)

    def test_non_numeric_field_names_field(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("id,z,y\nt0,nope,1\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="field z"):
            load_tasks(path)

    @pytest.mark.parametrize("row, field, value", [
        ("t1,2,1", "z", 2), ("t1,0,256", "y", 256), ("t1,-1,0", "z", -1),
    ])
    def test_task_field_outside_0_1_names_file_line_and_field(self, tmp_path, row, field, value):
        path = tmp_path / "tasks.csv"
        path.write_text(f"id,z,y\nt0,0,1\n{row}\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_tasks(path)
        assert str(err.value) == f"{path} line 3: field {field} must be 0 or 1, got {value}"

    def test_unix_newlines(self, tmp_path):
        path = tmp_path / "tasks.csv"
        save_tasks(generate_task_pool(TaskPoolSpec(2, 2, 0.5, 0.5, seed=1)), path)
        assert b"\r" not in path.read_bytes()


# loader, header, one valid data row
LOADERS = {
    "workers": (load_workers, "id,cost,a0_00,a0_01,a0_10,a0_11,a1_00,a1_01,a1_10,a1_11",
                "w0,1.0,0.9,0.1,0.1,0.9,0.9,0.1,0.1,0.9"),
    "tasks": (load_tasks, "id,z,y", "t0,0,1"),
    "tallies": (load_gold_tallies,
                "id,att_z0_y0,cor_z0_y0,att_z0_y1,cor_z0_y1,att_z1_y0,cor_z1_y0,att_z1_y1,cor_z1_y1",
                "w0,5,5,5,3,5,0,5,4"),
    "responses": (load_responses, "worker_id,task_id,answer,z,y", "w0,t0,1,0,1"),
}


class TestLoaderMemory:
    def test_loading_800_workers_holds_one_small_block_of_rows(self, tmp_path):
        path = tmp_path / "workers.csv"
        save_workers(generate_population(default_population_spec(n_workers=800)), path)
        # 740 KB traced with 512-row blocks, 342 KB with 128-row blocks (numpy 2.4)
        assert traced_peak(load_workers, path) < 550 * 1024


class TestMalformedFiles:
    """Every loader turns csv and decoding failures into FileFormatError
    naming the file and the line."""

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_oversized_field(self, tmp_path, kind):
        loader, header, row = LOADERS[kind]
        path = tmp_path / f"{kind}.csv"
        huge = "x" * 200_000 + row[row.index(","):]
        path.write_text(f"{header}\n{row}\n{huge}\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r"line 3: field larger than field limit") as err:
            loader(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_undecodable_byte(self, tmp_path, kind):
        loader, header, row = LOADERS[kind]
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(f"{header}\n{row}\n".encode() + b"\xff" + row.encode() + b"\n")
        with pytest.raises(FileFormatError, match=r"line 3: not UTF-8") as err:
            loader(path)
        assert str(path) in str(err.value)

    def test_undecodable_byte_past_the_first_read_chunk(self, tmp_path):
        path = tmp_path / "tasks.csv"
        rows = [f"t{i},{i % 2},1" for i in range(3000)]
        rows[2500] = "t\udcff," + rows[2500].split(",", 1)[1]
        text = "id,z,y\n" + "\n".join(rows) + "\n"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(FileFormatError, match=r"line 2502: not UTF-8"):
            load_tasks(path)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_undecodable_header(self, tmp_path, kind):
        loader, header, row = LOADERS[kind]
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(header.encode() + b"\xff\n" + row.encode() + b"\n")
        with pytest.raises(FileFormatError) as err:
            loader(path)
        assert str(err.value) == f"{path} line 1: not UTF-8 text: invalid start byte"

    def test_empty_file_names_line_1(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_bytes(b"")
        with pytest.raises(FileFormatError) as err:
            load_tasks(path)
        assert str(err.value) == f"{path} line 1: empty file, expected header id,z,y"

    @pytest.mark.parametrize("line_5", [
        b"w0,t3,1,0", b"w0,t3," + b"1" * 200_000 + b",0,1", b"w0,t3,\xff,0,1",
    ], ids=["4-field row", "oversized field", "undecodable byte"])
    def test_the_first_bad_row_in_file_order_is_reported(self, tmp_path, line_5):
        path = tmp_path / "responses.csv"
        path.write_bytes(b"worker_id,task_id,answer,z,y\nw0,t0,1,0,1\nw0,t1,2,0,1\nw0,t2,1,0,1\n" + line_5 + b"\n")
        with pytest.raises(FileFormatError) as err:
            load_responses(path)
        assert str(err.value) == f"{path} line 3: field answer must be 0 or 1, got 2"


WORKER_FIELDS = "1.0,0.9,0.1,0.2,0.8,0.7,0.3,0.4,0.6"  # cost, then a0_00 .. a1_11


class TestWorkerMatrixMessages:
    """The worker-file matrix rule, byte for byte: entries in [0, 1] first,
    then each row summing to 1 within 1e-12, a0 before a1.  The bad row is
    the last but one of a one-block file, or of a file whose second block
    (past datagen._BLOCK_ROWS rows) holds it."""

    @staticmethod
    def _file(tmp_path, n_rows, fields):
        rows = [f"w{i},{WORKER_FIELDS}" for i in range(n_rows)]
        rows[-2] = f"w{n_rows - 2},{fields}"
        path = tmp_path / "workers.csv"
        path.write_text(LOADERS["workers"][1] + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        return path, n_rows  # the bad row's line: the header is line 1

    @pytest.mark.parametrize("n_rows", [3, 600], ids=["one block", "second block"])
    @pytest.mark.parametrize("fields, message", [
        ("1.0,1.5,0.0,0.2,0.8,0.7,0.3,0.4,0.6",
         "matrix a0_*: accuracy matrix entries must lie in [0, 1]: [[1.5, 0.0], [0.2, 0.8]]"),
        ("1.0,0.9,0.1,0.2,0.8,0.7,0.3,-0.1,0.6",
         "matrix a1_*: accuracy matrix entries must lie in [0, 1]: [[0.7, 0.3], [-0.1, 0.6]]"),
        ("1.0,0.9,0.1,nan,0.8,0.7,0.3,0.4,0.6",
         "matrix a0_*: accuracy matrix entries must lie in [0, 1]: [[0.9, 0.1], [nan, 0.8]]"),
        ("1.0,0.9,0.1,0.2,0.8,0.7,0.3,0.4,inf",
         "matrix a1_*: accuracy matrix entries must lie in [0, 1]: [[0.7, 0.3], [0.4, inf]]"),
        ("1.0,0.9,0.1,0.2,0.8,0.7,0.300000000002,0.4,0.6",
         "matrix a1_*: accuracy matrix rows must sum to 1, got sums [1.000000000002, 1.0]"),
    ], ids=["entry 1.5", "entry -0.1", "entry nan", "entry inf", "row sum off by 2e-12"])
    def test_bad_matrix_message(self, tmp_path, n_rows, fields, message):
        path, lineno = self._file(tmp_path, n_rows, fields)
        with pytest.raises(FileFormatError) as err:
            load_workers(path)
        assert str(err.value) == f"{path} line {lineno}: {message}"

    @pytest.mark.parametrize("n_rows", [3, 600], ids=["one block", "second block"])
    def test_row_sum_off_by_5e_13_is_accepted(self, tmp_path, n_rows):
        path, _ = self._file(tmp_path, n_rows, "1.0,0.9,0.1000000000005,0.2,0.8,0.7,0.3,0.4,0.6")
        population = load_workers(path)
        assert len(population) == n_rows
        assert population.correct[n_rows - 2].tolist() == [[0.9, 0.8], [0.7, 0.6]]


class TestRepeatedIds:
    @pytest.mark.parametrize("kind", ["workers", "tallies"])
    def test_repeated_id_names_both_lines(self, tmp_path, kind):
        loader, header, row = LOADERS[kind]
        other = row.replace("w0", "w1", 1)
        path = tmp_path / f"{kind}.csv"
        path.write_text(f"{header}\n{row}\n{other}\n{row}\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            loader(path)
        assert str(err.value) == f"{path} line 4: repeated id 'w0', first on line 2"

    @pytest.mark.parametrize("kind", ["workers", "tallies"])
    def test_an_earlier_bad_row_is_reported_before_a_repeat(self, tmp_path, kind):
        loader, header, row = LOADERS[kind]
        bad = row.replace("w0", "w1", 1).replace(",5,", ",x,", 1).replace(",0.9,", ",x,", 1)
        path = tmp_path / f"{kind}.csv"
        path.write_text(f"{header}\n{row}\n{bad}\n{row}\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r"line 3: field \S+ is not a"):
            loader(path)

    def test_task_ids_may_repeat(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("id,z,y\nt0,0,1\nt0,1,0\n", encoding="utf-8")
        assert load_tasks(path).ids == ("t0", "t0")


class TestLoadResponses:
    def test_aggregates_per_worker_tallies(self, tmp_path):
        from crowdfdb import load_responses

        path = tmp_path / "responses.csv"
        path.write_text(
            "worker_id,task_id,answer,z,y\n"
            "w0,t0,1,0,1\n"  # correct on type (0,1)
            "w0,t1,0,0,1\n"  # wrong on type (0,1)
            "w0,t2,0,1,0\n"  # correct on type (1,0)
            "w1,t0,1,0,1\n",
            encoding="utf-8",
        )
        loaded = dict(load_responses(path))
        assert loaded["w0"].get(0, 1) == (2, 1)
        assert loaded["w0"].get(1, 0) == (1, 1)
        assert loaded["w0"].get(0, 0) == (0, 0)
        assert loaded["w1"].get(0, 1) == (1, 1)
        assert [wid for wid, _ in load_responses(path)] == ["w0", "w1"]

    def test_bits_that_int_accepts_are_read_as_bits(self, tmp_path):
        responses = tmp_path / "responses.csv"
        responses.write_text("worker_id,task_id,answer,z,y\nw0,t0, 1,+1,01\nw0,t1,0,0,0\n", encoding="utf-8")
        assert list(load_responses(responses)) == [
            ("w0", GoldResponseTally(attempted=(1, 0, 0, 1), correct=(1, 0, 0, 1)))
        ]
        tasks = tmp_path / "tasks.csv"
        tasks.write_text("id,z,y\nt0, 1,+0\nt1,1,1\n", encoding="utf-8")
        pool = load_tasks(tasks)
        assert pool.z.tolist() == [1, 1] and pool.y.tolist() == [0, 1]

    def test_rejects_non_binary_fields(self, tmp_path):
        from crowdfdb import load_responses

        path = tmp_path / "responses.csv"
        path.write_text("worker_id,task_id,answer,z,y\nw0,t0,2,0,1\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="answer"):
            load_responses(path)
