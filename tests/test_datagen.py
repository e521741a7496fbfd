import numpy as np
import pytest

from crowdfdb import (
    AccuracyLinkedCost,
    AccuracyMatrix,
    ClusterBiasModel,
    FairnessKind,
    FileFormatError,
    GoldResponseTally,
    IntervalBiasModel,
    Policy,
    PopulationSpec,
    Priors,
    TaskPoolSpec,
    UniformCost,
    compose_policy_accuracy,
    default_population_spec,
    expected_accuracy,
    fairness_gap,
    generate_population,
    generate_task_pool,
    load_gold_tallies,
    load_responses,
    load_tasks,
    load_workers,
    make_binding_fairness_instance,
    random_policy,
    save_gold_tallies,
    save_tasks,
    save_workers,
)
from crowdfdb.model import label_one_probabilities

from oracles import reference_population


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
            assert w.matrix(0).fpr - w.matrix(1).fpr == pytest.approx(0.2, abs=1e-12)
            assert w.matrix(0).fnr - w.matrix(1).fnr == pytest.approx(-0.1, abs=1e-12)

    def test_generators_and_array_helpers_build_no_matrix(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("an AccuracyMatrix was constructed")

        monkeypatch.setattr(AccuracyMatrix, "__post_init__", forbidden)
        workers = (
            generate_population(default_population_spec(n_workers=20))
            + generate_population(interval_spec(20, 0.3, 0.9, AccuracyLinkedCost(1.0, 3.0)))
            + make_binding_fairness_instance(0.3, 3, seed=1)
        )
        assert label_one_probabilities(workers).shape == (len(workers), 2, 2)
        expected_accuracy(random_policy(len(workers)), workers, Priors(0.5, 0.4, 0.6))

    def test_generated_profiles_always_valid(self):
        # validity is enforced by the WorkerProfile constructor;
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
        stacked = [np.stack([w.correct for w in pool]).tobytes() for pool in (got, reference)]
        assert stacked[0] == stacked[1]
        save_workers(got, tmp_path / "got.csv")
        save_workers(reference, tmp_path / "reference.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_clipping_reaches_both_ends(self):
        spec = PopulationSpec(300, BIAS_MODELS["clusters-clipping"], UniformCost(1.0), seed=4482)
        correct = np.stack([w.correct for w in generate_population(spec)])
        assert (correct == 0.0).any() and (correct == 1.0).any()


class TestGenerateTaskPool:
    def test_default_counts(self):
        spec = TaskPoolSpec(n_z0=2454, n_z1=3696, base_rate_z0=0.3936, base_rate_z1=0.5143, seed=5)
        tasks = generate_task_pool(spec)
        assert len(tasks) == 6150
        assert sum(1 for t in tasks if t.z == 1) == 3696
        assert sum(1 for t in tasks if t.z == 0) == 2454

    def test_zero_base_rate(self):
        spec = TaskPoolSpec(n_z0=500, n_z1=0, base_rate_z0=0.0, base_rate_z1=0.5, seed=5)
        tasks = generate_task_pool(spec)
        assert all(t.y == 0 for t in tasks)

    def test_base_rate_tolerance(self):
        spec = TaskPoolSpec(n_z0=0, n_z1=3696, base_rate_z0=0.5, base_rate_z1=0.5143, seed=6)
        tasks = generate_task_pool(spec)
        assert np.mean([t.y for t in tasks]) == pytest.approx(0.5143, abs=0.025)

    def test_shuffled_and_deterministic(self):
        spec = TaskPoolSpec(n_z0=50, n_z1=50, base_rate_z0=0.3, base_rate_z1=0.7, seed=9)
        a = generate_task_pool(spec)
        b = generate_task_pool(spec)
        assert a == b
        assert any(t.z == 1 for t in a[:50])  # groups interleaved, not in blocks


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
        (w,) = load_workers(path)
        assert w.correct.tolist() == [[0.9, 0.8], [0.7, 0.6]]
        assert label_one_probabilities([w])[0, 0, 0] == 1.0 - 0.9

    def test_tasks_round_trip(self, tmp_path):
        spec = TaskPoolSpec(n_z0=2454, n_z1=3696, base_rate_z0=0.3936, base_rate_z1=0.5143, seed=5)
        tasks = generate_task_pool(spec)
        path = tmp_path / "tasks.csv"
        save_tasks(tasks, path)
        assert load_tasks(path) == tasks

    def test_tallies_round_trip(self, tmp_path):
        tallies = [
            ("w0", GoldResponseTally(attempted=(5, 5, 5, 5), correct=(5, 3, 0, 4))),
            ("w1", GoldResponseTally(attempted=(9, 9, 9, 9), correct=(1, 2, 3, 4))),
        ]
        path = tmp_path / "gold.csv"
        save_gold_tallies(tallies, path)
        assert load_gold_tallies(path) == tallies

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

    def test_rejects_non_binary_fields(self, tmp_path):
        from crowdfdb import load_responses

        path = tmp_path / "responses.csv"
        path.write_text("worker_id,task_id,answer,z,y\nw0,t0,2,0,1\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="answer"):
            load_responses(path)
