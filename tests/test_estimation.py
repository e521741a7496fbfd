import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdfdb import (
    EstimationError,
    GoldPhaseConfig,
    GoldResponseTally,
    GoldTallies,
    WorkerProfile,
    default_population_spec,
    estimate_matrices,
    estimate_tallies,
    generate_population,
    mix,
    run_gold_phase,
    simulate_gold_tally,
    stream,
)
from crowdfdb.estimation import word_limits
from crowdfdb.rng import _CHUNK_WORDS
from fixtures import as_population


def make_worker(d00, d01, d10, d11, wid="w0"):
    return WorkerProfile(id=wid, correct=((d00, d01), (d10, d11)), cost=1.0)


class TestGoldPhaseConfig:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            GoldPhaseConfig(n_gold_per_type=0)

    @pytest.mark.parametrize("count", [2.5, 3.0, True, False, np.True_, "3", None])
    def test_rejects_non_integers(self, count):
        with pytest.raises(ValueError, match="n_gold_per_type must be an integer"):
            GoldPhaseConfig(count)

    def test_accepts_numpy_integers(self):
        assert GoldPhaseConfig(np.int64(3)).n_gold_per_type == 3


# (attempted, correct) pairs that are not four integer counts per type
MALFORMED_TALLIES = {
    "five entries": ((5, 5, 5, 5, 5), (5, 5, 5, 5, 9)),
    "three entries": ((5, 5, 5), (5, 5, 5)),
    "float count": ((5.5, 5, 5, 5), (1, 1, 1, 1)),
    "bool count": ((5, 5, 5, 5), (True, 1, 1, 1)),
}


class TestGoldResponseTally:
    def test_rejects_correct_above_attempted(self):
        with pytest.raises(ValueError, match="correct"):
            GoldResponseTally(attempted=(5, 5, 5, 5), correct=(6, 0, 0, 0))

    @pytest.mark.parametrize("attempted, correct", MALFORMED_TALLIES.values(), ids=MALFORMED_TALLIES)
    def test_rejects_anything_but_four_integer_counts(self, attempted, correct):
        with pytest.raises(ValueError, match="needs 4 integer counts"):
            GoldResponseTally(attempted=attempted, correct=correct)

    def test_accepts_numpy_integers(self):
        tally = GoldResponseTally(attempted=tuple(np.full(4, 5)), correct=(np.int32(1), 2, 3, 4))
        assert tally.get(0, 0) == (5, 1)


def one_tally(attempted, correct, worker_id="w0"):
    return GoldTallies((worker_id,), np.reshape(attempted, (1, 2, 2)), np.reshape(correct, (1, 2, 2)))


class TestGoldTallies:
    def test_holds_read_only_int64_copies(self):
        attempted, correct = np.full((2, 2, 2), 5, dtype=np.int32), np.arange(8).reshape(2, 2, 2) % 6
        tallies = GoldTallies(["a", "b"], attempted, correct)
        attempted[0, 0, 0] = 0
        assert tallies.ids == ("a", "b") and len(tallies) == 2
        assert tallies.attempted.dtype == tallies.correct.dtype == np.int64
        assert tallies.attempted[0, 0, 0] == 5
        assert not tallies.attempted.flags.writeable and not tallies.correct.flags.writeable

    def test_holds_counts_nothing_can_write_without_copying_them(self):
        counts = np.arange(16).reshape(2, 8) % 4
        counts.flags.writeable = False
        tallies = GoldTallies(("a", "b"), counts[:, 0::2].reshape(2, 2, 2) + 4, counts[:, 1::2].reshape(2, 2, 2))
        assert np.shares_memory(tallies.correct, counts)  # a view of a read-only array that owns its memory
        writable = np.full((2, 2, 2), 5)
        view = writable.view()
        view.flags.writeable = False
        tallies = GoldTallies(("a", "b"), view, view)
        writable[0, 0, 0] = 0
        assert tallies.attempted[0, 0, 0] == 5 and not np.shares_memory(tallies.attempted, writable)

    def test_iterates_as_per_worker_tallies(self):
        tallies = GoldTallies(("a", "b"), np.full((2, 2, 2), 9), np.arange(8).reshape(2, 2, 2))
        assert dict(tallies) == {
            "a": GoldResponseTally(attempted=(9, 9, 9, 9), correct=(0, 1, 2, 3)),
            "b": GoldResponseTally(attempted=(9, 9, 9, 9), correct=(4, 5, 6, 7)),
        }

    @pytest.mark.parametrize("attempted, correct, got", [
        (np.full((1, 5), 5), np.full((1, 5), 5), "attempted of shape (1, 2, 2) [i, z, y], got int64 of shape (1, 5)"),
        (np.full((1, 3), 5), np.full((1, 3), 5), "attempted of shape (1, 2, 2) [i, z, y], got int64 of shape (1, 3)"),
        (np.full((1, 2, 2), 5.5), np.ones((1, 2, 2), dtype=int), "attempted of shape (1, 2, 2) [i, z, y], got float64"),
        (np.full((1, 2, 2), 5), np.ones((1, 2, 2), dtype=bool), "correct of shape (1, 2, 2) [i, z, y], got bool"),
    ], ids=MALFORMED_TALLIES)
    def test_rejects_anything_but_four_integer_counts(self, attempted, correct, got):
        with pytest.raises(ValueError) as err:
            GoldTallies(("w0",), attempted, correct)
        assert str(err.value).startswith(f"1 gold tallies need integer {got}")

    def test_rejects_no_workers(self):
        with pytest.raises(ValueError, match="gold tallies need at least one worker"):
            GoldTallies((), np.zeros((0, 2, 2), dtype=int), np.zeros((0, 2, 2), dtype=int))

    def test_rejects_counts_of_another_length(self):
        with pytest.raises(ValueError, match=r"2 gold tallies need integer attempted of shape \(2, 2, 2\)"):
            GoldTallies(("a", "b"), np.full((3, 2, 2), 5), np.full((3, 2, 2), 5))

    @pytest.mark.parametrize("attempted, correct, message", [
        ((5, 5, 5, 5), (5, 5, 6, 5), "tally for type (z=1, y=0) needs 0 <= correct <= attempted, got correct=6 attempted=5"),
        ((5, -1, 5, 5), (5, 0, 5, 5), "tally for type (z=0, y=1) needs 0 <= correct <= attempted, got correct=0 attempted=-1"),
        ((5, 5, 5, 5), (5, 5, 5, -2), "tally for type (z=1, y=1) needs 0 <= correct <= attempted, got correct=-2 attempted=5"),
    ])
    def test_rejects_counts_as_the_per_worker_tally_does(self, attempted, correct, message):
        with pytest.raises(ValueError) as reference:
            GoldResponseTally(attempted=attempted, correct=correct)
        with pytest.raises(ValueError) as got:
            GoldTallies(("ok", "bad"), np.array([[5, 5, 5, 5], attempted]).reshape(2, 2, 2),
                        np.array([[0, 0, 0, 0], correct]).reshape(2, 2, 2))
        assert str(got.value) == str(reference.value) == message

    def test_rejects_a_repeated_id(self):
        with pytest.raises(ValueError) as err:
            GoldTallies(("w0", "w1", "w0"), np.full((3, 2, 2), 5), np.full((3, 2, 2), 5))
        assert str(err.value) == "gold tallies repeat worker id 'w0'"


class TestEstimateMatrices:
    def test_all_correct_gives_identity(self):
        # correctness 1 for every type: both groups' accuracy matrices are the identity
        tally = GoldResponseTally(attempted=(7, 7, 7, 7), correct=(7, 7, 7, 7))
        est = estimate_matrices(tally)
        assert est.shape == (2, 2) and est.dtype == float
        assert est.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_fifteen_of_twenty(self):
        # type (z=1, y=1): k/N
        tally = GoldResponseTally(attempted=(20, 20, 20, 20), correct=(20, 20, 20, 15))
        assert estimate_matrices(tally)[1, 1] == 0.75

    def test_zero_correct_boundary(self):
        tally = GoldResponseTally(attempted=(20, 20, 20, 20), correct=(0, 20, 20, 20))
        assert estimate_matrices(tally).tolist() == [[0.0, 1.0], [1.0, 1.0]]

    def test_zero_attempted_is_error(self):
        tally = GoldResponseTally(attempted=(0, 5, 5, 5), correct=(0, 5, 5, 5))
        with pytest.raises(EstimationError):
            estimate_matrices(tally)

    def test_smoothing_add_one(self):
        tally = GoldResponseTally(attempted=(20, 20, 20, 20), correct=(20, 0, 15, 10))
        assert estimate_matrices(tally, smoothing=True).tolist() == [[21 / 22, 1 / 22], [16 / 22, 11 / 22]]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_estimates_always_valid(self, data):
        attempted = tuple(data.draw(st.integers(min_value=1, max_value=50)) for _ in range(4))
        correct = tuple(
            data.draw(st.integers(min_value=0, max_value=a)) for a in attempted
        )
        smoothing = data.draw(st.booleans())
        est = estimate_matrices(
            GoldResponseTally(attempted=attempted, correct=correct), smoothing=smoothing
        )
        assert np.all(est >= 0.0) and np.all(est <= 1.0)
        tallies = GoldTallies(("w",), np.reshape(attempted, (1, 2, 2)), np.reshape(correct, (1, 2, 2)))
        assert est.tobytes() == estimate_tallies(tallies, smoothing)[0].tobytes()


def mixed_workers(count=25, seed=31):
    """Random workers plus a perfect and an all-wrong one at fixed places."""
    rng = np.random.default_rng(seed)
    workers = [make_worker(*rng.uniform(0.0, 1.0, 4), wid=f"w{i}") for i in range(count)]
    workers[0] = make_worker(1.0, 1.0, 1.0, 1.0, wid="perfect")
    workers[7] = make_worker(0.0, 0.0, 0.0, 0.0, wid="all-wrong")
    workers[12] = make_worker(1.0, 0.0, 0.5, 1.0, wid="mixed-extremes")
    return workers


def gold_estimates(population, cfg, seed):
    """The estimates of a simulated gold phase, by the one estimate rule."""
    return estimate_tallies(run_gold_phase(population, cfg, seed), smoothing=cfg.smoothing)


class TestArrayMatchesPerWorkerReference:
    @pytest.mark.parametrize("n_gold", [1, 5, 40])
    def test_gold_phase_counts_exact(self, n_gold):
        workers = mixed_workers()
        got = run_gold_phase(as_population(workers), GoldPhaseConfig(n_gold), seed=2024)
        assert got.ids == tuple(w.id for w in workers)
        for i, w in enumerate(workers):
            tally = simulate_gold_tally(w, n_gold, stream(2024, "gold", i))
            assert got.attempted[i].ravel().tolist() == list(tally.attempted) == [n_gold] * 4
            assert got.correct[i].ravel().tolist() == list(tally.correct)

    @pytest.mark.parametrize("smoothing", [False, True])
    @pytest.mark.parametrize("n_gold", [1, 5, 40])
    def test_gold_phase_bitwise(self, n_gold, smoothing):
        workers = mixed_workers()
        got = gold_estimates(as_population(workers), GoldPhaseConfig(n_gold, smoothing=smoothing), seed=2024)
        reference = np.array(
            [
                estimate_matrices(simulate_gold_tally(w, n_gold, stream(2024, "gold", i)), smoothing)
                for i, w in enumerate(workers)
            ]
        )
        assert got.shape == (25, 2, 2)
        assert got.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("smoothing", [False, True])
    def test_tallies_bitwise(self, smoothing):
        rng = np.random.default_rng(5)
        attempted = rng.integers(1, 60, (25, 2, 2))
        tallies = GoldTallies(tuple(f"w{i}" for i in range(25)), attempted, rng.integers(0, attempted + 1))
        got = estimate_tallies(tallies, smoothing=smoothing)
        reference = np.array([estimate_matrices(t, smoothing) for _, t in tallies])
        assert got.tobytes() == reference.tobytes()

    def test_tallies_zero_attempts_raise_like_reference(self):
        attempted = np.array([[3, 3, 3, 3], [4, 4, 0, 4], [0, 0, 0, 0]]).reshape(3, 2, 2)
        correct = np.array([[1, 2, 3, 0], [1, 1, 0, 1], [0, 0, 0, 0]]).reshape(3, 2, 2)
        tallies = GoldTallies(("good", "bad", "worse"), attempted, correct)
        with pytest.raises(EstimationError) as reference:
            estimate_matrices(dict(tallies)["bad"])
        with pytest.raises(EstimationError) as got:
            estimate_tallies(tallies)
        assert str(got.value) == f"worker bad: {reference.value}" == (
            "worker bad: no gold tasks attempted for type (z=1, y=0)"
        )


class TestRunGoldPhase:
    def test_identity_worker_estimated_exactly(self):
        w = make_worker(1.0, 1.0, 1.0, 1.0)
        for n_gold in (1, 5, 50):
            for seed in (0, 9):
                tallies = run_gold_phase(as_population([w]), GoldPhaseConfig(n_gold), seed)
                assert tallies.correct.shape == (1, 2, 2)
                assert np.all(tallies.correct == tallies.attempted)

    def test_concentrates_at_large_gold_count(self):
        w = make_worker(0.7, 0.7, 0.7, 0.7)
        est = gold_estimates(as_population([w]), GoldPhaseConfig(10_000), seed=3)[0]
        assert np.all(np.abs(est - 0.7) < 0.02)

    def test_same_seed_bitwise_identical(self):
        workers = [make_worker(0.8, 0.6, 0.75, 0.9, wid=f"w{i}") for i in range(4)]
        a = run_gold_phase(as_population(workers), GoldPhaseConfig(13), seed=77)
        b = run_gold_phase(as_population(workers), GoldPhaseConfig(13), seed=77)
        assert a.correct.tobytes() == b.correct.tobytes()

    def test_per_worker_streams_are_order_independent(self):
        # recomputing one worker's phase in isolation matches the batch run
        workers = [make_worker(0.8, 0.6, 0.75, 0.9, wid=f"w{i}") for i in range(5)]
        batch = gold_estimates(as_population(workers), GoldPhaseConfig(21), seed=5)
        solo_tally = simulate_gold_tally(workers[3], 21, stream(5, "gold", 3))
        solo = estimate_matrices(solo_tally)
        assert batch[3].tobytes() == solo.tobytes()

    def test_empty_worker_list_rejected(self):
        with pytest.raises(ValueError, match="at least one worker"):
            run_gold_phase(as_population([]), GoldPhaseConfig(5), seed=1)

    def test_monotone_concentration_in_gold_count(self):
        w = make_worker(0.72, 0.64, 0.81, 0.7)
        true = {
            (0, 0): 0.72, (0, 1): 0.64, (1, 0): 0.81, (1, 1): 0.7,
        }
        reps = 200
        mean_err = {}
        for n_gold in (5, 10, 20, 40, 80):
            errs = []
            for r in range(reps):
                tally = simulate_gold_tally(w, n_gold, stream(mix(11, n_gold), "rep", r))
                est = estimate_matrices(tally)
                errs.append(max(abs(est[k] - true[k]) for k in true))
            mean_err[n_gold] = float(np.mean(errs))
        values = [mean_err[k] for k in (5, 10, 20, 40, 80)]
        for prev, nxt in zip(values, values[1:]):
            assert nxt <= prev + 0.005  # non-increasing up to statistical noise
        assert values[-1] < values[0]


def reference_gold_phase(workers, n_gold, seed, rows):
    """Per-worker reference correct counts (n, z, y) of the given rows (indices into workers)."""
    return np.array(
        [simulate_gold_tally(workers[i], n_gold, stream(seed, "gold", i)).correct for i in rows]
    ).reshape(-1, 2, 2)


def chunk_rows(n_gold):
    """Rows in a full chunk of the gold phase's draws."""
    return max(1, _CHUNK_WORDS // (4 * n_gold))


class TestGoldPhaseChunks:
    """Sizes follow _CHUNK_WORDS, so the chunk edges move with it."""

    @pytest.mark.parametrize("n_gold", [1, 5, 7])
    def test_workers_on_either_side_of_a_chunk_edge(self, n_gold):
        step = chunk_rows(n_gold)
        workers = mixed_workers(count=step + 1)
        reference = reference_gold_phase(workers, n_gold, 41, range(step + 1))
        for n in (step - 1, step, step + 1):
            got = run_gold_phase(as_population(workers[:n]), GoldPhaseConfig(n_gold), seed=41)
            assert np.array_equal(got.correct, reference[:n]), n

    def test_worker_longer_than_a_chunk(self):
        n_gold = _CHUNK_WORDS // 4 + 3  # each worker's draws overrun a whole chunk
        workers = mixed_workers()[:3]
        got = run_gold_phase(as_population(workers), GoldPhaseConfig(n_gold), seed=8)
        assert np.array_equal(got.correct, reference_gold_phase(workers, n_gold, 8, range(3)))

    def test_hundred_thousand_workers_on_sampled_rows(self):
        n, n_gold = 100_000, 20
        workers = generate_population(default_population_spec(n_workers=n))
        got = run_gold_phase(workers, GoldPhaseConfig(n_gold), seed=606)
        step = chunk_rows(n_gold)
        edges = [i for start in range(step, n, step) for i in (start - 1, start)]
        rows = [0, *edges, n - 1]
        assert np.array_equal(got.correct[rows], reference_gold_phase(workers, n_gold, 606, rows))

    def test_memory_stays_below_the_draws(self):
        n, n_gold = 50, 20_000
        workers = as_population(mixed_workers(count=n))
        tracemalloc.start()
        try:
            run_gold_phase(workers, GoldPhaseConfig(n_gold), seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 4 * n_gold * 8 / 4  # a quarter of the n x 4 * n_gold doubles


def ulp_neighbours(p):
    return [p, np.nextafter(p, 0.0), np.nextafter(p, 1.0)]


class TestWordLimits:
    SPECIAL = [0.0, 1.0, 2.0**-53, 5e-324, 2.0**-1060, 0.5, np.nextafter(1.0, 0.0)]

    @settings(max_examples=200, deadline=None)
    @given(
        word=st.integers(0, 2**64 - 1),
        p=st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0)),
    )
    def test_integer_comparison_matches_float(self, word, p):
        top = word >> 11
        at_the_word = top * 2.0**-53  # the draw itself, so u < p flips here
        candidates = ulp_neighbours(p) + ulp_neighbours(at_the_word) + ulp_neighbours((top + 1) * 2.0**-53)
        ps = np.clip(np.array(candidates), 0.0, 1.0)
        words = np.full(ps.shape, top, dtype=np.uint64)
        assert np.array_equal(words < word_limits(ps), words * 2.0**-53 < ps)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n_gold=st.integers(1, 9),
        pick=st.integers(0, 10**6),
        step=st.sampled_from([-1, 0, 1]),
    )
    def test_probability_on_a_draw(self, seed, n_gold, pick, step):
        # worker i's P(label 1 | z, 1) sits on (or one ulp beside) one of its own draws
        workers = []
        for i in range(3):
            u = stream(seed, "gold", i).random(4 * n_gold)
            p = [u[(1 + 2 * z) * n_gold + pick % n_gold] for z in (0, 1)]
            p = [float(np.nextafter(q, step)) if step else float(q) for q in p]
            workers.append(make_worker(0.5, p[0], 0.25, p[1], wid=f"w{i}"))
        got = run_gold_phase(as_population(workers), GoldPhaseConfig(n_gold), seed)
        assert np.array_equal(got.correct, reference_gold_phase(workers, n_gold, seed, range(3)))


# sha256 of the gold phase's estimates' bytes on the default 400-worker population
# at seed 20181, captured from the draw-array implementation; the estimates
# come from elementwise IEEE operations only, so they hold on every platform.
GOLD_DIGESTS = {
    (5, False): "ed3229560962888268464147494c6ef1adba47479476a946d92c605eabc33255",
    (10, False): "456507b7d97ad90e88455f074bfe1c19b4a5865e5012ea24e2bff7a6a2c6400d",
    (20, False): "b0391d1dd1ae942780aec99c93272a0453e86a99e0e6a225dfb864d40c7d5f14",
    (40, False): "992cb5c6db3e976b99cb66c190c5decaa99eeb51d4ceb81eb5f0a7834129a526",
    (20, True): "f8cf5beb195152c1c0ac91e0a0529abef1cc5f5c2a46327e6eeaa8e6d4324e92",
}


@pytest.mark.parametrize(("n_gold", "smoothing"), list(GOLD_DIGESTS))
def test_recipe_sized_estimates_digest(n_gold, smoothing):
    workers = generate_population(default_population_spec())
    estimates = gold_estimates(workers, GoldPhaseConfig(n_gold, smoothing=smoothing), seed=20181)
    assert hashlib.sha256(estimates.tobytes()).hexdigest() == GOLD_DIGESTS[(n_gold, smoothing)]
