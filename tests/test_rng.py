import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdfdb import (
    ConstraintSet,
    ExperimentConfig,
    FairnessKind,
    GoldPhaseConfig,
    SweepSpec,
    TaskPoolSpec,
    default_population_spec,
    default_task_pool_spec,
    generate_population,
    generate_task_pool,
    run_experiment,
    run_gold_phase,
)
from crowdfdb.rng import _CHUNK_WORDS, mix, random_rows, random_words, stream, stream_keys
from fixtures import traced_peak

# a uint64 product or shift that overflowed into a warning would fail these tests
pytestmark = pytest.mark.filterwarnings("error")


def per_stream(seed, tag, n, k):
    return np.stack([stream(seed, tag, i).random(k) for i in range(n)])


def rows(seed, tag, n, k):
    """random_rows over the family (seed, tag, i), i < n."""
    return random_rows(stream_keys(seed, tag, np.arange(n)), k)


SEEDS = [0, 2**64 - 1, -12345, np.int64(7), mix(1003, "rep", 4)]


class TestRandomRowsMatchesStreams:
    @pytest.mark.parametrize("tag", ["gold", "population", "ünïcødé-€"])
    @pytest.mark.parametrize("seed", SEEDS, ids=["zero", "max", "negative", "np-int64", "mixed"])
    def test_edge_cases_bitwise(self, seed, tag):
        for n in (1, 2, 257, 600):  # the index crosses a byte boundary at 256
            for k in (1, 3, 4, 5, 160):  # partial, whole and many Philox blocks per row
                got = rows(seed, tag, n, k)
                assert got.shape == (n, k)
                assert got.tobytes() == per_stream(seed, tag, n, k).tobytes(), (n, k)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(-(2**64), 2**65),
        tag=st.text(max_size=8),
        n=st.integers(1, 40),
        k=st.integers(1, 24),
    )
    def test_random_draws_bitwise(self, seed, tag, n, k):
        assert rows(seed, tag, n, k).tobytes() == per_stream(seed, tag, n, k).tobytes()

    def test_empty_shapes(self):
        assert rows(3, "gold", 0, 5).shape == (0, 5)
        assert rows(3, "gold", 4, 0).shape == (4, 0)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError, match="k >= 0"):
            rows(3, "gold", 4, -1)

    def test_keys_are_mix_of_each_index(self):
        indices = [0, 1, 255, 256, 2**40 + 3]
        assert stream_keys(-9, "collect", indices).tolist() == [mix(-9, "collect", i) for i in indices]


def rows_per_chunk(k):
    """Rows in a full chunk of random_words for rows of k draws."""
    return max(1, _CHUNK_WORDS // (4 * -(-k // 4)))


class TestChunkEdges:
    """Every size here follows _CHUNK_WORDS, so the edges move with it."""

    @pytest.mark.parametrize("k", [80, 81, 83])  # whole blocks; one and three words past a block
    def test_rows_on_either_side_of_a_chunk_edge(self, k):
        step = rows_per_chunk(k)
        for n in (step - 1, step, step + 1, 2 * step + 1):
            starts = [start for start, _ in random_words(stream_keys(99, "gold", np.arange(n)), k)]
            assert starts == list(range(0, n, step))
            assert rows(99, "gold", n, k).tobytes() == per_stream(99, "gold", n, k).tobytes(), n

    def test_row_longer_than_a_chunk(self):
        k = _CHUNK_WORDS + 5  # one row per chunk, and a partial last block
        keys = stream_keys(-4, "gold", np.arange(3))
        chunks = [(start, words.shape) for start, words in random_words(keys, k)]
        assert chunks == [(0, (1, k)), (1, (1, k)), (2, (1, k))]
        assert rows(-4, "gold", 3, k).tobytes() == per_stream(-4, "gold", 3, k).tobytes()

    @pytest.mark.parametrize("start", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_words_are_full_philox_words(self, k, start):
        n = rows_per_chunk(start % 4 + k) + 1  # the last row opens a second chunk
        keys = stream_keys(8, "x", np.arange(n))
        chunks = list(random_words(keys, k, start))
        assert len(chunks) == 2
        got = np.concatenate([words.copy() for _, words in chunks])
        raw = np.stack([np.random.Philox(key=int(key)).random_raw(start + k)[start:] for key in keys])
        assert got.tobytes() == raw.tobytes()

    @pytest.mark.parametrize("start", [0, 3, 6150, 2**33 + 1])
    def test_a_long_row_from_any_start_word(self, start):
        k = 2 * _CHUNK_WORDS + 7  # drawn as three column chunks
        key = mix(1003, "collect", 2)
        got = random_rows(np.array([key], dtype=np.uint64), k, start)
        bits = np.random.Philox(key=key).advance(start // 4)  # advance counts blocks of 4 words
        raw = bits.random_raw(start % 4 + k)[start % 4:]
        assert got.tobytes() == ((raw >> np.uint64(11)) * 2.0**-53).reshape(1, k).tobytes()


def task_key(seed):
    return np.array([mix(seed, "tasks")], dtype=np.uint64)


def split_spec(seed, n):
    return TaskPoolSpec(n_z0=n // 3, n_z1=n - n // 3, base_rate_z0=0.4, base_rate_z1=0.5, seed=seed)


def assert_stream_order(seed, n):
    """The reference: the task stream's first n draws label the group-sorted
    tasks, and a stable argsort of its next n draws orders them."""
    spec = split_spec(seed, n)
    draws = stream(seed, "tasks").random(2 * n)
    zs = np.repeat([0, 1], [spec.n_z0, spec.n_z1])
    ys = draws[:n] < np.where(zs == 1, spec.base_rate_z1, spec.base_rate_z0)
    order = np.argsort(draws[n:], kind="stable")
    pool = generate_task_pool(spec)
    assert pool.z.tolist() == zs[order].tolist()
    assert pool.y.tolist() == ys[order].tolist()


class TestTaskShuffle:
    # the keys start at word n: n mod 4 sets their offset in a Philox block,
    # and past _CHUNK_WORDS random_rows draws them in column chunks
    @pytest.mark.parametrize(
        "n",
        [0, 1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 4095, 4096, 4097, 6150]
        + [_CHUNK_WORDS - 1, _CHUNK_WORDS, _CHUNK_WORDS + 1, 100001],
    )
    def test_sorts_the_streams_next_n_draws(self, n):
        assert_stream_order(9161, n)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(-(2**63), 2**64 - 1), n=st.integers(0, 3000))
    def test_sorts_the_streams_next_n_draws_for_any_seed(self, seed, n):
        assert_stream_order(seed, n)

    @pytest.mark.parametrize("ties", ["all equal", "descending pairs"])
    def test_tied_keys_keep_their_index_order(self, monkeypatch, ties):
        # labels alternate 1, 0 and each tie holds one of each, so a tie put
        # out of index order shows in y; on numpy 2.4 an unstable sort keeps
        # all-equal keys in order, but reorders about half the pairs
        n = 1000
        pairs = np.arange(n).reshape(-1, 2)
        expected = {"all equal": pairs.ravel(), "descending pairs": pairs[::-1].ravel()}[ties]

        def drawn(keys, k, start=0):
            if start == 0:
                return np.tile([0.0, 0.99], k // 2).reshape(1, k)
            return np.zeros((1, k)) if ties == "all equal" else ((k - 1 - np.arange(k)) // 2 / k).reshape(1, k)

        monkeypatch.setattr("crowdfdb.datagen.random_rows", drawn)
        pool = generate_task_pool(TaskPoolSpec(n_z0=n // 2, n_z1=n // 2, base_rate_z0=0.5, base_rate_z1=0.5, seed=5))
        assert pool.z.tolist() == (expected >= n // 2).tolist()
        assert pool.y.tolist() == (expected % 2 == 0).tolist()

    def test_a_task_pool_shuffle_holds_no_list_of_draws(self):
        # 729 KB traced when a Fisher-Yates replay kept its 32-bit draws as a list of
        # Python ints, 379 KB as a uint32 array, 257 KB for the sort of n doubles (numpy 2.4)
        def shuffle(key, n):
            return np.argsort(random_rows(key, n, start=n)[0], kind="stable")

        assert traced_peak(shuffle, task_key(9161), 6150) < 550 * 1024


class TestNoStreamPerWorker:
    @pytest.fixture
    def no_streams(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a numpy Generator or Philox was built")

        monkeypatch.setattr("crowdfdb.estimation.stream", forbidden, raising=False)
        monkeypatch.setattr("crowdfdb.datagen.stream", forbidden, raising=False)
        monkeypatch.setattr("crowdfdb.simulator.stream", forbidden, raising=False)
        monkeypatch.setattr("crowdfdb.rng.stream", forbidden)
        monkeypatch.setattr(np.random, "Philox", forbidden)
        monkeypatch.setattr(np.random, "Generator", forbidden)

    def test_gold_phase_and_population(self, no_streams):
        workers = generate_population(default_population_spec(n_workers=50))
        assert run_gold_phase(workers, GoldPhaseConfig(10), seed=5).correct.shape == (50, 2, 2)

    def test_task_pool(self, no_streams):
        assert len(generate_task_pool(default_task_pool_spec())) == 6150

    @pytest.mark.parametrize("method", ["CrowdFDB", "Random", "Greedy"])
    def test_experiment(self, no_streams, method):
        cfg = ExperimentConfig(
            method=method,
            gold=GoldPhaseConfig(5),
            constraints=ConstraintSet(alpha=0.2, beta=0.1, budget=2.0, fairness_kind=FairnessKind.ERROR_RATE_PARITY),
            repetitions=2,
            seed=3,
            workers=default_population_spec(n_workers=30),
            tasks=TaskPoolSpec(n_z0=40, n_z1=60, base_rate_z0=0.4, base_rate_z1=0.5, seed=4),
            sweep=SweepSpec("gold", (5, 10)),
        )
        points = run_experiment(cfg)
        assert [len(point.reports) for point in points] == [2, 2]
