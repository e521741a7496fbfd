import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdfdb import GoldPhaseConfig, default_population_spec, generate_population, run_gold_phase
from crowdfdb.rng import _CHUNK_WORDS, mix, random_rows, random_words, stream

# a uint64 product or shift that overflowed into a warning would fail these tests
pytestmark = pytest.mark.filterwarnings("error")


def per_stream(seed, tag, n, k):
    return np.stack([stream(seed, tag, i).random(k) for i in range(n)])


SEEDS = [0, 2**64 - 1, -12345, np.int64(7), mix(1003, "rep", 4)]


class TestRandomRowsMatchesStreams:
    @pytest.mark.parametrize("tag", ["gold", "population", "ünïcødé-€"])
    @pytest.mark.parametrize("seed", SEEDS, ids=["zero", "max", "negative", "np-int64", "mixed"])
    def test_edge_cases_bitwise(self, seed, tag):
        for n in (1, 2, 257, 600):  # the index crosses a byte boundary at 256
            for k in (1, 3, 4, 5, 160):  # partial, whole and many Philox blocks per row
                got = random_rows(seed, tag, n, k)
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
        assert random_rows(seed, tag, n, k).tobytes() == per_stream(seed, tag, n, k).tobytes()

    def test_empty_shapes(self):
        assert random_rows(3, "gold", 0, 5).shape == (0, 5)
        assert random_rows(3, "gold", 4, 0).shape == (4, 0)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError, match="n >= 0 and k >= 0"):
            random_rows(3, "gold", -1, 5)


def rows_per_chunk(k):
    """Rows in a full chunk of random_words for rows of k draws."""
    return max(1, _CHUNK_WORDS // (4 * -(-k // 4)))


class TestChunkEdges:
    """Every size here follows _CHUNK_WORDS, so the edges move with it."""

    @pytest.mark.parametrize("k", [80, 81, 83])  # whole blocks; one and three words past a block
    def test_rows_on_either_side_of_a_chunk_edge(self, k):
        step = rows_per_chunk(k)
        for n in (step - 1, step, step + 1, 2 * step + 1):
            starts = [start for start, _ in random_words(99, "gold", n, k)]
            assert starts == list(range(0, n, step))
            assert random_rows(99, "gold", n, k).tobytes() == per_stream(99, "gold", n, k).tobytes(), n

    def test_row_longer_than_a_chunk(self):
        k = _CHUNK_WORDS + 5  # one row per chunk, and a partial last block
        chunks = [(start, words.shape) for start, words in random_words(-4, "gold", 3, k)]
        assert chunks == [(0, (1, k + 3)), (1, (1, k + 3)), (2, (1, k + 3))]
        assert random_rows(-4, "gold", 3, k).tobytes() == per_stream(-4, "gold", 3, k).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_words_are_the_top_53_bits(self, k):
        n = rows_per_chunk(k) + 1
        got = np.concatenate([words[:, :k].copy() for _, words in random_words(8, "x", n, k)])
        raw = np.stack([np.random.Philox(key=mix(8, "x", i)).random_raw(k) for i in range(n)])
        assert got.tobytes() == (raw >> np.uint64(11)).tobytes()


class TestNoStreamPerWorker:
    @pytest.fixture
    def no_streams(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a per-worker stream was built")

        monkeypatch.setattr("crowdfdb.estimation.stream", forbidden, raising=False)
        monkeypatch.setattr("crowdfdb.datagen.stream", forbidden)
        monkeypatch.setattr("crowdfdb.rng.stream", forbidden)
        monkeypatch.setattr(np.random, "Philox", forbidden)

    def test_gold_phase_and_population(self, no_streams):
        workers = generate_population(default_population_spec(n_workers=50))
        assert run_gold_phase(workers, GoldPhaseConfig(10), seed=5).shape == (50, 2, 2)
