import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdfdb import GoldPhaseConfig, default_population_spec, generate_population, run_gold_phase
from crowdfdb.rng import mix, random_rows, stream

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
