"""Worker accuracy estimation from gold tasks.

Gold counts take one form, whether run_gold_phase draws them or datagen
loads them: a GoldTallies of (n, z, y) attempted and correct arrays.
estimate_tallies is the one estimate rule: the fraction answered correctly
is the estimated P(correct | z, y), entry [i, z, y] of its (n, z, y) array.
GoldResponseTally and estimate_matrices are the per-worker reference
these match bit for bit: estimate_matrices gives one worker's (z, y)
array, a row of the (n, z, y) array.  The per-worker gold simulation that
run_gold_phase matches lives with the other references, in the tests.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .model import Population, label_one_probabilities
from .rng import random_words, stream_keys

# fixed type order used for simulation draws and file columns
TYPE_ORDER: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


class EstimationError(ValueError):
    """Tally cannot produce an estimate (zero attempted count)."""


@dataclass(frozen=True)
class GoldPhaseConfig:
    """Gold-phase settings.

    smoothing adds one success and one failure to every per-type tally
    (so estimates stay interior); off by default because degenerate 0/1
    estimates keep the LP well-posed.
    """

    n_gold_per_type: int
    smoothing: bool = False

    def __post_init__(self) -> None:
        n = self.n_gold_per_type
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"n_gold_per_type must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"n_gold_per_type must be >= 1, got {n}")


def check_counts(attempted, correct) -> None:
    """Reject the first type, in TYPE_ORDER, of four attempted/correct counts
    that does not have 0 <= correct <= attempted."""
    for (z, y), a, c in zip(TYPE_ORDER, attempted, correct, strict=True):
        if not 0 <= c <= a:
            raise ValueError(
                f"tally for type (z={z}, y={y}) needs 0 <= correct <= attempted, "
                f"got correct={c} attempted={a}"
            )


@dataclass(frozen=True)
class GoldResponseTally:
    """Attempted/correct counts per (z, y) task type for one worker: four
    integers each."""

    attempted: tuple[int, int, int, int]  # ordered as TYPE_ORDER
    correct: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        for name in ("attempted", "correct"):
            counts = getattr(self, name)
            integers = all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in counts)
            if len(counts) != 4 or not integers:
                raise ValueError(f"tally {name} needs 4 integer counts, one per type, got {counts!r}")
        check_counts(self.attempted, self.correct)

    def get(self, z: int, y: int) -> tuple[int, int]:
        idx = TYPE_ORDER.index((z, y))
        return self.attempted[idx], self.correct[idx]


@dataclass(frozen=True, eq=False)
class GoldTallies:
    """Gold tallies in order: worker ids, and read-only int64 counts
    attempted[i, z, y] and correct[i, z, y]; validated once, when they are
    built.

    Counts are copied unless they are int64 and cannot be written: neither
    the array nor any array it views is writeable.  Iterating yields (id,
    GoldResponseTally) pairs, built on demand; the package itself reads only
    the arrays.
    """

    ids: tuple[str, ...]
    attempted: np.ndarray
    correct: np.ndarray

    def __post_init__(self) -> None:
        ids, n = tuple(self.ids), len(self.ids)
        if n == 0:
            raise ValueError("gold tallies need at least one worker")
        for name in ("attempted", "correct"):
            counts = np.asarray(getattr(self, name))
            if counts.shape != (n, 2, 2) or counts.dtype.kind not in "iu":
                raise ValueError(
                    f"{n} gold tallies need integer {name} of shape ({n}, 2, 2) [i, z, y], "
                    f"got {counts.dtype} of shape {counts.shape}"
                )
            if counts.dtype != np.int64 or _writable(counts):
                counts = counts.astype(np.int64)  # a copy, so the caller's array stays theirs
                counts.flags.writeable = False
            object.__setattr__(self, name, counts)
        valid = ((self.correct >= 0) & (self.correct <= self.attempted)).all(axis=(1, 2))
        if not valid.all():
            i = valid.argmin()
            check_counts(self.attempted[i].ravel().tolist(), self.correct[i].ravel().tolist())
        ordered = sorted(ids)  # a list, where a set of as many ids would take about eight times the memory
        if any(map(operator.eq, ordered, islice(ordered, 1, None))):
            repeated = next(i for i, count in Counter(ids).items() if count > 1)
            raise ValueError(f"gold tallies repeat worker id {repeated!r}")
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        attempted, correct = self.attempted.reshape(-1, 4).tolist(), self.correct.reshape(-1, 4).tolist()
        for worker_id, a, c in zip(self.ids, attempted, correct):
            yield worker_id, GoldResponseTally(attempted=tuple(a), correct=tuple(c))


def _writable(counts: np.ndarray) -> bool:
    """Whether counts, or memory it views, can be written: through an array
    that is writeable, or a buffer that is not an array."""
    while isinstance(counts, np.ndarray):
        if counts.flags.writeable:
            return True
        counts = counts.base
    return counts is not None


def estimate_matrices(tally: GoldResponseTally, smoothing: bool = False) -> np.ndarray:
    """Estimated correctness diag[z, y] = P(correct | z, y) from one worker's
    gold tally, type by type."""
    diag = np.empty((2, 2))
    for z, y in TYPE_ORDER:
        attempted, correct = tally.get(z, y)
        if attempted == 0:
            raise EstimationError(f"no gold tasks attempted for type (z={z}, y={y})")
        if smoothing:
            diag[z, y] = (correct + 1) / (attempted + 2)
        else:
            diag[z, y] = correct / attempted
    return diag


def estimate_tallies(tallies: GoldTallies, smoothing: bool = False) -> np.ndarray:
    """Estimated (n, z, y) correctness array: estimate_matrices for every
    worker's tally; the first worker with a type it never attempted is named."""
    empty = np.argwhere(tallies.attempted == 0)
    if empty.size:
        i, z, y = empty[0]
        raise EstimationError(f"worker {tallies.ids[i]}: no gold tasks attempted for type (z={z}, y={y})")
    return (tallies.correct + smoothing) / (tallies.attempted + 2 * smoothing)  # one success, one failure


def word_limits(p: np.ndarray) -> np.ndarray:
    """ceil(p * 2**53) as uint64, for probabilities p in [0, 1].

    A draw u = (w >> 11) * 2**-53 of a Philox word w is below p exactly
    when the integer w >> 11 is below this limit: scaling by 2**53 is
    exact, and w >> 11 is an integer.
    """
    return np.ceil(p * 2.0**53).astype(np.uint64)


def run_gold_phase(population: Population, cfg: GoldPhaseConfig, seed: int) -> GoldTallies:
    """Simulate the gold phase and return its tallies, in population order:
    n_gold_per_type attempted answers of every type, and the correct ones.

    Worker i's draws are those of the derived stream (seed, "gold", i),
    n_gold_per_type per type, consumed in TYPE_ORDER, and each
    worker's counts depend on its own stream only.  A response is label 1
    when its draw is below the true P(label 1 | z, y); the phase counts
    those from the top 53 bits of random_words' integer words, chunk by
    chunk, against word_limits, and never builds the n x 4 * n_gold_per_type
    draws.  For y = 0 the correct count is n_gold_per_type minus the count of
    ones.  cfg.smoothing is not read here: it is estimate_tallies' argument.
    """
    n_gold = cfg.n_gold_per_type
    limits = word_limits(label_one_probabilities(population)).reshape(-1, 4, 1)
    ones = np.empty((len(population), 4), dtype=np.int64)
    keys = stream_keys(seed, "gold", np.arange(len(population)))
    for start, words in random_words(keys, 4 * n_gold):
        stop = start + words.shape[0]
        words >>= np.uint64(11)  # compared shifted, p = 1's limit 2**53 would not fit in 64 bits
        below = words.reshape(-1, 4, n_gold) < limits[start:stop]
        below.sum(axis=-1, out=ones[start:stop])
    ones = ones.reshape(-1, 2, 2)
    correct = np.where(np.array([False, True]), ones, n_gold - ones)  # label == y
    return GoldTallies(population.ids, np.full(correct.shape, n_gold), correct)
