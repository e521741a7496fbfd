"""Hand-built worker populations for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np

from crowdfdb import Population, stream


def as_population(workers) -> Population:
    """The Population of a sequence of WorkerProfiles, in order."""
    return Population(
        ids=tuple(w.id for w in workers),
        correct=np.array([w.correct for w in workers]).reshape(-1, 2, 2),
        cost=[w.cost for w in workers],
    )


def make_binding_fairness_instance(gap: float, n_pairs: int, seed: int) -> Population:
    """Mirrored worker pairs that force fairness rows to bind.

    Each pair shares a base false-positive rate f and a common
    false-negative rate; one member's z=0 FPR is f + gap, the other's
    z=1 FPR is f + gap.  The two members have equal diagonal sums, any
    symmetric policy over a pair has zero FPR gap, and a policy putting
    all mass on one member has exactly `gap`, for gap in (0, 1].
    """
    rng = stream(seed, "mirrored-pairs")
    ids, correct = [], []
    for p in range(n_pairs):
        f = float(rng.uniform(0.05 * (1.0 - gap), 0.95 * (1.0 - gap)))
        fnr = float(rng.uniform(0.05, 0.35))
        high = (1.0 - (f + gap), 1.0 - fnr)
        low = (1.0 - f, 1.0 - fnr)
        ids += [f"p{p:03d}a", f"p{p:03d}b"]
        correct += [(high, low), (low, high)]
    return Population(ids=tuple(ids), correct=correct, cost=np.ones(len(ids)))


def traced_peak(fn, *args) -> int:
    """The peak bytes tracemalloc sees during fn(*args), after one untraced
    call has made whatever a first call caches."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
