"""Deterministic, splittable random streams.

Every stochastic component of the package draws from a Philox-4x64
counter-based generator whose 64-bit key is derived by hashing the master
seed together with a purpose tag and integer indices (FNV-1a, 64-bit:
offset 0xCBF29CE484222325, prime 0x100000001B3).  Philox has fixed,
published round constants and numpy implements it identically on every
platform, so a master seed fully determines every generated population,
gold phase, and simulated label, and sub-streams such as
``stream(seed, "gold", worker_index)`` are independent and may be consumed
in any order (sequentially or in parallel) with identical results.

Philox output is a pure function of key and counter (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), so random_words
computes any run of output words of many streams at once with numpy: the
same keys, counters and outputs as separate ``stream`` generators, without
building one.  It takes the streams' keys (stream_keys gives a family
(seed, tag, i) of them) and a start word, works over chunks of whole rows on
eight uint64 buffers allocated once per call, and runs every round of
Philox-4x64-10 in place in them.  Every runtime draw comes from it:
random_rows scales its words to doubles, the gold phase compares their top
53 bits as integers, and permutation replays Generator.permutation from
their 32-bit halves.  ``stream`` builds the numpy generator itself; only
the tests and the benchmark inputs use it, as the reference, so running the
package never imports numpy.random.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, count

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_AVALANCHE = 0xFF51AFD7ED558CCD
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Philox-4x64-10 multipliers and Weyl key increments (Random123, as numpy's Philox)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_WORDS_PER_BLOCK = 4
# random_words works over chunks of whole rows of about this many output words.
# Its buffers take 16 bytes per word, 256 KiB here, no more than the n x k draws
# of a recipe's gold phase took: 2-rep figure1 and figure4 commands peak at
# 33.1 MB RSS (numpy 2.4).  On 2 vCPUs, 1 << 15 ran the gold phase at N_g = 20
# and 40 about 17% faster, but its 512 KiB raised figure4's peak RSS by 0.27 MB.
_CHUNK_WORDS = 1 << 14


def _to_bytes(part: int | str) -> bytes:
    if isinstance(part, (int, np.integer)):
        return (int(part) & _MASK64).to_bytes(8, "little")
    return str(part).encode("utf-8")


def _fnv1a(h: int, parts) -> int:
    for part in parts:
        for byte in _to_bytes(part):
            h ^= byte
            h = (h * _FNV_PRIME) & _MASK64
    return h


def mix(master_seed: int, *parts: int | str) -> int:
    """Hash a master seed plus purpose parts into a 64-bit stream key."""
    h = _fnv1a(_FNV_OFFSET, (master_seed, *parts))
    # final avalanche so that short integer parts affect all bits
    h ^= h >> 33
    h = (h * _AVALANCHE) & _MASK64
    h ^= h >> 33
    return h


def stream(master_seed: int, *parts: int | str) -> np.random.Generator:
    """Independent generator for (master seed, purpose tag, indices...)."""
    return np.random.Generator(np.random.Philox(key=mix(master_seed, *parts)))


# Every operand below is a uint64 array or np.uint64 scalar: uint64 arithmetic
# wraps modulo 2**64 silently and keeps its dtype under numpy 1.x and 2.x alike.
_U32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT53 = np.uint64(11)  # a double takes a word's top 53 bits


def stream_keys(master_seed: int, tag: str, indices) -> np.ndarray:
    """mix(master_seed, tag, i) as uint64 for every i of an integer index array."""
    indices = np.asarray(indices, dtype=np.uint64)
    h = np.full(indices.shape, _fnv1a(_FNV_OFFSET, (master_seed, tag)), dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for shift in range(0, 64, 8):  # the index's 8 little-endian bytes
        h ^= (indices >> np.uint64(shift)) & np.uint64(0xFF)
        h *= prime
    h ^= h >> np.uint64(33)
    h *= np.uint64(_AVALANCHE)
    h ^= h >> np.uint64(33)
    return h


def _mul_hi(x: np.ndarray, m: int, hi: np.ndarray, scratch: tuple) -> None:
    """x *= m in place, keeping the low 64 bits of the 128-bit product, and
    hi = its high 64 bits; scratch is three uint64 arrays of x's shape."""
    lo_lo, mid, carry = scratch
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.bitwise_and(x, _LOW32, out=mid)
    np.right_shift(x, _U32, out=hi)
    x *= np.uint64(m)
    np.multiply(mid, m_lo, out=lo_lo)
    lo_lo >>= _U32
    mid *= m_hi
    mid += lo_lo  # x_lo*m_hi + (x_lo*m_lo >> 32) < 2**64
    np.multiply(hi, m_lo, out=lo_lo)
    hi *= m_hi
    np.right_shift(mid, _U32, out=carry)
    hi += carry
    mid &= _LOW32
    lo_lo += mid  # x_hi*m_lo + (mid & 0xFFFFFFFF) < 2**64
    lo_lo >>= _U32
    hi += lo_lo


def _mul_hi_alloc(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of m * x for a small array x, into new arrays."""
    lo, hi = x.copy(), np.empty_like(x)
    _mul_hi(lo, m, hi, tuple(np.empty_like(x) for _ in range(3)))
    return lo, hi


def random_words(keys: np.ndarray, k: int, start: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (row, words) over row chunks: words[r, t] is the full 64-bit
    output word start + t, t < k, of the stream keyed keys[row + r].

    keys is a uint64 array, from stream_keys or mix.  The stream keyed c
    runs Philox-4x64-10 under key (c, 0) on counters (j, 0, 0, 0),
    j = 1, 2, ...: numpy's Philox increments its counter before it
    generates a block, so np.random.Philox(key=c).random_raw() gives the
    same words.  start is any word offset, so a caller can go on drawing
    one stream where an earlier call stopped.  A chunk holds whole rows,
    about _CHUNK_WORDS words of them, and at least one row; words is a
    (rows, k) view of a buffer that the next chunk overwrites.
    """
    n = keys.size
    first, skip = divmod(start, _WORDS_PER_BLOCK)
    blocks = -(-(skip + k) // _WORDS_PER_BLOCK)
    if n == 0 or k <= 0:
        return
    step = min(n, max(1, _CHUNK_WORDS // (_WORDS_PER_BLOCK * blocks)))
    w0, w1 = (np.uint64(w) for w in _PHILOX_W)
    # Rounds 0 and 1 in closed form.  Round 0 maps (j, 0, 0, 0) under key
    # (k0, 0) to (k0, 0, hi(M0 j), lo(M0 j)); round 1, under key (k0 + W0, W1),
    # maps that to (hi(M1 hi(M0 j)) ^ (k0 + W0), lo(M1 hi(M0 j)),
    # hi(M0 k0) ^ lo(M0 j) ^ W1, lo(M0 k0)).  Each product is of a counter
    # alone or a key alone: O(rows + blocks) work instead of O(rows * blocks).
    counters = np.arange(first + 1, first + blocks + 1, dtype=np.uint64)
    lo_j, hi_j = _mul_hi_alloc(counters, _PHILOX_M[0])
    lo_b, hi_b = _mul_hi_alloc(hi_j, _PHILOX_M[1])
    keys = keys.reshape(n, 1)
    lo_k, hi_k = _mul_hi_alloc(keys, _PHILOX_M[0])
    hi_k ^= w1
    slab = np.empty(8 * step * blocks, dtype=np.uint64)  # four state words, four scratch
    for row in range(0, n, step):
        rows = min(step, n - row)
        bufs = slab[: 8 * rows * blocks].reshape(8, rows, blocks)
        state, (hi, *scratch) = list(bufs[:4]), bufs[4:]
        key = keys[row:row + rows]
        np.bitwise_xor(hi_b, key + w0, out=state[0])
        state[1][...] = lo_b
        np.bitwise_xor(lo_j, hi_k[row:row + rows], out=state[2])
        state[3][...] = lo_k[row:row + rows]
        # a round maps (c0, c1, c2, c3) to (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        # for (lo0, hi0) = M0 * c0 and (lo1, hi1) = M1 * c2, so it rotates the buffers
        for r in range(2, _PHILOX_ROUNDS):
            c0, c1, c2, c3 = state
            _mul_hi(c0, _PHILOX_M[0], hi, scratch)  # c0 becomes lo0
            c3 ^= hi
            c3 ^= np.uint64(r * _PHILOX_W[1] & _MASK64)
            _mul_hi(c2, _PHILOX_M[1], hi, scratch)  # c2 becomes lo1
            c1 ^= hi
            c1 ^= key + np.uint64(r * _PHILOX_W[0] & _MASK64)
            state = [c1, c2, c3, c0]
        words = bufs[4:].reshape(rows, _WORDS_PER_BLOCK * blocks)  # the scratch is free now
        for w, c in enumerate(state):
            words[:, w::_WORDS_PER_BLOCK] = c
        yield row, words[:, skip:skip + k]


def random_rows(keys: np.ndarray, k: int, start: int = 0) -> np.ndarray:
    """(len(keys), k) doubles: row r is output words start..start + k - 1 of
    the stream keyed keys[r], as Generator.random scales them, so with
    start 0 it is np.random.Generator(np.random.Philox(key=keys[r])).random(k)
    bit for bit.

    A double is the top 53 bits (word >> 11) of a Philox word scaled by
    2**-53.  A row longer than _CHUNK_WORDS is drawn _CHUNK_WORDS columns
    at a time, so random_words' buffers stay within one chunk.
    """
    if k < 0:
        raise ValueError(f"random_rows needs k >= 0, got k={k}")
    out = np.empty((keys.size, k))
    for col in range(0, k, _CHUNK_WORDS):
        width = min(_CHUNK_WORDS, k - col)
        for row, words in random_words(keys, width, start + col):
            words >>= _SHIFT53
            np.multiply(words, 2.0**-53, out=out[row:row + words.shape[0], col:col + width])
    return out


def permutation(key: np.ndarray, n: int, start: int) -> np.ndarray:
    """Generator.permutation(n) of the stream keyed by the one uint64 in
    key, once its first start words are spent.

    numpy shuffles arange(n) by Fisher-Yates from the last position down.
    The swap index for position i is a 32-bit draw masked by the smallest
    all-ones mask >= i, drawn again while it exceeds i; a 64-bit word gives
    two draws, its low half first.  The words are drawn in batches, one
    after another by counter offset, until the shuffle has its swaps.
    """
    batch = _swap_batch(n)
    draws = chain.from_iterable(_halves(key, at, batch) for at in count(start, batch))
    order = list(range(n))
    top = n - 1
    while top >= 1:
        mask = (1 << top.bit_length()) - 1
        for i in range(top, mask >> 1, -1):  # the positions that share this mask
            j = next(draws) & mask
            while j > i:
                j = next(draws) & mask
            order[i], order[j] = order[j], order[i]
        top = mask >> 1
    return np.array(order, dtype=np.intp)


def _swap_batch(n: int) -> int:
    """Words per batch for a shuffle of n: it takes at most about 1.47 n
    draws on average, as a mask rejects up to half its values, so 3n/4
    words (1.5 n draws) rarely leave it short.  A batch holds at most a
    chunk, so a long shuffle draws chunk after chunk as it goes."""
    return min(_CHUNK_WORDS, max(1, n - n // 4))


def _halves(key: np.ndarray, start: int, batch: int) -> list[int]:
    """The 32-bit halves of words start..start + batch - 1 of one stream,
    each word's low half first, split by mask and shift."""
    _, words = next(random_words(key, batch, start))
    halves = np.empty((batch, 2), dtype=np.uint64)
    np.bitwise_and(words[0], _LOW32, out=halves[:, 0])
    np.right_shift(words[0], _U32, out=halves[:, 1])
    return halves.ravel().tolist()
