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
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), so random_rows
computes the leading draws of a whole family of streams (seed, tag, i),
i = 0..n-1, at once with numpy: the same keys, counters and outputs as n
separate ``stream`` generators, without building one.
"""

from __future__ import annotations

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
# random_rows works over row chunks of at most this many Philox blocks, which
# bounds every uint64 temporary at 16 KiB; larger chunks raised a recipe's peak RSS
_CHUNK_BLOCKS = 2048


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


def _keys(master_seed: int, tag: str, indices: np.ndarray) -> np.ndarray:
    """mix(master_seed, tag, i) for every i of a uint64 index array."""
    h = np.full(indices.shape, _fnv1a(_FNV_OFFSET, (master_seed, tag)), dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for shift in range(0, 64, 8):  # the index's 8 little-endian bytes
        h ^= (indices >> np.uint64(shift)) & np.uint64(0xFF)
        h *= prime
    h ^= h >> np.uint64(33)
    h *= np.uint64(_AVALANCHE)
    h ^= h >> np.uint64(33)
    return h


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit product m * x."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _U32
    lo_lo, hi_lo, lo_hi = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    cross = (lo_lo >> _U32) + (hi_lo & _LOW32) + lo_hi  # < 2**64: no carry is lost
    hi = x_hi * m_hi + (hi_lo >> _U32) + (cross >> _U32)
    return x * np.uint64(m), hi


def _philox_blocks(key: np.ndarray, blocks: int) -> np.ndarray:
    """Philox-4x64-10 output words, shape (len(key), 4 * blocks), of counters
    (j, 0, 0, 0) for j = 1..blocks under keys (key[r], 0): numpy's Philox
    increments its counter before it generates a block."""
    shape = (key.size, blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = key[:, None], 0
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = k0 + np.uint64(_PHILOX_W[0])
            k1 = (k1 + _PHILOX_W[1]) & _MASK64
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(key.size, _WORDS_PER_BLOCK * blocks)


def random_rows(master_seed: int, tag: str, n: int, k: int) -> np.ndarray:
    """(n, k) doubles whose row i is stream(master_seed, tag, i).random(k), bit for bit.

    A double is the top 53 bits of a Philox word scaled by 2**-53, as
    Generator.random computes it.
    """
    if n < 0 or k < 0:
        raise ValueError(f"random_rows needs n >= 0 and k >= 0, got n={n} k={k}")
    blocks = -(-k // _WORDS_PER_BLOCK)
    out = np.empty((n, k))
    step = max(1, _CHUNK_BLOCKS // max(blocks, 1))
    for start in range(0, n, step):
        indices = np.arange(start, min(start + step, n), dtype=np.uint64)
        words = _philox_blocks(_keys(master_seed, tag, indices), blocks)[:, :k]
        np.multiply(words >> np.uint64(11), 2.0**-53, out=out[start:start + indices.size])
    return out
