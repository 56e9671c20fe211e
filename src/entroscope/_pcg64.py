"""The one random stream the package draws from, owned and bit-exact.

uniforms(entropy, n, spawn_key) yields the uniforms of
numpy.random.Generator(PCG64(SeedSequence(entropy, spawn_key=spawn_key)))
.random(n), bit for bit, without importing numpy.random.  The seeding
runs on Python ints.  The draw keeps _LANES consecutive 128-bit PCG
states as (hi, lo) uint64 arrays and advances them all by one jump per
block, in place through four scratch arrays of _LANES, so a draw's
working set is six lane arrays and the block it yields; array arithmetic
wraps without a warning.  _LANES, the package's one block size, lives in
linalg, which every command loads.
"""

from __future__ import annotations

import numpy as np

from .linalg import _LANES

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


def _words(n: int) -> list[int]:
    """n as little-endian 32-bit words, [0] for 0, as SeedSequence reads it."""
    return [n >> s & _M32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hasher(h: int, mult: int):
    """SeedSequence's uint32 hash; each call moves its constant h on."""
    def hash_(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16
    return hash_


def seed_state(entropy: int, spawn_key: tuple[int, ...] = ()) -> list[int]:
    """SeedSequence(entropy, spawn_key=spawn_key).generate_state(4, np.uint64)."""
    run, spawn = _words(entropy), [w for k in spawn_key for w in _words(k)]
    words = (run + [0] * (4 - len(run)) if spawn else run) + spawn
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return r ^ r >> 16

    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    draw = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [draw(pool[i % 4]) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _affine(hi: np.ndarray, lo: np.ndarray, mult: int, add: int, scratch) -> None:
    """(hi, lo) <- (hi, lo) * mult + add mod 2**128, lane by lane, in place;
    scratch holds four arrays of the lanes' length."""
    m_lo, b0, b1 = mult & _M64, mult & _M32, mult >> 32 & _M32
    a0, a1, mid, p = scratch
    np.bitwise_and(lo, _M32, out=a0)
    np.right_shift(lo, 32, out=a1)
    # the high word: hi * m_lo + lo * m_hi, then the high word of lo * m_lo
    # from the 32-bit partial products a_i * b_j, then add and its carry
    hi *= m_lo
    hi += np.multiply(lo, mult >> 64, out=p)
    np.multiply(a0, b0, out=mid)
    mid >>= 32
    np.multiply(a0, b1, out=a0)
    np.multiply(a1, b0, out=p)
    hi += np.multiply(a1, b1, out=a1)
    for cross in (a0, p):
        hi += np.right_shift(cross, 32, out=a1)
        mid += np.bitwise_and(cross, _M32, out=cross)
    hi += np.right_shift(mid, 32, out=mid)
    lo *= m_lo
    lo += add & _M64
    hi += np.less(lo, add & _M64, out=a1)
    hi += add >> 64


def _uniforms(hi: np.ndarray, lo: np.ndarray, scratch) -> np.ndarray:
    """Each lane's XSL-RR output, as a uniform from its top 53 bits, in a
    fresh array; the bit work runs in three of the four scratch arrays."""
    x, rot, out, _ = scratch
    np.bitwise_xor(hi, lo, out=x)
    np.right_shift(hi, 58, out=rot)
    np.right_shift(x, rot, out=out)
    np.subtract(64, rot, out=rot)
    rot &= 63
    out |= np.left_shift(x, rot, out=x)
    out >>= 11
    return out * 2.0**-53


def uniforms(entropy: int, n: int, spawn_key: tuple[int, ...] = ()):
    """The first n uniforms of Generator(PCG64(SeedSequence(entropy,
    spawn_key))).random, in [0, 1), as blocks of _LANES, the last cut short.
    Each block is a new array; the lanes and four scratch arrays of _LANES
    are allocated once and stepped in place."""
    s0, s1, s2, s3 = seed_state(entropy, spawn_key)
    inc = (s2 << 65 | s3 << 1 | 1) & _M128
    # PCG's srandom (step from 0, add the initial state, step again),
    # then the step that precedes each output
    first = (((inc + (s0 << 64 | s1)) * _MULT + inc) * _MULT + inc) & _M128
    # lane k holds the state k + 1 steps on; each doubling copies the first
    # k lanes forward and jumps the copies by k, and (mult, add) becomes
    # the jump by 2k.  _LANES is a power of two.
    hi, lo = np.empty(_LANES, np.uint64), np.empty(_LANES, np.uint64)
    scratch = np.empty((4, _LANES), np.uint64)
    hi[0], lo[0] = first >> 64, first & _M64
    mult, add, k = _MULT, inc, 1
    while k < _LANES:
        hi[k : 2 * k], lo[k : 2 * k] = hi[:k], lo[:k]
        _affine(hi[k : 2 * k], lo[k : 2 * k], mult, add, scratch[:, :k])
        mult, add, k = mult * mult & _M128, (mult * add + add) & _M128, 2 * k
    for start in range(0, n, _LANES):
        yield _uniforms(hi, lo, scratch)[: n - start]
        _affine(hi, lo, mult, add, scratch)
