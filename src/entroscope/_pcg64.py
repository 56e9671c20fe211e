"""The one random stream the package draws from, owned and bit-exact.

Stream(entropy, spawn_key).random(n) gives the uniforms of
numpy.random.Generator(PCG64(SeedSequence(entropy, spawn_key=spawn_key)))
.random(n), bit for bit, without importing numpy.random.  The seeding
runs on Python ints.  The draw keeps _LANES consecutive 128-bit PCG
states as (hi, lo) uint64 arrays and advances them all by one jump per
block; array arithmetic wraps without a warning.
"""

from __future__ import annotations

import numpy as np

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
_LANES = 4_096


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


def _affine(hi: np.ndarray, lo: np.ndarray, mult: int, add: int):
    """(hi, lo) * mult + add mod 2**128, lane by lane."""
    m_lo, b0, b1 = mult & _M64, mult & _M32, mult >> 32 & _M32
    a0, a1 = lo & _M32, lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    # high word of lo * m_lo, plus the cross terms that land above bit 64
    top = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + lo * (mult >> 64) + hi * m_lo
    low = lo * m_lo + (add & _M64)
    return top + (add >> 64) + (low < (add & _M64)), low


class Stream:
    """Generator(PCG64(SeedSequence(entropy, spawn_key))).random, owned."""

    def __init__(self, entropy: int, spawn_key: tuple[int, ...] = ()):
        s0, s1, s2, s3 = seed_state(entropy, spawn_key)
        inc = (s2 << 65 | s3 << 1 | 1) & _M128
        # PCG's srandom (step from 0, add the initial state, step again),
        # then the step that precedes each output
        first = (((inc + (s0 << 64 | s1)) * _MULT + inc) * _MULT + inc) & _M128
        # lane k holds the state k + 1 steps on; each doubling appends the
        # lanes jumped by their count, and (mult, add) becomes the jump by 2x
        self._hi = np.array([first >> 64], np.uint64)
        self._lo = np.array([first & _M64], np.uint64)
        mult, add = _MULT, inc
        while len(self._hi) < _LANES:
            hi, lo = _affine(self._hi, self._lo, mult, add)
            self._hi, self._lo = np.concatenate([self._hi, hi]), np.concatenate([self._lo, lo])
            mult, add = mult * mult & _M128, (mult * add + add) & _M128
        self._jump = (mult, add)
        self._spare = np.empty(0)

    def _block(self) -> np.ndarray:
        """The next _LANES uniforms: each lane's XSL-RR output, top 53 bits."""
        hi, lo = self._hi, self._lo
        x, rot = hi ^ lo, hi >> 58
        out = (x >> rot) | (x << ((64 - rot) & 63))
        self._hi, self._lo = _affine(hi, lo, *self._jump)
        return (out >> 11) * 2.0**-53

    def random(self, n: int) -> np.ndarray:
        """The next n uniforms in [0, 1); consecutive calls continue the stream."""
        parts, have = [self._spare], len(self._spare)
        while have < n:
            parts.append(self._block())
            have += _LANES
        out = np.concatenate(parts)
        self._spare = out[n:].copy()
        return out[:n]
