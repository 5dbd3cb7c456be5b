"""Deterministic RNG: xoshiro256** seeded through splitmix64.

Pure integer core, so the u64/uniform sequence for a given seed is identical on
every platform. Gaussian draws go through Box-Muller on top of the uniforms.

`normal_array` and `uniform_array` draw in numpy lanes, bit-exact to as many
`next_u64` calls. xoshiro256** is linear over GF(2), so k steps are a 256x256 bit
matrix M^k (Blackman & Vigna, "Scrambled linear pseudorandom number generators",
2018). Lane j starts _LANE * j steps ahead, by doubling jumps M^(_LANE * 2^i),
so the lanes stepped in lockstep and laid end to end are the stream. Box-Muller
maps `math.log` over the uniforms (`np.log` differs from it in the last bit for
some inputs); a test holds `np.cos` / `np.sin` to `math`.
"""
from __future__ import annotations

import functools
import math

import numpy as np

_M64 = (1 << 64) - 1
_LANE = 32          # steps per lane
_JUMP_ROWS = 1024   # most lanes per bit-matrix product (a power of two), to bound memory
_WORDS = np.dtype("<u8")


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return state, z


def _rotl(x, k: int):
    return ((x << k) | (x >> (64 - k))) & _M64


def _scramble(s1):
    """The ** output of a state whose second word is `s1` (int or uint64 array)."""
    return (_rotl((s1 * 5) & _M64, 7) * 9) & _M64


def _next_state(s0, s1, s2, s3):
    """One xoshiro256** transition of ints, or of uint64 arrays (updated in place)."""
    t = (s1 << 17) & _M64
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    return s0, s1, s2, _rotl(s3, 45)


def _jump(words: np.ndarray, i: int) -> np.ndarray:
    """[n, 4] words advanced _LANE * 2^i steps: their bits times the jump's bit
    matrix mod 2, in float32, which is exact for sums of at most 256 ones."""
    bits = [np.unpackbits(x.view(np.uint8), axis=1, bitorder="little").astype(np.float32)
            for x in (words, _jump_rows(i))]
    product = (bits[0] @ bits[1]).astype(np.int16).astype(np.uint8)  # packbits is slow on int16
    return np.packbits(product & 1, axis=1, bitorder="little").view(_WORDS)


@functools.cache
def _jump_rows(i: int) -> np.ndarray:
    """M^(_LANE * 2^i) as [256, 4] words: row b is what it makes of bit b alone."""
    if i > 0:
        rows = _jump(_jump_rows(i - 1), i - 1)
    else:
        one_bit = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little")
        words = tuple(np.ascontiguousarray(w) for w in one_bit.view(_WORDS).T)
        for _ in range(_LANE):
            words = _next_state(*words)
        rows = np.stack(words, axis=1).astype(_WORDS)
    rows.setflags(write=False)
    return rows


def derive_seed(base: int, *parts: object) -> int:
    """Stable sub-seed from a base seed and a mix of str/int tags.

    Strings are folded in byte by byte (FNV-1a), ints directly; the combined
    word is then tempered with splitmix64. Used for per-cell and per-sample
    seeds so runs are reproducible across processes and platforms.
    """
    acc = base & _M64
    for part in parts:
        if isinstance(part, int):
            acc = (acc ^ (part & _M64)) & _M64
            _, acc = _splitmix64(acc)
        else:
            h = 0xCBF29CE484222325
            for byte in str(part).encode("utf-8"):
                h = ((h ^ byte) * 0x100000001B3) & _M64
            acc = (acc ^ h) & _M64
            _, acc = _splitmix64(acc)
    _, out = _splitmix64(acc)
    return out


class RngState:
    """xoshiro256** with the 4-word state filled by splitmix64(seed)."""

    def __init__(self, seed: int):
        sm = seed & _M64
        s = []
        for _ in range(4):
            sm, word = _splitmix64(sm)
            s.append(word)
        self._s = s

    def next_u64(self) -> int:
        result = _scramble(self._s[1])
        self._s = list(_next_state(*self._s))
        return result

    def randint(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        limit = ((1 << 64) // n) * n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates; also returns the list."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def sample(self, seq, n: int) -> list:
        """n distinct elements, order determined by the draw sequence."""
        if n > len(seq):
            raise ValueError("sample larger than population")
        pool = list(seq)
        out = []
        for _ in range(n):
            out.append(pool.pop(self.randint(len(pool))))
        return out

    def _draw(self, count: int) -> np.ndarray:
        """The next `count` words of the stream as uint64, leaving the state
        where `count` next_u64 calls would."""
        lanes = max(1, -(-count // _LANE))  # count 0: one lane stepped 0 times
        starts = np.empty((lanes, 4), dtype=_WORDS)
        starts[0] = self._s
        done = 1
        while done < lanes:  # the next n lanes are the n lanes m back, jumped m lanes
            m = min(done, _JUMP_ROWS)
            n = min(m, lanes - done)
            starts[done:done + n] = _jump(starts[done - m:done - m + n], m.bit_length() - 1)
            done += n
        words = tuple(np.ascontiguousarray(w) for w in starts.T)
        last_lane, last_step = divmod(count - 1, _LANE)
        second = np.empty((lanes, min(count, _LANE)), dtype=np.uint64)
        for step in range(second.shape[1]):
            second[:, step] = words[1]
            words = _next_state(*words)
            if step == last_step:
                self._s = [int(w[last_lane]) for w in words]
        return _scramble(second.reshape(-1)[:count])

    def _uniforms(self, count: int) -> np.ndarray:
        return (self._draw(count) >> 11).astype(np.float64) * (1.0 / (1 << 53))

    def normal_array(self, shape, std: float = 1.0) -> np.ndarray:
        """Box-Muller pairs (cos, sin) over the stream; an odd count drops the last sin."""
        n = math.prod(shape)
        u = self._uniforms(n + n % 2)
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), np.float64))
        theta = (2.0 * math.pi) * u[1::2]
        pairs = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        return (pairs.reshape(-1)[:n] * std).reshape(shape)

    def uniform_array(self, shape) -> np.ndarray:
        return self._uniforms(math.prod(shape)).reshape(shape)
