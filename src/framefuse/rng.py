"""Deterministic RNG: xoshiro256** seeded through splitmix64.

Pure integer core, so the u64/uniform sequence for a given seed is identical on
every platform. Gaussian draws go through Box-Muller on top of the uniforms.
"""
from __future__ import annotations

import math

import numpy as np

_M64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return state, z


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _M64


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
        self.seed = seed
        sm = seed & _M64
        s = []
        for _ in range(4):
            sm, word = _splitmix64(sm)
            s.append(word)
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _M64, 7) * 9) & _M64
        t = (s1 << 17) & _M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        # 53 high bits -> double in [0, 1)
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

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

    def normal_array(self, shape, std: float = 1.0) -> np.ndarray:
        n = 1
        for e in shape:
            n *= e
        out = np.empty(n, dtype=np.float64)
        i = 0
        while i < n:
            u1 = 1.0 - self.uniform()
            u2 = self.uniform()
            r = math.sqrt(-2.0 * math.log(u1))
            out[i] = r * math.cos(2.0 * math.pi * u2)
            if i + 1 < n:
                out[i + 1] = r * math.sin(2.0 * math.pi * u2)
            i += 2
        return (out * std).reshape(shape)

    def uniform_array(self, shape) -> np.ndarray:
        n = 1
        for e in shape:
            n *= e
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            out[i] = self.uniform()
        return out.reshape(shape)
