"""Deterministic, splittable random streams on top of numpy's PCG64.

A RandomSource is identified by a 64-bit seed plus a split path.  Two
sources with different paths never share a stream; rebuilding a source
from the same (seed, path) and replaying the same calls reproduces the
exact same draws.  A source must be used by a single owner; replicas of
an experiment each get their own split.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError


class RandomSource:
    """A lazily-initialized numpy Generator with deterministic splitting."""

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        if not isinstance(seed, (int, np.integer)):
            raise ValidationError(f"seed must be an integer, got {seed!r}")
        if seed < 0 or seed >= 2**64:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        self._gen = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._gen = np.random.default_rng(ss)
        return self._gen

    def split(self, index: int) -> "RandomSource":
        """Child source number `index`; independent of this one and of other indices."""
        return RandomSource(self.seed, self.path + (int(index),))

    def split_many(self, n: int) -> list["RandomSource"]:
        return [self.split(i) for i in range(n)]

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, path={self.path})"


def integer_below(gen: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for arbitrary-precision n.

    numpy's integers() is limited to 64-bit bounds; exact sampling with
    big-integer weights (counting DPs) needs more.  Draws fixed-width
    chunks and rejects, so the result is exactly uniform.
    """
    if n <= 0:
        raise ValidationError("integer_below needs a positive bound")
    if n <= 2**63:
        return int(gen.integers(0, n))
    bits = n.bit_length()
    chunks = (bits + 31) // 32
    while True:
        r = 0
        for word in gen.integers(0, 2**32, size=chunks, dtype=np.uint64):
            r = (r << 32) | int(word)
        r >>= chunks * 32 - bits
        if r < n:
            return r


_WORDS = 2**64


def word_below(gen: np.random.Generator, word: int, n: int) -> int:
    """Uniform integer in [0, n) from a pre-drawn uniform 64-bit word.

    `word % n` is exactly uniform when the word lies below the largest
    multiple of n that fits in 64 bits; any other word is discarded for a
    fresh `integer_below(gen, n)`.  No multiple fits when n > 2**64, so
    such bounds always take the fresh draw, and the result is exactly
    uniform for every positive n.
    """
    if n > 0 and word < _WORDS - _WORDS % n:
        return word % n
    return integer_below(gen, n)
