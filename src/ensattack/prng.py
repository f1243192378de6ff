"""Deterministic random streams built on SplitMix64.

Every stochastic choice in the package (weight init, dataset noise, batch
shuffling, random target labels, random coordinate schedules) draws from its
own stream keyed by ``(seed, tag)``, so each choice can be reproduced in
isolation and reseeded independently of all others.

Output k of a stream is ``_mix(state + k * golden)`` of its starting state
alone, so ``draws`` takes the first outputs of many streams in one array
pass, and a ``Stream`` is its one-row case. The arithmetic runs on uint64
arrays, which wrap mod 2**64 without a warning.
"""

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = 0xFFFFFFFFFFFFFFFF


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _fnv1a(tag: str) -> int:
    h = 0xCBF29CE484222325
    for byte in tag.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _U64
    return h


def _starts(seed: int, tags) -> np.ndarray:
    """The starting state of each (seed, tag) stream, as a uint64 array."""
    key = int(seed) & _U64
    # one warm-up mix so nearby seeds do not produce nearby streams
    return _mix(np.array([key ^ _fnv1a(tag) for tag in tags], dtype=np.uint64))


def _outputs(states: np.ndarray, n: int) -> np.ndarray:
    """The next ``n`` outputs of each stream in ``states``, one row each."""
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _mix(states[:, None] + steps)


def draws(seed: int, tags, n: int) -> np.ndarray:
    """A (len(tags), n) uint64 array whose row k is bitwise
    ``stream(seed, tags[k]).u64(n)`` of a fresh stream."""
    return _outputs(_starts(seed, tags), n)


def uniform_from_bits(bits: np.ndarray, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """float32 uniforms in [low, high) with 24 bits of resolution, one per
    raw 64-bit output: the rule of ``Stream.uniform``."""
    u = (bits >> np.uint64(40)).astype(np.float32) * np.float32(2.0**-24)  # top 24 bits
    return u * np.float32(high - low) + np.float32(low)


class Stream:
    """A SplitMix64 stream for one (seed, purpose-tag) pair."""

    def __init__(self, seed: int, tag: str):
        self.seed = int(seed)
        self.tag = tag
        self._state = int(_starts(self.seed, [tag])[0])

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs."""
        out = _outputs(np.array([self._state], dtype=np.uint64), n)[0]
        self._state = (self._state + n * _GOLDEN) & _U64
        return out

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """float32 uniforms in [low, high) with 24 bits of resolution."""
        n = int(np.prod(shape)) if shape else 1
        return uniform_from_bits(self.u64(n), low, high).reshape(shape)

    def integer(self, bound: int) -> int:
        """One integer in [0, bound). Modulo bias is negligible for the
        small bounds used here (class counts, coordinate indices)."""
        return int(self.u64(1)[0] % np.uint64(bound))

    def permutation(self, n: int) -> np.ndarray:
        """A seeded permutation of range(n)."""
        keys = self.u64(n)
        return np.argsort(keys, kind="stable")


def stream(seed: int, tag: str) -> Stream:
    return Stream(seed, tag)
