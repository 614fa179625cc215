"""Deterministic, splittable random streams.

A ``Stream`` is a xoshiro256** generator seeded through SplitMix64.
Substreams are derived from a (master seed, index) pair, so a run that
hands trial i to any worker always draws the same values for trial i.
All arithmetic is fixed 64-bit, independent of platform and interpreter.

``Lanes`` runs many streams at once, one numpy ``uint64`` lane per stream,
seeded in numpy from the seeds the streams would take: ``derive_seeds``
gives the seeds of the substreams ``index .. index + count - 1`` of a
master seed, and no scalar ``Stream`` is built.  Each lane draws exactly
what its ``Stream`` draws: a lane whose bounded draw is rejected steps
again, alone, until it is accepted.  The scalar ``Stream``, ``derive_seed``
and ``substream`` are the public one-trial API and the oracle for the lanes.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    # SplitMix64 finalizer (Steele/Lea/Flood 2014).
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Stream:
    """xoshiro256** stream with unbiased bounded draws."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        sm = seed & _MASK
        state = []
        for _ in range(4):
            sm = (sm + _GOLDEN) & _MASK
            state.append(_mix64(sm))
        self._s0, self._s1, self._s2, self._s3 = state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = _rotl(s1 * 5 & _MASK, 7) * 9 & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection (no modulo bias)."""
        threshold = _threshold(bound)
        while True:
            u = self.next_u64()
            if u < threshold:
                return u % bound


def _threshold(bound: int) -> int:
    """Smallest 64-bit draw that ``randbelow(bound)`` rejects (2**64 when
    none is).  Bounds above 2**64 would reject every draw."""
    if not 0 < bound <= 1 << 64:
        raise ValueError(f"bound must be in [1, 2**64]: {bound}")
    return (1 << 64) - ((1 << 64) % bound)


def _mix64_lanes(z):
    # _mix64 on a uint64 array; numpy array products wrap mod 2**64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class Lanes:
    """xoshiro256** on many streams at once, one ``uint64`` lane each.

    Lane i starts in the state of ``Stream(seeds[i])``: the same four
    SplitMix64 rounds, on the whole array.  ``seeds`` is a ``uint64`` array,
    as ``derive_seeds`` gives it, or any sequence of ints, taken mod 2**64
    as ``Stream`` takes them.
    """

    __slots__ = ("_state",)

    def __init__(self, seeds):
        if not isinstance(seeds, np.ndarray):
            seeds = [seed & _MASK for seed in seeds]
        sm = np.array(seeds, dtype=np.uint64)  # a copy: the rounds below add in place
        self._state = []
        for _ in range(4):
            sm += np.uint64(_GOLDEN)
            self._state.append(_mix64_lanes(sm))

    def __len__(self):
        return self._state[0].shape[0]

    def next_u64(self, lanes=None):
        """One xoshiro256** step on every lane, or only on the lanes that the
        index array ``lanes`` names; a new ``uint64`` array.

        Fourteen numpy passes, two of them into new arrays: the output, and
        one scratch array for the shifted words.  The state words step in
        place.  The output's rotl(5 s1, 7) is taken as (5 s1 << 7) + (5 s1
        >> 57): the two halves share no bit, so the sum is the bitwise or.
        The shifts and factors are Python ints, which numpy applies to the
        ``uint64`` words without building a scalar on each call."""
        state = self._state if lanes is None else [word[lanes] for word in self._state]
        s0, s1, s2, s3 = state
        result = s1 * 5
        spare = result >> 57
        result <<= 7
        result += spare
        result *= 9
        np.left_shift(s1, 17, out=spare)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= spare
        np.right_shift(s3, 19, out=spare)  # s3 = rotl(s3, 45)
        s3 <<= 45
        s3 |= spare
        if lanes is not None:
            for word, stepped in zip(self._state, state):
                word[lanes] = stepped
        return result

    def randbelow(self, bound: int):
        """``Stream.randbelow(bound)`` on every lane: a lane whose draw is
        rejected draws again, alone, until it is accepted.

        One reduction, the maximum, tests the whole step for a rejection.
        The remainder is u - (u // bound) * bound, in place: numpy divides by
        a scalar without a hardware division, which ``%`` does not."""
        threshold = _threshold(bound)
        u = self.next_u64()
        if int(u.max(initial=0)) >= threshold:  # never when bound divides 2**64
            limit = np.uint64(threshold)
            lanes = np.flatnonzero(u >= limit)
            while lanes.size:
                redrawn = self.next_u64(lanes)
                u[lanes] = redrawn
                lanes = lanes[redrawn >= limit]
        if bound < 1 << 64:
            quotient = u // bound
            quotient *= bound
            u -= quotient
        return u


def derive_seed(master_seed: int, index: int) -> int:
    """Child seed for item ``index``; distinct indices never collide."""
    return (_mix64(master_seed & _MASK) + index * _GOLDEN) & _MASK


def derive_seeds(master_seed: int, index: int, count: int) -> np.ndarray:
    """``derive_seed(master_seed, index + i)`` for i < count, as a ``uint64``
    array: consecutive child seeds differ by the golden gamma, mod 2**64."""
    steps = np.arange(count, dtype=np.uint64) * np.uint64(_GOLDEN)
    return steps + np.uint64(derive_seed(master_seed, index))


def substream(master_seed: int, index: int) -> Stream:
    """Stream for item ``index`` under ``master_seed``.

    Distinct indices give distinct SplitMix64 starting points, so
    substreams never alias for a fixed master seed.
    """
    return Stream(derive_seed(master_seed, index))
