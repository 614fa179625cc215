"""Endofunctions of {0, ..., n-1}: the elements of the full transformation monoid.

Composition is LEFT-TO-RIGHT throughout: ``compose(f, g)`` applies f first,
then g, i.e. v(fg) = (vf)g.  This matches the postfix convention used in
transformation-monoid work and is the opposite of function composition in
most Python libraries, so it is worth stating once and loudly.

Points are 0-based internally; the 1-based convention of the file formats
is handled at the I/O boundary (see formats.py).

``random_tables`` draws the generators of many trials at once on
``rng.Lanes``; each lane holds exactly what ``random_permutation`` and
``random_endofunction`` draw from that lane's stream.  ``lane_blocks``, the
one way the experiments draw trials, runs it over seeded lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Lanes, Stream, derive_seeds

# Image-table entries, lanes * (r + s) * n, in one block of trials (1 MB of
# intp), but never fewer than LANE_FLOOR lanes, which wins once n * (r + s) >
# 2,048: at the Monte Carlo pair budget, n = 5,793, a block's tables take
# 64 * 5,793 * 8 B = 2.97 MB per generator.
LANE_BUDGET = 2**17
LANE_FLOOR = 64


class Endofunction:
    """A total map on {0, ..., n-1}, stored as an image table."""

    __slots__ = ("n", "images")

    def __init__(self, images):
        imgs = tuple(images)
        n = len(imgs)
        if n == 0:
            raise ValueError("degree must be at least 1")
        for v in imgs:
            if not 0 <= v < n:
                raise ValueError(f"image {v} out of range for degree {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Endofunction is immutable")

    def __call__(self, v: int) -> int:
        return self.images[v]

    def __eq__(self, other):
        return isinstance(other, Endofunction) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Endofunction({list(self.images)})"

    def __mul__(self, other: "Endofunction") -> "Endofunction":
        """Left-to-right product: (f * g)(v) = g(f(v))."""
        return compose(self, other)

    @classmethod
    def from_one_based(cls, images) -> "Endofunction":
        """Construct from a 1-based image table, e.g. [2, 3, 1]."""
        return cls([v - 1 for v in images])

    def one_based(self) -> list[int]:
        return [v + 1 for v in self.images]


def identity(n: int) -> Endofunction:
    return Endofunction(range(n))


def constant(n: int, target: int) -> Endofunction:
    return Endofunction([target] * n)


def compose(f: Endofunction, g: Endofunction) -> Endofunction:
    """Apply f, then g (left-to-right): result(v) = g(f(v))."""
    if f.n != g.n:
        raise ValueError(f"degree mismatch: {f.n} != {g.n}")
    gi = g.images
    return Endofunction([gi[v] for v in f.images])


def image_set(f: Endofunction) -> frozenset[int]:
    return frozenset(f.images)


def rank(f: Endofunction) -> int:
    """Number of distinct images; 1 means f is constant."""
    return len(set(f.images))


def is_permutation(f: Endofunction) -> bool:
    return rank(f) == f.n


@dataclass(frozen=True)
class KernelPartition:
    """Partition of the domain into preimage classes: v ~ w iff vf = wf."""

    n: int
    blocks: tuple[frozenset[int], ...]

    def block_of(self, v: int) -> frozenset[int]:
        for b in self.blocks:
            if v in b:
                return b
        raise ValueError(f"point {v} out of range")


def kernel(f: Endofunction) -> KernelPartition:
    by_image: dict[int, list[int]] = {}
    for v, w in enumerate(f.images):
        by_image.setdefault(w, []).append(v)
    blocks = sorted(by_image.values(), key=min)
    return KernelPartition(f.n, tuple(frozenset(b) for b in blocks))


@dataclass(frozen=True)
class PeriodicitySummary:
    """Periodic points of a map and the cycle structure they carry."""

    periodic_points: frozenset[int]
    cycle_lengths: tuple[int, ...]


def periodicity(f: Endofunction) -> PeriodicitySummary:
    """Periodic points and cycle lengths, read off one walk over the map.

    The periodic points are exactly the image of f^n; f restricted to them
    is a permutation, whose cycles the walk finds one by one.
    """
    cycles = list(_cycles(f.images))
    points = frozenset(v for cycle in cycles for v in cycle)
    return PeriodicitySummary(points, tuple(sorted(len(cycle) for cycle in cycles)))


def has_unique_periodic_point(f: Endofunction) -> bool:
    """True iff exactly one point of f is periodic (iff f eventually collapses
    everything to one fixed point, i.e. some power of f has rank 1).

    Stops walking as soon as the first cycle is longer than one point or a
    second cycle turns up.
    """
    cycles = _cycles(f.images)
    return len(next(cycles)) == 1 and next(cycles, None) is None


def _cycles(imgs):
    """Yield each cycle of the map once, as a list of its points, from a
    single O(n) walk that follows every point to its eventual cycle."""
    # state: 0 unvisited, 1 on current walk, 2 finished
    state = [0] * len(imgs)
    for start in range(len(imgs)):
        if state[start]:
            continue
        path = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = imgs[v]
        if state[v] == 1:
            yield path[path.index(v):]
        for w in path:
            state[w] = 2


def random_endofunction(n: int, stream: Stream) -> Endofunction:
    """Uniform over all n**n maps."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    return Endofunction([stream.randbelow(n) for _ in range(n)])


def random_permutation(n: int, stream: Stream) -> Endofunction:
    """Uniform over all n! permutations (Fisher-Yates)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    imgs = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.randbelow(i + 1)
        imgs[i], imgs[j] = imgs[j], imgs[i]
    return Endofunction(imgs)


def random_tables(n: int, num_permutations: int, num_endofunctions: int, lanes: Lanes):
    """Image tables of shape (lanes, r + s, n), ``intp``: per lane, r
    uniform permutations then s uniform endofunctions, in the order and with
    the values of ``random_permutation`` and ``random_endofunction`` on the
    lane's stream."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    k = num_permutations + num_endofunctions
    out = np.empty((len(lanes), k, n), dtype=np.intp)
    flat = out.reshape(-1)
    for g in range(num_permutations):
        imgs = out[:, g]
        imgs[:] = np.arange(n)
        starts = np.arange(g * n, flat.size, k * n)  # where each lane's table g starts in flat
        for i in range(n - 1, 0, -1):  # Fisher-Yates, one column for all lanes
            j = lanes.randbelow(i + 1).view(np.intp)  # below i + 1: the same number as an intp
            j += starts
            picked = flat.take(j)
            flat[j] = imgs[:, i]
            imgs[:, i] = picked
    for g in range(num_permutations, num_permutations + num_endofunctions):
        for v in range(n):
            out[:, g, v] = lanes.randbelow(n)
    return out


def lane_blocks(n: int, r: int, s: int, seed: int, lo: int, hi: int):
    """Trials lo..hi of ``seed`` in blocks of ``max(LANE_FLOOR, LANE_BUDGET //
    (n * (r + s)))`` lanes; yields (first trial, image tables), where row i
    of the tables holds the r permutations and then the s maps that
    ``random_permutation`` and ``random_endofunction`` draw from
    ``substream(seed, first + i)``, as ``random_tables`` draws them."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    size = max(LANE_FLOOR, LANE_BUDGET // (n * (r + s)))
    for start in range(lo, hi, size):
        lanes = Lanes(derive_seeds(seed, start, min(size, hi - start)))
        yield start, random_tables(n, r, s, lanes)
