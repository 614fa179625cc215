"""Shared corpus and brute-force oracles used across test modules."""

import numpy as np
import pytest

from syncmonoid import Endofunction, GeneratorSet, random_endofunction, substream
from syncmonoid.rng import Lanes


CORPUS_SEED = 0x5EED


def build_instances(count=200, max_n=5, max_k=3, seed=CORPUS_SEED):
    """Deterministic random generator sets with 2 <= n <= max_n, 1 <= k <= max_k."""
    instances = []
    for i in range(count):
        stream = substream(seed, i)
        n = 2 + stream.randbelow(max_n - 1)
        k = 1 + stream.randbelow(max_k)
        gens = [random_endofunction(n, stream) for _ in range(k)]
        instances.append(GeneratorSet(gens))
    return instances


@pytest.fixture(scope="session")
def instance_corpus():
    return build_instances()


def merges(elements, v, w):
    """Oracle: does some listed element send v and w to the same point?"""
    return any(e.images[v] == e.images[w] for e in elements)


def cerny4():
    a = Endofunction.from_one_based([2, 3, 4, 1])
    b = Endofunction.from_one_based([2, 2, 3, 4])
    return GeneratorSet([a, b])


def flaky_randbelow(monkeypatch):
    """Make Lanes.randbelow flag every third lane and spoil its value, as a
    rejected draw would."""
    original = Lanes.randbelow

    def flaky(self, bound):
        values = original(self, bound)
        spoiled = np.arange(values.shape[0]) % 3 == 1
        self.rejected |= spoiled
        values[spoiled] = bound - 1
        return values

    monkeypatch.setattr(Lanes, "randbelow", flaky)
