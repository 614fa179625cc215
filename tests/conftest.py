"""Shared corpus and brute-force oracles used across test modules."""

import pytest

from syncmonoid import Endofunction, GeneratorSet, random_endofunction, rng, substream


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


@pytest.fixture
def capped_threshold(monkeypatch):
    """Cap the rejection threshold of every bounded draw at 2**63, so that a
    ``Stream`` and ``Lanes`` alike really reject about half of all draws."""
    threshold = rng._threshold
    monkeypatch.setattr(rng, "_threshold", lambda bound: min(threshold(bound), 2**63))
