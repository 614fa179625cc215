"""Shared corpus and brute-force oracles used across test modules."""

import pytest

from syncmonoid import Endofunction, GeneratorSet, SimpleGraph, random_endofunction, rng, substream
from syncmonoid.graphs import _bits


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


def _merge_classes(n: int, require_merge):
    """Vertex classes after identifying a required-merge pair."""
    rep = list(range(n))
    if require_merge is not None:
        v, w = require_merge
        if v == w:
            raise ValueError("require_merge needs two distinct vertices")
        a, b = min(v, w), max(v, w)
        rep[b] = a
    return rep


def _endomorphism_csp(x: SimpleGraph, pins=None, require_merge=None):
    """Backtracking search for edge-preserving maps; yields image tuples.
    The oracle of ``graphs.endomorphism_blocks``, which must give the same
    maps in the same order.

    Variables are vertex classes (a merged pair is one class), ordered by
    decreasing degree; domains are bitmasks with forward checking.
    """
    n = x.n
    rows = x.rows
    rep = _merge_classes(n, require_merge)
    classes = sorted({r for r in rep})
    members = {r: [v for v in range(n) if rep[v] == r] for r in classes}

    # class-level adjacency; a class with an internal edge cannot map anywhere
    class_adj = {}
    for r in classes:
        mask = 0
        for v in members[r]:
            mask |= rows[v]
        if any(mask >> v & 1 for v in members[r]):
            return  # merging an edge would create a loop
        class_adj[r] = mask

    full = (1 << n) - 1
    domain = {r: full for r in classes}
    if pins:
        for v, target in pins.items():
            if not (0 <= v < n and 0 <= target < n):
                raise ValueError(f"pin {v}->{target} out of range")
            r = rep[v]
            domain[r] &= 1 << target
            if domain[r] == 0:
                return  # conflicting pins on a merged pair

    order = sorted(classes, key=lambda r: (-bin(class_adj[r]).count("1"), r))
    class_pos = {r: i for i, r in enumerate(order)}
    assignment = {}

    def extend(i: int, domains: dict):
        if i == len(order):
            imgs = [0] * n
            for v in range(n):
                imgs[v] = assignment[rep[v]]
            yield tuple(imgs)
            return
        r = order[i]
        for y in _bits(domains[r]):
            new_domains = domains
            ok = True
            changed = None
            for s in _bits(class_adj[r]):
                sr = rep[s]
                if class_pos[sr] > i:
                    narrowed = new_domains[sr] & rows[y]
                    if narrowed == 0:
                        ok = False
                        break
                    if narrowed != new_domains[sr]:
                        if changed is None:
                            new_domains = dict(new_domains)
                            changed = True
                        new_domains[sr] = narrowed
            if not ok:
                continue
            assignment[r] = y
            yield from extend(i + 1, new_domains)
            del assignment[r]

    yield from extend(0, domain)
