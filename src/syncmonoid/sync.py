"""Synchronization machinery for finitely generated transformation monoids.

The central object is the action of the generators on unordered vertex
pairs: a pair {v, w} is *collapsible* when some product of generators sends
v and w to the same point.  Backward closure over that pair automaton, in
O(k * n^2), decides collapsibility for every pair at once and stores
back-pointers from which explicit merging words are reconstructed.  The
pairs that are NOT collapsible form a graph (the separation graph of the
monoid); the monoid is synchronizing exactly when that graph has no edges.

``monoid_closure`` and ``separation_graph_of_elements`` provide the
brute-force oracle route: enumerate the monoid, then apply definitions
literally.  The two routes are cross-checked in the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import CapExceeded
from .graphs import SimpleGraph, pair_numbering
from .transform import Endofunction

Word = tuple[int, ...]  # generator indices; empty word = identity


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered, nonempty list of equal-degree endofunctions.

    Represents the monoid they generate; the identity is always a member
    even when not listed.
    """

    n: int
    generators: tuple[Endofunction, ...]

    def __init__(self, generators):
        gens = tuple(generators)
        if not gens:
            raise ValueError("need at least one generator")
        n = gens[0].n
        for g in gens:
            if g.n != n:
                raise ValueError(f"degree mismatch: {g.n} != {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", gens)

    def __len__(self):
        return len(self.generators)

    def evaluate(self, word: Word) -> Endofunction:
        """Left-to-right product of the indexed generators."""
        images = list(range(self.n))
        for gi in word:
            g = self.generators[gi].images
            images = [g[v] for v in images]
        return Endofunction(images)


class CollapsibilityTable:
    """Per-pair collapsibility with witness back-pointers.

    For a collapsible pair the witness is either a generator that merges it
    outright, or a generator plus the successor pair it maps onto; chaining
    witnesses yields a merging word of length at most n(n-1)/2.
    """

    __slots__ = ("n", "_offs", "collapsible", "_wit_gen", "_wit_next")

    def __init__(self, n, offs, collapsible, wit_gen, wit_next):
        self.n = n
        self._offs = offs
        self.collapsible = collapsible
        self._wit_gen = wit_gen
        self._wit_next = wit_next

    def pair_index(self, v: int, w: int) -> int:
        if v == w:
            raise ValueError("pairs are unordered and distinct")
        if v > w:
            v, w = w, v
        if not 0 <= v < w < self.n:
            raise ValueError(f"pair {{{v},{w}}} out of range")
        return self._offs[v] + w

    def is_collapsible(self, v: int, w: int) -> bool:
        return self.collapsible[self.pair_index(v, w)]

    def all_collapsible(self) -> bool:
        return all(self.collapsible)

    def merging_word(self, v: int, w: int) -> Word:
        p = self.pair_index(v, w)
        if not self.collapsible[p]:
            raise ValueError(f"pair {{{v},{w}}} is not collapsible")
        word = []
        while p is not None:
            word.append(self._wit_gen[p])
            p = self._wit_next[p]
        return tuple(word)


def collapsible_pairs(gens: GeneratorSet) -> CollapsibilityTable:
    """Backward closure on the pair automaton.

    Seed with pairs some single generator merges, then repeatedly pull in
    any pair that some generator maps onto an already-collapsible pair.
    Deterministic: pairs are scanned in lexicographic order and generators
    in index order, so witnesses (hence words) are reproducible.
    """
    n = gens.n
    pairs, offs = pair_numbering(n)
    pair_count = len(pairs)
    collapsible = [False] * pair_count
    wit_gen: list[int | None] = [None] * pair_count
    wit_next: list[int | None] = [None] * pair_count
    rev: list[list[tuple[int, int]]] = [[] for _ in range(pair_count)]
    queue: deque[int] = deque()

    images = [g.images for g in gens.generators]
    for p, (v, w) in enumerate(pairs):
        for gi, imgs in enumerate(images):
            a, b = imgs[v], imgs[w]
            if a == b:
                if not collapsible[p]:
                    collapsible[p] = True
                    wit_gen[p] = gi
                    queue.append(p)
            else:
                q = offs[a] + b if a < b else offs[b] + a
                rev[q].append((p, gi))

    while queue:
        q = queue.popleft()
        for p, gi in rev[q]:
            if not collapsible[p]:
                collapsible[p] = True
                wit_gen[p] = gi
                wit_next[p] = q
                queue.append(p)

    return CollapsibilityTable(n, offs, collapsible, wit_gen, wit_next)


def separation_graph(gens: GeneratorSet) -> SimpleGraph:
    """Graph on the points whose edges are the non-collapsible pairs."""
    table = collapsible_pairs(gens)
    pairs, _ = pair_numbering(gens.n)
    edges = [pair for pair, ok in zip(pairs, table.collapsible) if not ok]
    return SimpleGraph.from_edges(gens.n, edges)


def separation_graph_of_elements(elements) -> SimpleGraph:
    """Same graph, computed literally from an explicit element list."""
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one element")
    n = elements[0].n
    edges = []
    for v in range(n):
        for w in range(v + 1, n):
            if not any(e.images[v] == e.images[w] for e in elements):
                edges.append((v, w))
    return SimpleGraph.from_edges(n, edges)


def is_synchronizing(gens: GeneratorSet) -> bool:
    """True iff the generated monoid contains a rank-1 element, i.e. every
    pair is collapsible, i.e. the separation graph is null."""
    return collapsible_pairs(gens).all_collapsible()


def merging_word(gens: GeneratorSet, v: int, w: int) -> Word:
    """A word whose evaluation sends v and w to the same point."""
    return collapsible_pairs(gens).merging_word(v, w)


def min_rank_witness(gens: GeneratorSet) -> tuple[Word, Endofunction]:
    """Greedy collapse to an element of minimum rank.

    Starting from the identity, repeatedly merge the lexicographically first
    collapsible pair inside the current image.  The loop ends when the image
    is a clique of the separation graph; the final rank equals the minimum
    rank over the whole monoid (and the clique/chromatic number of the
    separation graph).  Total word length is at most n^3.
    """
    table = collapsible_pairs(gens)
    n = gens.n
    word: list[int] = []
    current = list(range(n))
    while True:
        img = sorted(set(current))
        target = None
        for i, v in enumerate(img):
            for w in img[i + 1 :]:
                if table.collapsible[table.pair_index(v, w)]:
                    target = (v, w)
                    break
            if target:
                break
        if target is None:
            break
        piece = table.merging_word(*target)
        word.extend(piece)
        for gi in piece:
            g = gens.generators[gi].images
            current = [g[v] for v in current]
    return tuple(word), Endofunction(current)


def shortest_synchronizing_word(gens: GeneratorSet, cap: int = 10**6) -> Word | None:
    """Minimum-length word of rank 1, or None if the monoid never
    synchronizes.  Breadth-first search over subsets of the point set,
    expanding generators in index order, which makes the answer the
    lexicographically least among the shortest words.  Exponential in n:
    raises CapExceeded once it has visited more than ``cap`` subsets.
    """
    n = gens.n
    start = (1 << n) - 1
    if n == 1:
        return ()
    shift = [[1 << g.images[v] for v in range(n)] for g in gens.generators]
    parents: dict[int, tuple[int, int]] = {start: (-1, -1)}
    queue = deque([start])

    def path(mask: int) -> Word:
        word = []
        while mask != start:
            prev, gi = parents[mask]
            word.append(gi)
            mask = prev
        return tuple(reversed(word))

    while queue:
        mask = queue.popleft()
        for gi, bits in enumerate(shift):
            nxt = 0
            m = mask
            while m:
                v = (m & -m).bit_length() - 1
                nxt |= bits[v]
                m &= m - 1
            if nxt not in parents:
                parents[nxt] = (mask, gi)
                if nxt & (nxt - 1) == 0:  # singleton
                    return path(nxt)
                if len(parents) > cap:
                    raise CapExceeded("shortest word search exceeded cap", len(parents))
                queue.append(nxt)
    return None


def monoid_closure(gens: GeneratorSet, cap: int = 10**6) -> list[Endofunction]:
    """All elements of the generated monoid (identity included), by
    breadth-first right multiplication.  Raises CapExceeded past ``cap``."""
    n = gens.n
    start = tuple(range(n))
    seen = {start}
    order = [start]
    queue = deque([start])
    images = [g.images for g in gens.generators]
    while queue:
        t = queue.popleft()
        for imgs in images:
            u = tuple(imgs[v] for v in t)
            if u not in seen:
                seen.add(u)
                order.append(u)
                if len(order) > cap:
                    raise CapExceeded("monoid closure exceeded cap", len(order))
                queue.append(u)
    return [Endofunction(t) for t in order]
