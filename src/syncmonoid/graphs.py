"""Exact computations on small undirected graphs.

Vertices are 0..n-1; adjacency is one bitmask per vertex.  Everything here
is exact and deterministic: branch-and-bound cliques, DSATUR backtracking
coloring, graph endomorphisms, hulls, derived graphs, a maximality test for
End(x) that searches graphs with a larger End, and a walk over all graphs
on n vertices that marks each isomorphism class once.

End(x) is searched in one way only: numpy blocks of image tables
(``endomorphism_blocks``), with pinned images or a forced merge if asked,
whose pending partial maps stay within a bound set by ``BLOCK_ROWS`` and n.
``endomorphism_search`` is their first row, ``hull`` streams them and runs
merge searches only on the pairs they leave, and one pass over them
(``endomorphism_pass``) gives |End(x)|, the hull of x and the End(x)-orbits
that the maximality test needs.  A backtracking CSP in the tests is the
oracle of the blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded
from .transform import Endofunction

BLOCK_ROWS = 2**12  # rows of one block of End(x), partial maps included


class SimpleGraph:
    """Loopless undirected graph on {0, ..., n-1} with bitmask rows."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError("need one adjacency row per vertex")
        for v, row in enumerate(rows):
            if row >> n:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(n):
            for w in range(v + 1, n):
                if (rows[v] >> w & 1) != (rows[w] >> v & 1):
                    raise ValueError(f"adjacency not symmetric at {{{v},{w}}}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("SimpleGraph is immutable")

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraph":
        rows = [0] * n
        for v, w in edges:
            if v == w:
                raise ValueError(f"loop at vertex {v}")
            if not (0 <= v < n and 0 <= w < n):
                raise ValueError(f"edge {{{v},{w}}} out of range")
            rows[v] |= 1 << w
            rows[w] |= 1 << v
        return cls(n, rows)

    @classmethod
    def null(cls, n: int) -> "SimpleGraph":
        return cls(n, [0] * n)

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        full = (1 << n) - 1
        return cls(n, [full & ~(1 << v) for v in range(n)])

    @classmethod
    def single_edge(cls, n: int, v: int, w: int) -> "SimpleGraph":
        return cls.from_edges(n, [(v, w)])

    def has_edge(self, v: int, w: int) -> bool:
        return bool(self.rows[v] >> w & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            row = self.rows[v] >> (v + 1) << (v + 1)
            while row:
                w = (row & -row).bit_length() - 1
                out.append((v, w))
                row &= row - 1
        return out

    def num_edges(self) -> int:
        return sum(bin(row).count("1") for row in self.rows) // 2

    def is_null(self) -> bool:
        return not any(self.rows)

    def degree(self, v: int) -> int:
        return bin(self.rows[v]).count("1")

    def __eq__(self, other):
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"SimpleGraph({self.n}, edges={self.edges()})"


def _bits(mask: int):
    while mask:
        v = (mask & -mask).bit_length() - 1
        yield v
        mask &= mask - 1


@functools.lru_cache(maxsize=None)
def pair_numbering(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The n(n-1)/2 unordered pairs of distinct points, in lexicographic
    order, and offsets such that pair (v, w) with v < w has index
    ``offs[v] + w``.

    These slots are both the states of the pair automaton and the possible
    edges of a graph, so every module numbers pairs through this one table.
    """
    pairs = tuple((v, w) for v in range(n) for w in range(v + 1, n))
    offs = tuple(v * (2 * n - v - 1) // 2 - (v + 1) for v in range(n))
    return pairs, offs


# pair_arrays keeps the arrays of every n up to PAIR_ARRAYS_KEPT (under 1 MB
# each) for the life of the process, as the cycle filter asks for those of
# each |C| in every block; a larger n's (256 MB at n = 4,000) stay until
# drop_pair_arrays, which sweep calls between rows.
PAIR_ARRAYS_KEPT = 256
_pair_arrays: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def pair_arrays(n: int):
    """``pair_numbering(n)`` as read-only intp arrays: first points, second
    points (the same lexicographic order), and the flat n*n pair-index
    table whose entry a*n + b is the index of pair {a, b}, or the number
    of pairs n(n-1)/2 (a merged pair) when a == b.  Built once per n, and
    kept as the comment on ``PAIR_ARRAYS_KEPT`` says."""
    arrays = _pair_arrays.get(n)
    if arrays is None:
        arrays = _pair_arrays[n] = _build_pair_arrays(n)
    return arrays


def drop_pair_arrays(keep: int) -> None:
    """Forget the pair arrays of every n above ``PAIR_ARRAYS_KEPT`` except
    n = ``keep``."""
    for n in [n for n in _pair_arrays if n > PAIR_ARRAYS_KEPT and n != keep]:
        del _pair_arrays[n]


def _build_pair_arrays(n: int):
    first, second = np.triu_indices(n, 1)
    index = np.full((n, n), first.size, dtype=np.intp)
    index[first, second] = index[second, first] = np.arange(first.size)
    arrays = (first, second, index.reshape(-1))
    for a in arrays:
        a.flags.writeable = False
    return arrays


# ---------------------------------------------------------------------------
# cliques


def _greedy_color_order(rows, candidates: int):
    """Greedy coloring of the candidate set; returns vertices with their
    color numbers (1-based), colors nondecreasing.  Used as a clique bound."""
    order = []
    bounds = []
    color = 0
    rest = candidates
    while rest:
        color += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~rows[v] & ~(1 << v)
            rest &= ~(1 << v)
            order.append(v)
            bounds.append(color)
    return order, bounds


def clique_number(x: SimpleGraph) -> int:
    """Exact maximum-clique size (a lone vertex counts as a clique of 1)."""
    rows = x.rows
    best = 1

    def expand(size: int, candidates: int):
        nonlocal best
        order, bounds = _greedy_color_order(rows, candidates)
        cand = candidates
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            if size + 1 > best:
                best = size + 1
            nxt = cand & rows[v]
            if nxt:
                expand(size + 1, nxt)
            cand &= ~(1 << v)

    expand(0, (1 << x.n) - 1)
    return best


def max_cliques(x: SimpleGraph) -> list[frozenset[int]]:
    """All cliques of size exactly clique_number(x), sorted."""
    omega = clique_number(x)
    rows = x.rows
    found = []

    def grow(members: list[int], candidates: int):
        if len(members) == omega:
            found.append(frozenset(members))
            return
        need = omega - len(members)
        cand = candidates
        while cand:
            if bin(cand).count("1") < need:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            grow(members + [v], cand & rows[v])

    grow([], (1 << x.n) - 1)
    return sorted(found, key=sorted)


# ---------------------------------------------------------------------------
# coloring


def color_graph(x: SimpleGraph) -> tuple[int, list[int]]:
    """Chromatic number with a witness coloring (colors 0..k-1).

    Iterative deepening on k; within each k a DSATUR-ordered backtracking
    search with first-fresh-color symmetry breaking.
    """
    n = x.n
    rows = x.rows
    for k in range(1, n + 1):
        colors = [-1] * n
        forbidden = [0] * n  # bitmask of colors used by assigned neighbors

        def pick() -> int:
            best_v = -1
            best_key = (-1, -1)
            for v in range(n):
                if colors[v] < 0:
                    key = (bin(forbidden[v]).count("1"), bin(rows[v]).count("1"))
                    if key > best_key:
                        best_key = key
                        best_v = v
            return best_v

        def backtrack(assigned: int, used: int) -> bool:
            if assigned == n:
                return True
            v = pick()
            limit = min(used + 1, k)
            for c in range(limit):
                if forbidden[v] >> c & 1:
                    continue
                colors[v] = c
                touched = []
                for u in _bits(rows[v]):
                    if colors[u] < 0 and not forbidden[u] >> c & 1:
                        forbidden[u] |= 1 << c
                        touched.append(u)
                if backtrack(assigned + 1, max(used, c + 1)):
                    return True
                colors[v] = -1
                for u in touched:
                    forbidden[u] &= ~(1 << c)
            return False

        if backtrack(0, 0):
            return k, colors
    raise AssertionError("unreachable: n colors always suffice")


def chromatic_number(x: SimpleGraph) -> int:
    return color_graph(x)[0]


# ---------------------------------------------------------------------------
# endomorphisms


def is_endomorphism(x: SimpleGraph, f: Endofunction) -> bool:
    """True iff f maps every edge of x to an edge (non-edges unconstrained)."""
    if f.n != x.n:
        return False
    rows = x.rows
    imgs = f.images
    for v, w in x.edges():
        if not rows[imgs[v]] >> imgs[w] & 1:
            return False
    return True


def _adjacency(x: SimpleGraph) -> np.ndarray:
    """Adjacency of x as an n x n bool matrix."""
    return np.array([[row >> w & 1 for w in range(x.n)] for row in x.rows], dtype=bool)


def endomorphism_blocks(x: SimpleGraph, pins=None, require_merge=None):
    """Yield every endomorphism of x once, as the rows of image tables in
    blocks of at most ``BLOCK_ROWS`` rows (uint8 for n <= 256), in the
    lexicographic order of their images in the placing order below.

    ``pins`` maps vertices to forced images, and ``require_merge=(v, w)``
    keeps only the maps that send v and w to one point.  Partial maps grow
    one vertex at a time, by decreasing degree, the two vertices of a merge
    pair side by side where the degree of their union puts them: a vertex
    may go to every target adjacent to the images of its placed neighbors,
    and the second of the pair only to the image of the first.  The search
    goes depth first and grows at most BLOCK_ROWS // n partial maps (at
    least one) at a time.  So each of the n levels holds one such chunk and
    the (row, target) index pairs of its children not grown yet, at most
    BLOCK_ROWS of them (n when n > BLOCK_ROWS), whatever the size of End(x).
    """
    n = x.n
    rows = x.rows
    pinned = {}  # vertex -> the targets its pins leave it, as a bool row
    for v, target in (pins or {}).items():
        if not (0 <= v < n and 0 <= target < n):
            raise ValueError(f"pin {v}->{target} out of range")
        pinned[v] = np.arange(n) == target
    key = {v: (-bin(rows[v]).count("1"), v) for v in range(n)}
    tied = None
    if require_merge is not None:
        a, tied = sorted(require_merge)
        if a == tied:
            raise ValueError("require_merge needs two distinct vertices")
        if rows[a] >> tied & 1:
            return  # merging an edge would need a loop
        key[a] = (-bin(rows[a] | rows[tied]).count("1"), a)
        key[tied] = key[a] + (1,)  # right after a
        if tied in pinned:
            pinned[a] = pinned.pop(tied) & pinned.get(a, True)
    order = sorted(key, key=key.get)
    place = [0] * n
    for i, v in enumerate(order):
        place[v] = i
    placed = [[place[w] for w in _bits(rows[v]) if place[w] < i] for i, v in enumerate(order)]
    adj = _adjacency(x)

    stack = []  # per level: a chunk of partial maps, and its children not grown yet

    def push(part):
        i = part.shape[1]
        allowed = np.ones((part.shape[0], n), dtype=bool)
        for j in placed[i]:
            allowed &= adj[part[:, j]]
        if order[i] in pinned:
            allowed &= pinned[order[i]]
        if order[i] == tied:
            allowed &= part[:, i - 1, None] == np.arange(n)
        parents, targets = np.nonzero(allowed)
        if parents.size:
            stack.append((part, parents, targets))

    step = max(1, BLOCK_ROWS // n)
    push(np.zeros((1, 0), dtype=np.min_scalar_type(n - 1)))
    while stack:
        part, parents, targets = stack.pop()
        i = part.shape[1]
        take = BLOCK_ROWS if i + 1 == n else step
        if parents.shape[0] > take:
            stack.append((part, parents[take:], targets[take:]))
        grown = np.empty((min(take, parents.shape[0]), i + 1), dtype=part.dtype)
        grown[:, :i] = part[parents[:take]]
        grown[:, i] = targets[:take]
        if i + 1 == n:
            yield grown[:, place]
        else:
            push(grown)


def endomorphism_search(x: SimpleGraph, pins=None, require_merge=None):
    """First endomorphism compatible with the constraints, or None.

    ``pins`` maps vertices to forced images; ``require_merge=(v, w)`` demands
    the images of v and w coincide.  Deterministic: the first row of
    ``endomorphism_blocks``, so "any endomorphism" is reproducible.
    """
    for block in endomorphism_blocks(x, pins, require_merge):
        return Endofunction(block[0].tolist())
    return None


def _capped_blocks(x: SimpleGraph, cap: int, message: str):
    """``endomorphism_blocks(x)``, raising CapExceeded(message, cap + 1)
    once more than ``cap`` rows have come."""
    count = 0
    for block in endomorphism_blocks(x):
        count += block.shape[0]
        if count > cap:
            raise CapExceeded(message, cap + 1)
        yield block


def enumerate_endomorphisms(x: SimpleGraph, cap: int = 10**6) -> list[Endofunction]:
    """All endomorphisms of x, sorted by image table."""
    blocks = _capped_blocks(x, cap, "endomorphism enumeration exceeded cap")
    tables = np.concatenate(list(blocks)).tolist()
    return [Endofunction(t) for t in sorted(map(tuple, tables))]


def endomorphism_count(x: SimpleGraph, cap: int = 10**6) -> int:
    blocks = _capped_blocks(x, cap, "endomorphism count exceeded cap")
    return sum(block.shape[0] for block in blocks)


@dataclass(frozen=True)
class EndomorphismPass:
    """What one pass over End(x) shows: its size, the hull of x (the pairs
    no endomorphism merges), and the End(x)-orbits of the hull's edges, each
    a bitmask in which bit p stands for ``pair_numbering(n)`` pair p."""

    count: int
    hull: SimpleGraph
    orbits: frozenset[int]


@functools.lru_cache(maxsize=None)
def _pair_bits(n: int):
    """``1 << slot`` of the pair {a, b} as an n x n table, with slot
    m = n(n-1)/2 on the diagonal: int64, or Python ints from m = 63 on."""
    index = pair_arrays(n)[2].reshape(n, n)
    return np.left_shift(1, index.astype(np.int64 if n * (n - 1) // 2 < 63 else object))


def endomorphism_pass(x: SimpleGraph, cap: int | None = None) -> EndomorphismPass:
    """One pass over the blocks of End(x), at most ``cap`` rows of it if a
    cap is given.  Each pair not merged so far ORs in ``1 << slot`` of its
    images, where slot m = n(n-1)/2 stands for a merged pair; a merged pair
    leaves the hull and is not looked at again."""
    n = x.n
    pairs, _ = pair_numbering(n)
    m = len(pairs)
    bit, (first, second, _) = _pair_bits(n), pair_arrays(n)
    orbit = np.zeros(m, dtype=bit.dtype)
    live = np.arange(m)  # the pairs that no map so far merges
    count = 0
    if cap is None:
        blocks = endomorphism_blocks(x)
    else:
        blocks = _capped_blocks(x, cap, "endomorphism enumeration exceeded cap")
    for block in blocks:
        count += block.shape[0]
        if live.size:
            images = bit[block[:, first[live]], block[:, second[live]]]
            orbit[live] |= np.bitwise_or.reduce(images, axis=0)
            live = live[orbit[live] >> m == 0]
    kept = live.tolist()
    hull_x = SimpleGraph.from_edges(n, [pairs[p] for p in kept])
    return EndomorphismPass(count, hull_x, frozenset(int(orbit[p]) for p in kept))


# ---------------------------------------------------------------------------
# hull and derived graph


def hull(x: SimpleGraph) -> SimpleGraph:
    """Graph whose edges are the pairs no endomorphism of x can merge.

    The blocks of End(x) come in one at a time, and each drops the pairs it
    merges, until a block drops none, no pair is left, or End(x) ends.  If
    End(x) ended, the pairs left are the hull.  Else each pair left gets a
    merge search, and each map found drops every pair left that it merges.
    So the null graph, whose End(x) has n^n maps, is done after one block.
    ``endomorphism_pass`` reads the same pairs off a whole End(x).
    """
    n = x.n
    pairs, _ = pair_numbering(n)
    first, second, _ = pair_arrays(n)
    live = np.arange(len(pairs))  # the pairs no map so far merges
    for block in endomorphism_blocks(x):
        before, lo = live.size, 0
        while lo < block.shape[0] and live.size:  # at most BLOCK_ROWS * n pairs compared at once
            rows = block[lo : lo + max(1, BLOCK_ROWS * n // live.size)]
            live = live[(rows[:, first[live]] != rows[:, second[live]]).all(axis=0)]
            lo += rows.shape[0]
        if live.size in (before, 0):
            break
    else:
        return SimpleGraph.from_edges(n, [pairs[p] for p in live.tolist()])
    kept = np.zeros(len(pairs), dtype=bool)
    kept[live] = True
    for p in live.tolist():
        if kept[p]:
            found = next(endomorphism_blocks(x, require_merge=pairs[p]), None)
            if found is not None:  # its first row merges p and maybe more
                kept[live[found[0, first[live]] == found[0, second[live]]]] = False
    return SimpleGraph.from_edges(n, [pairs[p] for p in np.flatnonzero(kept).tolist()])


def is_hull(x: SimpleGraph) -> bool:
    return hull(x) == x


def derived_graph(x: SimpleGraph) -> SimpleGraph:
    """Spanning subgraph keeping only edges inside some maximum clique."""
    keep = []
    for clique in max_cliques(x):
        verts = sorted(clique)
        for i, v in enumerate(verts):
            for w in verts[i + 1 :]:
                keep.append((v, w))
    return SimpleGraph.from_edges(x.n, keep)


# ---------------------------------------------------------------------------
# maximality of End(x) as a non-synchronizing monoid


@dataclass(frozen=True)
class MaximalityConditions:
    """The checkable sufficient conditions for End(x) to be a maximal
    non-synchronizing monoid: x is its own hull, clique and chromatic
    numbers agree, and every edge lies in a maximum clique."""

    is_hull: bool
    omega: int
    chi: int
    every_edge_in_max_clique: bool
    passes: bool


def check_maximality_conditions(
    x: SimpleGraph, own_hull: bool | None = None
) -> MaximalityConditions:
    """The conditions for x; ``own_hull`` is ``is_hull(x)`` when it is
    already known, from ``endomorphism_pass(x).hull``."""
    if own_hull is None:
        own_hull = is_hull(x)
    omega = clique_number(x)
    chi = chromatic_number(x)
    every_edge = derived_graph(x) == x
    passes = own_hull and omega == chi and every_edge and not x.is_null()
    return MaximalityConditions(own_hull, omega, chi, every_edge, passes)


def is_maximal_nonsynchronizing(x: SimpleGraph, cap: int = 10**6) -> bool:
    """True iff End(x) is a maximal non-synchronizing monoid: it does not
    synchronize, and adjoining any map outside it gives a monoid that does.

    Decided on graphs (Araújo, Cameron & Steinberg, arXiv:1511.03184).  Let
    x be nonnull and f a map outside End(x).  If <End(x), f> does not
    synchronize, its separation graph y is nonnull and End(x) is strictly
    inside End(y).  Conversely, if End(x) is strictly inside End(y) for a
    nonnull y, any f in End(y) but not End(x) keeps <End(x), f> inside
    End(y), which merges no edge of y.  And End(x) lies inside End(y)
    exactly when the edges of y are a union of End(x)-orbits of pairs that
    no endomorphism of x merges.  One pass over End(x) gives those orbits
    (``endomorphism_pass``); then End(y) is streamed for each union y until
    a map breaks an edge of x.  ``cap`` bounds |End(x)| and the number of
    unions.
    """
    # A null x has End(x) = T_n, which contains the constants.
    return not x.is_null() and is_maximal_given(x, endomorphism_pass(x, cap).orbits, cap)


def is_maximal_given(x: SimpleGraph, orbits, cap: int = 10**6) -> bool:
    """``is_maximal_nonsynchronizing`` for a nonnull x whose End(x)-orbits
    of unmerged pairs are known: ``orbits`` is ``endomorphism_pass(x).orbits``."""
    pairs, _ = pair_numbering(x.n)
    unions = {0}
    for orbit in sorted(orbits):
        unions |= {u | orbit for u in unions}
        if len(unions) - 1 > cap:
            # cap + 1, not len(unions) - 1: the count reached when the cap is
            # crossed depends on the orbit order, so on the labeling of x.
            raise CapExceeded("orbit unions exceeded cap", cap + 1)
    unions.discard(0)

    adj = _adjacency(x)
    first, second = np.array(x.edges(), dtype=np.intp).reshape(-1, 2).T
    for union in sorted(unions):
        y = SimpleGraph.from_edges(x.n, [pairs[p] for p in _bits(union)])
        if y == x:
            continue  # End(y) is End(x)
        # End(x) lies inside End(y), so a map of End(y) is outside End(x)
        # exactly when it sends an edge of x to a non-edge
        for block in endomorphism_blocks(y):
            if not adj[block[:, first], block[:, second]].all():
                return False
    return True


# ---------------------------------------------------------------------------
# enumeration of small graphs


def adjacency_bits(x: SimpleGraph) -> int:
    """Adjacency as an integer, pair (0,1) in the most significant bit."""
    pairs, _ = pair_numbering(x.n)
    value = 0
    for v, w in pairs:
        value = value << 1 | (x.rows[v] >> w & 1)
    return value


@functools.lru_cache(maxsize=None)
def _relabelings(n: int) -> np.ndarray:
    """One row of slot maps per vertex permutation, shape (n!, n(n-1)/2),
    read-only.  Entry p is the bit position, in ``adjacency_bits`` of a
    graph, of the pair that pair p becomes when the vertices are renamed by
    the permutation."""
    pairs, offs = pair_numbering(n)
    top = len(pairs) - 1
    maps = []
    for perm in itertools.permutations(range(n)):
        mapping = []
        for v, w in pairs:
            a, b = perm[v], perm[w]
            mapping.append(top - (offs[a] + b if a < b else offs[b] + a))
        maps.append(mapping)
    maps = np.array(maps, dtype=np.int64)
    maps.setflags(write=False)
    return maps


def _orbit(n: int, value: int) -> np.ndarray:
    """Adjacency bits of the graph ``value`` under each of the n! relabelings
    (with repeats): slot p of a relabeled graph takes the bit at position
    mapping[p] of ``value``."""
    maps = _relabelings(n)
    weights = 1 << np.arange(maps.shape[1] - 1, -1, -1, dtype=np.int64)
    return (value >> maps & 1) @ weights


def canonical_form(x: SimpleGraph, cap: int = 10**6) -> int:
    """Lexicographically least adjacency bitstring over all vertex
    relabelings.  Brute force over n! permutations, so n! > ``cap``
    (n >= 10 at the default) raises CapExceeded before any is built."""
    if math.factorial(x.n) > cap:
        raise CapExceeded("canonical form needs more than cap relabelings", cap + 1)
    return int(_orbit(x.n, adjacency_bits(x)).min())


def edges_from_bits(n: int, value: int) -> list[tuple[int, int]]:
    """Edges, in lexicographic order, of the graph on n vertices whose
    ``adjacency_bits`` are ``value``."""
    pairs, _ = pair_numbering(n)
    top = len(pairs) - 1
    return [pair for p, pair in enumerate(pairs) if value >> (top - p) & 1]


def graph_classes(n: int):
    """Yield ``(value, least)`` for every adjacency bitstring on n vertices,
    in increasing order, where ``least`` is the least bitstring of its
    isomorphism class (its ``canonical_form``).

    A value not marked yet when the walk reaches it is the least member of
    a new class, and its whole orbit is marked at once: one orbit per class
    instead of n! relabelings per bitstring.  The marks take one int32 per
    bitstring (8 MB at n = 7).
    """
    least = np.full(1 << (n * (n - 1) // 2), -1, dtype=np.int32)
    for value in range(least.shape[0]):
        rep = int(least[value])
        if rep < 0:
            rep = value
            least[_orbit(n, value)] = value
        yield value, rep


def enumerate_graphs(n: int, canonical: bool = False):
    """All labeled graphs on n vertices in bitstring order, or one
    representative (the lex-least labeling) per isomorphism class."""
    if canonical:
        values = (value for value, least in graph_classes(n) if value == least)
    else:
        values = range(1 << (n * (n - 1) // 2))
    for value in values:
        yield SimpleGraph.from_edges(n, edges_from_bits(n, value))
