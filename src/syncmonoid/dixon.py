"""Random permutations and transitivity: the group-side baseline.

Exact counts of permutation pairs generating a transitive subgroup (via the
orbit-of-point-1 recurrence), the crude union bound over maximal
intransitive subgroups, and Monte Carlo estimates to compare against.
All table arithmetic is exact (int / Fraction); (n!)^2 overflows 64-bit
machine words already at n=11, so nothing here ever goes through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .stats import EstimateWithCI, make_estimate
from .transform import Endofunction, is_permutation, lane_blocks


def orbits(perms) -> list[list[int]]:
    """Orbits of the group generated by the given permutations (union-find
    over the edges v -> v.g)."""
    perms = list(perms)
    if not perms:
        raise ValueError("need at least one permutation")
    n = perms[0].n
    for g in perms:
        if g.n != n:
            raise ValueError(f"degree mismatch: {g.n} != {n}")
        if not is_permutation(g):
            raise ValueError(f"not a permutation: {g!r}")

    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for g in perms:
        for v in range(n):
            a, b = find(v), find(g.images[v])
            if a != b:
                parent[b] = a

    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values(), key=min)


def is_transitive(perms) -> bool:
    return len(orbits(perms)) == 1


@dataclass(frozen=True)
class TransitivePairCounts:
    """c_n for n = 1..max_n: the number of ordered pairs of permutations of
    S_n generating a transitive subgroup."""

    max_n: int
    values: tuple[int, ...]

    def c(self, n: int) -> int:
        if not 1 <= n <= self.max_n:
            raise ValueError(f"n={n} outside table range 1..{self.max_n}")
        return self.values[n - 1]


def transitive_pair_counts(max_n: int) -> TransitivePairCounts:
    """Solve the recurrence

        sum_{k=1..n} C(n-1, k-1) * c_k * ((n-k)!)^2 = (n!)^2

    obtained by classifying pairs by the orbit of point 1."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    values = []
    for n in range(1, max_n + 1):
        total = math.factorial(n) ** 2
        for k in range(1, n):
            total -= math.comb(n - 1, k - 1) * values[k - 1] * math.factorial(n - k) ** 2
        values.append(total)
    return TransitivePairCounts(max_n, tuple(values))


def transitive_pair_probability(n: int) -> Fraction:
    table = transitive_pair_counts(n)
    return Fraction(table.c(n), math.factorial(n) ** 2)


def intransitive_union_bound(n: int) -> Fraction:
    """Union bound: probability that a pair lies in some maximal intransitive
    subgroup S_k x S_{n-k}, summed over 1 <= k <= n/2.

    Each of the C(n, k) such subgroups holds a pair with probability
    (k! (n-k)! / n!)^2 = 1/C(n, k)^2, so the term for k is 1/C(n, k)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return sum((Fraction(1, math.comb(n, k)) for k in range(1, n // 2 + 1)), Fraction(0))


def single_permutation_transitive_probability(n: int) -> Fraction:
    """Exactly the n-cycles generate transitively: (n-1)!/n! = 1/n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Fraction(math.factorial(n - 1), math.factorial(n))


def monte_carlo_transitive(n: int, pairs: bool, trials: int, seed: int) -> EstimateWithCI:
    """Sampled probability that one (or a pair of) uniform permutation(s)
    generates a transitive subgroup; trial t draws its permutations from
    ``substream(seed, t)``, a block of trials at a time."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    successes = 0
    for _, tables in lane_blocks(n, 2 if pairs else 1, 0, seed, 0, trials):
        for rows in tables.tolist():
            successes += is_transitive(map(Endofunction, rows))
    return make_estimate(successes, trials)


# Largest max_n of summary_rows: 500 takes about 4 s on a 2-core Xeon, and
# 1,000 more than 20 s.
SUMMARY_MAX_N = 500


def summary_rows(max_n: int) -> list[dict]:
    """Per-n table rows: exact transitivity probability, the union bound,
    1/n, and n^2 times the gap between the intransitivity probability and
    1/n.  The gap column is reported, never asserted against.  A max_n past
    ``SUMMARY_MAX_N`` is refused before any row is computed."""
    if max_n > SUMMARY_MAX_N:
        raise ValueError(f"max_n = {max_n} is past the bound of {SUMMARY_MAX_N} for the table")
    table = transitive_pair_counts(max_n)
    rows = []
    for n in range(2, max_n + 1):
        prob = Fraction(table.c(n), math.factorial(n) ** 2)
        bound = intransitive_union_bound(n)
        one_over_n = Fraction(1, n)
        gap = (1 - prob) - one_over_n
        rows.append(
            {
                "n": n,
                "c_n": str(table.c(n)),
                "prob_transitive": f"{prob.numerator}/{prob.denominator}",
                "prob_transitive_float": float(prob),
                "union_bound": f"{bound.numerator}/{bound.denominator}",
                "union_bound_float": float(bound),
                "one_over_n": f"{one_over_n.numerator}/{one_over_n.denominator}",
                "n2_times_gap": float(n * n * gap),
            }
        )
    return rows
