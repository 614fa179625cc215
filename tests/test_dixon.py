import itertools
import math
from fractions import Fraction

import pytest

from syncmonoid import (
    Endofunction,
    make_estimate,
    random_permutation,
    substream,
    intransitive_union_bound,
    is_transitive,
    monte_carlo_transitive,
    orbits,
    single_permutation_transitive_probability,
    transitive_pair_counts,
    transitive_pair_probability,
)


def perms(n):
    return [Endofunction(p) for p in itertools.permutations(range(n))]


def brute_force_c(n):
    """Oracle: count ordered permutation pairs generating transitively."""
    all_perms = perms(n)
    return sum(1 for f in all_perms for g in all_perms if is_transitive([f, g]))


class TestOrbits:
    def test_n_cycle_is_transitive(self):
        cycle = Endofunction([1, 2, 3, 4, 0])
        assert is_transitive([cycle])

    def test_identity_has_singleton_orbits(self):
        from syncmonoid import identity

        assert orbits([identity(4)]) == [[0], [1], [2], [3]]

    def test_two_transpositions(self):
        f = Endofunction([1, 0, 2, 3])
        g = Endofunction([0, 1, 3, 2])
        assert orbits([f, g]) == [[0, 1], [2, 3]]
        assert not is_transitive([f, g])

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            orbits([Endofunction([0, 0, 1])])

    def tests_rejects_mixed_degrees(self):
        from syncmonoid import identity

        with pytest.raises(ValueError):
            orbits([identity(3), identity(4)])


class TestPairCounts:
    def test_small_values(self):
        table = transitive_pair_counts(5)
        assert table.values == (1, 3, 26, 426, 11064)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_brute_force(self, n):
        assert transitive_pair_counts(n).c(n) == brute_force_c(n)

    def test_recurrence_resubstitution(self):
        max_n = 40
        table = transitive_pair_counts(max_n)
        for n in range(1, max_n + 1):
            total = sum(
                math.comb(n - 1, k - 1) * table.c(k) * math.factorial(n - k) ** 2
                for k in range(1, n + 1)
            )
            assert total == math.factorial(n) ** 2

    def test_probability_in_unit_interval(self):
        for n in range(1, 20):
            p = transitive_pair_probability(n)
            assert 0 < p <= 1

    def test_out_of_range_lookup(self):
        with pytest.raises(ValueError):
            transitive_pair_counts(3).c(4)


class TestUnionBound:
    def test_exact_small_values(self):
        assert intransitive_union_bound(2) == Fraction(1, 2)
        assert intransitive_union_bound(3) == Fraction(1, 3)
        assert intransitive_union_bound(4) == Fraction(5, 12)

    def test_equals_the_factorial_sum(self):
        # the sum over subgroups S_k x S_{n-k} as first written, in factorials
        for n in [*range(2, 121), 500]:
            total = sum(
                math.comb(n, k) * math.factorial(k) ** 2 * math.factorial(n - k) ** 2
                for k in range(1, n // 2 + 1)
            )
            assert intransitive_union_bound(n) == Fraction(total, math.factorial(n) ** 2)

    def test_dominates_true_intransitive_probability(self):
        table = transitive_pair_counts(40)
        for n in range(2, 41):
            true_intransitive = 1 - Fraction(table.c(n), math.factorial(n) ** 2)
            assert intransitive_union_bound(n) >= true_intransitive


class TestSinglePermutation:
    def test_probability_is_one_over_n(self):
        assert single_permutation_transitive_probability(5) == Fraction(1, 5)
        assert single_permutation_transitive_probability(1) == 1

    def test_six_cycles_counted_exhaustively(self):
        count = sum(1 for p in perms(6) if is_transitive([p]))
        assert count == 120 == math.factorial(5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_exhaustive_match(self, n):
        count = sum(1 for p in perms(n) if is_transitive([p]))
        assert Fraction(count, math.factorial(n)) == Fraction(1, n)


class TestMonteCarlo:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_transitive(4, True, 0, 1)

    def test_pairs_bracket_exact_value(self):
        est = monte_carlo_transitive(4, True, 20_000, seed=9)
        exact = float(Fraction(426, 576))
        assert est.ci_low <= exact <= est.ci_high

    def test_single_brackets_one_over_n(self):
        est = monte_carlo_transitive(20, False, 20_000, seed=10)
        assert est.ci_low <= 1 / 20 <= est.ci_high

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("pairs", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 6, 20])
    def test_blocks_equal_the_scalar_loop(self, request, forced, pairs, n):
        # the one-trial-at-a-time loop the blocks replaced; forced rejections
        # reject about half of all draws, on both sides
        if forced:
            request.getfixturevalue("capped_threshold")
        successes = 0
        for trial in range(300):
            stream = substream(8, trial)
            gens = [random_permutation(n, stream) for _ in range(2 if pairs else 1)]
            successes += is_transitive(gens)
        assert monte_carlo_transitive(n, pairs, 300, seed=8) == make_estimate(successes, 300)

    def test_deterministic(self):
        a = monte_carlo_transitive(6, True, 500, seed=3)
        b = monte_carlo_transitive(6, True, 500, seed=3)
        assert a == b
