import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncmonoid import (
    Endofunction,
    compose,
    constant,
    has_unique_periodic_point,
    identity,
    image_set,
    is_permutation,
    kernel,
    periodicity,
    random_endofunction,
    random_permutation,
    rank,
    substream,
)
from syncmonoid.rng import Lanes, derive_seeds
from syncmonoid.transform import random_tables


def endofunctions(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    ).map(Endofunction)


class TestConstruction:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Endofunction([0, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Endofunction([])

    def test_one_based_round_trip(self):
        f = Endofunction.from_one_based([2, 3, 1])
        assert f.images == (1, 2, 0)
        assert f.one_based() == [2, 3, 1]

    def test_immutable(self):
        f = identity(3)
        with pytest.raises(AttributeError):
            f.images = (0, 0, 0)


class TestCompose:
    def test_identity_is_neutral(self):
        f = Endofunction.from_one_based([2, 1, 3, 2])
        assert compose(identity(4), f) == f
        assert compose(f, identity(4)) == f

    def test_three_cycle_squared(self):
        f = Endofunction.from_one_based([2, 3, 1])
        assert compose(f, f).one_based() == [3, 1, 2]

    def test_constant_absorbs(self):
        f = Endofunction.from_one_based([1, 1, 2])
        g = Endofunction.from_one_based([3, 3, 3])
        assert compose(f, g) == g

    def test_left_to_right_order(self):
        # v(fg) = (vf)g, not g then f
        f = Endofunction.from_one_based([2, 2, 2])
        g = Endofunction.from_one_based([3, 1, 1])
        assert compose(f, g).one_based() == [1, 1, 1]
        assert compose(g, f).one_based() == [2, 2, 2]

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))

    def test_mul_operator(self):
        f = Endofunction.from_one_based([2, 3, 1])
        assert f * f == compose(f, f)

    @settings(max_examples=60)
    @given(st.integers(2, 6), st.data())
    def test_associative(self, n, data):
        draw = lambda: Endofunction(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        f, g, h = draw(), draw(), draw()
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


class TestRankKernel:
    def test_constant_rank_one(self):
        assert rank(constant(5, 2)) == 1

    def test_identity_full_rank(self):
        f = identity(5)
        assert rank(f) == 5
        assert is_permutation(f)
        assert all(len(b) == 1 for b in kernel(f).blocks)

    def test_example_map(self):
        f = Endofunction.from_one_based([1, 1, 2])
        assert rank(f) == 2
        assert image_set(f) == {0, 1}
        assert [sorted(b) for b in kernel(f).blocks] == [[0, 1], [2]]
        assert not is_permutation(f)

    @settings(max_examples=60)
    @given(endofunctions())
    def test_kernel_block_count_is_rank(self, f):
        part = kernel(f)
        assert len(part.blocks) == rank(f)
        covered = sorted(v for b in part.blocks for v in b)
        assert covered == list(range(f.n))

    @settings(max_examples=60)
    @given(st.integers(2, 6), st.data())
    def test_rank_submultiplicative(self, n, data):
        draw = lambda: Endofunction(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        f, g = draw(), draw()
        assert rank(compose(f, g)) <= min(rank(f), rank(g))


class TestPeriodicity:
    def test_constant_has_unique_periodic_point(self):
        f = constant(5, 3)
        summary = periodicity(f)
        assert summary.periodic_points == {3}
        assert summary.cycle_lengths == (1,)
        assert has_unique_periodic_point(f)

    def test_identity_all_periodic(self):
        summary = periodicity(identity(4))
        assert summary.periodic_points == {0, 1, 2, 3}
        assert summary.cycle_lengths == (1, 1, 1, 1)
        assert not has_unique_periodic_point(identity(4))

    def test_rho_shape(self):
        # 0 -> 1 -> 2 -> 1: tail then a 2-cycle
        f = Endofunction([1, 2, 1])
        summary = periodicity(f)
        assert summary.periodic_points == {1, 2}
        assert summary.cycle_lengths == (2,)

    def test_count_on_three_points(self):
        hits = sum(
            has_unique_periodic_point(Endofunction(t))
            for t in itertools.product(range(3), repeat=3)
        )
        assert hits == 9  # 3^(3-1) rooted trees

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rooted_tree_count(self, n):
        hits = sum(
            has_unique_periodic_point(Endofunction(t))
            for t in itertools.product(range(n), repeat=n)
        )
        assert hits == n ** (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unique_periodic_iff_power_has_rank_one(self, n):
        for t in itertools.product(range(n), repeat=n):
            f = Endofunction(t)
            power = f
            for _ in range(n - 1):
                power = compose(power, f)
            assert has_unique_periodic_point(f) == (rank(power) == 1)

    @settings(max_examples=80)
    @given(endofunctions())
    def test_summary_consistency(self, f):
        summary = periodicity(f)
        assert sum(summary.cycle_lengths) == len(summary.periodic_points)
        assert has_unique_periodic_point(f) == (len(summary.periodic_points) == 1)
        # image of f^n is exactly the periodic set
        power = f
        for _ in range(f.n - 1):
            power = compose(power, f)
        assert image_set(power) == summary.periodic_points


class TestRandom:
    def test_degree_one_is_trivial(self):
        assert random_endofunction(1, substream(0, 0)).images == (0,)
        assert random_permutation(1, substream(0, 0)).images == (0,)

    def test_fixed_seed_is_reproducible(self):
        a = random_endofunction(5, substream(42, 0))
        b = random_endofunction(5, substream(42, 0))
        assert a == b
        p = random_permutation(5, substream(42, 1))
        q = random_permutation(5, substream(42, 1))
        assert p == q

    def test_permutations_are_permutations(self):
        for i in range(200):
            assert is_permutation(random_permutation(7, substream(3, i)))

    def test_first_image_uniform(self):
        n = 10
        draws = 100_000
        counts = [0] * n
        for i in range(draws):
            counts[random_endofunction(n, substream(1234, i)).images[0]] += 1
        sigma = math.sqrt(0.1 * 0.9 / draws)
        for c in counts:
            assert abs(c / draws - 0.1) < 3 * sigma

    def test_permutation_uniform_small(self):
        counts = {}
        for i in range(6000):
            p = random_permutation(3, substream(777, i)).images
            counts[p] = counts.get(p, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c - 1000) < 130  # ~4.5 sigma


@pytest.mark.parametrize("n, r, s", [(1, 1, 1), (2, 2, 1), (5, 0, 3), (17, 2, 1), (30, 1, 0)])
def test_random_tables_match_scalar_draws(request, n, r, s):
    # each lane holds the permutations, then the maps, that its stream gives;
    # then again with about half of all draws rejected, lanes and streams alike
    drawn = []
    for capped in (False, True):
        if capped:
            request.getfixturevalue("capped_threshold")
        tables = random_tables(n, r, s, Lanes(derive_seeds(n, 0, 60)))
        drawn.append(tables.tolist())
        assert tables.shape == (60, r + s, n) and tables.dtype == np.intp
        for t, rows in enumerate(tables.tolist()):
            stream = substream(n, t)
            gens = [random_permutation(n, stream) for _ in range(r)]
            gens += [random_endofunction(n, stream) for _ in range(s)]
            assert rows == [list(g.images) for g in gens]
    assert (drawn[0] != drawn[1]) == (n > 1)  # the cap changed the draws
