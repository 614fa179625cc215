import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncmonoid import (
    CapExceeded,
    Endofunction,
    GeneratorSet,
    SimpleGraph,
    collapsible_pairs,
    constant,
    identity,
    is_synchronizing,
    merging_word,
    min_rank_witness,
    monoid_closure,
    rank,
    random_endofunction,
    separation_graph,
    separation_graph_of_elements,
    shortest_synchronizing_word,
    substream,
)

from conftest import build_instances, cerny4, merges


class TestCollapsiblePairs:
    def test_identity_collapses_nothing(self):
        table = collapsible_pairs(GeneratorSet([identity(4)]))
        assert not any(table.collapsible)

    def test_constant_collapses_everything(self):
        table = collapsible_pairs(GeneratorSet([constant(4, 0)]))
        assert table.all_collapsible()

    def test_cerny_collapses_everything(self):
        assert collapsible_pairs(cerny4()).all_collapsible()

    def test_matches_closure_oracle(self, instance_corpus):
        for gens in list(instance_corpus[:60]) + [cerny4()]:
            table = collapsible_pairs(gens)
            elements = monoid_closure(gens)
            for v in range(gens.n):
                for w in range(v + 1, gens.n):
                    assert table.is_collapsible(v, w) == merges(elements, v, w)

    def test_pair_index_validation(self):
        table = collapsible_pairs(GeneratorSet([identity(3)]))
        with pytest.raises(ValueError):
            table.is_collapsible(1, 1)
        with pytest.raises(ValueError):
            table.is_collapsible(0, 3)


class TestSeparationGraph:
    def test_identity_gives_complete_graph(self):
        assert separation_graph(GeneratorSet([identity(4)])) == SimpleGraph.complete(4)

    def test_constant_gives_null_graph(self):
        assert separation_graph(GeneratorSet([constant(4, 2)])) == SimpleGraph.null(4)

    def test_elements_route_t2(self):
        t2 = [Endofunction(t) for t in itertools.product(range(2), repeat=2)]
        assert separation_graph_of_elements(t2) == SimpleGraph.null(2)

    def test_elements_route_s3(self):
        s3 = [Endofunction(p) for p in itertools.permutations(range(3))]
        assert separation_graph_of_elements(s3) == SimpleGraph.complete(3)

    def test_generator_route_equals_closure_route(self, instance_corpus):
        for gens in instance_corpus[:40]:
            assert separation_graph(gens) == separation_graph_of_elements(
                monoid_closure(gens)
            )

    def test_more_generators_give_spanning_subgraph(self):
        # growing the monoid can only remove separation edges
        for i in range(30):
            stream = substream(911, i)
            n = 2 + stream.randbelow(4)
            small = [random_endofunction(n, stream) for _ in range(2)]
            extra = small + [random_endofunction(n, stream)]
            g_small = separation_graph(GeneratorSet(small))
            g_big = separation_graph(GeneratorSet(extra))
            for v, w in g_big.edges():
                assert g_small.has_edge(v, w)


class TestIsSynchronizing:
    def test_unique_periodic_singleton(self):
        f = Endofunction.from_one_based([2, 3, 1, 1])  # tail into a 3-cycle
        # rank drops under iteration only to 3; build a true tree-like map
        tree = Endofunction.from_one_based([1, 1, 2, 2])
        assert is_synchronizing(GeneratorSet([tree]))
        assert not is_synchronizing(GeneratorSet([f]))

    def test_permutations_never_synchronize(self):
        swap = Endofunction.from_one_based([2, 1])
        assert not is_synchronizing(GeneratorSet([identity(2), swap]))
        assert is_synchronizing(GeneratorSet([identity(2), swap, constant(2, 0)]))

    def test_degree_one_synchronizes(self):
        assert is_synchronizing(GeneratorSet([identity(1)]))

    @settings(max_examples=60)
    @given(st.integers(2, 5), st.integers(1, 3), st.data())
    def test_equivalent_characterizations(self, n, k, data):
        gens = GeneratorSet(
            [
                Endofunction(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
                for _ in range(k)
            ]
        )
        sync = is_synchronizing(gens)
        _, witness = min_rank_witness(gens)
        assert sync == (rank(witness) == 1)
        assert sync == separation_graph(gens).is_null()
        assert sync == (shortest_synchronizing_word(gens) is not None)

    def test_monotone_under_extra_generators(self):
        for i in range(40):
            stream = substream(5150, i)
            n = 2 + stream.randbelow(4)
            gens = [random_endofunction(n, stream)]
            was_sync = is_synchronizing(GeneratorSet(gens))
            gens.append(random_endofunction(n, stream))
            if was_sync:
                assert is_synchronizing(GeneratorSet(gens))


class TestMergingWord:
    def test_constant_merges_in_one_step(self):
        gens = GeneratorSet([constant(4, 1)])
        assert merging_word(gens, 0, 3) == (0,)

    def test_not_collapsible_is_an_error(self):
        with pytest.raises(ValueError):
            merging_word(GeneratorSet([identity(3)]), 0, 1)

    def test_replay_merges_the_pair(self, instance_corpus):
        for gens in instance_corpus[:80]:
            table = collapsible_pairs(gens)
            for v in range(gens.n):
                for w in range(v + 1, gens.n):
                    if not table.is_collapsible(v, w):
                        continue
                    word = table.merging_word(v, w)
                    assert len(word) <= gens.n * (gens.n - 1) // 2
                    m = gens.evaluate(word)
                    assert m.images[v] == m.images[w]


class TestMinRankWitness:
    def test_identity_keeps_full_rank(self):
        word, witness = min_rank_witness(GeneratorSet([identity(5)]))
        assert word == ()
        assert rank(witness) == 5

    def test_synchronizing_reaches_rank_one(self):
        word, witness = min_rank_witness(cerny4())
        assert rank(witness) == 1
        assert cerny4().evaluate(word) == witness

    def test_matches_minimum_over_closure(self, instance_corpus):
        for gens in instance_corpus[:60]:
            word, witness = min_rank_witness(gens)
            assert len(word) <= gens.n**3
            assert gens.evaluate(word) == witness
            best = min(rank(m) for m in monoid_closure(gens))
            assert rank(witness) == best


def _bfs_oracle(gens):
    """Independent shortest-reset-word search over frozensets."""
    full = frozenset(range(gens.n))
    if len(full) == 1:
        return 0
    seen = {full}
    frontier = deque([(full, 0)])
    while frontier:
        current, depth = frontier.popleft()
        for g in gens.generators:
            image = frozenset(g.images[v] for v in current)
            if len(image) == 1:
                return depth + 1
            if image not in seen:
                seen.add(image)
                frontier.append((image, depth + 1))
    return None


class TestShortestWord:
    def test_constant_is_length_one(self):
        word = shortest_synchronizing_word(GeneratorSet([constant(3, 0)]))
        assert word == (0,)

    def test_identity_has_none(self):
        assert shortest_synchronizing_word(GeneratorSet([identity(3)])) is None

    def test_cerny_matches_independent_oracle(self):
        gens = cerny4()
        word = shortest_synchronizing_word(gens)
        assert rank(gens.evaluate(word)) == 1
        assert len(word) == _bfs_oracle(gens)
        # rank argument: each letter shrinks the image by at most the worst
        # generator deficiency, so at least (n-1)/max_deficiency letters
        max_deficiency = max(gens.n - rank(g) for g in gens.generators)
        assert len(word) >= (gens.n - 1) / max_deficiency

    def test_random_instances_match_oracle(self):
        for gens in build_instances(count=40, max_n=5, max_k=2, seed=0xABC):
            word = shortest_synchronizing_word(gens)
            oracle = _bfs_oracle(gens)
            if word is None:
                assert oracle is None
            else:
                assert len(word) == oracle
                assert rank(gens.evaluate(word)) == 1

    def test_cap_on_visited_subsets(self):
        with pytest.raises(CapExceeded) as info:
            shortest_synchronizing_word(cerny4(), cap=3)
        assert info.value.partial == 4
        # 16 subsets of four points fit under a cap of 16, whatever the order
        assert shortest_synchronizing_word(cerny4(), cap=16) == (1, 0, 0, 0, 1, 0, 0, 0, 1)

    def test_ties_break_lexicographically(self):
        # both generators are constants; index 0 must win
        gens = GeneratorSet([constant(3, 1), constant(3, 2)])
        assert shortest_synchronizing_word(gens) == (0,)

    def test_lex_least_among_shortest(self):
        # oracle: try every word of the shortest length in lex order
        for gens in build_instances(count=25, max_n=4, max_k=2, seed=0x1E):
            word = shortest_synchronizing_word(gens)
            if word is None or len(word) > 8:
                continue
            k = len(gens.generators)
            first = next(
                w
                for w in itertools.product(range(k), repeat=len(word))
                if rank(gens.evaluate(w)) == 1
            )
            assert word == first


class TestMonoidClosure:
    def test_identity_alone(self):
        elements = monoid_closure(GeneratorSet([identity(4)]))
        assert elements == [identity(4)]

    def test_cyclic_group(self):
        cycle = Endofunction.from_one_based([2, 3, 1])
        assert len(monoid_closure(GeneratorSet([cycle]))) == 3

    def test_order_independent_size(self):
        f = Endofunction.from_one_based([2, 3, 1])
        g = Endofunction.from_one_based([1, 1, 2])
        forward = monoid_closure(GeneratorSet([f, g]))
        backward = monoid_closure(GeneratorSet([g, f]))
        assert set(forward) == set(backward)

    def test_cap_is_enforced(self):
        with pytest.raises(CapExceeded) as exc:
            monoid_closure(cerny4(), cap=10)
        assert exc.value.partial == 11

    def test_contains_identity_and_generators(self, instance_corpus):
        for gens in instance_corpus[:20]:
            elements = set(monoid_closure(gens))
            assert identity(gens.n) in elements
            for g in gens.generators:
                assert g in elements
