import itertools
import math
import pickle

import numpy as np
import pytest

from syncmonoid import (
    CapExceeded,
    Endofunction,
    GeneratorSet,
    SimpleGraph,
    adjacency_bits,
    canonical_form,
    check_maximality_conditions,
    chromatic_number,
    clique_number,
    color_graph,
    derived_graph,
    endomorphism_count,
    endomorphism_search,
    enumerate_endomorphisms,
    enumerate_graphs,
    hull,
    is_endomorphism,
    is_hull,
    is_maximal_nonsynchronizing,
    max_cliques,
    random_endofunction,
    separation_graph,
    substream,
)
from syncmonoid import graphs
from syncmonoid.graphs import edges_from_bits, graph_classes, pair_numbering

from conftest import _endomorphism_csp


def c5():
    return SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def triangle_plus_pendant():
    return SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def random_graph(n, stream, p_num=1, p_den=2):
    edges = [
        (v, w)
        for v in range(n)
        for w in range(v + 1, n)
        if stream.randbelow(p_den) < p_num
    ]
    return SimpleGraph.from_edges(n, edges)


class TestSimpleGraph:
    def test_rejects_loops_and_asymmetry(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, [0b01, 0b00])
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(1, 1)])

    def test_edges_sorted(self):
        g = SimpleGraph.from_edges(4, [(2, 3), (0, 1), (0, 3)])
        assert g.edges() == [(0, 1), (0, 3), (2, 3)]
        assert g.num_edges() == 3

    def test_equality_is_labeled(self):
        a = SimpleGraph.single_edge(3, 0, 1)
        b = SimpleGraph.single_edge(3, 1, 2)
        assert a != b
        assert canonical_form(a) == canonical_form(b)


class TestCliques:
    def test_complete_graph(self):
        assert clique_number(SimpleGraph.complete(5)) == 5
        assert max_cliques(SimpleGraph.complete(5)) == [frozenset(range(5))]

    def test_null_graph_convention(self):
        assert clique_number(SimpleGraph.null(4)) == 1
        assert len(max_cliques(SimpleGraph.null(4))) == 4

    def test_five_cycle_against_brute_force(self):
        g = c5()
        # oracle: scan every vertex subset
        best = 0
        cliques = set()
        for size in range(1, 6):
            for subset in itertools.combinations(range(5), size):
                if all(g.has_edge(v, w) for v, w in itertools.combinations(subset, 2)):
                    if size > best:
                        best = size
                        cliques = set()
                    if size == best:
                        cliques.add(frozenset(subset))
        assert clique_number(g) == best == 2
        assert set(max_cliques(g)) == cliques
        assert len(cliques) == 5

    def test_random_graphs_against_brute_force(self):
        for i in range(25):
            g = random_graph(6, substream(31337, i))
            best = 1
            for size in range(2, 7):
                for subset in itertools.combinations(range(6), size):
                    if all(g.has_edge(v, w) for v, w in itertools.combinations(subset, 2)):
                        best = max(best, size)
            assert clique_number(g) == best


class TestColoring:
    def test_complete_needs_n(self):
        assert chromatic_number(SimpleGraph.complete(6)) == 6

    def test_null_needs_one(self):
        assert chromatic_number(SimpleGraph.null(5)) == 1

    def test_five_cycle_needs_three(self):
        g = c5()
        # oracle: no proper 2-coloring among all assignments
        def proper(assignment):
            return all(assignment[v] != assignment[w] for v, w in g.edges())

        assert not any(proper(a) for a in itertools.product(range(2), repeat=5))
        assert any(proper(a) for a in itertools.product(range(3), repeat=5))
        assert chromatic_number(g) == 3

    def test_witness_coloring_is_proper(self):
        for i in range(25):
            g = random_graph(6, substream(4242, i))
            k, colors = color_graph(g)
            assert max(colors) + 1 <= k
            for v, w in g.edges():
                assert colors[v] != colors[w]

    def test_omega_at_most_chi(self):
        for i in range(25):
            g = random_graph(7, substream(515, i))
            assert clique_number(g) <= chromatic_number(g)


class TestEndomorphisms:
    def test_complete_graph_endos_are_permutations(self):
        k4 = SimpleGraph.complete(4)
        found = endomorphism_search(k4)
        assert found is not None and len(set(found.images)) == 4
        assert endomorphism_search(k4, require_merge=(0, 1)) is None
        assert endomorphism_count(k4) == math.factorial(4)

    def test_null_graph_merge_is_easy(self):
        assert endomorphism_search(SimpleGraph.null(3), require_merge=(0, 2)) is not None
        assert endomorphism_count(SimpleGraph.null(3)) == 27

    def test_single_edge_counts(self):
        for n in (3, 4):
            g = SimpleGraph.single_edge(n, 0, 1)
            assert endomorphism_count(g) == 2 * n ** (n - 2)

    def test_single_edge_merges(self):
        g = SimpleGraph.single_edge(4, 0, 1)
        assert endomorphism_search(g, require_merge=(0, 1)) is None
        f = endomorphism_search(g, require_merge=(2, 3))
        assert f is not None and f.images[2] == f.images[3]
        # oracle: enumerate all 32 endomorphisms
        endos = enumerate_endomorphisms(g)
        assert len(endos) == 32
        assert not any(e.images[0] == e.images[1] for e in endos)
        assert any(e.images[2] == e.images[3] for e in endos)

    def test_pins_respected(self):
        g = SimpleGraph.complete(3)
        f = endomorphism_search(g, pins={0: 2})
        assert f is not None and f.images[0] == 2
        # pinning an edge onto a non-edge must fail quietly
        h = SimpleGraph.single_edge(3, 0, 1)
        assert endomorphism_search(h, pins={0: 0, 1: 2}) is None

    def test_search_results_are_endomorphisms(self):
        for i in range(20):
            g = random_graph(5, substream(808, i))
            f = endomorphism_search(g)
            assert f is not None and is_endomorphism(g, f)

    def test_enumeration_matches_membership(self):
        for n in (2, 3, 4):
            for g in enumerate_graphs(n):
                listed = set(enumerate_endomorphisms(g))
                for t in itertools.product(range(n), repeat=n):
                    f = Endofunction(t)
                    assert (f in listed) == is_endomorphism(g, f)

    def test_count_cap(self):
        with pytest.raises(CapExceeded) as exc:
            endomorphism_count(SimpleGraph.null(4), cap=100)
        assert exc.value.partial == 101

    def test_cap_exceeded_survives_pickling(self):
        # a worker process hands its exception to the parent by pickling
        with pytest.raises(CapExceeded) as exc:
            endomorphism_count(SimpleGraph.null(4), cap=100)
        copy = pickle.loads(pickle.dumps(exc.value))
        assert type(copy) is CapExceeded
        assert copy.partial == 101
        assert str(copy) == str(exc.value) == (
            "endomorphism count exceeded cap (partial count: 101)"
        )

    def test_requires_distinct_merge_pair(self):
        with pytest.raises(ValueError):
            endomorphism_search(SimpleGraph.null(3), require_merge=(1, 1))


def small_graphs():
    """Every labeled graph on at most five vertices, then one graph per
    isomorphism class on six."""
    for n in range(1, 6):
        yield from enumerate_graphs(n)
    yield from enumerate_graphs(6, canonical=True)


def constraints(n):
    """Keyword arguments of an End(x) search on n vertices: none, then each
    merge pair, then each single pin."""
    yield {}
    for pair in itertools.combinations(range(n), 2):
        yield {"require_merge": pair}
    for v, target in itertools.product(range(n), repeat=2):
        yield {"pins": {v: target}}


def csp_pass(x):
    """|End(x)|, hull and orbits the slow way: every table from the CSP."""
    pairs, offs = pair_numbering(x.n)
    tables = list(_endomorphism_csp(x))
    kept, orbits = [], set()
    for v, w in pairs:
        images = {(min(f[v], f[w]), max(f[v], f[w])) for f in tables}
        if all(a != b for a, b in images):
            kept.append((v, w))
            orbits.add(sum(1 << (offs[a] + b) for a, b in images))
    return len(tables), SimpleGraph.from_edges(x.n, kept), orbits


def csp_hull(x):
    """The hull the slow way: one CSP merge search per pair."""
    pairs, _ = pair_numbering(x.n)
    kept = [pair for pair in pairs if next(_endomorphism_csp(x, require_merge=pair), None) is None]
    return SimpleGraph.from_edges(x.n, kept)


class TestEndomorphismBlocks:
    def test_blocks_equal_the_csp(self):
        # same rows in the same order, in uint8 blocks within the budget
        for x in small_graphs():
            blocks = list(graphs.endomorphism_blocks(x))
            assert all(b.dtype == np.uint8 and 0 < b.shape[0] <= graphs.BLOCK_ROWS
                       for b in blocks)
            rows = [tuple(row) for b in blocks for row in b.tolist()]
            assert rows == list(_endomorphism_csp(x))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_constrained_blocks_and_search_equal_the_csp(self, n):
        # every graph of small_graphs() under every constraint: the same rows
        # in the same order, and the search's map is the first of them
        cases = 0
        for x in enumerate_graphs(n, canonical=n == 6):
            for kwargs in constraints(n):
                expected = list(_endomorphism_csp(x, **kwargs))
                blocks = list(graphs.endomorphism_blocks(x, **kwargs))
                assert all(b.dtype == np.uint8 and 0 < b.shape[0] <= graphs.BLOCK_ROWS
                           for b in blocks)
                assert [tuple(row) for b in blocks for row in b.tolist()] == expected
                found = endomorphism_search(x, **kwargs)
                assert (found and found.images) == (expected[0] if expected else None)
                cases += 1
        # with n <= 5, the 38,454 searches of every labeled graph
        assert cases == {1: 2, 2: 12, 3: 104, 4: 1472, 5: 36864, 6: 8112}[n]

    @pytest.mark.parametrize("budget", [1, 7])
    def test_block_budget_keeps_the_constrained_rows(self, monkeypatch, budget):
        monkeypatch.setattr(graphs, "BLOCK_ROWS", budget)
        for x in [*enumerate_graphs(4), c5()]:
            for kwargs in constraints(x.n):
                blocks = list(graphs.endomorphism_blocks(x, **kwargs))
                assert all(0 < b.shape[0] <= budget for b in blocks)
                rows = [tuple(row) for b in blocks for row in b.tolist()]
                assert rows == list(_endomorphism_csp(x, **kwargs))

    def test_pins_out_of_range_are_refused(self):
        for pins in ({3: 0}, {0: 3}, {-1: 0}, {0: -1}):
            with pytest.raises(ValueError, match="out of range"):
                endomorphism_search(SimpleGraph.null(3), pins=pins)

    @pytest.mark.parametrize("budget", [1, 7])
    def test_block_budget_does_not_change_the_rows(self, monkeypatch, budget):
        xs = [*enumerate_graphs(4), c5(), SimpleGraph.single_edge(5, 1, 3),
              triangle_plus_pendant(), SimpleGraph.complete(5)]
        expected = [(np.concatenate(list(graphs.endomorphism_blocks(x))),
                     graphs.endomorphism_pass(x)) for x in xs]
        monkeypatch.setattr(graphs, "BLOCK_ROWS", budget)
        for x, (rows, ends) in zip(xs, expected):
            blocks = list(graphs.endomorphism_blocks(x))
            assert all(b.shape[0] <= budget for b in blocks)
            assert np.array_equal(np.concatenate(blocks), rows)
            assert graphs.endomorphism_pass(x) == ends
            assert endomorphism_count(x) == ends.count

    @pytest.mark.parametrize("x, size", [(SimpleGraph.null(4), 256),
                                         (SimpleGraph.single_edge(4, 0, 1), 32),
                                         (c5(), 10)])
    def test_caps_raise_exactly_past_the_size(self, x, size):
        calls = [
            (endomorphism_count, "endomorphism count exceeded cap"),
            (enumerate_endomorphisms, "endomorphism enumeration exceeded cap"),
            (graphs.endomorphism_pass, "endomorphism enumeration exceeded cap"),
        ]
        for fn, message in calls:
            for cap in (size - 1, size, size + 1):
                if cap < size:
                    with pytest.raises(CapExceeded) as exc:
                        fn(x, cap=cap)
                    assert exc.value.partial == cap + 1
                    assert str(exc.value) == f"{message} (partial count: {cap + 1})"
                else:
                    fn(x, cap=cap)
        assert endomorphism_count(x, cap=size) == size
        assert len(enumerate_endomorphisms(x, cap=size)) == size

    def test_pass_matches_the_csp(self):
        # the hull read off the pass is the merge-CSP hull, and |End(x)| and
        # the orbits are those of the CSP's tables
        for x in small_graphs():
            ends = graphs.endomorphism_pass(x)
            count, kept, orbits = csp_pass(x)
            assert ends.hull == hull(x) == kept
            assert (ends.count, ends.orbits) == (count, orbits)

    @pytest.mark.parametrize("seed", [22, 45])
    def test_pass_past_63_pair_slots(self, seed):
        # 66 pairs on 12 vertices: the orbit bits no longer fit in an int64
        x = random_graph(12, substream(seed, 0))
        ends = graphs.endomorphism_pass(x)
        assert (ends.count, ends.hull, ends.orbits) == csp_pass(x)
        assert max(ends.orbits).bit_length() > 63


class TestHull:
    def test_complete_graph_is_its_own_hull(self):
        assert hull(SimpleGraph.complete(4)) == SimpleGraph.complete(4)

    def test_single_edge_is_a_hull(self):
        g = SimpleGraph.single_edge(4, 0, 1)
        assert hull(g) == g
        assert is_hull(g)

    def test_hull_grows_from_original(self):
        # no endomorphism merges an edge, so x spans hull(x)
        for i in range(20):
            g = random_graph(5, substream(123, i))
            h = hull(g)
            for v, w in g.edges():
                assert h.has_edge(v, w)

    def test_idempotent_on_four_vertices(self):
        for g in enumerate_graphs(4):
            h = hull(g)
            assert hull(h) == h

    def test_hull_equals_the_merge_oracle(self):
        for x in small_graphs():
            assert hull(x) == csp_hull(x)

    @pytest.mark.parametrize("n", [10, 11, 12])
    @pytest.mark.parametrize("p", [15, 25, 50, 75])
    def test_hull_of_random_graphs_equals_the_merge_oracle(self, n, p):
        for seed in range(3):
            x = random_graph(n, substream(seed, 0), p, 100)
            assert hull(x) == csp_hull(x)

    def test_matches_endomorphism_enumeration_route(self):
        # per-pair CSP route vs the literal definition on listed elements
        from syncmonoid import separation_graph_of_elements

        for i in range(25):
            g = random_graph(5, substream(31415, i))
            assert hull(g) == separation_graph_of_elements(enumerate_endomorphisms(g))


class TestDerivedGraph:
    def test_complete_graph_unchanged(self):
        assert derived_graph(SimpleGraph.complete(5)) == SimpleGraph.complete(5)

    def test_five_cycle_unchanged(self):
        assert derived_graph(c5()) == c5()

    def test_pendant_edge_dropped(self):
        expected = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        assert derived_graph(triangle_plus_pendant()) == expected

    def test_endomorphisms_carry_over(self):
        # the derived graph never loses endomorphisms (checked n <= 4 here)
        for n in range(2, 5):
            for g in enumerate_graphs(n):
                d = derived_graph(g)
                if d == g:
                    continue
                for f in enumerate_endomorphisms(g):
                    assert is_endomorphism(d, f)


class TestMaximality:
    def test_single_edge_passes_conditions(self):
        report = check_maximality_conditions(SimpleGraph.single_edge(4, 0, 1))
        assert report.passes
        assert report.omega == report.chi == 2
        assert report.is_hull and report.every_edge_in_max_clique

    def test_complete_graph_component_values(self):
        report = check_maximality_conditions(SimpleGraph.complete(4))
        assert report.is_hull
        assert report.omega == report.chi == 4
        assert report.every_edge_in_max_clique

    def test_pendant_fails_edge_condition(self):
        report = check_maximality_conditions(triangle_plus_pendant())
        assert not report.every_edge_in_max_clique
        assert not report.passes

    def test_null_graph_fails(self):
        assert not check_maximality_conditions(SimpleGraph.null(4)).passes

    def test_single_edge_n3_is_maximal(self):
        assert is_maximal_nonsynchronizing(SimpleGraph.single_edge(3, 0, 1))

    def test_null_graph_is_not_maximal(self):
        assert not is_maximal_nonsynchronizing(SimpleGraph.null(3))

    def test_four_cycle_regression(self):
        # C4 satisfies the sufficient conditions; brute force agrees
        c4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert check_maximality_conditions(c4).passes
        assert is_maximal_nonsynchronizing(c4)

    def test_maximality_against_literal_definition(self):
        # independent oracle on every labeled graph with n = 3, 4: adjoin each
        # outside map and run the closure-based synchronization test
        from syncmonoid import is_synchronizing

        not_maximal = {}
        for n in (3, 4):
            not_maximal[n] = 0
            for g in enumerate_graphs(n):
                endos = enumerate_endomorphisms(g)
                endo_set = set(endos)
                if g.is_null():
                    expected = False
                else:
                    expected = True
                    for t in itertools.product(range(n), repeat=n):
                        f = Endofunction(t)
                        if f in endo_set:
                            continue
                        if not is_synchronizing(GeneratorSet(endos + [f])):
                            expected = False
                            break
                assert is_maximal_nonsynchronizing(g) == expected
                not_maximal[n] += not expected
        assert not_maximal[4] == 25

    def test_five_cycle_not_maximal_complete_graph_maximal(self):
        # End(C5) is the dihedral group D5, strictly inside S5 = End(K5)
        assert not is_maximal_nonsynchronizing(c5())
        assert is_maximal_nonsynchronizing(SimpleGraph.complete(5))

    def test_orbit_unions_respect_cap(self):
        # 12 endomorphisms, 35 nonempty unions of End(x)-orbits
        x = SimpleGraph.from_edges(7, [(0, 2), (0, 4), (1, 3), (1, 4), (1, 6), (2, 4),
                                       (2, 5), (2, 6), (3, 5), (3, 6), (4, 6), (5, 6)])
        assert endomorphism_count(x) == 12
        with pytest.raises(CapExceeded):
            is_maximal_nonsynchronizing(x, cap=20)
        assert not is_maximal_nonsynchronizing(x, cap=10**6)

    @pytest.mark.parametrize("cap", [12, 20])
    def test_orbit_union_cap_note_ignores_labeling(self, cap):
        # The orbits come in a different order under this relabeling, so the
        # union count first passes cap 12 at 19 for x and at 17 for y.
        x = SimpleGraph.from_edges(7, [(0, 2), (0, 4), (1, 3), (1, 4), (1, 6), (2, 4),
                                       (2, 5), (2, 6), (3, 5), (3, 6), (4, 6), (5, 6)])
        perm = (0, 1, 2, 3, 5, 6, 4)
        y = SimpleGraph.from_edges(7, [(perm[v], perm[w]) for v, w in x.edges()])
        notes = []
        for g in (x, y):
            with pytest.raises(CapExceeded) as exc:
                is_maximal_nonsynchronizing(g, cap=cap)
            notes.append((exc.value.partial, str(exc.value)))
        assert notes == [(cap + 1, f"orbit unions exceeded cap (partial count: {cap + 1})")] * 2


class TestGraphMonoidBridge:
    def test_separation_graphs_have_omega_equal_chi(self, instance_corpus):
        from conftest import build_instances

        degree_six = build_instances(count=40, max_n=6, max_k=3, seed=0xD6)
        for gens in list(instance_corpus[:40]) + degree_six:
            g = separation_graph(gens)
            assert clique_number(g) == chromatic_number(g)

    def test_subset_generators_reverse_inclusion(self):
        # bigger monoid => separation graph spans fewer pairs
        for i in range(20):
            stream = substream(22, i)
            n = 2 + stream.randbelow(4)
            gens = [random_endofunction(n, stream) for _ in range(3)]
            g_all = separation_graph(GeneratorSet(gens))
            g_two = separation_graph(GeneratorSet(gens[:2]))
            for v, w in g_all.edges():
                assert g_two.has_edge(v, w)


class TestEnumeration:
    def test_labeled_counts(self):
        assert sum(1 for _ in enumerate_graphs(1)) == 1
        assert sum(1 for _ in enumerate_graphs(3)) == 8
        assert sum(1 for _ in enumerate_graphs(4)) == 64

    def test_canonical_counts(self):
        assert sum(1 for _ in enumerate_graphs(3, canonical=True)) == 4
        assert sum(1 for _ in enumerate_graphs(4, canonical=True)) == 11
        assert sum(1 for _ in enumerate_graphs(6, canonical=True)) == 156  # A000088

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_graph_classes_are_the_relabeling_orbits(self, n):
        classes = {}
        for value, least in graph_classes(n):
            classes.setdefault(least, []).append(value)
        assert sorted(v for members in classes.values() for v in members) == list(
            range(1 << (n * (n - 1) // 2))
        )
        for least, members in classes.items():
            g = SimpleGraph.from_edges(n, edges_from_bits(n, least))
            assert adjacency_bits(g) == least
            orbit = {
                adjacency_bits(SimpleGraph.from_edges(n, [(p[v], p[w]) for v, w in g.edges()]))
                for p in itertools.permutations(range(n))
            }
            assert members == sorted(orbit)

    def test_canonical_reps_cover_all_classes(self):
        reps = {adjacency_bits(g) for g in enumerate_graphs(4, canonical=True)}
        for g in enumerate_graphs(4):
            assert canonical_form(g) in reps

    def test_canonical_rep_is_lex_least(self):
        for g in enumerate_graphs(4, canonical=True):
            assert adjacency_bits(g) == canonical_form(g)

    @staticmethod
    def relabeled_minimum(g):
        """Oracle: rebuild the graph under every vertex permutation."""
        return min(
            adjacency_bits(SimpleGraph.from_edges(g.n, [(p[v], p[w]) for v, w in g.edges()]))
            for p in itertools.permutations(range(g.n))
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_canonical_form_matches_relabeling_oracle(self, n):
        graphs = list(enumerate_graphs(n))
        for g in graphs:
            assert canonical_form(g) == self.relabeled_minimum(g)
        reps = [adjacency_bits(g) for g in enumerate_graphs(n, canonical=True)]
        assert reps == sorted({self.relabeled_minimum(g) for g in graphs})

    def test_canonical_form_matches_relabeling_oracle_n5_stride(self):
        for g in itertools.islice(enumerate_graphs(5), 0, None, 7):
            assert canonical_form(g) == self.relabeled_minimum(g)

    @pytest.mark.parametrize("n, cap", [(10, 10**6), (5, 100)])
    def test_canonical_form_cap_raises_before_relabeling(self, monkeypatch, n, cap):
        def refuse(n):
            raise AssertionError("relabelings built past the cap")

        monkeypatch.setattr(graphs, "_relabelings", refuse)
        with pytest.raises(CapExceeded, match="canonical form needs more than cap") as exc:
            canonical_form(SimpleGraph.from_edges(n, [(0, 1)]), cap=cap)
        assert exc.value.partial == cap + 1

    def test_canonical_form_cap_admits_exactly_n_factorial(self):
        g = SimpleGraph.from_edges(5, [(0, 3), (3, 4)])
        assert canonical_form(g, cap=120) == canonical_form(g) == self.relabeled_minimum(g)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pair_numbering_index_is_position(self, n):
        pairs, offs = pair_numbering(n)
        assert list(pairs) == [(v, w) for v in range(n) for w in range(v + 1, n)]
        assert [offs[v] + w for v, w in pairs] == list(range(len(pairs)))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_pair_bits_are_one_shifted_by_the_pair_index(self, n):
        # int64 through 11 points (55 slots and the diagonal), Python ints
        # from 12 points on, where the diagonal slot 66 would overflow
        pairs, offs = pair_numbering(n)
        m = len(pairs)
        bit = graphs._pair_bits(n)
        expected = [[1 << (offs[min(a, b)] + max(a, b) if a != b else m) for b in range(n)]
                    for a in range(n)]
        assert bit.dtype == (np.int64 if m < 63 else object)
        assert bit.tolist() == expected
        assert all(type(v) is int for row in bit.tolist() for v in row)
