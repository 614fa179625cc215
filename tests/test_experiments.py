import ast
import concurrent.futures
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from syncmonoid import (
    Endofunction,
    ExperimentConfig,
    GeneratorSet,
    SimpleGraph,
    chromatic_number,
    clique_number,
    derived_graph,
    edge_graph_experiment,
    endomorphism_count,
    enumerate_graphs,
    estimate_sync_probability,
    exact_sync_probability,
    explore_maximal_nonsync,
    hull,
    is_endomorphism,
    is_synchronizing,
    monte_carlo_transitive,
    random_endofunction,
    random_permutation,
    substream,
    sweep,
    wilson_interval,
)
import syncmonoid
from syncmonoid import experiments, graphs, transform
from syncmonoid.cli import main
from syncmonoid.errors import VerificationError
from syncmonoid.experiments import (
    _all_pairs_collapsible,
    _count_synchronizing,
    _exact_by_enumeration,
    _graph_record,
    _map_classes,
    _map_table,
    _pair_targets,
    _partition_count,
    _pool_targets,
    _synchronizing_rows,
)
from syncmonoid.graphs import pair_arrays, pair_numbering
from syncmonoid.rng import Lanes, Stream, derive_seeds
from syncmonoid.stats import make_estimate
from syncmonoid.sync import (
    collapsible_pairs,
    monoid_closure,
    separation_graph,
    separation_graph_of_elements,
)
from syncmonoid.transform import (
    has_unique_periodic_point,
    lane_blocks,
    periodicity,
    random_tables,
    rank,
)

from conftest import build_instances


def _scalar_draws(n: int, r: int, s: int, stream) -> list:
    """A trial's generators, drawn one value at a time from its own stream:
    r permutations, then s maps."""
    gens = [random_permutation(n, stream) for _ in range(r)]
    return gens + [random_endofunction(n, stream) for _ in range(s)]


def _trial_outcome(n: int, r: int, s: int, stream) -> tuple[bool, list]:
    """The scalar oracle of one Monte Carlo trial: its ``_scalar_draws`` and
    the verdict of the witness closure of ``sync``, which shares no code
    with the pair fixpoint.  Returns (synchronizing, drawn generators)."""
    gens = _scalar_draws(n, r, s, stream)
    return is_synchronizing(GeneratorSet(gens)), gens


def _table(gens) -> np.ndarray:
    """A generator list as the (k, n) image table the Monte Carlo path
    decides and certifies."""
    return np.array([g.images for g in gens], dtype=np.intp)


class TestConfig:
    def test_requires_a_generator(self):
        with pytest.raises(ValueError):
            ExperimentConfig(5, 0, 0, 10, 1)

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(5, 0, 1, 0, 1)

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            ExperimentConfig(0, 0, 1, 10, 1)

    def test_pair_budget_admits_exactly_n_up_to_5793(self):
        assert 5793 * 5792 // 2 <= experiments.PAIR_BUDGET < 5794 * 5793 // 2
        ExperimentConfig(5793, 0, 2, 1, 1)
        with pytest.raises(ValueError, match=r"past the budget .* \(n <= 5793\)"):
            ExperimentConfig(5794, 0, 2, 1, 1)


class TestWilson:
    def test_bounds_order(self):
        low, high = wilson_interval(3, 10)
        assert 0 <= low <= 0.3 <= high <= 1

    def test_extremes_stay_in_unit_interval(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0

    def test_coverage_at_one_fifth(self):
        # known p = 1/5 for a single random endofunction on 5 points
        hits = 0
        experiments = 200
        for i in range(experiments):
            config = ExperimentConfig(5, 0, 1, 1000, seed=1000 + i)
            est = estimate_sync_probability(config)
            if est.ci_low <= 0.2 <= est.ci_high:
                hits += 1
        assert hits >= 0.9 * experiments


class TestExact:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_single_endofunction_closed_form(self, n):
        result = exact_sync_probability(n, 0, 1)
        assert Fraction(result.numerator, result.denominator) == Fraction(1, n)

    def test_two_endofunctions_degree_two(self):
        result = exact_sync_probability(2, 0, 2)
        assert (result.numerator, result.denominator) == (3, 4)
        # oracle: 16 ordered pairs; synchronizing iff some generator constant
        count = 0
        maps = [Endofunction(t) for t in itertools.product(range(2), repeat=2)]
        for f, g in itertools.product(maps, maps):
            if any(len(set(m.images)) == 1 for m in (f, g)):
                count += 1
        assert Fraction(count, 16) == Fraction(3, 4)

    def test_mixed_pair_degree_two(self):
        # 2 permutations x 4 maps = 8 ordered pairs; frozen regression value
        result = exact_sync_probability(2, 1, 1)
        assert (result.numerator, result.denominator) == (1, 2)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError, match="closed form|estimate"):
            exact_sync_probability(12, 0, 2)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            exact_sync_probability(3, 0, 0)


A001372 = [1, 3, 7, 19, 47, 130]  # conjugacy classes of T_n, n = 1..6
A000041 = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]  # partitions of n = 1..12


class TestExactByClasses:
    """The class-reduced batch count against its oracles."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_map_classes(self, n):
        reps, sizes = zip(*_map_classes(_map_table(n)))
        assert len(sizes) == A001372[n - 1]
        assert sum(sizes) == n**n
        assert all(math.factorial(n) % size == 0 for size in sizes)
        assert [rep.tolist() for rep in reps] == sorted(rep.tolist() for rep in reps)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_permutation_classes(self, n):
        assert _partition_count(n, 10**8) == A000041[n - 1]

    def test_class_sizes_by_brute_force(self):
        # every map of T_4 conjugated by every permutation of S_4
        n = 4
        perms = list(itertools.permutations(range(n)))
        orbits = {}
        for f in itertools.product(range(n), repeat=n):
            orbit = frozenset(
                tuple(sigma[f[sigma.index(v)]] for v in range(n)) for sigma in perms
            )
            orbits[min(orbit)] = len(orbit)
        classes = _map_classes(_map_table(n))
        assert {tuple(rep.tolist()): size for rep, size in classes} == orbits

    def test_map_table_order(self):
        for n in range(1, 6):
            assert _map_table(n).tolist() == [
                list(t) for t in itertools.product(range(n), repeat=n)
            ]

    @pytest.mark.parametrize(
        "n, r, s",
        [
            (n, r, s)
            for n in range(1, 5)
            for r in range(4)
            for s in range(4 - r)
            if r + s >= 1 and (n, r, s) not in ((4, 1, 2), (4, 0, 3))
        ],
    )
    def test_against_enumeration(self, n, r, s):
        assert exact_sync_probability(n, r, s).fraction == _exact_by_enumeration(n, r, s)

    @pytest.mark.parametrize(
        "n, r, s, expected",
        [(6, 1, 1, Fraction(3065, 3888)), (5, 2, 1, Fraction(86567, 93750)),
         (7, 1, 1, Fraction(698375, 823543))],
    )
    def test_values_once_counted_by_cycle_type(self, n, r, s, expected):
        # checked independently, with one permutation per cycle type as the
        # class representative
        assert exact_sync_probability(n, r, s).fraction == expected

    @pytest.mark.parametrize("r", [1, 0])
    def test_class_reduction_at_four_points_three_generators(self, r):
        # every first generator as its own class of size 1, against the same
        # batches of two maps; the brute force would take minutes here
        n = 4
        first = itertools.permutations(range(n)) if r else itertools.product(range(n), repeat=n)
        maps = _pool_targets(n, _map_table(n))
        count = _count_synchronizing(n, [(f, 1) for f in first], [maps, maps], 4096)
        total = math.factorial(n) ** r * (n**n) ** (3 - r)
        assert exact_sync_probability(n, r, 3 - r).fraction == Fraction(count, total)

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("r", [0, 1])
    def test_batch_rows_against_closure(self, n, r):
        tables = random_tables(n, r, 2 - r, Lanes(derive_seeds(100 + n, 0, 2000)))
        targets = _pair_targets(n, tables)  # (rows, 2, pairs)
        decided = _synchronizing_rows([targets[:, 0], targets[:, 1]]).all(axis=1)
        expected = [
            is_synchronizing(GeneratorSet([Endofunction(row) for row in rows]))
            for rows in tables.tolist()
        ]
        assert decided.tolist() == expected
        assert 0 < sum(expected) < 2000

    def test_estimate_brackets_six_points_two_maps(self, capsys):
        exact = Fraction(4332053, 5038848)
        argv = ["estimate", "--n", "6", "--k", "2", "--trials", "20000", "--seed", "6"]
        assert main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["ci_low"] <= exact <= record["ci_high"]

    def test_guard_counts_classes_before_building_tables(self):
        # 12 points, one permutation: 77 classes, no table of S_12
        result = exact_sync_probability(12, 1, 0)
        assert result.fraction == 0
        assert result.context.startswith("77 conjugacy classes")
        with pytest.raises(ValueError, match="closed form|estimate"):
            exact_sync_probability(8, 0, 2)
        # no maps: 0 before the guard, with no class count it never finished
        result = exact_sync_probability(10**4, 1, 0)
        assert result.fraction == 0
        assert "conjugacy classes" not in result.context
        assert exact_sync_probability(1, 2, 0).fraction == 1

    def test_guard_counts_the_real_classes_before_any_pool(self, monkeypatch):
        # (4, 5, 1) passes the lower bound, 11 x 24^5 rows, but T_4 has 19
        # classes: 19 x 24^5 = 1.5e8 rows is past the guard
        def no_pool(*args):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(experiments, "_pool_targets", no_pool)
        with pytest.raises(ValueError, match="closed form|estimate"):
            exact_sync_probability(4, 5, 1)

    def test_guard_admits_six_points_two_permutations(self, monkeypatch):
        # 130 classes x 720^2 = 6.7e7 rows; the count itself takes 20 s
        walked = []
        monkeypatch.setattr(experiments, "_count_synchronizing",
                            lambda n, classes, pools, rows: walked.append(len(classes)) or 0)
        assert exact_sync_probability(6, 2, 1).fraction == 0
        assert walked == [130]


class TestEstimate:
    def test_deterministic_given_seed(self):
        config = ExperimentConfig(8, 0, 2, 400, seed=21)
        assert estimate_sync_probability(config) == estimate_sync_probability(config)

    def test_thread_count_does_not_change_result(self):
        config = ExperimentConfig(6, 1, 1, 300, seed=33)
        assert estimate_sync_probability(config, threads=1) == estimate_sync_probability(
            config, threads=2
        )

    def test_worker_count_is_clamped(self, monkeypatch):
        created = []

        class InProcessPool:
            _processes = {}  # the workers the parent stops when it is done

            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # the pool is imported where it starts, so it is patched at its source
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        config = ExperimentConfig(5, 0, 2, 10, seed=3)
        est = estimate_sync_probability(config, threads=5000)
        assert created == [min(10, os.cpu_count() or 1)]
        assert est == estimate_sync_probability(config, threads=1)

    def test_permutations_alone_never_synchronize(self):
        config = ExperimentConfig(5, 2, 0, 200, seed=4)
        est = estimate_sync_probability(config)
        assert est.successes == 0

    def test_degree_two_pair_brackets_three_quarters(self):
        config = ExperimentConfig(2, 0, 2, 20_000, seed=8)
        est = estimate_sync_probability(config)
        assert est.ci_low <= 0.75 <= est.ci_high

    def test_single_map_brackets_one_over_n(self):
        config = ExperimentConfig(12, 0, 1, 20_000, seed=15)
        est = estimate_sync_probability(config)
        assert est.ci_low <= 1 / 12 <= est.ci_high

    def test_fast_path_matches_reference(self):
        # the vectorized pair-automaton sweep must agree with the
        # witness-producing closure on random instances
        for gens in build_instances(count=120, max_n=6, max_k=3, seed=0xFA57):
            fast = _all_pairs_collapsible(gens.n, [g.images for g in gens.generators])
            assert fast == is_synchronizing(gens)

    def test_fast_path_degree_one(self):
        assert _all_pairs_collapsible(1, [(0,)])


def _chi_square_passes(counts, expected) -> bool:
    """Pearson's statistic against equal cells of ``expected`` each, within
    dof + 5 sqrt(2 dof) of its mean dof, about 5 standard deviations."""
    dof = counts.size - 1
    statistic = float(((counts - expected) ** 2).sum() / expected)
    return statistic <= dof + 5 * math.sqrt(2 * dof)


class TestPermutationMixCalibration:
    """Mixes with permutations against their exact values, and the joint
    draw of a permutation and a map against the uniform law.  The lane tests
    compare the lanes with the scalar streams, which share one rejection
    sampler, so only tests like these see a bias that both would have."""

    @pytest.mark.parametrize("n, r, s, exact", [(5, 1, 1, Fraction(2277, 3125)),
                                                (5, 2, 1, Fraction(86567, 93750)),
                                                (4, 1, 2, Fraction(30737, 32768))])
    def test_estimate_is_within_four_sigma_of_exact(self, n, r, s, exact):
        assert exact_sync_probability(n, r, s).fraction == exact
        trials = 20_000
        est = estimate_sync_probability(ExperimentConfig(n, r, s, trials, seed=2024))
        sigma = math.sqrt(trials * exact * (1 - exact))
        assert abs(est.successes - trials * exact) <= 4 * sigma

    def test_permutation_and_map_draws_are_uniform_and_independent(self):
        # 65,536 (1, 1) lanes on 4 points: the 24 permutations, the 256 maps
        # and their 6,144-cell joint table
        lanes = 2**16
        tables = np.concatenate([t for _, t in lane_blocks(4, 1, 1, 31, 0, lanes)])
        weights = 4 ** np.arange(3, -1, -1)
        perm_codes = np.array(list(itertools.permutations(range(4)))) @ weights
        rank = np.full(256, -1)
        rank[perm_codes] = np.arange(24)
        perms, maps = rank[tables[:, 0] @ weights], tables[:, 1] @ weights
        assert (perms >= 0).all()
        assert _chi_square_passes(np.bincount(perms, minlength=24), lanes / 24)
        assert _chi_square_passes(np.bincount(maps, minlength=256), lanes / 256)
        joint = np.bincount(perms * 256 + maps, minlength=24 * 256)
        assert _chi_square_passes(joint, lanes / (24 * 256))


class TestLanePath:
    """The block path (lane draws, squaring, the pair fixpoint) against the
    scalar ``_trial_outcome``; ``capped_threshold`` makes the lanes and the
    scalar streams reject about half of all draws."""

    @pytest.mark.parametrize("r, s", [(0, 1), (1, 1), (0, 2), (2, 1)])
    def test_every_row_equals_its_substream_draws(self, monkeypatch, capped_threshold, r, s):
        # trials 5..250 in blocks of 64
        monkeypatch.setattr(transform, "LANE_BUDGET", 6 * (r + s) * 64)
        starts = []
        for start, tables in lane_blocks(6, r, s, 19, 5, 250):
            starts.append(start)
            assert tables.shape[1:] == (r + s, 6) and tables.dtype == np.intp
            for i, rows in enumerate(tables.tolist()):
                gens = _scalar_draws(6, r, s, substream(19, start + i))
                assert rows == [list(g.images) for g in gens]
        assert starts == [5, 69, 133, 197]

    @pytest.mark.parametrize("r, s", [(0, 1), (1, 1), (0, 2), (2, 1)])
    def test_fallback_rows_equal_scalar_draws(self, monkeypatch, capped_threshold, r, s):
        config = ExperimentConfig(6, r, s, 250, seed=19)
        expected = []
        for trial in range(config.trials):
            ok, gens = _trial_outcome(6, r, s, substream(config.seed, trial))
            if ok:
                expected.append([list(g.images) for g in gens])
        audited = []
        monkeypatch.setattr(experiments, "AUDIT_EVERY", 1)
        monkeypatch.setattr(transform, "LANE_BUDGET", 6 * (r + s) * 64)  # blocks of 64
        monkeypatch.setattr(experiments, "_audit", lambda images: audited.append(images.tolist()))
        est = estimate_sync_probability(config)
        # every synchronizing trial is audited, with the scalar stream's maps
        assert est.successes == len(expected)
        assert audited == expected

    def test_no_lane_builds_a_stream(self, monkeypatch, capped_threshold):
        # every lane redraws its own rejected draws; no scalar Stream runs
        built = []
        init = Stream.__init__

        def counting(self, seed):
            built.append(seed)
            init(self, seed)

        monkeypatch.setattr(Stream, "__init__", counting)
        monkeypatch.setattr(transform, "LANE_BUDGET", 6 * 2 * 64)  # blocks of 64
        estimate_sync_probability(ExperimentConfig(6, 1, 1, 250, seed=19))
        edge_graph_experiment(4, 250, seed=19)
        monte_carlo_transitive(6, True, 250, seed=19)
        assert built == []

    def test_only_rng_redraws_a_rejected_draw(self):
        # the experiments take finished tables: no module but rng reads a
        # rejection mask or builds a scalar stream (experiments imports
        # substream for the tracer, and transform names Stream as a type)
        paths = [p for p in Path(syncmonoid.__file__).parent.glob("*.py") if p.stem != "rng"]
        assert {"cli", "dixon", "experiments", "transform"} <= {p.stem for p in paths}
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text())):
                assert not (isinstance(node, ast.Attribute) and node.attr == "rejected"), path
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", getattr(node.func, "attr", None))
                    assert called not in ("substream", "Stream"), path

    def test_edge_graph_fallback_matches_lanes(self, monkeypatch, capped_threshold):
        monkeypatch.setattr(transform, "LANE_BUDGET", 4 * 2 * 64)  # blocks of 64
        estimate = edge_graph_experiment(4, 500, seed=9).estimate
        assert estimate == make_estimate(_edge_graph_successes(4, 500, 9), 500)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_single_map_decision_matches_scalar(self, n):
        maps = random_tables(n, 0, 1, Lanes(derive_seeds(n, 0, 64)))[:, 0]
        decided = experiments._single_map_synchronizes(maps)
        assert decided.tolist() == [_trial_outcome(n, 0, 1, substream(n, t))[0] for t in range(64)]
        # a path into a fixed point has the longest tail, n - 1 steps; a
        # 2-cycle at its end never collapses
        path = [max(v - 1, 0) for v in range(n)]
        looped = [1, 0] + path[2:] if n > 1 else [0]
        identity = list(range(n))
        maps = np.array([path, looped, identity], dtype=np.intp)
        assert experiments._single_map_synchronizes(maps).tolist() == [
            True, n == 1, n == 1
        ]

    def test_single_map_decision_by_fixed_points(self):
        # only rows with one fixed point are powered; every row is checked
        # against the scalar walk, on drawn maps and on maps built with 0, 1
        # and at least 2 fixed points
        seen = set()
        for n in range(1, 301):
            path = [max(v - 1, 0) for v in range(n)]  # one fixed point, synchronizing
            built = [path, list(range(n)), [(v + 1) % n for v in range(n)]]
            if n > 2:  # one fixed point and a 2-cycle; two fixed points on a path
                built += [[0, 2, 1] + path[3:], [0, 1] + path[2:]]
            maps = np.concatenate([random_tables(n, 0, 1, Lanes(derive_seeds(n, 0, 32)))[:, 0],
                                   np.array(built, dtype=np.intp)])
            decided = experiments._single_map_synchronizes(maps).tolist()
            fixed = np.count_nonzero(maps == np.arange(n), axis=1).tolist()
            for f, sync, count in zip(maps.tolist(), decided, fixed):
                assert sync == has_unique_periodic_point(Endofunction(f))
                seen.add((min(count, 2), sync))
        assert seen == {(0, False), (1, False), (1, True), (2, False)}

    @pytest.mark.parametrize("r, s, n, trials", [(0, 1, 30, 2500), (1, 1, 40, 1000)])
    def test_threads_agree_off_block_boundaries(self, monkeypatch, r, s, n, trials):
        # blocks of 1092 and 409 lanes; two chunks split the trials elsewhere.
        # The default budget would hold each run in one block; the forked
        # workers inherit the patched one.
        monkeypatch.setattr(transform, "LANE_BUDGET", 2**15)
        config = ExperimentConfig(n, r, s, trials, seed=23)
        assert trials % max(1, transform.LANE_BUDGET // (n * (r + s)))
        assert estimate_sync_probability(config, threads=1) == estimate_sync_probability(
            config, threads=2
        )

    def test_blocks_never_drop_below_the_lane_floor(self):
        # at n = 5,120 the budget alone would give 25 lanes to a block
        assert transform.LANE_BUDGET // 5120 < transform.LANE_FLOOR == 64
        blocks = lane_blocks(5120, 0, 1, 7, 0, 130)
        assert [(start, tables.shape) for start, tables in blocks] == [
            (0, (64, 1, 5120)), (64, (64, 1, 5120)), (128, (2, 1, 5120))
        ]

    def test_blocks_refuse_a_degree_below_one(self):
        with pytest.raises(ValueError, match="degree"):
            next(lane_blocks(0, 0, 1, 7, 0, 10))

    @pytest.mark.parametrize("floor", [64, 2])
    def test_large_n_stdout_equals_scalar_oracle(self, monkeypatch, capsys, floor):
        # one block of five lanes under the floor, or blocks of 2, 2 and 1.
        # The scalar draws are decided by the single-row fixpoint: the
        # witness closure would take about 17 s a trial at this n.
        monkeypatch.setattr(transform, "LANE_FLOOR", floor)
        config = ExperimentConfig(2000, 0, 2, 5, seed=11)
        successes = sum(
            _all_pairs_collapsible(2000, _table(_scalar_draws(2000, 0, 2, substream(11, t))))
            for t in range(config.trials)
        )
        record = experiments.estimate_record("estimate", config, make_estimate(successes, 5))
        argv = ["estimate", "--n", "2000", "--perms", "0", "--maps-count", "2",
                "--trials", "5", "--seed", "11"]
        assert main(argv) == 0
        assert capsys.readouterr().out == json.dumps(record, sort_keys=True) + "\n"

    @pytest.mark.parametrize("r, s, n", [(0, 1, 9), (2, 1, 9), (0, 3, 6)])
    def test_block_path_matches_scalar_oracle(self, monkeypatch, r, s, n):
        monkeypatch.setattr(transform, "LANE_BUDGET", n * (r + s) * 100)  # blocks of 100
        config = ExperimentConfig(n, r, s, 1234, seed=5)
        successes = sum(
            _trial_outcome(n, r, s, substream(config.seed, t))[0] for t in range(config.trials)
        )
        assert estimate_sync_probability(config).successes == successes


def _min_max_pair_targets(n, tables):
    """The pair targets by the min/max/offsets formula that the pair-index
    table replaced."""
    pairs, offs = pair_numbering(n)
    first = np.array([v for v, _ in pairs], dtype=np.int64)
    second = np.array([w for _, w in pairs], dtype=np.int64)
    tables = np.asarray(tables)
    a, b = tables.take(first, axis=-1), tables.take(second, axis=-1)
    targets = np.array(offs, dtype=np.int64).take(np.minimum(a, b)) + np.maximum(a, b)
    targets[a == b] = len(pairs)
    return targets


class TestBatchedPairPath:
    """The batched pair fixpoint of the Monte Carlo blocks against the
    single-row fixpoint, and the pair arrays against ``pair_numbering`` and
    the formula they replaced."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pair_arrays_follow_pair_numbering(self, n):
        first, second, index = pair_arrays(n)
        pairs, _ = pair_numbering(n)
        assert list(zip(first.tolist(), second.tolist())) == list(pairs)
        table = index.reshape(n, n)
        for p, (v, w) in enumerate(pairs):
            assert table[v, w] == table[w, v] == p
        assert (np.diagonal(table) == len(pairs)).all()
        assert not any(a.flags.writeable for a in (first, second, index))

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 80, 255])
    @pytest.mark.parametrize("dtype", [np.intp, np.uint8])
    def test_pair_targets_match_min_max_formula(self, n, dtype):
        # at n = 80, a * n overflows uint8; the exact path passes uint8 tables
        tables = random_tables(n, 1, 2, Lanes(derive_seeds(n, 0, 20)))
        tables = tables.astype(dtype)
        assert np.array_equal(_pair_targets(n, tables), _min_max_pair_targets(n, tables))
        one = tables[0, 0]  # one table alone, as the exact path passes a representative
        assert np.array_equal(_pair_targets(n, one), _min_max_pair_targets(n, one))

    @pytest.mark.parametrize("r, s", [(0, 2), (1, 1), (2, 1), (0, 3)])
    def test_batched_lanes_equal_single_rows(self, monkeypatch, r, s):
        verdicts = set()
        for n in range(1, 13):
            k, pairs = r + s, n * (n - 1) // 2
            # batches of 3 rows: 50 lanes split 16 times and leave 2
            monkeypatch.setattr(experiments, "BATCH_BUDGET", 3 * k * (pairs + 1) + 1)
            tables = random_tables(n, r, s, Lanes(derive_seeds(40 + n, 0, 50)))
            decided = experiments._synchronizing_lanes(n, tables).all(axis=1).tolist()
            assert decided == [_all_pairs_collapsible(n, rows) for rows in tables]
            verdicts.update(decided)
        assert verdicts == {True, False}

    def test_cycle_filter_is_sound_and_the_fallback_completes_it(self, monkeypatch):
        seen = set()  # (|C| == 1, filter verdict, full verdict)
        for r, s in FILTER_MIXES:
            k = r + s
            for n in range(1, 13):
                # small batches, so that a group of equal |C| spans several calls
                monkeypatch.setattr(experiments, "BATCH_BUDGET", 7 * k * (n + 1))
                tables = random_tables(n, r, s, Lanes(derive_seeds(60 + n, 0, 50)))
                accepted = experiments._synchronizing_on_cycles(tables, r).tolist()
                decided = experiments._pair_mix_lanes(tables, r)[0].tolist()
                full = [_all_pairs_collapsible(n, rows) for rows in tables]
                assert decided == full
                for rows, ok, sync in zip(tables, accepted, full):
                    assert sync or not ok  # the filter accepts only synchronizing lanes
                    single = len(periodicity(Endofunction(rows[r].tolist())).periodic_points) == 1
                    seen.add((single, ok, sync))
        # |C| = 1 is accepted outright; larger C is accepted or declined, and a
        # declined lane is found synchronizing by the fallback or not at all
        assert seen == {(True, True, True), (False, True, True), (False, False, True),
                        (False, False, False)}

    @pytest.mark.parametrize("n", range(1, 41))
    def test_cycle_power_image_is_the_periodic_points(self, n):
        maps = random_tables(n, 0, 1, Lanes(derive_seeds(80 + n, 0, 16)))[:, 0]
        power = experiments._cycle_power(maps)
        exponent = 2 ** max(1, (n - 1).bit_length())
        assert exponent >= n - 1
        for f, p in zip(maps.tolist(), power.tolist()):
            x = list(range(n))
            for _ in range(exponent):
                x = [f[v] for v in x]
            assert p == x
            assert set(p) == periodicity(Endofunction(f)).periodic_points


FILTER_MIXES = [(0, 2), (1, 1), (2, 1), (1, 2), (0, 3), (0, 5)]  # (0, 5): W smaller than G^2


def _certificate_corpus():
    """Generator lists on 1 to 7 points, drawn for several mixes."""
    for n in range(1, 8):
        for r, s in [(0, 1), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2)]:
            for t in range(12):
                yield _scalar_draws(n, r, s, substream(100 * n + 10 * r + s, t))


class TestCertificates:
    """Both certificates against the witness closure of ``sync``."""

    def test_steps_match_the_closure_and_lead_to_the_merged_state(self):
        for gens in _certificate_corpus():
            n, k = gens[0].n, len(gens)
            steps = experiments._collapse_steps(n, [g.images for g in gens]).tolist()
            assert [t >= 0 for t in steps] == collapsible_pairs(GeneratorSet(gens)).collapsible
            pairs, offs = pair_numbering(n)
            for (v, w), t in zip(pairs, steps):
                if t >= 0:  # generator t % k merges the pair or sends it to an earlier step
                    a, b = gens[t % k].images[v], gens[t % k].images[w]
                    assert a == b or steps[offs[min(a, b)] + max(a, b)] < t

    def test_word_replays_exactly_when_synchronizing(self):
        # the stuck set is what the deciding fixpoint left uncollapsed; one
        # generator's word is f^(n-1), whose replay fails when f does not reset
        verdicts = set()
        for gens in _certificate_corpus():
            gen_set = GeneratorSet(gens)
            sync = is_synchronizing(gen_set)
            verdicts.add((len(gens) == 1, sync))
            table = _table(gens)
            stuck = ~experiments._synchronizing_lanes(gens[0].n, table[None])
            if sync:
                word = experiments._reset_word(table)
                assert rank(gen_set.evaluate(tuple(word))) == 1
                experiments._audit(table)
                with pytest.raises(VerificationError):
                    experiments._check_stuck(table[None], stuck)
            else:
                message = "replay failed" if len(gens) == 1 else "never collapsed"
                with pytest.raises(VerificationError, match=message):
                    experiments._audit(table)
                experiments._check_stuck(table[None], stuck)
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_single_map_word_is_its_power(self, monkeypatch, n):
        # a path into a fixed point has the longest tail, n - 1 steps; a
        # 2-cycle at its end never collapses.  No pair arrays are built.
        def never(*args):
            raise AssertionError("pair arrays built for a single map")

        monkeypatch.setattr(experiments, "pair_arrays", never)
        path = [max(v - 1, 0) for v in range(n)]
        assert experiments._reset_word(np.array([path])) == [0] * (n - 1)
        experiments._audit(np.array([path]))
        if n > 1:
            with pytest.raises(VerificationError, match="replay failed"):
                experiments._audit(np.array([[1, 0] + path[2:]]))

    def test_audit_rejects_a_word_that_does_not_reset(self, monkeypatch):
        # the replay in numpy, not the greedy walk, decides the audit; a
        # greedy word without its last letter leaves two points
        reset_word = experiments._reset_word
        monkeypatch.setattr(experiments, "_reset_word", lambda images: reset_word(images)[:-1])
        tested = 0
        for gens in _certificate_corpus():
            table = _table(gens)
            if len(gens) > 1 and is_synchronizing(GeneratorSet(gens)) and reset_word(table):
                with pytest.raises(VerificationError, match="replay failed"):
                    experiments._audit(table)
                tested += 1
        assert tested

    def test_every_non_synchronizing_pair_trial_is_checked(self, monkeypatch, capped_threshold):
        # by its stuck set, or, when both generators are bijections, by the
        # count that shows them onto
        checked, onto = [], []
        bijective = experiments._bijective_lanes

        def counting(tables):
            found = bijective(tables)
            onto.extend(tables[found])
            return found

        monkeypatch.setattr(experiments, "_check_stuck",
                            lambda tables, stuck: checked.extend(tables))
        monkeypatch.setattr(experiments, "_bijective_lanes", counting)
        config = ExperimentConfig(5, 1, 1, 300, seed=12)
        est = estimate_sync_probability(config)
        outcomes = [_trial_outcome(5, 1, 1, substream(config.seed, t)) for t in range(300)]
        expected = [[list(g.images) for g in gens] for ok, gens in outcomes if not ok]
        groups = [[t for t in expected if (sorted(t[1]) == list(range(5))) == group]
                  for group in (False, True)]
        assert [[images.tolist() for images in found] for found in (checked, onto)] == groups
        assert groups[1] and est.successes == config.trials - len(expected)


    def test_stuck_check_rejects_a_collapsible_pair(self):
        # each block's stuck sets pass; marking any one collapsed pair of any
        # one lane as stuck fails the check of the whole block.  Lanes of
        # permutations alone are certified without a stuck set, but their
        # sets, every pair, pass as well.
        tested = 0
        for r, s in FILTER_MIXES + [(2, 0)]:
            for n in range(2, 7):
                tables = random_tables(n, r, s, Lanes(derive_seeds(200 + n, 0, 100)))
                sync, lanes, stuck = experiments._pair_mix_lanes(tables, r)
                if s == 0:
                    assert not sync.any() and not lanes.size
                    lanes = np.arange(len(tables))
                    stuck = ~experiments._synchronizing_lanes(n, tables)
                    assert stuck.all()
                experiments._check_stuck(tables[lanes], stuck)
                for lane, pair in zip(*np.nonzero(~stuck)):
                    marked = stuck.copy()
                    marked[lane, pair] = True
                    with pytest.raises(VerificationError, match="non-synchronization certificate"):
                        experiments._check_stuck(tables[lanes], marked)
                    tested += 1
        assert tested > 500

    def test_a_lane_with_one_non_bijection_takes_the_fixpoint(self, monkeypatch):
        # (2, 0) lanes on 5 points, one generator of lane 3 made to merge 0
        # and 1: only that lane goes through the fixpoint
        tables = random_tables(5, 2, 0, Lanes(derive_seeds(17, 0, 8)))
        tables[3, 1, 1] = tables[3, 1, 0]
        fixpoint, seen = experiments._synchronizing_lanes, []
        monkeypatch.setattr(experiments, "_synchronizing_lanes",
                            lambda n, rows: seen.append(rows.tolist()) or fixpoint(n, rows))
        sync, lanes, stuck = experiments._pair_mix_lanes(tables, 2)
        assert seen == [[tables[3].tolist()]]
        expected = _all_pairs_collapsible(5, tables[3])
        assert sync.tolist() == [False] * 3 + [expected] + [False] * 4
        assert lanes.tolist() == ([] if expected else [3])

    def test_each_verdict_is_certified_from_its_deciding_state(self, monkeypatch):
        # the mc_pairs sweep in blocks of at most 409 lanes: _collapse_steps
        # runs once per audited synchronizing trial and for nothing else, and
        # _check_stuck once per block with a non-synchronizing lane, on the
        # non-synchronizing lanes of that block
        monkeypatch.setattr(transform, "LANE_BUDGET", 2**13)
        steps, audit, check = (experiments._collapse_steps, experiments._audit,
                               experiments._check_stuck)
        calls = {"steps": 0, "audit": 0}
        checked = []

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def checking(tables, stuck):
            checked.append(tables.tolist())
            check(tables, stuck)

        monkeypatch.setattr(experiments, "_collapse_steps", counted("steps", steps))
        monkeypatch.setattr(experiments, "_audit", counted("audit", audit))
        monkeypatch.setattr(experiments, "_check_stuck", checking)
        records = sweep([10, 20, 40, 80], [(0, 2, 500), (1, 1, 500)], seed=99)
        expected = []
        for record in records:
            n, r, s = record["n"], record["r"], record["s"]
            for _, tables in lane_blocks(n, r, s, record["seed"], 0, record["trials"]):
                stuck = [rows for rows in tables if not _all_pairs_collapsible(n, rows)]
                if stuck:
                    expected.append([rows.tolist() for rows in stuck])
        assert checked == expected and len(expected) > len(records)
        assert calls["steps"] == calls["audit"] > 0

    def test_single_map_audits_build_no_pair_arrays(self, monkeypatch, capsys):
        # trials 0, 100, ..., 900 are audited when they synchronize
        def never(*args):
            raise AssertionError("pair arrays built for a single map")

        audited = []
        audit = experiments._audit
        monkeypatch.setattr(experiments, "pair_arrays", never)
        monkeypatch.setattr(experiments, "_audit",
                            lambda images: audited.append(images) or audit(images))
        argv = ["estimate", "--n", "5", "--k", "1", "--trials", "1000", "--seed", "7"]
        assert main(argv) == 0
        assert audited and json.loads(capsys.readouterr().out)["successes"] > 0


class TestClosureCorpus:
    """The lane decision, the scalar fixpoint and the monoid closure agree."""

    def test_lane_decision_matches_the_closure(self):
        verdicts = set()
        for r, s in FILTER_MIXES:
            for n in range(1, 7):
                drawn = [
                    _scalar_draws(n, r, s, substream(1000 * n + 10 * r + s, t)) for t in range(10)
                ]
                tables = np.array([_table(gens) for gens in drawn])
                decided, lanes, stuck = experiments._pair_mix_lanes(tables, r)
                sets = dict(zip(lanes.tolist(), stuck.tolist()))
                for lane, (gens, sync) in enumerate(zip(drawn, decided.tolist())):
                    closure = monoid_closure(GeneratorSet(gens))
                    assert sync == _all_pairs_collapsible(n, [g.images for g in gens])
                    assert sync == (min(rank(m) for m in closure) == 1)
                    graph = separation_graph(GeneratorSet(gens))
                    assert graph == separation_graph_of_elements(closure)
                    bijections = all(len(set(g.images)) == n for g in gens)
                    if not sync and not bijections:  # the stuck set is the separation graph
                        pairs, _ = pair_numbering(n)
                        stuck_pairs = {p for p, st in zip(pairs, sets.pop(lane)) if st}
                        assert stuck_pairs == set(graph.edges())
                    verdicts.add(sync)
                assert not sets
        assert verdicts == {True, False}


def _edge_graph_successes(n, trials, seed):
    """The scalar oracle of ``edge_graph_experiment``: redraw every trial's
    maps and ask each one-edge graph directly."""
    successes = 0
    for trial in range(trials):
        stream = substream(seed, trial)
        f, g = random_endofunction(n, stream), random_endofunction(n, stream)
        successes += any(
            is_endomorphism(edge, f) and is_endomorphism(edge, g)
            for edge in (SimpleGraph.single_edge(n, v, w)
                         for v in range(n) for w in range(v + 1, n))
        )
    return successes


class TestEdgeGraphExperiment:
    def test_exact_bound_values(self):
        report = edge_graph_experiment(4, 10, seed=0)
        assert report.union_bound == Fraction(3, 32)
        assert report.per_graph_probability == Fraction(1, 64)
        assert report.graph_count == 6

    def test_degree_two_matches_exhaustive_count(self):
        # all 16 ordered map pairs on two points: both fix the unique edge
        # graph iff both are permutations -> 4/16
        maps = [t for t in itertools.product(range(2), repeat=2)]
        hits = sum(
            1
            for f in maps
            for g in maps
            if set(f) == {0, 1} and set(g) == {0, 1}
        )
        assert Fraction(hits, 16) == Fraction(1, 4)
        report = edge_graph_experiment(2, 10, seed=0)
        assert report.union_bound == Fraction(1, 4)

    def test_true_probability_below_bound_exhaustively(self):
        for n in (2, 3):
            hits = 0
            total = 0
            for f in itertools.product(range(n), repeat=n):
                for g in itertools.product(range(n), repeat=n):
                    total += 1
                    if any(
                        {f[v], f[w]} == {v, w} and {g[v], g[w]} == {v, w}
                        for v in range(n)
                        for w in range(v + 1, n)
                    ):
                        hits += 1
            bound = Fraction(n * (n - 1) // 2) * Fraction(2 * n ** (n - 2), n**n) ** 2
            assert Fraction(hits, total) <= bound

    def test_sampled_estimate_within_bound(self):
        report = edge_graph_experiment(5, 20_000, seed=77)
        assert report.within_bound

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            edge_graph_experiment(1, 10, seed=0)

    @pytest.mark.parametrize("n, seed", [(2, 1), (3, 5), (4, 9), (6, 3)])
    def test_successes_match_endomorphism_oracle(self, n, seed):
        successes = _edge_graph_successes(n, 400, seed)
        assert edge_graph_experiment(n, 400, seed).estimate.successes == successes


class TestExplorer:
    def test_labeled_four_vertices(self):
        records = list(explore_maximal_nonsync(4))
        assert len(records) == 64
        singles = [r for r in records if len(r["edges"]) == 1]
        assert len(singles) == 6
        for record in singles:
            assert record["passes"]
            assert record["maximal"] is True
            assert record["end_count"] == "32"

    def test_null_graph_excluded(self):
        records = list(explore_maximal_nonsync(3))
        null_record = next(r for r in records if r["null"])
        assert not null_record["passes"]
        assert null_record["maximal"] is None

    def test_canonical_four_vertices(self):
        records = list(explore_maximal_nonsync(4, canonical=True))
        assert len(records) == 11

    def test_no_distinct_pair_candidates_small(self):
        for n in (3, 4):
            for record in explore_maximal_nonsync(n):
                assert record["distinct_pair_candidate"] in (None, False)

    def test_records_serialize(self):
        for record in explore_maximal_nonsync(3):
            json.dumps(record)

    @pytest.mark.parametrize("end_cap", [3, 20, 100, 10**6])
    def test_class_records_equal_per_label_records(self, end_cap):
        # the oracle runs the per-graph body on every labeled graph, so every
        # field it copies from the class's least labeling must agree
        skips = 0
        for n in range(1, 6):
            expected = [
                dict(_graph_record(x, end_cap), canonical=False,
                     edges=[[v + 1, w + 1] for v, w in x.edges()])
                for x in enumerate_graphs(n)
            ]
            assert list(explore_maximal_nonsync(n, end_cap=end_cap)) == expected
            skips += sum(len(record["skips"]) for record in expected)
        assert (skips > 0) == (end_cap < 10**6)

    @pytest.mark.parametrize("n, classes, passing", [(4, 11, 8), (5, 34, 16)])
    def test_one_check_per_class(self, monkeypatch, capsys, n, classes, passing):
        # one pass over End(x) per class, and one over End(y) per class whose
        # derived graph y passes the cheap tests
        derived = {4: 1, 5: 10}[n]
        calls = {"conditions": 0, "end": 0, "maximal": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(experiments, "check_maximality_conditions",
                            counted("conditions", experiments.check_maximality_conditions))
        monkeypatch.setattr(experiments, "endomorphism_pass",
                            counted("end", experiments.endomorphism_pass))
        monkeypatch.setattr(experiments, "is_maximal_given",
                            counted("maximal", experiments.is_maximal_given))
        assert main(["explore", "--n", str(n)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 ** (n * (n - 1) // 2)
        assert calls == {"conditions": classes, "end": classes + derived, "maximal": passing}

    def test_distinct_pair_candidate_matches_its_definition(self):
        # the verdict the explorer reaches with the cheap tests first, against
        # the conjunction it stands for, with hulls from the merge CSP
        for n in range(1, 7):
            for x in enumerate_graphs(n, canonical=n == 6):
                y = derived_graph(x)
                record = _graph_record(x, 10**6)
                if y == x:
                    assert record["distinct_pair_candidate"] is None
                    continue
                assert record["distinct_pair_candidate"] == (
                    endomorphism_count(x) == endomorphism_count(y)
                    and clique_number(y) == clique_number(x) == chromatic_number(x)
                    == chromatic_number(y)
                    and hull(y) == x
                )

    def test_six_vertex_classes_all_maximal(self, capsys):
        assert main(["explore", "--n", "6", "--canonical"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        passing = [r for r in records if r["passes"]]
        assert (len(records), len(passing)) == (156, 34)
        assert all(r["maximal"] is True for r in passing)

    def test_explore_never_imports_numpy_ma(self):
        # numpy.ma (pulled in by np.unique) adds about 1.5 MB of peak RSS
        script = (
            "import contextlib, io, sys\n"
            "from syncmonoid.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['explore', '--n', '5']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout) == (0, "False\n")

    def test_caps_produce_skip_notes_not_errors(self):
        records = list(explore_maximal_nonsync(4, end_cap=10))
        assert len(records) == 64  # capped stages never abort the stream
        capped = [r for r in records if r["skips"]]
        assert capped
        for record in capped:
            assert record["end_count"] is None or record["maximal"] is None
            json.dumps(record)


class TestSweep:
    CONFIG = [(0, 2, 300)]

    def test_record_schema(self):
        records = sweep([4, 5], self.CONFIG, seed=2)
        assert len(records) == 2
        for record in records:
            assert set(record) == {
                "experiment",
                "n",
                "r",
                "s",
                "trials",
                "seed",
                "successes",
                "estimate",
                "ci_low",
                "ci_high",
                "exact",
            }
            assert record["trials"] == 300
            assert 0 <= record["estimate"] <= 1

    def test_byte_identical_reruns(self):
        a = [json.dumps(r, sort_keys=True) for r in sweep([4, 5], self.CONFIG, seed=2)]
        b = [json.dumps(r, sort_keys=True) for r in sweep([4, 5], self.CONFIG, seed=2)]
        assert a == b

    def test_exact_field_for_single_map(self):
        records = sweep([7], [(0, 1, 200)], seed=5)
        assert records[0]["exact"] == "1/7"
        assert records[0]["ci_low"] <= 1 / 7 <= records[0]["ci_high"]

    def test_empty_n_list(self):
        assert sweep([], self.CONFIG, seed=1) == []

    def test_refuses_past_the_pair_budget_before_any_row(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a row ran before the refusal")

        monkeypatch.setattr(experiments, "estimate_sync_probability", never)
        monkeypatch.setattr(experiments, "pair_arrays", never)
        with pytest.raises(ValueError, match="pair"):
            sweep([4, 5, 5794], self.CONFIG, seed=1)

    def test_pair_arrays_of_a_large_n_are_built_once_a_row(self, monkeypatch):
        # each row has two blocks and asks for the arrays of its n in each; a
        # large n's arrays go when a row of another n starts, small ones stay
        built = []
        build = graphs._build_pair_arrays
        monkeypatch.setattr(graphs, "_pair_arrays", {})
        monkeypatch.setattr(graphs, "_build_pair_arrays", lambda n: built.append(n) or build(n))
        sweep([300, 400, 300], [(0, 2, 300), (1, 1, 300)], seed=3)
        large = [n for n in built if n > graphs.PAIR_ARRAYS_KEPT]
        assert large == [300, 400, 300]
        small = [n for n in built if n <= graphs.PAIR_ARRAYS_KEPT]
        assert small and len(small) == len(set(small))
        assert [n for n in graphs._pair_arrays if n > graphs.PAIR_ARRAYS_KEPT] == [300]

    def test_rows_reproducible_from_their_own_seed(self):
        record = sweep([6], self.CONFIG, seed=13)[0]
        config = ExperimentConfig(6, 0, 2, 300, record["seed"])
        est = estimate_sync_probability(config)
        assert est.successes == record["successes"]


class TestAudit:
    def test_certificates_replay_on_audited_trials(self, monkeypatch):
        # trial indices divisible by 100 replay a reset word on their own
        # image table, when they synchronize; the real audit runs and passes
        audited = []
        audit = experiments._audit
        monkeypatch.setattr(experiments, "_audit",
                            lambda images: audited.append(images.tolist()) or audit(images))
        config = ExperimentConfig(4, 0, 2, 101, seed=77)
        est = estimate_sync_probability(config)
        assert est.trials == 101
        outcomes = [_trial_outcome(4, 0, 2, substream(77, t)) for t in (0, 100)]
        expected = [[list(g.images) for g in gens] for ok, gens in outcomes if ok]
        assert audited == expected and expected
