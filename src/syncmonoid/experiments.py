"""Monte Carlo and exact experiments on random generation of synchronizing
monoids, plus the graph explorer for maximal non-synchronizing candidates.

Reproducibility contract: every trial draws from its own substream keyed by
(seed, trial index), and results are aggregated by summation, so estimates
are byte-identical however trials are scheduled.  Within a trial the draw
order is fixed: the permutation generators first, then the endofunction
generators.

Trials run in blocks from ``transform.lane_blocks``, each row exactly
what its trial's own ``substream(seed, trial)`` draws, and every trial is
decided and certified on its image table.  A single map is decided by
repeated squaring of the maps with one fixed point.  A mix with a map is
first filtered on that map's periodic points (``_synchronizing_on_cycles``),
which accepts only synchronizing lanes.  On two or more points, a lane it
leaves whose generators are all bijections does not synchronize, and the
count that shows each generator onto is its certificate.  Every other lane
goes through the full pair fixpoint in numpy batches of ``BATCH_BUDGET``
pair targets, many lanes to a call.  The pairs that this fixpoint leaves
uncollapsed, the separation graph, certify each lane it judges not
synchronizing: one check per block shows every such set nonempty and
mapped into itself, unmerged, by every generator.  1% of the
synchronizing trials replay a reset word: f^(n-1) for a single map f, else
one built from a step-by-step fixpoint on the trial.

Exact probabilities count up to conjugacy (``exact_sync_probability``); the
brute-force loop over every tuple, ``_exact_by_enumeration``, is its oracle.
"""

from __future__ import annotations

import itertools
import math
import os
import signal
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, VerificationError
from .graphs import (  # bench/tracing.py hooks several of these names here
    SimpleGraph,
    check_maximality_conditions,
    chromatic_number,
    clique_number,
    derived_graph,
    drop_pair_arrays,
    edges_from_bits,
    endomorphism_count,
    endomorphism_pass,
    enumerate_graphs,
    graph_classes,
    hull,
    is_maximal_given,
    is_maximal_nonsynchronizing,
    pair_arrays,
)
from .rng import derive_seed, substream  # bench/tracing.py hooks substream here, not called
from .stats import EstimateWithCI, make_estimate
from .sync import (  # bench/tracing.py hooks these names here; min_rank_witness is not called
    GeneratorSet,
    is_synchronizing,
    min_rank_witness,
)
from .transform import (  # bench/tracing.py hooks the three names not called here
    Endofunction,
    has_unique_periodic_point,
    lane_blocks,
    random_endofunction,
    random_permutation,
)

AUDIT_EVERY = 100  # replay a reset word on 1% of synchronizing trials
BATCH_BUDGET = 2**15  # pair targets, rows * (r + s) * (pairs + 1), in one fixpoint call
MAXIMALITY_MAX_N = 7  # largest n that explore runs the maximality test on
PAIR_BUDGET = 2**24  # most point pairs n(n-1)/2 of a Monte Carlo run: n <= 5,793


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo setting: degree n, r permutation generators, s
    endofunction generators, trial count, and master seed."""

    n: int
    num_permutations: int
    num_endofunctions: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.num_permutations < 0 or self.num_endofunctions < 0:
            raise ValueError("generator counts must be nonnegative")
        if self.num_permutations + self.num_endofunctions < 1:
            raise ValueError("need at least one generator")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        # the cached pair arrays alone take about 32 bytes per pair (6.4 GB at n = 20,000)
        if self.n * (self.n - 1) // 2 > PAIR_BUDGET:
            largest = (1 + math.isqrt(1 + 8 * PAIR_BUDGET)) // 2
            raise ValueError(
                f"n = {self.n} has {self.n * (self.n - 1) // 2} point pairs, past the "
                f"budget of {PAIR_BUDGET} for Monte Carlo runs (n <= {largest})"
            )


@dataclass(frozen=True)
class ExactResult:
    """An exact probability as a reduced fraction, with a note on how it
    was obtained."""

    numerator: int
    denominator: int
    context: str

    @classmethod
    def from_fraction(cls, frac: Fraction, context: str) -> "ExactResult":
        return cls(frac.numerator, frac.denominator, context)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


# ---------------------------------------------------------------------------
# the pair fixpoint: batched decisions, the single-row oracle and certificates


def _pair_targets(n: int, tables) -> np.ndarray:
    """Where each table (..., n) sends each pair: the index of the image
    pair, or the number of pairs when the table merges the pair."""
    first, second, index = pair_arrays(n)
    tables = np.asarray(tables, dtype=np.intp)  # in uint8, a * n would wrap
    flat = (tables * n).take(first, axis=-1)
    flat += tables.take(second, axis=-1)  # in place: one fresh array fewer per batch
    return index.take(flat)


def _batch_rows(n: int, k: int) -> int:
    """Rows of k generators' pair targets that fit in one batch of
    ``BATCH_BUDGET`` entries, counting each row's merged state."""
    return max(1, BATCH_BUDGET // (k * (n * (n - 1) // 2 + 1)))


def _synchronizing_rows(targets) -> np.ndarray:
    """The collapsed pairs (rows, pairs) of a batch at its fixpoint; a row
    synchronizes iff all collapse, and the others form its separation graph.
    ``targets`` holds one (rows, pairs) array per generator, or a (pairs,)
    array shared by every row, as ``_pair_targets`` gives them.  Each row
    gets its own block of a flat (rows, pairs + 1) state, whose last column
    is the merged state, and the generators sweep over it in turn until the
    set of collapsible pairs stops growing."""
    rows, pairs = np.broadcast_shapes(*(t.shape for t in targets))
    base = np.arange(0, rows * (pairs + 1), pairs + 1)[:, None]
    targets = [t + base for t in targets]
    state = np.zeros((rows, pairs + 1), dtype=bool)
    state[:, pairs] = True
    flat = state.reshape(-1)
    collapsed = state[:, :pairs]
    known = 0
    while True:
        for t in targets:
            np.logical_or(collapsed, flat.take(t), out=collapsed)
        total = int(np.count_nonzero(collapsed))
        if total == known or total == collapsed.size:
            return collapsed
        known = total


def _synchronizing_lanes(n: int, tables) -> np.ndarray:
    """The ``_synchronizing_rows`` state (lanes, pairs) of image tables
    (lanes, k, n), ``_batch_rows(n, k)`` lanes to a call: the full fixpoint,
    and the decision of ``_synchronizing_on_cycles`` on each lane group."""
    lanes, k, _ = tables.shape
    rows = _batch_rows(n, k)
    state = np.empty((lanes, n * (n - 1) // 2), dtype=bool)  # one array: a block's may be large
    for lo in range(0, lanes, rows):
        targets = _pair_targets(n, tables[lo : lo + rows]).swapaxes(0, 1)
        state[lo : lo + rows] = _synchronizing_rows(list(targets))
    return state


def _all_pairs_collapsible(n: int, image_tables) -> bool:
    """The pair fixpoint for one generator list, as a single row: the oracle
    of the batched ``_synchronizing_lanes``, property-tested against the
    backward closure sync.collapsible_pairs."""
    return bool(_synchronizing_rows(list(_pair_targets(n, image_tables)[:, None])).all())


def _collapse_steps(n: int, image_tables) -> np.ndarray:
    """The pair fixpoint for one generator list, one generator at a time:
    entry p is the step sweep * k + g at which generator g collapsed pair
    p, or -1 if no generator ever did.  A step reads the state before it,
    so generator g sends a pair collapsed at step t onto the merged state
    or onto a pair collapsed at an earlier step."""
    targets = _pair_targets(n, image_tables)
    k, pairs = targets.shape
    done = np.zeros(pairs + 1, dtype=bool)
    done[pairs] = True
    steps = np.full(pairs, -1, dtype=np.intp)
    step, last, left = 0, -1, pairs
    while left and step - last <= k:  # until k steps in a row collapse nothing
        new = np.flatnonzero(done.take(targets[step % k]) > done[:pairs])
        if new.size:
            steps[new] = step
            done[new] = True
            left -= new.size
            last = step
        step += 1
    return steps


def _reset_word(images) -> list[int]:
    """A reset word for a (k, n) image table: f^(n-1) for one generator f,
    as every tail is shorter than n; else greedy merging along
    ``_collapse_steps``: while the image of the word so far has two points,
    follow the steps from its two least points down to the merged state,
    appending the generators taken.  A pair that never collapsed, or steps
    that fail to descend (which would loop), raise VerificationError."""
    k, n = images.shape
    if k == 1:
        return [0] * (n - 1)
    steps = _collapse_steps(n, images)
    index = pair_arrays(n)[2]
    rows = images.tolist()
    word: list[int] = []
    image = list(range(n))
    while len(image) > 1:
        v, w = image[:2]
        piece, last = [], math.inf
        while v != w:
            step = int(steps[index[v * n + w]])
            if step < 0:
                raise VerificationError(f"pair {{{v},{w}}} of the image never collapsed")
            if step >= last:
                raise VerificationError(f"pair {{{v},{w}}} collapsed no earlier than its preimage")
            last = step
            piece.append(step % k)
            g = rows[piece[-1]]
            v, w = g[v], g[w]
        for gi in piece:
            g = rows[gi]
            image = sorted({g[x] for x in image})
        word += piece
    return word


def _cycle_power(maps) -> np.ndarray:
    """f^J for each row f of ``maps`` (lanes, n), J = 2^max(1, bitlen(n - 1))
    >= n - 1 by repeated squaring: past every tail, so the image of f^J is
    the set of periodic points of f, on which f^J is a permutation."""
    lanes, n = maps.shape
    base = np.arange(0, lanes * n, n)[:, None]
    # one map on lanes * n points, so that a square is a single np.take
    flat = maps + base
    for _ in range(max(1, (n - 1).bit_length())):
        flat = np.take(flat, flat)
    return flat - base


def _single_map_synchronizes(maps):
    """Rows of ``maps`` (lanes, n) whose map has one periodic point, i.e.
    whose ``_cycle_power`` is constant.  That point is fixed, so only the
    rows with exactly one fixed point are powered."""
    sync = np.count_nonzero(maps == np.arange(maps.shape[1]), axis=1) == 1
    rows = np.flatnonzero(sync)
    power = _cycle_power(maps[rows])
    sync[rows] = (power == power[:, :1]).all(axis=1)
    return sync


def _synchronizing_on_cycles(tables, r: int) -> np.ndarray:
    """A sound filter for a block of image tables (lanes, k, n) whose
    generator r is a map f: True for lanes shown synchronizing on the
    periodic points C of f, False for lanes left undecided.

    For each word w of W (the k generators and the products "g_i then g_j"
    with j - i in {-1, 0, 1} mod k), "w then f^J" is in the monoid and maps
    every point into C.  Restricted to C and relabeled by rank in C, these
    maps are decided by ``_synchronizing_lanes`` on |C| points, one call
    per lane group of equal |C|.  A product u of them constant on C makes
    "f^J then u" constant, so True is always right; False says nothing."""
    lanes, k, n = tables.shape
    power = _cycle_power(tables[:, r])
    periodic = np.zeros((lanes, n), dtype=bool)
    np.put_along_axis(periodic, power, True, axis=1)
    # lanes by |C|, so that each group's periodic points are one run of (lane, point)
    sizes = np.count_nonzero(periodic, axis=1)
    order = np.argsort(sizes, kind="stable")
    lane, point = np.nonzero(periodic[order])
    lane = order[lane]
    # word values at the points of C, then f^J, then the rank in C
    gi, gj = np.array(sorted({(i, (i + d) % k) for i in range(k) for d in (-1, 0, 1)})).T
    once = tables[lane, :, point].T  # (k, points)
    words = np.concatenate([once, tables[lane, gj[:, None], once[gi]]])
    code = np.take_along_axis(np.cumsum(periodic, axis=1) - 1, power, axis=1)
    words = code[lane, words]
    sync = sizes == 1
    sizes = sizes[order]
    offsets = np.cumsum(sizes) - sizes  # where each sorted lane's points start
    groups = np.unique(sizes, return_index=True, return_counts=True)
    for c, start, count in zip(*(g.tolist() for g in groups)):
        if c > 1:
            lo = offsets[start]
            group = words[:, lo : lo + count * c].reshape(-1, count, c).swapaxes(0, 1)
            sync[order[start : start + count]] = _synchronizing_lanes(c, group).all(axis=1)
    return sync


def _bijective_lanes(tables) -> np.ndarray:
    """Lanes of image tables (lanes, k, n) whose every generator is onto, so
    a bijection: one O(nk) count of the points each generator hits."""
    hit = np.zeros(tables.shape, dtype=bool)
    np.put_along_axis(hit, tables, True, axis=2)
    return hit.all(axis=(1, 2))


def _pair_mix_lanes(tables, r: int):
    """Which lanes of a block of image tables (lanes, k, n) synchronize: those
    that ``_synchronizing_on_cycles`` accepts, when generator r is a map; on
    two or more points, not those of bijections alone, whose monoid is a
    group with no element of rank 1, as ``_bijective_lanes`` certifies; and
    all others by the full fixpoint ``_synchronizing_lanes``.  Returns the
    verdicts, the lanes that this fixpoint judged not synchronizing, and the
    pairs it left uncollapsed on each of them."""
    lanes, k, n = tables.shape
    sync = _synchronizing_on_cycles(tables, r) if r < k else np.zeros(lanes, dtype=bool)
    rest = np.flatnonzero(~sync)
    if n > 1:
        rest = rest[~_bijective_lanes(tables[rest])]
    collapsed = _synchronizing_lanes(n, tables[rest])
    sync[rest] = collapsed.all(axis=1)
    stuck = ~sync[rest]
    return sync, rest[stuck], np.logical_not(collapsed, out=collapsed)[stuck]


def _audit(images) -> None:
    """Replay a rank-1 certificate for a trial flagged synchronizing: the
    ``_reset_word`` of its (k, n) image table, applied to every point in
    numpy, must leave a single point."""
    current = np.arange(images.shape[1])
    for gi in _reset_word(images):
        current = images[gi].take(current)
    if (current != current[0]).any():
        raise VerificationError("synchronization certificate replay failed")


def _check_stuck(tables, stuck) -> None:
    """Certify lanes flagged not synchronizing from their image tables
    (lanes, k, n) and the pairs (lanes, pairs) their fixpoint left stuck:
    each set must be nonempty, and every generator must map each of its
    pairs onto an unmerged pair of the same set, so no word merges them;
    ``_batch_rows`` lanes at a time, padded with a merged state, not stuck."""
    lanes, k, n = tables.shape
    first, second, index = pair_arrays(n)
    rows = _batch_rows(n, k)
    for lo in range(0, lanes, rows):
        sets = np.pad(stuck[lo : lo + rows], ((0, 0), (0, 1)))
        lane, pair = np.nonzero(sets)
        images = tables[lo + lane, :, first[pair]] * n + tables[lo + lane, :, second[pair]]
        if not (sets.any(axis=1).all() and sets[lane[:, None], index.take(images)].all()):
            raise VerificationError("non-synchronization certificate check failed")


def _run_chunk(args) -> int:
    """Successes among trials lo..hi of ``args = (n, r, s, seed, lo, hi)``,
    every trial decided on its image table and certified as documented
    above."""
    n, r, s, seed, lo, hi = args
    successes = 0
    for start, tables in lane_blocks(n, r, s, seed, lo, hi):
        if (r, s) == (0, 1):
            sync = _single_map_synchronizes(tables[:, 0])
        else:
            sync, lanes, stuck = _pair_mix_lanes(tables, r)
            if lanes.size:
                _check_stuck(tables[lanes], stuck)
        successes += int(np.count_nonzero(sync))
        for i in range(-start % AUDIT_EVERY, len(tables), AUDIT_EVERY):
            if sync[i]:
                _audit(tables[i])
    return successes


def estimate_sync_probability(config: ExperimentConfig, threads: int = 1) -> EstimateWithCI:
    """Fraction of trials whose sampled generators produce a synchronizing
    monoid, with a Wilson 95% interval.  Deterministic in (config.seed,
    config.trials) regardless of ``threads``."""
    base = (config.n, config.num_permutations, config.num_endofunctions, config.seed)
    if threads <= 1:
        successes = _run_chunk(base + (0, config.trials))
    else:
        chunk = -(-config.trials // threads)
        jobs = [
            base + (lo, min(lo + chunk, config.trials))
            for lo in range(0, config.trials, chunk)
        ]
        from concurrent.futures import ProcessPoolExecutor

        # A forking pool starts all its workers at once: no more than can work.
        # They fork with SIGINT blocked for good, and a Ctrl-C meanwhile waits
        # for the unblock; then, or on an error, no running chunk is awaited.
        workers = min(threads, len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
            try:
                results = pool.map(_run_chunk, jobs)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                successes = sum(results)
            finally:
                for worker in pool._processes.values():  # no public call stops a busy worker
                    worker.terminate()
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return make_estimate(successes, config.trials)


# ---------------------------------------------------------------------------
# exact probabilities, counted up to conjugacy

ENUMERATION_GUARD = 10**8  # table entries of T_n; first-map classes times tuples of the others


def _within_guard(factors) -> bool:
    """Whether the product of the positive integers ``factors`` is at most
    ``ENUMERATION_GUARD``, multiplying only while it is: no integer past
    the guard is ever formed."""
    product = 1
    for factor in factors:
        if product > ENUMERATION_GUARD // factor:
            return False
        product *= factor
    return True


def _partition_count(n: int, limit: int) -> int:
    """p(n) by Euler's pentagonal recurrence, or the first p(m) > limit
    with m <= n if that comes first (p grows with m)."""
    p = [1]
    while len(p) <= n and p[-1] <= limit:
        m, total = len(p), 0
        for j in range(1, m + 1):
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= m:
                    total += (-1) ** (j + 1) * p[m - g]
        p.append(total)
    return p[-1]


def _map_table(n: int) -> np.ndarray:
    """All n^n maps as uint8 rows, in the lexicographic order of
    ``itertools.product(range(n), repeat=n)``."""
    grid = np.empty((n,) * n + (n,), dtype=np.uint8)
    for v in range(n):
        grid[..., v] = np.arange(n, dtype=np.uint8).reshape((n,) + (1,) * (n - 1 - v))
    return grid.reshape(-1, n)


def _map_classes(table: np.ndarray):
    """One map per conjugacy class of T_n (the lexicographically least),
    with its class size, from ``_map_table(n)``.  (0 1) and (0 1 ... n-1)
    generate S_n, so the classes are the orbits of the two index maps
    "conjugate by" them; each orbit takes its least index, propagated along
    both maps with pointer jumping until nothing changes."""
    n = table.shape[1]
    powers = n ** np.arange(n - 1, -1, -1)
    swap = np.arange(n)
    swap[:2] = swap[1::-1]
    moves = []
    for sigma in (swap, np.roll(np.arange(n), -1)):
        conjugate = np.empty_like(table)
        conjugate[:, sigma] = sigma[table]  # v -> f(v) becomes sigma(v) -> sigma(f(v))
        moves.append(conjugate @ powers)
    label = np.arange(table.shape[0])
    while True:
        new = label
        for move in moves:
            new = np.minimum(new, new[move])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    reps, sizes = np.unique(label, return_counts=True)
    return list(zip(table[reps], sizes.tolist()))


def _pool_targets(n: int, table) -> np.ndarray:
    """``_pair_targets`` of every row of a pool, in the smallest unsigned
    type, computed ``BATCH_BUDGET`` entries at a time."""
    pairs = n * (n - 1) // 2
    targets = np.empty((table.shape[0], pairs), dtype=np.min_scalar_type(pairs))
    step = _batch_rows(n, 1)
    for lo in range(0, table.shape[0], step):
        targets[lo : lo + step] = _pair_targets(n, table[lo : lo + step])
    return targets


def _count_synchronizing(n: int, classes, pools, rows: int) -> int:
    """Sum over the (representative, weight) pairs of ``classes`` of weight
    times the number of tuples (rep, g_2, ..., g_k) that generate a
    synchronizing monoid, g_i running over the rows of the pair targets
    ``pools[i - 2]``.  The tuples of the pools run in batches of ``rows``."""
    rest = math.prod(pool.shape[0] for pool in pools)
    count = 0
    for rep, weight in classes:
        first = _pair_targets(n, rep)
        for lo in range(0, rest, rows):
            index = np.arange(lo, min(lo + rows, rest))
            targets = [first]
            for pool in reversed(pools):
                targets.append(pool[index % pool.shape[0]])
                index = index // pool.shape[0]
            count += weight * int(np.count_nonzero(_synchronizing_rows(targets).all(axis=1)))
    return count


def exact_sync_probability(n: int, r: int, s: int) -> ExactResult:
    """Exact probability that r uniform permutations and s uniform
    endofunctions (independent, with replacement) generate a synchronizing
    monoid.  The single-endofunction case has a closed form (one periodic
    point <=> a rooted tree: n^(n-1) of n^n maps).  On one point every
    answer is 1, and without endofunctions it is 0 for n >= 2, since
    permutations never lower the rank; both come before the guard, and the
    context names the number of cycle types only when it was counted.

    Everything else counts up to conjugacy: conjugating every generator by
    the same permutation keeps synchronization and permutes S_n and T_n,
    and the order of the generators does not matter.  So the first map
    runs over one representative per conjugacy class of T_n, weighted by
    the class size, and the permutations and the other maps over all of
    their pools, in numpy batches through the pair fixpoint.  The guard
    first refuses a table of T_n of more than ``ENUMERATION_GUARD`` entries,
    before n! or n^n is formed, and then more rows than that: first with
    the classes counted by the lower bound ceil(n^n / n!), and again with
    their real number once they are found, before any pool is built."""
    if n < 1 or r < 0 or s < 0 or r + s < 1:
        raise ValueError("need n >= 1 and at least one generator")
    if r == 0 and s == 1:
        return ExactResult.from_fraction(Fraction(1, n), f"closed form {n}^{n - 1}/{n}^{n}")
    if n == 1:
        return ExactResult.from_fraction(Fraction(1), "every map on one point has rank 1")
    if s == 0:
        note = f"a permutation group on {n} points has no element of rank 1"
        classes = _partition_count(n, ENUMERATION_GUARD)
        if classes <= ENUMERATION_GUARD:  # else the count stopped short of p(n)
            note = f"{classes} conjugacy classes of the first generator, none walked: {note}"
        return ExactResult.from_fraction(Fraction(0), note)
    refusal = ValueError(
        f"more than {ENUMERATION_GUARD} entries in the table of T_{n}, or first-map "
        "classes times tuples of the others, is too many to enumerate; use the "
        "(r,s)=(0,1) closed form or estimate_sync_probability"
    )
    # the table bounds n (n <= 7), so n! and n^n are small once it fits
    if not _within_guard(itertools.repeat(n, n + 1)):
        raise refusal
    perms, maps = math.factorial(n), n**n

    def walk_fits(classes: int) -> bool:
        others = itertools.chain(itertools.repeat(perms, r), itertools.repeat(maps, s - 1))
        return _within_guard(itertools.chain([classes], others))

    if not walk_fits(-(-maps // perms)):  # a lower bound, known before T_n is built
        raise refusal
    table = _map_table(n)
    first = _map_classes(table)
    if not walk_fits(len(first)):
        raise refusal
    pools = []
    if r:
        permutations = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
        pools += [_pool_targets(n, permutations)] * r
    if s > 1:
        pools += [_pool_targets(n, table)] * (s - 1)
    rest = perms**r * maps ** (s - 1)
    rows = _batch_rows(n, r + s)
    count = _count_synchronizing(n, first, pools, rows)
    return ExactResult.from_fraction(
        Fraction(count, perms**r * maps**s),
        f"{len(first)} conjugacy classes of the first map, each against "
        f"{rest} tuples of the other generators in batches of {min(rows, rest)} "
        f"(r={r}, s={s})",
    )


def _exact_by_enumeration(n: int, r: int, s: int) -> Fraction:
    """The brute-force oracle for ``exact_sync_probability``: every ordered
    generator tuple through the witness closure."""
    perms = [Endofunction(p) for p in itertools.permutations(range(n))]
    maps = [Endofunction(t) for t in itertools.product(range(n), repeat=n)]
    pools = [perms] * r + [maps] * s
    count = 0
    for combo in itertools.product(*pools):
        if is_synchronizing(GeneratorSet(combo)):
            count += 1
    return Fraction(count, len(perms) ** r * len(maps) ** s)


# ---------------------------------------------------------------------------
# the single-edge-graph experiment


@dataclass(frozen=True)
class EdgeGraphReport:
    n: int
    trials: int
    seed: int
    graph_count: int
    per_graph_probability: Fraction
    union_bound: Fraction
    estimate: EstimateWithCI
    sigma: float
    within_bound: bool


def _setwise_fixed_pairs(imgs) -> set:
    """Pairs (v, w), v < w, that the map sends onto themselves: two fixed
    points (about one per uniform random map, so O(n) expected) or a 2-cycle."""
    fixed = [v for v, a in enumerate(imgs) if a == v]
    pairs = {(v, a) for v, a in enumerate(imgs) if v < a and imgs[a] == v}
    pairs.update(itertools.combinations(fixed, 2))
    return pairs


def edge_graph_experiment(n: int, trials: int, seed: int) -> EdgeGraphReport:
    """Probability that two random maps are both endomorphisms of some
    one-edge graph, against the exact union bound.

    A map is an endomorphism of the graph with single edge {v, w} exactly
    when it permutes {v, w} onto itself, so each graph is hit with
    probability (2 n^(n-2) / n^n)^2 and the union bound is that times the
    n(n-1)/2 choices of edge.  The sampled estimate must stay below the
    bound plus three standard errors.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    graph_count = n * (n - 1) // 2
    per_graph = Fraction(2 * n ** (n - 2), n**n) ** 2
    bound = graph_count * per_graph
    successes = 0
    for _, tables in lane_blocks(n, 0, 2, seed, 0, trials):
        for f, g in tables.tolist():
            if not _setwise_fixed_pairs(f).isdisjoint(_setwise_fixed_pairs(g)):
                successes += 1
    est = make_estimate(successes, trials)
    sigma = math.sqrt(est.estimate * (1.0 - est.estimate) / trials)
    within = est.estimate <= float(bound) + 3.0 * sigma
    return EdgeGraphReport(
        n, trials, seed, graph_count, per_graph, bound, est, sigma, within
    )


# ---------------------------------------------------------------------------
# explorer for maximal non-synchronizing endomorphism monoids


def explore_classes(n: int, canonical: bool = False, end_cap: int = 10**6):
    """Yield ``(record, value)`` for every graph on n vertices, in bitstring
    order: every labeled graph, or with ``canonical`` the lex-least labeling
    of each isomorphism class.  ``value`` is the graph's ``adjacency_bits``.

    Every field of a record but ``edges`` is an isomorphism invariant, so
    ``_graph_record`` runs once per class, on its least labeling, which the
    walk meets first; every member of the class is then yielded with that
    same dict, not a copy, and the walk keeps every record alive until it
    ends.  Callers must not change it.
    """
    records = {}
    for value, least in graph_classes(n):
        if value == least:
            records[least] = _graph_record(
                SimpleGraph.from_edges(n, edges_from_bits(n, value)), end_cap
            )
        elif canonical:
            continue
        yield records[least], value


def explore_maximal_nonsync(
    n: int,
    canonical: bool = False,
    end_cap: int = 10**6,
):
    """Stream one record per graph on n vertices, in bitstring order: every
    labeled graph, or with ``canonical`` the lex-least labeling of each
    isomorphism class.

    Each record carries the maximality conditions; graphs satisfying them
    get an endomorphism count and, for n <= MAXIMALITY_MAX_N, the graph-based
    maximality verdict, both from one enumeration of End(x).  Every record
    also reports whether the derived graph differs from the graph and, if
    so, whether the pair would satisfy all four conditions for a two-graph
    maximal-monoid presentation with distinct graphs (no such pair is
    expected).  Caps produce skip notes, never an abort.

    A view on ``explore_classes``: each labeled graph gets its own copy of
    its class's record, with its own ``edges``.  The CLI streams the same
    records as pre-encoded text; these dicts are its oracle.
    """
    for record, value in explore_classes(n, canonical, end_cap):
        yield dict(
            record,
            canonical=canonical,
            edges=[[v + 1, w + 1] for v, w in edges_from_bits(n, value)],
            skips=list(record["skips"]),
        )


def _graph_record(x: SimpleGraph, end_cap: int) -> dict:
    """The explorer's record of one graph without its ``canonical`` and
    ``edges`` fields.  Every field in it is an isomorphism invariant, skip
    notes included: each cap reports the count cap + 1 at which it stopped.

    One uncapped pass over End(x) gives the hull, |End(x)| and the orbits
    of the maximality test; ``end_cap`` only decides the skip notes."""
    n = x.n
    ends = endomorphism_pass(x)
    cond = check_maximality_conditions(x, own_hull=ends.hull == x)
    record = {
        "n": n,
        "null": x.is_null(),
        "complete": x == SimpleGraph.complete(n),
        "is_hull": cond.is_hull,
        "omega": cond.omega,
        "chi": cond.chi,
        "every_edge_in_max_clique": cond.every_edge_in_max_clique,
        "passes": cond.passes,
        "end_count": None,
        "maximal": None,
        "derived_differs": False,
        "distinct_pair_candidate": None,
        "skips": [],
    }
    if cond.passes:
        if ends.count > end_cap:  # the count and the verdict both need End(x)
            exc = CapExceeded("endomorphism enumeration exceeded cap", end_cap + 1)
            record["skips"].append(f"end_count: {exc}")
            if n <= MAXIMALITY_MAX_N:
                record["skips"].append(f"maximal: {exc}")
        else:
            record["end_count"] = str(ends.count)
            if n <= MAXIMALITY_MAX_N:
                try:
                    record["maximal"] = is_maximal_given(x, ends.orbits, cap=end_cap)
                except CapExceeded as exc:
                    record["skips"].append(f"maximal: {exc}")
    if not cond.every_edge_in_max_clique:  # else derived_graph(x) == x
        y = derived_graph(x)
        # The cheap tests first, then hull(y) from one pass over End(y), and
        # the two End counts last.  hull(y) == x needs x to be its own hull:
        # no endomorphism of y sends a pair it never merges to one it merges,
        # so End(y) lies inside End(hull(y)) = End(x); End(x) lies inside
        # End(y), as it maps maximum cliques onto maximum cliques; so End(x)
        # = End(y) and hull(x) = hull(y) = x.
        record["derived_differs"] = True
        candidate = cond.is_hull and (
            clique_number(y) == cond.omega == cond.chi == chromatic_number(y)
        )
        if candidate:
            y_ends = endomorphism_pass(y)
            candidate = y_ends.hull == x
            if candidate and max(ends.count, y_ends.count) > end_cap:
                exc = CapExceeded("endomorphism count exceeded cap", end_cap + 1)
                record["skips"].append(f"distinct_pair_candidate: {exc}")
                candidate = None
            elif candidate:
                candidate = ends.count == y_ends.count
        record["distinct_pair_candidate"] = candidate
    return record


# ---------------------------------------------------------------------------
# batch driver


def estimate_record(experiment: str, config: ExperimentConfig, est: EstimateWithCI) -> dict:
    """The JSON record of one estimate, with the exact value where a closed
    form is known (a single endofunction)."""
    exact = None
    if (config.num_permutations, config.num_endofunctions) == (0, 1):
        result = exact_sync_probability(config.n, 0, 1)
        exact = f"{result.numerator}/{result.denominator}"
    return {
        "experiment": experiment,
        "n": config.n,
        "r": config.num_permutations,
        "s": config.num_endofunctions,
        "trials": config.trials,
        "seed": config.seed,
        "successes": est.successes,
        "estimate": est.estimate,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "exact": exact,
    }


def sweep(n_values, configs, seed: int, threads: int = 1) -> list[dict]:
    """One record per (n, (r, s, trials)) combination.

    Each record gets its own derived seed (emitted in the record), so any
    row can be reproduced in isolation; rerunning the whole sweep with the
    same master seed gives byte-identical output.
    """
    # every row's config first, so that a refused n stops the sweep before any row runs
    rows = [
        ExperimentConfig(n, r, s, trials, derive_seed(seed, index))
        for index, (n, (r, s, trials)) in enumerate(itertools.product(n_values, configs))
    ]
    records = []
    for config in rows:
        drop_pair_arrays(keep=config.n)  # an earlier row's large arrays go before this row's
        records.append(estimate_record("sweep", config, estimate_sync_probability(config, threads=threads)))
    return records
