from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from syncmonoid import Stream, derive_seed, substream
from syncmonoid.rng import Lanes, derive_seeds


def test_stream_is_reproducible():
    a = Stream(12345)
    b = Stream(12345)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_different_seeds_differ():
    assert Stream(1).next_u64() != Stream(2).next_u64()


def test_randbelow_range():
    s = Stream(7)
    for _ in range(1000):
        assert 0 <= s.randbelow(13) < 13


def test_randbelow_rejects_bad_bound():
    with pytest.raises(ValueError):
        Stream(0).randbelow(0)


def test_randbelow_roughly_uniform():
    s = Stream(99)
    counts = Counter(s.randbelow(8) for _ in range(80_000))
    for value in range(8):
        # 10000 expected; 4 sigma ~ 378
        assert abs(counts[value] - 10_000) < 400


def test_substreams_are_independent_of_order():
    first = [substream(5, i).next_u64() for i in range(10)]
    second = [substream(5, i).next_u64() for i in reversed(range(10))]
    assert first == list(reversed(second))


def test_substreams_do_not_collide():
    seeds = {derive_seed(77, i) for i in range(10_000)}
    assert len(seeds) == 10_000


@pytest.mark.parametrize("draw", [
    lambda bound: Stream(1).randbelow(bound),
    lambda bound: Lanes([1, 2]).randbelow(bound),
], ids=["randbelow", "lanes"])
def test_bounds_above_two_to_the_64_are_refused(draw):
    # every 64-bit draw would be rejected: the loop would never end
    with pytest.raises(ValueError):
        draw(2**64 + 1)
    with pytest.raises(ValueError):
        draw(0)


def test_largest_bound_is_the_raw_draw():
    assert Stream(3).randbelow(2**64) == Stream(3).next_u64()
    lanes = Lanes([3, 4])
    assert lanes.randbelow(2**64).tolist() == [Stream(3).next_u64(), Stream(4).next_u64()]
    # no lane drew again: the next step is each stream's second draw
    second = []
    for seed in (3, 4):
        stream = Stream(seed)
        stream.next_u64()
        second.append(stream.next_u64())
    assert lanes.next_u64().tolist() == second


class CountingStream(Stream):
    """A Stream that counts its 64-bit draws."""

    __slots__ = ("draws",)

    def next_u64(self):
        self.draws += 1
        return super().next_u64()


@pytest.mark.parametrize("bound", [1, 2, 30, 2**32, 2**63 + 1])
def test_lanes_match_scalar_streams(bound):
    count = 400
    seeds = derive_seeds(11, 0, count)
    oracles = []
    for i in range(count):
        oracle = CountingStream(derive_seed(11, i))
        oracle.draws = 0
        oracles.append(oracle)
    lanes = Lanes(seeds)
    for _ in range(3):
        values = lanes.randbelow(bound)
        assert values.dtype == np.uint64
        before = [oracle.draws for oracle in oracles]
        assert values.tolist() == [oracle.randbelow(bound) for oracle in oracles]
        redrawn = sum(oracle.draws - drawn > 1 for oracle, drawn in zip(oracles, before))
        if bound == 2**63 + 1:  # each draw is rejected with probability just under 1/2
            assert count * 2 // 5 < redrawn < count * 3 // 5
        else:
            assert redrawn == 0
    # every lane stepped exactly as often as its stream: the states agree
    for word, slot in zip(lanes._state, Stream.__slots__):
        assert word.tolist() == [getattr(oracle, slot) for oracle in oracles]
    # the lanes ran on a copy: the seeds are still those of the substreams
    assert seeds.tolist() == [derive_seed(11, i) for i in range(count)]


@pytest.mark.parametrize("master", [0, 1, -1, 2**64 - 1, 2**70])
@pytest.mark.parametrize("start", [0, 1, 10**12, 2**63])
def test_seeded_lanes_equal_substreams(master, start):
    # from 2**63 on, start * golden wraps mod 2**64, and so do the steps after it
    count = 40
    seeds = derive_seeds(master, start, count)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(master, start + i) for i in range(count)]
    lanes = Lanes(seeds)
    oracles = [substream(master, start + i) for i in range(count)]
    for word, slot in zip(lanes._state, Stream.__slots__):
        assert word.tolist() == [getattr(st, slot) for st in oracles]
    for _ in range(3):
        assert lanes.next_u64().tolist() == [st.next_u64() for st in oracles]


def test_lanes_take_seeds_as_a_stream_does():
    # ints are taken mod 2**64, as Stream takes them; a uint64 array as is
    seeds = [0, 1, -1, 2**64 - 1, 2**64, 2**70 + 5]
    by_list = Lanes(seeds).next_u64().tolist()
    assert by_list == [Stream(seed).next_u64() for seed in seeds]
    masked = np.array([seed % 2**64 for seed in seeds], dtype=np.uint64)
    assert Lanes(masked).next_u64().tolist() == by_list
    assert Lanes(np.array([-1], dtype=np.int64)).next_u64().tolist() == by_list[2:3]
    assert Lanes(derive_seeds(5, 0, 0)).next_u64().shape == (0,)


# the bounds where a bounded draw changes shape: no rejection (powers of two),
# the most and the fewest rejections next to them, and the two ends
EDGE_BOUNDS = sorted({2**j + d for j in range(65) for d in (-1, 0, 1)} - {0, 2**64 + 1})


def _assert_states_equal(lanes, streams):
    for word, slot in zip(lanes._state, Stream.__slots__):
        assert word.tolist() == [getattr(stream, slot) for stream in streams]


@pytest.mark.parametrize("capped", [False, True], ids=["exact", "capped"])
@pytest.mark.parametrize("count", [1, 63, 64, 4369])
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(master=st.integers(0, 2**64 - 1), bound=st.sampled_from(EDGE_BOUNDS) | st.integers(1, 2**64))
@example(master=7, bound=1)
@example(master=7, bound=2**54 + 1)
@example(master=7, bound=2**63 + 1)
@example(master=7, bound=2**64)
def test_lane_draws_equal_the_substreams(request, capped, count, master, bound):
    # 4,369 lanes make one block of the n = 30 single-map runs; 2**54 + 1
    # rejects about one draw in 1,024, so a few lanes of such a block redraw
    if capped:
        request.getfixturevalue("capped_threshold")
    lanes = Lanes(derive_seeds(master, 0, count))
    streams = [substream(master, i) for i in range(count)]
    for _ in range(3):
        assert lanes.randbelow(bound).tolist() == [stream.randbelow(bound) for stream in streams]
    _assert_states_equal(lanes, streams)


@pytest.mark.parametrize("capped", [False, True], ids=["exact", "capped"])
def test_lanes_draw_every_edge_bound_as_the_streams_do(request, capped):
    if capped:
        request.getfixturevalue("capped_threshold")
    for count in (1, 63, 64):
        lanes = Lanes(derive_seeds(21, 0, count))
        streams = [substream(21, i) for i in range(count)]
        for bound in EDGE_BOUNDS:
            for _ in range(3):
                assert lanes.randbelow(bound).tolist() == [stream.randbelow(bound) for stream in streams]
        _assert_states_equal(lanes, streams)


def test_steps_of_some_lanes_interleave_with_steps_of_all():
    count = 97
    lanes = Lanes(derive_seeds(3, 0, count))
    streams = [substream(3, i) for i in range(count)]
    pick = np.random.default_rng(5)
    for size in (1, 40, 0, 96, count, 17):
        subset = pick.choice(count, size, replace=False)  # in no particular order
        assert lanes.next_u64(subset).tolist() == [streams[i].next_u64() for i in subset]
        _assert_states_equal(lanes, streams)
        assert lanes.next_u64().tolist() == [stream.next_u64() for stream in streams]
        _assert_states_equal(lanes, streams)


@pytest.mark.parametrize("capped", [False, True], ids=["exact", "capped"])
def test_a_drawn_array_is_not_the_state(request, capped):
    # the state steps in place: no array handed out may share its memory
    if capped:
        request.getfixturevalue("capped_threshold")
    lanes = Lanes(derive_seeds(9, 0, 50))
    drawn = [lanes.next_u64(), lanes.next_u64(np.arange(0, 50, 3)),
             lanes.randbelow(30), lanes.randbelow(2**63 + 1), lanes.randbelow(2**64)]
    kept = [values.copy() for values in drawn]
    for _ in range(3):
        lanes.next_u64()
        lanes.next_u64(np.arange(7))
        lanes.randbelow(2**63 + 1)
        lanes.randbelow(2**64)
    for values, copy in zip(drawn, kept):
        assert values.tolist() == copy.tolist()
        assert not any(np.shares_memory(values, word) for word in lanes._state)
