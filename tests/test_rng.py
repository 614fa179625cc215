from collections import Counter

import numpy as np
import pytest

from syncmonoid import Stream, derive_seed, substream
from syncmonoid.rng import Lanes


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


def test_integers_matches_randbelow():
    a = Stream(4242)
    b = Stream(4242)
    assert a.integers(10, 50) == [b.randbelow(10) for _ in range(50)]


def test_substreams_are_independent_of_order():
    first = [substream(5, i).next_u64() for i in range(10)]
    second = [substream(5, i).next_u64() for i in reversed(range(10))]
    assert first == list(reversed(second))


def test_substreams_do_not_collide():
    seeds = {derive_seed(77, i) for i in range(10_000)}
    assert len(seeds) == 10_000


@pytest.mark.parametrize("draw", [
    lambda bound: Stream(1).randbelow(bound),
    lambda bound: Stream(1).integers(bound, 3),
    lambda bound: Lanes([Stream(1), Stream(2)]).randbelow(bound),
], ids=["randbelow", "integers", "lanes"])
def test_bounds_above_two_to_the_64_are_refused(draw):
    # every 64-bit draw would be rejected: the loop would never end
    with pytest.raises(ValueError):
        draw(2**64 + 1)
    with pytest.raises(ValueError):
        draw(0)


def test_largest_bound_is_the_raw_draw():
    assert Stream(3).randbelow(2**64) == Stream(3).next_u64()
    lanes = Lanes([Stream(3)])
    assert lanes.randbelow(2**64).tolist() == [Stream(3).next_u64()]
    assert not lanes.rejected.any()


class CountingStream(Stream):
    """A Stream that counts its 64-bit draws."""

    __slots__ = ("draws",)

    def next_u64(self):
        self.draws += 1
        return super().next_u64()


@pytest.mark.parametrize("bound", [1, 2, 30, 2**32, 2**63 + 1])
def test_lanes_match_scalar_streams(bound):
    count = 400
    streams = [substream(11, i) for i in range(count)]
    oracles = []
    for i in range(count):
        oracle = CountingStream(derive_seed(11, i))
        oracle.draws = 0
        oracles.append(oracle)
    lanes = Lanes(streams)
    for calls in range(1, 4):
        values = lanes.randbelow(bound)
        assert values.dtype == np.uint64
        for lane, oracle in enumerate(oracles):
            expected = oracle.randbelow(bound)
            # flagged exactly when the scalar stream had to draw again
            assert lanes.rejected[lane] == (oracle.draws > calls)
            if not lanes.rejected[lane]:
                assert int(values[lane]) == expected
    flagged = int(lanes.rejected.sum())
    if bound == 2**63 + 1:  # rejects just under half of all draws
        assert count // 2 < flagged < count
    else:
        assert flagged == 0
    # the lanes ran on copies: every stream still starts at its first draw
    assert [s.next_u64() for s in streams] == [
        substream(11, i).next_u64() for i in range(count)
    ]
