"""Tests for internal utilities."""

import time

from repro._util import Counter, Deadline, bits, full_mask, mask_of, popcount, stable_unique


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired()
        assert deadline.remaining() is None

    def test_bounded_says_whether_it_can_expire(self):
        assert not Deadline(None).bounded
        assert not Deadline.never().bounded
        assert Deadline(0.0).bounded and Deadline(10.0).bounded

    def test_never_constructor(self):
        assert not Deadline.never().expired()

    def test_expires(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_elapsed_grows(self):
        deadline = Deadline(10.0)
        first = deadline.elapsed()
        time.sleep(0.01)
        assert deadline.elapsed() > first

    def test_remaining_positive(self):
        deadline = Deadline(60.0)
        remaining = deadline.remaining()
        assert 0 < remaining <= 60.0


class TestBitmasks:
    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3

    def test_bits(self):
        assert list(bits(0b1011)) == [0, 1, 3]
        assert list(bits(0)) == []

    def test_mask_of(self):
        assert mask_of([0, 2]) == 0b101
        assert mask_of([]) == 0

    def test_full_mask(self):
        assert full_mask(0) == 0
        assert full_mask(3) == 0b111

    def test_roundtrip(self):
        for mask in (0, 1, 0b1010, 0b11111):
            assert mask_of(bits(mask)) == mask


def test_counter_monotonic():
    counter = Counter()
    values = [counter.next() for _ in range(5)]
    assert values == [0, 1, 2, 3, 4]


def test_stable_unique():
    assert stable_unique([3, 1, 3, 2, 1]) == [3, 1, 2]
    assert stable_unique([]) == []
