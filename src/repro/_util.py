"""Small shared utilities: deadlines, bitmask helpers, deterministic RNG.

These are internal (underscore module); the public API re-exports nothing
from here.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterable, Iterator, Optional


class Deadline:
    """A monotonic-clock deadline shared across the stages of an evaluation.

    ``Deadline(None)`` never expires.  Each :meth:`expired` poll of a
    bounded deadline reads the clock.  ``bounded`` says whether the
    deadline can expire at all, so a hot loop can read that flag once and
    skip the poll when it is false (the GAM-family engine's Grow loop and
    merge cascade do).
    """

    __slots__ = ("_limit", "_start", "bounded")

    def __init__(self, seconds: Optional[float]):
        self._start = time.monotonic()
        self._limit = None if seconds is None else self._start + float(seconds)
        #: True when the deadline can expire (it was given a number of seconds).
        self.bounded = seconds is not None

    @classmethod
    def never(cls) -> "Deadline":
        return cls(None)

    def expired(self) -> bool:
        return self._limit is not None and time.monotonic() >= self._limit

    def elapsed(self) -> float:
        """Seconds since the deadline was created."""
        return time.monotonic() - self._start

    def remaining(self) -> Optional[float]:
        """Seconds left, or ``None`` for an unbounded deadline."""
        if self._limit is None:
            return None
        return max(0.0, self._limit - time.monotonic())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self._limit is None:
            return "Deadline(unbounded)"
        return f"Deadline(remaining={self.remaining():.3f}s)"


def popcount(mask: int) -> int:
    """Number of set bits in ``mask`` (seed-signature cardinality)."""
    return mask.bit_count()


def bits(mask: int) -> Iterator[int]:
    """Yield the indexes of the set bits of ``mask``, lowest first."""
    index = 0
    while mask:
        if mask & 1:
            yield index
        mask >>= 1
        index += 1


def mask_of(indexes: Iterable[int]) -> int:
    """Build a bitmask with the given bit indexes set."""
    mask = 0
    for index in indexes:
        mask |= 1 << index
    return mask


def full_mask(width: int) -> int:
    """A mask with bits ``0..width-1`` set."""
    return (1 << width) - 1


class Counter:
    """A monotonically increasing ticket dispenser (FIFO tie-breaking)."""

    __slots__ = ("_it",)

    def __init__(self) -> None:
        self._it = itertools.count()

    def next(self) -> int:
        return next(self._it)


def stable_unique(items: Iterable) -> list:
    """Deduplicate while preserving first-seen order (hashable items)."""
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out
