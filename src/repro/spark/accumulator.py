"""Accumulators: write-only shared counters, like Spark's.

Tasks add to an accumulator while computing partitions; only the driver
reads the total.  Engines use them to report side statistics (patterns
matched, candidates pruned) without threading values through RDD lineage.
"""

from __future__ import annotations

from typing import Callable, Generic, Optional, TypeVar

T = TypeVar("T")


class Accumulator(Generic[T]):
    """A driver-readable, task-writable aggregate value."""

    def __init__(
        self,
        zero: T,
        add: Optional[Callable[[T, T], T]] = None,
        name: Optional[str] = None,
    ) -> None:
        self._zero = zero
        self._value = zero
        self._add = add or (lambda a, b: a + b)
        self.name = name

    def add(self, amount: T) -> None:
        """Fold *amount* into the running value (task side)."""
        self._value = self._add(self._value, amount)

    def __iadd__(self, amount: T) -> "Accumulator[T]":
        self.add(amount)
        return self

    @property
    def value(self) -> T:
        """The accumulated value (driver side)."""
        return self._value

    def reset(self) -> None:
        self._value = self._zero

    def __repr__(self) -> str:
        label = " %r" % self.name if self.name else ""
        return "Accumulator%s(value=%r)" % (label, self._value)
