"""Instrumented wrappers around the scheduler queue structures.

Section 3 of the paper measures "the maximal measured duration of a single
ready queue operation and sleep queue operation" for different per-core task
counts (N = 4 and N = 64).  These wrappers reproduce that measurement on our
own structures: every operation is timed with ``time.perf_counter_ns`` and
aggregated into per-operation statistics (count, max, total), so the bench
harness can report the same table shape the paper prints.

Two integration points beyond the standalone micro-benchmark:

* a wrapper can be built around a *shared* :class:`_StatsCollection`
  (several queues aggregating into one collection, e.g. all ready queues
  of one simulated platform) and/or a metrics **histogram** — any object
  with an ``observe(elapsed_ns)`` method, in practice a
  :class:`repro.metrics.registry.Histogram` — which receives every
  individual operation duration;
* **op counters are per-simulation, not per-process**: callers that
  reuse a wrapper (or a shared collection) across runs must call
  :meth:`reset` between them.  :class:`~repro.kernel.sim.KernelSim`
  does this at the start of every profiled run, so two identical
  simulations in one process report identical per-run operation counts
  instead of the second run seeing the first run's totals accumulated
  on top (the Table-1 δ/θ count regression in
  ``tests/test_instrumented_reset.py`` pins this).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.structures.binomial_heap import BinomialHeap, HeapHandle
from repro.structures.rbtree import RedBlackTree


@dataclass
class OperationStats:
    """Aggregate timing statistics for one operation type."""

    count: int = 0
    total_ns: int = 0
    max_ns: int = 0

    def record(self, elapsed_ns: int) -> None:
        self.count += 1
        self.total_ns += elapsed_ns
        if elapsed_ns > self.max_ns:
            self.max_ns = elapsed_ns

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    @property
    def mean_us(self) -> float:
        return self.mean_ns / 1000.0


@dataclass
class _StatsCollection:
    ops: Dict[str, OperationStats] = field(default_factory=dict)

    def stat(self, name: str) -> OperationStats:
        if name not in self.ops:
            self.ops[name] = OperationStats()
        return self.ops[name]

    def op_counts(self) -> Dict[str, int]:
        """Deterministic per-operation counts (sorted by name)."""
        return {name: self.ops[name].count for name in sorted(self.ops)}

    def reset(self) -> None:
        self.ops.clear()


class _InstrumentedBase:
    """Shared timing plumbing for the two queue wrappers."""

    __slots__ = ("stats", "_histogram")

    def __init__(
        self,
        stats: Optional[_StatsCollection] = None,
        histogram: Optional[Any] = None,
    ) -> None:
        self.stats = stats if stats is not None else _StatsCollection()
        self._histogram = histogram

    def reset(self) -> None:
        """Forget accumulated op statistics (per-simulation semantics)."""
        self.stats.reset()

    def _timed(self, name: str, fn, *args):
        start = time.perf_counter_ns()
        result = fn(*args)
        elapsed = time.perf_counter_ns() - start
        self.stats.stat(name).record(elapsed)
        if self._histogram is not None:
            self._histogram.observe(elapsed)
        return result


class InstrumentedHeap(_InstrumentedBase):
    """A :class:`BinomialHeap` that times every queue operation."""

    __slots__ = ("_heap",)

    def __init__(
        self,
        stats: Optional[_StatsCollection] = None,
        histogram: Optional[Any] = None,
    ) -> None:
        super().__init__(stats, histogram)
        self._heap = BinomialHeap()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def insert(self, key: Any, value: Any = None) -> HeapHandle:
        return self._timed("insert", self._heap.insert, key, value)

    def find_min(self) -> Any:
        return self._timed("find_min", self._heap.find_min)

    def extract_min(self) -> Any:
        return self._timed("extract_min", self._heap.extract_min)

    def delete(self, handle: HeapHandle) -> None:
        return self._timed("delete", self._heap.delete, handle)

    def items(self):
        return self._heap.items()

    def check_invariants(self) -> None:
        self._heap.check_invariants()


class InstrumentedTree(_InstrumentedBase):
    """A :class:`RedBlackTree` that times every queue operation."""

    __slots__ = ("_tree",)

    def __init__(
        self,
        stats: Optional[_StatsCollection] = None,
        histogram: Optional[Any] = None,
    ) -> None:
        super().__init__(stats, histogram)
        self._tree = RedBlackTree()

    def __len__(self) -> int:
        return len(self._tree)

    def __bool__(self) -> bool:
        return bool(self._tree)

    def insert(self, key: Any, value: Any = None):
        return self._timed("insert", self._tree.insert, key, value)

    def min(self) -> Any:
        return self._timed("min", self._tree.min)

    def pop_min(self) -> Any:
        return self._timed("pop_min", self._tree.pop_min)

    def remove(self, node) -> None:
        return self._timed("remove", self._tree.remove, node)

    def items(self):
        return self._tree.items()

    def check_invariants(self) -> None:
        self._tree.check_invariants()
