"""In-memory span recorder and self-time arithmetic for the traced run.

A span is one call across a layer boundary: its name, start and end
(``perf_counter_ns``), the id of the span that caused it, and for service
spans the admission request it belongs to.  Spans are appended to a list
and written out once, when the traced process ends.

The current span travels in a :class:`contextvars.ContextVar`, so spans
opened by concurrent asyncio tasks get the right parent, and work handed
to a thread pool keeps its parent when the caller runs it inside a copied
context (see ``perfbench/launch.py``).
"""

from __future__ import annotations

import contextvars
import itertools
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple


class Tracer:
    """Collects spans; one instance per traced process."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        # (current span id, current request id)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(0, None)
        )

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        """Record ``name`` around the ``with`` body; yields a dict for
        attributes the caller learns during the call (e.g. a verdict)."""
        parent, current_request = self._current.get()
        if request is None:
            request = current_request
        span_id = next(self._ids)
        token = self._current.set((span_id, request))
        attrs: dict = {}
        start = self.clock()
        try:
            yield attrs
        finally:
            end = self.clock()
            self._current.reset(token)
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request": request,
                    "attrs": attrs,
                }
            )


def _covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[dict]) -> Dict[int, int]:
    """Span id -> duration minus the part of it its children cover (ns)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"])
        )
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }
