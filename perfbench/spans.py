"""In-memory spans the benchmark records around each public call.

A span is ``(id, name, start, end, parent, request)``. Spans nest by
the call stack of the recording thread: a span opened inside another
has it as parent and inherits its request id. Nothing is written until
:meth:`SpanRecorder.write_jsonl` runs at the end of a traced run.

Self time is a span's duration minus the part of its interval that its
children cover (their union, clipped to the parent), so a parent's self
time is exactly the wall time no child accounts for.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans when enabled; a disabled recorder records nothing."""

    def __init__(self, enabled: bool, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Tuple[int, Optional[int]]] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent, inherited = self._stack[-1] if self._stack else (None, None)
        span_id = self._next
        self._next += 1
        if request is None:
            request = inherited
        self._stack.append((span_id, request))
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, request))

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> Dict[int, float]:
        """Self time of every span, keyed by span id."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        return {
            s.id: s.duration - covered(s, children.get(s.id, ()))
            for s in self.spans
        }

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in start order, with its self time."""
        self_s = self.self_times()
        with open(path, "w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: (s.start, s.id)):
                out.write(json.dumps({
                    "id": s.id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "request": s.request,
                    "self_s": self_s[s.id],
                }) + "\n")


def covered(parent: Span, children: Sequence[Span]) -> float:
    """Length of the union of ``children`` clipped to ``parent``."""
    total = 0.0
    reach = parent.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, reach)
        hi = min(child.end, parent.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
