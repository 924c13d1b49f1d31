"""In-memory span recorder for the benchmark's traced runs.

The benchmark records a span around each call it makes into a layer's
public function: name, start, end, parent span, and one run id shared by
every span of a workload run.  Spans stay in memory and are written out as
JSON lines when the run ends.  A layer's self time is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def covered_seconds(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Spans of one workload run.

    :meth:`span` nests through a stack, which suits the sequential calls
    of the batch workloads; concurrent requests pass their parent
    explicitly to :meth:`record`.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self.current
        sp = Span(next(self._ids), name, parent.id if parent else None,
                  self.run_id, time.perf_counter(), attrs=attrs)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(sp)

    def record(self, name: str, start: float, end: float,
               parent: Span | None = None, **attrs) -> Span:
        sp = Span(next(self._ids), name, parent.id if parent else None,
                  self.run_id, start, end, attrs)
        self.spans.append(sp)
        return sp

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_seconds(self, span: Span) -> float:
        kids = [(c.start, c.end) for c in self.children(span)]
        return span.seconds - covered_seconds(kids, span.start, span.end)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(sp)) + "\n")
