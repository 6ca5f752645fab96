"""Spans recorded by the benchmark around calls into the library's layers.

A span holds a name, its start and end (``time.perf_counter_ns``), the span
that was open when it started, and the instance it belongs to. Spans are kept
in memory and written once, when the traced run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from statistics import median
from typing import Optional


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    instance: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, instance: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[idx] = Span(name, start, end, parent, instance)

    def call(self, name: str, instance: str, fn, *args, **kwargs):
        with self.span(name, instance):
            return fn(*args, **kwargs)

    def self_times_ns(self) -> list[int]:
        """Duration of each span minus the time its child spans cover.

        The benchmark is sequential, so children never overlap each other.
        """
        out = [s.end_ns - s.start_ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end_ns - s.start_ns
        return out

    def median_ms(self) -> dict[str, float]:
        """Median duration per span name, in milliseconds."""
        by_name: dict[str, list[int]] = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s.end_ns - s.start_ns)
        return {name: median(v) / 1e6 for name, v in by_name.items()}

    def layer_self_ms(self) -> dict[str, float]:
        """Total self time per layer (the span name up to its first dot)."""
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_times_ns()):
            out[s.name.split(".")[0]] += t / 1e6
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
