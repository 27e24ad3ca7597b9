"""In-memory spans and counts recorded around calls into togglesim's layers."""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Records (name, start, end, parent index, run id) per span, plus counts.

    Spans are kept in memory and handed out at the end; nothing is written
    while a replay is being timed.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[self.run_id][name] += amount


class NullTracer:
    """Same interface, records nothing: the untraced replay."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, amount: float) -> None:
        pass


def self_times(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per run id, the summed self time of each span name: a span's duration
    minus the durations of its children (children of one span never overlap,
    as the replay is single-threaded)."""
    covered = defaultdict(float)
    for name, start, end, parent, run in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for index, (name, start, end, parent, run) in enumerate(spans):
        out[run][name] += end - start - covered[index]
    return out
