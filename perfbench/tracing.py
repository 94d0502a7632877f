"""In-memory span tracer for the benchmark's traced solves.

A span records a name, start and end (``time.perf_counter`` seconds), the
span that caused it and the solve it belongs to. Spans stay in memory and
are written out once, when the run ends. Spans nest by call order, so they
must all be opened from one thread: the workloads run darcydd with one
thread.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    solve: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        """Module the span times; the root ``solve`` span is unattributed."""
        return self.name.split(".", 1)[0] if "." in self.name else "trace"


class Tracer:
    """Collects spans; ``solve_id`` tags every span opened until changed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solve_id = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = Span(
            id=len(self.spans),
            name=name,
            start=0.0,
            end=0.0,
            parent=self._open[-1] if self._open else None,
            solve=self.solve_id,
        )
        self.spans.append(rec)
        self._open.append(rec.id)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        annotate: Callable[[object], dict] | None = None,
    ) -> Callable:
        """``fn`` with every call recorded as a span named ``name``;
        ``annotate`` turns the call's result into span attributes."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if annotate is not None:
                    rec.attrs.update(annotate(out))
                return out

        return traced

    def of_solve(self, solve_id: int) -> list[Span]:
        return [s for s in self.spans if s.solve == solve_id]

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its children cover; children of
    one span never overlap, as spans nest by call order."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    return {s.id: s.seconds - covered[s.id] for s in spans}
