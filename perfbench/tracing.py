"""In-memory spans recorded around the calls into each layer.

A span is (id, name, start, end, parent, request).  The layer is the part
of the name before the first dot.  Spans stay in memory while the run
measures and are written out once, at the end.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, request))

    def record(self, name: str, start: float, end: float, request: int | None = None) -> None:
        """Add a span measured elsewhere, e.g. across threads (no parent)."""
        with self._lock:
            self.spans.append(Span(next(self._ids), name, start, end, None, request))

    def ms(self, name: str) -> list[float]:
        """Durations (ms) of every span called ``name``."""
        return [s.ms for s in self.spans if s.name == name]

    def self_ms_by_layer(self) -> dict[str, float]:
        """Each layer's span time minus the time its child spans cover.

        Children of one span run on the parent's thread, one after another,
        so the covered time is the sum of their durations.
        """
        child_ms: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.layer] = totals.get(s.layer, 0.0) + s.ms - child_ms.get(s.id, 0.0)
        return {layer: round(ms, 3) for layer, ms in sorted(totals.items())}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
