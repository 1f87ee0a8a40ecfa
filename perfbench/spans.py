"""In-memory spans around calls into the package's public API.

A span records (id, parent, name, start, end, workload). Spans are kept
in memory and written out once, when the run ends. With tracing off,
span() hands back one shared no-op context, so the untraced run pays a
single attribute lookup per call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.id = len(tr.records) + len(tr.stack)
        self.parent = tr.stack[-1].id if tr.stack else None
        tr.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.records.append((self.id, self.parent, self.name, self.start, end, tr.workload))
        return False


class Tracer:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.records: list[tuple] = []
        self.stack: list[_Span] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _id, parent, _name, start, end, _w in self.records:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _parent, name, start, end, _w in self.records:
            out[name] += (end - start) - child_time[sid]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": i, "parent": p, "name": n, "start": s, "end": e, "workload": w}
            for i, p, n, s, e, w in sorted(self.records)
        ]
        path.write_text(json.dumps(rows) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one empty span, in seconds."""
    tr = Tracer("calibration", True)
    t0 = time.perf_counter()
    for _ in range(samples):
        with tr.span("x"):
            pass
    return (time.perf_counter() - t0) / samples
