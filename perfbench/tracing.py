"""In-memory spans around the benchmark's calls into homprod.

A span records its name, start, end, parent span and the index of the code
being verified.  Spans are kept in memory while the run measures and are
written out once at the end.  A layer's self time is its span's duration
minus the time its direct child spans cover; the calls run on one thread,
so children nest strictly inside their parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records spans when enabled; when disabled, `call` is a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.code: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        s = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "code": self.code,
        }
        self.spans.append(s)
        self._stack.append(s["id"])
        try:
            yield
        finally:
            self._stack.pop()
            s["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time in seconds, number of calls)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, tuple[float, int]] = {}
        for s, covered in zip(self.spans, child_time):
            total, calls = out.get(s["name"], (0.0, 0))
            out[s["name"]] = (total + (s["end"] - s["start"]) - covered, calls + 1)
        return out

    def root_time(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
