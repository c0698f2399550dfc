"""In-memory span recorder for the traced benchmark run.

A span covers one call into a layer of the library, one whole op, or
one set-up.  Each records its name, start, end, parent span and the job
it belongs to (an op or a set-up), plus attributes taken at the same
boundary, such as the model kind or thread count a call served.  Spans
stay in memory and are written out once, when the run ends, so recording
costs two clock reads and a list append.

Spans are opened only from the benchmark's main thread, around public
calls; the library's own worker threads are never traced, so the parent
stack needs no lock.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    job: str | None
    start: float
    end: float = 0.0
    child: float = 0.0  # seconds covered by child spans
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans when `enabled`; otherwise `span` is a bare pass-through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job: str | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, self.job, time.perf_counter())
        sp.attrs.update(attrs)
        self.spans.append(sp)
        self._stack.append(sp.sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            # Children of one span run one after another on one thread, so
            # their durations add up to the part of the parent they cover.
            if parent is not None:
                self.spans[parent].child += sp.duration

    def per_job(self, name: str, key: str | None = None, **match) -> dict[str, float]:
        """Self seconds (or the summed attribute `key`) of the spans called
        `name` whose attributes include `match`, totalled per job.  Spans
        without attribute `key` are skipped."""
        out: dict[str, float] = {}
        for sp in self.spans:
            if sp.name != name or sp.job is None:
                continue
            if key is not None and key not in sp.attrs:
                continue
            if any(sp.attrs.get(k) != v for k, v in match.items()):
                continue
            value = sp.duration - sp.child if key is None else sp.attrs[key]
            out[sp.job] = out.get(sp.job, 0.0) + value
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(sp) for sp in self.spans], fh)
