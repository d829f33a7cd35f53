"""In-memory span recording by wrapping public functions from outside.

The program under test is not edited: :meth:`SpanRecorder.install`
replaces a module or class attribute with a wrapper that times each
call, and :meth:`SpanRecorder.uninstall` puts the original back.  Each
span keeps its name, start, end, parent span and request id; self time
(a span's duration minus the time its child spans cover) and call counts
accumulate as spans close, so they stay exact even after the bounded
span list stops growing.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: Spans kept for the trace file; later spans still count in the totals.
KEEP_SPANS = 200_000


class SpanRecorder:
    """Collects spans from wrapped calls and from :meth:`add`."""

    def __init__(self, keep: int = KEEP_SPANS):
        self.keep = keep
        self.spans: List[list] = []  # [name, start, end, parent, request]
        self.dropped = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.request_id: Optional[int] = None
        self._stack: List[list] = []  # [span index, child seconds]
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        index = -1
        if len(self.spans) < self.keep:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.request_id])
        else:
            self.dropped += 1
        frame = [index, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if frame[0] >= 0:
            span = self.spans[frame[0]]
            span[1] = start
            span[2] = end

    def add(self, name: str, start: float, end: float, request) -> None:
        """Record a span measured elsewhere (spans that overlap without
        nesting, such as concurrent requests, have no parent)."""
        if len(self.spans) < self.keep:
            self.spans.append([name, start, end, -1, request])
        else:
            self.dropped += 1
        self.total_s[name] += end - start
        self.self_s[name] += end - start
        self.calls[name] += 1

    def _wrapper(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = recorder._open(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(name, frame, start, perf_counter())

        return traced

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def install(self, targets) -> None:
        """Wrap every ``(module, class or None, attribute, span name)``."""
        for module_name, class_name, attr, name in targets:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if class_name else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # reading back
    # ------------------------------------------------------------------
    def self_ms(self, *names: str) -> float:
        return 1e3 * sum(self.self_s.get(n, 0.0) for n in names)

    def total_ms(self, *names: str) -> float:
        return 1e3 * sum(self.total_s.get(n, 0.0) for n in names)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def write(self, path: str) -> None:
        """Write the kept spans, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "request"],
                "dropped": self.dropped,
                "spans": [[n, round(s - origin, 7), round(e - origin, 7), p, r]
                          for n, s, e, p, r in self.spans],
            }, fh)
