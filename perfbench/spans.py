"""Span recording from outside the program under test.

A :class:`SpanRecorder` wraps public methods of the program's classes for
the duration of a traced phase and restores them afterwards, so nothing
inside ``src/`` knows it is being traced.  Each call becomes one span: name,
start, end, its own id, the id of the enclosing span on the same thread,
the id of the benchmark request being submitted (``None`` on server
threads, whose batches serve many requests) and the thread's name.  Spans
stay in memory until :meth:`SpanRecorder.write`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

import numpy as np

#: Span tuple fields, in order.
FIELDS = ("name", "start", "end", "span_id", "parent_id", "request_id", "thread")


class SpanRecorder:
    """In-memory span log plus the method wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[type, str, object]] = []

    # -- request attribution -------------------------------------------- #
    def set_request(self, request_id: int | None) -> None:
        """Tag spans opened on this thread with ``request_id``."""
        self._local.request_id = request_id

    # -- wrapping ------------------------------------------------------- #
    def wrap(self, cls: type, attr: str, name: str, on_result=None) -> None:
        """Replace ``cls.attr`` by a span-recording wrapper until :meth:`restore`.

        ``on_result(args, result)`` sees each call's arguments and return
        value, which is how values the public API returns become counters.
        """
        original = cls.__dict__[attr]
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((
                    name, start, end, span_id, parent,
                    getattr(local, "request_id", None),
                    threading.current_thread().name,
                ))
            if on_result is not None:
                on_result(args, result)
            return result

        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)

    # -- analysis ------------------------------------------------------- #
    def layer_metrics(self, names: list[str]) -> dict[str, float]:
        """``<name>.calls/.busy_s/.self_s/.p50_ms/.p99_ms`` for each span name.

        Self time is a span's duration minus the part its child spans cover.
        Children run on their parent's thread, so they nest and never overlap
        one another: the covered part is the sum of their durations.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span[4] is not None:
                child_time[span[4]] = child_time.get(span[4], 0.0) + span[2] - span[1]
        metrics: dict[str, float] = {}
        for name in names:
            durations = [s[2] - s[1] for s in self.spans if s[0] == name]
            self_s = sum(
                s[2] - s[1] - child_time.get(s[3], 0.0)
                for s in self.spans if s[0] == name
            )
            metrics[f"{name}.calls"] = len(durations)
            metrics[f"{name}.busy_s"] = sum(durations)
            metrics[f"{name}.self_s"] = self_s
            metrics[f"{name}.p50_ms"] = 1e3 * percentile(durations, 50)
            metrics[f"{name}.p99_ms"] = 1e3 * percentile(durations, 99)
        return metrics

    def busy_on_threads(self, name: str, thread_name: str) -> float:
        """Total duration of ``name`` spans recorded on threads named ``thread_name``."""
        return sum(
            s[2] - s[1] for s in self.spans if s[0] == name and s[6] == thread_name
        )

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100); 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0
