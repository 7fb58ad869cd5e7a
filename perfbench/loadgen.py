"""Open-loop load generation with completion times stamped by the benchmark.

Neither ``InferenceRequest`` nor ``RoutedRequest`` offers a completion
callback, and the latencies they report start at enqueue (or, for a routed
request, leave out the router's split and merge).  So the benchmark times
each request itself: from the moment it was *due* on the arrival schedule
to the moment a collector thread, polling the handles every
``POLL_SECONDS``, first sees it done.  A stalled submit therefore charges
its wait to every request queued behind it, and the generator's own
lateness is reported per step.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from spans import percentile

#: Collector polling period; the resolution of every completion stamp.
POLL_SECONDS = 0.001
#: A poll stops scanning after this many consecutive unanswered requests.
#: Servers answer in roughly arrival order (FIFO queues, micro-batches of
#: consecutive requests, two workers), so the answered ones sit at the front;
#: the window keeps a poll's cost from growing with a backlog, which would
#: steal the interpreter lock from the server exactly when it is overloaded.
SCAN_WINDOW = 64
#: A step's backlog is growing when requests due in its last fifth wait this
#: share of the latency limit longer than those due in its first fifth.
BACKLOG_TOLERANCE = 0.25


@dataclass
class Outcome:
    """One scheduled request: its targets, timing and response (or error)."""

    targets: np.ndarray
    due: float
    sent: float = 0.0
    done_at: float | None = None
    response: object = None
    error: BaseException | None = None

    @property
    def latency(self) -> float:
        return self.done_at - self.due


@dataclass
class Window:
    """The requests of one stretch of fixed-rate arrivals, and its drain."""

    outcomes: list[Outcome]
    duration: float
    schedule_end: float
    cpu_seconds: float

    @property
    def ok(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.error is None and o.done_at is not None]

    def latency_ms(self, q: float) -> float:
        return 1e3 * percentile([o.latency for o in self.ok], q)

    def backlog_seconds(self) -> float:
        """How long after the schedule's end the last request completed."""
        ends = [o.done_at for o in self.ok]
        return max(0.0, max(ends) - self.schedule_end) if ends else float("inf")

    def backlog_growth(self) -> float:
        """Median latency of the last fifth of requests (by due time) minus the first's.

        A queue that keeps pace answers late requests as fast as early
        ones; one falling behind makes each request wait for all the
        backlog before it, so this grows with the window's length.
        """
        ok = sorted(self.ok, key=lambda o: o.due)
        if len(ok) < 5:
            return 0.0
        fifth = len(ok) // 5
        return float(
            np.median([o.latency for o in ok[-fifth:]])
            - np.median([o.latency for o in ok[:fifth]])
        )


@dataclass
class StepResult:
    """Every window run at one rate."""

    rate: float
    windows: list[Window]

    @property
    def outcomes(self) -> list[Outcome]:
        return [o for w in self.windows for o in w.outcomes]

    @property
    def ok(self) -> list[Outcome]:
        return [o for w in self.windows for o in w.ok]

    @property
    def failed(self) -> int:
        return len(self.outcomes) - len(self.ok)

    @property
    def duration(self) -> float:
        return sum(w.duration for w in self.windows)

    @property
    def cpu_seconds(self) -> float:
        return sum(w.cpu_seconds for w in self.windows)

    def latency_ms(self, q: float) -> float:
        """The ``q``-th latency percentile over every window's requests."""
        return 1e3 * percentile([o.latency for o in self.ok], q)

    def window_latency_ms(self, q: float) -> float:
        """The median over windows of each window's ``q``-th latency percentile.

        The CPU's speed drifts between windows; the median keeps one slow
        spell from setting a tail percentile pooled over the whole run.
        """
        return float(np.median([w.latency_ms(q) for w in self.windows]))

    def lateness_ms(self, q: float) -> float:
        return 1e3 * percentile([o.sent - o.due for o in self.outcomes], q)

    def backlog_seconds(self) -> float:
        return max(w.backlog_seconds() for w in self.windows)

    def backlog_growth(self) -> float:
        return max(w.backlog_growth() for w in self.windows)

    def load_score(self, limit_seconds: float) -> float:
        """Worst of p99 over the limit and backlog growth over its tolerance.

        At most 1.0 when the step passes: no failures, p99 within the limit
        and no growing backlog in any window.
        """
        if self.failed or not self.ok:
            return float("inf")
        return max(
            self.latency_ms(99) / (1e3 * limit_seconds),
            self.backlog_growth() / (BACKLOG_TOLERANCE * limit_seconds),
        )


def poisson_offsets(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Arrival offsets of a Poisson process of ``rate``/s over ``duration`` s."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < duration]


def run_window(
    submit,
    requests: list[np.ndarray],
    offsets: np.ndarray,
    *,
    duration: float,
    drain_seconds: float,
    on_submit=None,
) -> Window:
    """Send ``requests[i]`` at ``offsets[i]`` through ``submit`` and collect.

    ``submit(targets)`` returns a handle with ``done()`` and ``result(0)``.
    Requests still unanswered ``drain_seconds`` after the schedule's end
    count as failed (timed out).  ``on_submit()`` runs just before each
    submit, on the generator thread.
    """
    outcomes = [Outcome(targets=t, due=0.0) for t in requests]
    # The generator appends, the collector pops: deque ends are thread-safe.
    inbox: deque = deque()
    all_sent = threading.Event()
    give_up = threading.Event()

    def collect() -> None:
        pending: deque = deque()
        while not give_up.is_set():
            sending = not all_sent.is_set()
            while inbox:
                pending.append(inbox.popleft())
            if not pending and not sending and not inbox:
                return
            unanswered: list = []
            while pending and len(unanswered) < SCAN_WINDOW:
                outcome, handle = pending.popleft()
                if not handle.done():
                    unanswered.append((outcome, handle))
                    continue
                outcome.done_at = time.perf_counter()
                try:
                    outcome.response = handle.result(0)
                except Exception as error:  # noqa: BLE001 - counted as failed
                    outcome.error = error
            pending.extendleft(reversed(unanswered))
            time.sleep(POLL_SECONDS)

    collector = threading.Thread(target=collect, name="bench-collector", daemon=True)
    cpu_start = time.process_time()
    start = time.perf_counter() + 0.005
    collector.start()
    try:
        for outcome, offset in zip(outcomes, offsets):
            outcome.due = start + float(offset)
            wait = outcome.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            outcome.sent = time.perf_counter()
            if on_submit is not None:
                on_submit()
            try:
                handle = submit(outcome.targets)
            except Exception as error:  # noqa: BLE001 - refused requests count as failed
                outcome.error = error
                outcome.done_at = time.perf_counter()
                continue
            inbox.append((outcome, handle))
    finally:
        all_sent.set()
        schedule_end = start + duration
        collector.join(max(0.0, schedule_end + drain_seconds - time.perf_counter()))
        give_up.set()
        collector.join()
    for outcome in outcomes:
        if outcome.done_at is None and outcome.error is None:
            outcome.error = TimeoutError("no response before the drain deadline")
    return Window(
        outcomes=outcomes,
        duration=duration,
        schedule_end=schedule_end,
        cpu_seconds=time.process_time() - cpu_start,
    )
