"""Fault-injecting transport wrapper: the test harness of the fault model.

``FaultInjectingTransport`` wraps any :class:`~repro.transport.base.
ShardTransport` and perturbs its rounds on request:

* **drops** — a scheduled round raises :class:`~repro.exceptions.
  TransportError` *before* touching the inner backend (the request never
  left the machine);
* **disconnects** — all rounds fail until :meth:`reconnect`; when the inner
  backend is a :class:`~repro.transport.socket.SocketTransport` its TCP
  connections are genuinely torn down, so recovery exercises the real
  reconnect path;
* **latency** — a fixed per-round delay through an injectable clock
  (:class:`~repro.serving.clock.Clock`), so tests add "network" latency on
  a :class:`~repro.serving.clock.FakeClock` without real waiting;
* **reordering** — the round's requests are issued to the inner backend in
  reversed order while responses are returned in the caller's order,
  verifying that no caller depends on issue order.

Faults can be scheduled three ways: a ``script`` — a list of actions
consumed one per round, each ``"ok"``, ``"drop"`` or ``"disconnect"`` —,
the imperative :meth:`fail_next` / :meth:`disconnect` hooks, or **targeted
kill-and-heal windows** (:meth:`schedule_kill`): kill shard ``s`` — of
replica ``r``, when the wrapper is tagged with a ``replica_index`` — from
round ``k`` until round ``m`` heals it, failing exactly the rounds that
touch that shard while the rest of the fleet stays up.  Either way the
wrapper is deterministic: the same schedule against the same store produces
the same failures at the same rounds, which is what lets the failover fuzz
suite assert bit-identical recovery.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from ..exceptions import TransportError
from .base import RequestBatch, ShardTransport

OK = "ok"
DROP = "drop"
DISCONNECT = "disconnect"

_ACTIONS = (OK, DROP, DISCONNECT)


@dataclass(frozen=True)
class KillWindow:
    """One targeted outage: shard ``shard_id`` is dead for a round range.

    The window covers 0-based wrapper rounds ``start_round`` (inclusive)
    through ``heal_round`` (exclusive; ``None`` = never heals).  When
    ``replica_index`` is set, the window only applies to wrappers tagged
    with that replica index — "kill replica r of shard s" in a replicated
    deployment where each rail wraps its backend in its own fault injector.
    """

    shard_id: int
    start_round: int
    heal_round: int | None = None
    replica_index: int | None = None
    retryable: bool = True

    def active(self, round_index: int) -> bool:
        if round_index < self.start_round:
            return False
        return self.heal_round is None or round_index < self.heal_round

    def applies_to(self, replica_index: int | None) -> bool:
        return self.replica_index is None or self.replica_index == replica_index


class FaultInjectingTransport(ShardTransport):
    """Wraps a backend with scripted drops, latency, reordering, disconnects."""

    def __init__(
        self,
        inner: ShardTransport,
        *,
        script: Sequence[str] | None = None,
        latency_seconds: float = 0.0,
        reorder: bool = False,
        clock=None,
        replica_index: int | None = None,
    ) -> None:
        super().__init__()
        self.inner = inner
        self.latency_seconds = latency_seconds
        self.reorder = reorder
        #: Which replica rail this wrapper stands for (targeted kills match
        #: on it); ``None`` means untagged — every kill window applies.
        self.replica_index = replica_index
        self._kill_windows: list[KillWindow] = []
        if clock is None:
            from ..serving.clock import MONOTONIC_CLOCK

            clock = MONOTONIC_CLOCK
        self.clock = clock
        self._lock = threading.Lock()
        self._script: list[str] = []
        if script is not None:
            self.load_script(script)
        self._fail_next = 0
        self._disconnected = False
        self.faults_injected = 0
        self.rounds_seen = 0

    # ------------------------------------------------------------------ #
    # Scheduling surface
    # ------------------------------------------------------------------ #
    def load_script(self, script: Sequence[str]) -> None:
        """Queue one action per upcoming round (consumed front to back)."""
        actions = list(script)
        for action in actions:
            if action not in _ACTIONS:
                raise ValueError(
                    f"unknown fault action {action!r}; expected one of {_ACTIONS}"
                )
        with self._lock:
            self._script = actions

    def fail_next(self, rounds: int = 1) -> None:
        """Drop the next ``rounds`` fetch rounds."""
        with self._lock:
            self._fail_next += rounds

    def disconnect(self) -> None:
        """Fail every round until :meth:`reconnect`; drops real connections."""
        with self._lock:
            self._disconnected = True
        if hasattr(self.inner, "disconnect"):
            self.inner.disconnect()

    def reconnect(self) -> None:
        """Clear the disconnected state (the inner backend redials lazily)."""
        with self._lock:
            self._disconnected = False

    def schedule_kill(
        self,
        shard_id: int,
        start_round: int,
        heal_round: int | None = None,
        *,
        replica_index: int | None = None,
        retryable: bool = True,
    ) -> KillWindow:
        """Kill ``shard_id`` for rounds ``[start_round, heal_round)``.

        Round indices are 0-based over this wrapper's fetch rounds;
        ``heal_round=None`` keeps the shard dead forever.  When
        ``replica_index`` is given the window fires only on wrappers tagged
        with that index (see the constructor) — the "kill replica r of
        shard s at round k, heal at round m" primitive of the failover
        suite.  ``retryable`` sets the classification of the injected
        :class:`~repro.exceptions.TransportError` (connection-refused during
        a kill window is retryable; a poisoned shard would not be).
        """
        if start_round < 0:
            raise ValueError(f"start_round must be non-negative, got {start_round}")
        if heal_round is not None and heal_round <= start_round:
            raise ValueError(
                f"heal_round ({heal_round}) must exceed start_round ({start_round})"
            )
        window = KillWindow(
            shard_id=shard_id,
            start_round=start_round,
            heal_round=heal_round,
            replica_index=replica_index,
            retryable=retryable,
        )
        with self._lock:
            self._kill_windows.append(window)
        return window

    def clear_kills(self) -> None:
        """Drop every scheduled kill window."""
        with self._lock:
            self._kill_windows = []

    def _check_kills(self, op: str, requests: RequestBatch, round_index: int) -> None:
        """Raise if any request of round ``round_index`` hits a kill window."""
        with self._lock:
            if not self._kill_windows:
                return
            windows = list(self._kill_windows)
        for shard_id, _ in requests:
            for window in windows:
                if (
                    window.shard_id == int(shard_id)
                    and window.active(round_index)
                    and window.applies_to(self.replica_index)
                ):
                    with self._lock:
                        self.faults_injected += 1
                    where = (
                        f"replica {self.replica_index} of "
                        if self.replica_index is not None
                        else ""
                    )
                    raise TransportError(
                        f"injected kill: {where}shard {shard_id} is down on "
                        f"round {round_index} ({op})",
                        op=op,
                        shard_id=int(shard_id),
                        retryable=window.retryable,
                    )

    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return self.inner.num_shards

    def use_tracer(self, tracer) -> "FaultInjectingTransport":
        """Attach a tracer here and on the wrapped backend."""
        self.tracer = tracer
        self.inner.use_tracer(tracer)
        return self

    def fetch(self, op: str, requests: RequestBatch) -> list:
        action, round_index = self._next_action()
        if action == DISCONNECT and hasattr(self.inner, "disconnect"):
            self.inner.disconnect()
        if action in (DROP, DISCONNECT):
            raise TransportError(
                f"injected {action} on round {round_index + 1} ({op})",
                op=op,
                retryable=action == DROP or not self._disconnected,
            )
        self._check_kills(op, requests, round_index)
        if self.latency_seconds > 0:
            self.clock.sleep(self.latency_seconds)
        if self.reorder and len(requests) > 1:
            order = list(range(len(requests) - 1, -1, -1))
            shuffled = [requests[i] for i in order]
            answers = self.inner.fetch(op, shuffled)
            payloads: list = [None] * len(requests)
            for position, answer in zip(order, answers):
                payloads[position] = answer
        else:
            payloads = self.inner.fetch(op, requests)
        self._record_round(op, requests, payloads)
        return payloads

    def _next_action(self) -> tuple[str, int]:
        """This round's action and its 0-based index, claimed atomically.

        Concurrent fetchers (prefetch) share one wrapper: the index must be
        the one claimed here, not ``rounds_seen`` re-read later, or a round
        is judged against another fetch's window.
        """
        with self._lock:
            self.rounds_seen += 1
            return self._action_locked(), self.rounds_seen - 1

    def _action_locked(self) -> str:
        if self._disconnected:
            self.faults_injected += 1
            return DISCONNECT
        if self._script:
            action = self._script.pop(0)
            if action == DISCONNECT:
                self._disconnected = True
            if action != OK:
                self.faults_injected += 1
                return action
            # fall through: an explicit "ok" may still carry latency
        elif self._fail_next > 0:
            self._fail_next -= 1
            self.faults_injected += 1
            return DROP
        return OK

    def close(self) -> None:
        self.inner.close()
