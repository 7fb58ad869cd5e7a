"""Parallel worker pool executing micro-batches on private batch engines.

Each worker owns one :class:`~repro.core.inference.BatchEngine` — its own
grow-only memo buffers and raw-CSR scratch state — while sharing the
prepared read-only deployment (features, normalized adjacency, stationary
vectors, classifiers) with every sibling.  Independent micro-batches
therefore run concurrently without contention, and the per-worker
MAC/timing breakdowns merge into exactly the sequential accounting.

Backends
--------
``"thread"`` (default)
    One Python thread per worker.  The propagation hot path spends its time
    in scipy's compiled ``csr_matvecs`` and numpy kernels, which run outside
    the interpreter lock, so threads overlap on multi-core machines while
    sharing the deployment state zero-copy.
``"process"``
    A fork-based :mod:`multiprocessing` pool for fully GIL-free execution.
    Fork inheritance shares the deployment state without pickling it; each
    task ships only the node-id array out and the
    :class:`~repro.core.inference.InferenceResult` back.  Support-bundle
    reuse is unavailable (shipping CSR arrays across the boundary costs more
    than rebuilding them), so the serving cache is bypassed.
"""

from __future__ import annotations

import os
import threading
import queue as _queue_mod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.inference import InferenceResult, NAIPredictor
from ..exceptions import ConfigurationError, ServingError
from ..graph.sampling import SupportBundle


@dataclass
class WorkItem:
    """One micro-batch handed to the pool.

    ``bundle`` carries the sampling products when the dispatcher resolved
    them (from the subgraph cache, or freshly built on a miss);
    ``bundle_is_fresh`` marks the latter so the worker folds the build cost
    into the result's sampling time, keeping the merged accounting equal to
    a sequential run.  A cache *hit* contributes no sampling time — that is
    the saving the cache exists for.
    """

    batch_id: int
    node_ids: np.ndarray
    bundle: SupportBundle | None
    bundle_is_fresh: bool
    callback: Callable[["WorkOutput"], None]
    #: Pre-allocated ``engine.compute`` trace context (``None`` untraced).
    #: The worker emits the span at this exact id and activates it around
    #: ``run_batch``, so in-engine fetch rounds nest under the compute span.
    trace: object | None = None


@dataclass
class WorkOutput:
    """Completion record delivered to the :class:`WorkItem` callback."""

    batch_id: int
    result: InferenceResult | None
    worker_id: int
    error: BaseException | None


_SHUTDOWN = object()

# Process-backend worker state: populated once per forked child.
_PROCESS_ENGINE = None


def _process_init(predictor: NAIPredictor) -> None:
    global _PROCESS_ENGINE
    _PROCESS_ENGINE = predictor.make_engine()


def _process_run(node_ids: np.ndarray) -> tuple[int, InferenceResult]:
    assert _PROCESS_ENGINE is not None
    return os.getpid(), _PROCESS_ENGINE.run_batch(node_ids)


class WorkerPool:
    """Fans independent micro-batches out across thread or process workers."""

    def __init__(
        self,
        predictor: NAIPredictor,
        *,
        num_workers: int,
        backend: str = "thread",
        tracer=None,
    ) -> None:
        if num_workers < 1:
            raise ConfigurationError(f"num_workers must be positive, got {num_workers}")
        if backend not in ("thread", "process"):
            raise ConfigurationError(
                f"backend must be 'thread' or 'process', got {backend!r}"
            )
        if not predictor.prepared:
            raise ServingError(
                "the predictor must be prepared before building a WorkerPool"
            )
        self.predictor = predictor
        self.num_workers = num_workers
        self.backend = backend
        #: Optional :class:`~repro.obs.Tracer` for per-batch compute spans.
        #: Thread backend only — the process backend cannot share a recorder
        #: across the fork boundary, so items arrive untraced there.
        self.tracer = tracer
        self._closed = False
        if backend == "thread":
            self._inbox: _queue_mod.SimpleQueue = _queue_mod.SimpleQueue()
            self._threads = [
                threading.Thread(
                    target=self._thread_loop,
                    args=(worker_id,),
                    name=f"nai-worker-{worker_id}",
                    daemon=True,
                )
                for worker_id in range(num_workers)
            ]
            for thread in self._threads:
                thread.start()
        else:
            import multiprocessing

            try:
                context = multiprocessing.get_context("fork")
            except ValueError as error:  # pragma: no cover - non-POSIX platforms
                raise ConfigurationError(
                    "the process backend needs the fork start method; "
                    "use backend='thread' on this platform"
                ) from error
            self._pool = context.Pool(
                num_workers, initializer=_process_init, initargs=(predictor,)
            )

    # ------------------------------------------------------------------ #
    def submit(self, item: WorkItem) -> None:
        """Queue ``item``; its callback fires on a worker/result thread."""
        if self._closed:
            raise ServingError("the worker pool is shut down")
        if self.backend == "thread":
            self._inbox.put(item)
            return
        if item.bundle is not None:
            raise ServingError(
                "the process backend cannot exchange SupportBundles; "
                "disable the subgraph cache or use backend='thread'"
            )

        def _on_success(payload: tuple[int, InferenceResult]) -> None:
            worker_id, result = payload
            item.callback(WorkOutput(item.batch_id, result, worker_id, None))

        def _on_error(error: BaseException) -> None:
            item.callback(WorkOutput(item.batch_id, None, -1, error))

        self._pool.apply_async(
            _process_run,
            (item.node_ids,),
            callback=_on_success,
            error_callback=_on_error,
        )

    def _thread_loop(self, worker_id: int) -> None:
        engine = self.predictor.make_engine()
        while True:
            item = self._inbox.get()
            if item is _SHUTDOWN:
                break
            try:
                tracer = self.tracer
                if tracer is not None and item.trace is not None:
                    compute_start = tracer.clock.now()
                    with tracer.activate(item.trace):
                        result = engine.run_batch(item.node_ids, bundle=item.bundle)
                    tracer.emit(
                        "engine.compute",
                        item.trace,
                        compute_start,
                        tracer.clock.now(),
                        batch_id=item.batch_id,
                        worker_id=worker_id,
                        num_nodes=int(item.node_ids.shape[0]),
                        macs=int(result.macs.total),
                    )
                else:
                    result = engine.run_batch(item.node_ids, bundle=item.bundle)
                if item.bundle is not None and item.bundle_is_fresh:
                    # The engine skips sampling accounting for provided
                    # bundles; a freshly built one is real work, so its cost
                    # lands in the breakdown exactly as in a sequential run.
                    result.timings.sampling += item.bundle.build_seconds
                output = WorkOutput(item.batch_id, result, worker_id, None)
            except BaseException as error:  # noqa: BLE001 - forwarded to caller
                output = WorkOutput(item.batch_id, None, worker_id, error)
            item.callback(output)

    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Stop the workers after the already-queued items finish."""
        if self._closed:
            return
        self._closed = True
        if self.backend == "thread":
            for _ in self._threads:
                self._inbox.put(_SHUTDOWN)
            for thread in self._threads:
                thread.join()
        else:
            self._pool.close()
            self._pool.join()
