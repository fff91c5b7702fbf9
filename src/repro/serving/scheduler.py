"""Work-conserving asynchronous serving.

``AsyncLinkingService`` fronts the batched :class:`LinkingService` with a
request queue and a background worker that forms micro-batches without
ever idling while work is queued: whenever the worker is free and
anything is waiting, it pops up to ``max_batch_size`` requests and runs
them.  A lone request at low load is served at once instead of waiting
for company; under load, requests pile up while a batch runs, so the
next batch grows on its own (Clipper-style dynamic batching).  The
worker only sleeps while the queue is empty.

There is no batching timer.  The one queue-wait budget is the admission
gate's ``AdmissionConfig.max_wait_ms``: the ``"wait"`` shed policy sheds
against it, and the latency and overload benches gate the observed
queue wait on it.

The queue itself lives in :class:`MicroBatcher`, which holds no threads
and reads no clock, so its pop order is unit-testable without sleeps.

Results are the same ``Prediction`` objects the sequential
``EDPipeline.disambiguate_snippet`` produces (the equivalence contract of
the serving layer): compute is delegated to a ``LinkingService``, which
may itself fan candidate scoring out across a
:class:`~repro.serving.sharding.ShardedKB` — on threads or, with
``ServiceConfig(shard_backend="process")``, on the long-lived worker
processes of a :class:`~repro.serving.workers.ShardWorkerPool`.
``close()`` joins the batch worker before closing the service, so shard
workers only shut down once every queued request has been served.

Request latency (submit -> result) and queue wait (submit -> batch
formed) are recorded into :class:`~repro.serving.stats.ServiceStats`,
which serves p50/p95 percentiles for the CLI and the latency bench.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..core.pipeline import EDPipeline, Prediction
from ..text.corpus import Snippet
from .admission import (
    DEFAULT_PRIORITY,
    PRIORITIES,
    AdmissionConfig,
    AdmissionController,
)
from .service import LinkingService, ServiceConfig
from .stats import ServiceStats


@dataclass
class QueuedRequest:
    """One request waiting for a micro-batch slot."""

    snippet: Snippet
    enqueued_at: float
    future: Future = field(default_factory=Future)
    priority: str = DEFAULT_PRIORITY


class MicroBatcher:
    """The request queue of the work-conserving scheduler (no threads,
    no clock).

    One FIFO queue of :class:`QueuedRequest` per priority class.
    :meth:`poll` pops the next micro-batch — up to ``max_batch_size``
    requests, whatever is queued — in priority order (``high`` before
    ``normal`` before ``low``, FIFO within a class), so under backlog
    high-priority requests always ride the next batch.
    """

    def __init__(self, max_batch_size: int):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.max_batch_size = max_batch_size
        self._queues: Dict[str, Deque[QueuedRequest]] = {
            priority: deque() for priority in PRIORITIES
        }

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def add(self, request: QueuedRequest) -> None:
        self._queues[request.priority].append(request)

    def poll(self) -> List[QueuedRequest]:
        """The next micro-batch to run; ``[]`` only when the queue is
        empty."""
        batch: List[QueuedRequest] = []
        for priority in PRIORITIES:
            queue = self._queues[priority]
            while queue and len(batch) < self.max_batch_size:
                batch.append(queue.popleft())
        return batch


class AsyncLinkingService:
    """Queue-fronted linking with work-conserving micro-batching.

    ``submit`` enqueues one snippet and returns a
    ``concurrent.futures.Future`` resolving to the same ``Prediction``
    the sequential pipeline would return; ``link_batch`` and
    ``link_stream`` are order-preserving conveniences on top.  Accepts a
    fitted :class:`EDPipeline` (a ``LinkingService`` is built from
    ``config``) or an existing ``LinkingService`` (e.g. one configured
    with ``num_shards > 1`` for sharded scoring).  ``admission``
    overrides the service config's ``admission`` section.
    """

    def __init__(
        self,
        pipeline_or_service: Union[EDPipeline, LinkingService],
        config: Optional[ServiceConfig] = None,
        *,
        max_batch_size: Optional[int] = None,
        admission: Optional[AdmissionConfig] = None,
    ):
        if isinstance(pipeline_or_service, LinkingService):
            if config is not None:
                raise ValueError("pass config to the LinkingService, not here")
            self.service = pipeline_or_service
        else:
            self.service = LinkingService(pipeline_or_service, config)
        # Latency and queue wait are measured on the monotonic wall
        # clock; the admission policy reads no clock at all.
        self.clock = time.monotonic
        batch = max_batch_size or self.service.config.max_batch_size
        self.batcher = MicroBatcher(batch)
        self.max_in_flight = max(64, 4 * batch)
        self.admission = AdmissionController(
            admission or self.service.config.admission
        )
        self._cond = threading.Condition()
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="async-linking-worker", daemon=True
        )
        self._worker.start()

    @property
    def stats(self) -> ServiceStats:
        return self.service.stats

    @property
    def pipeline(self) -> EDPipeline:
        return self.service.pipeline

    # ------------------------------------------------------------------
    # Request API
    # ------------------------------------------------------------------
    def submit(
        self, snippet: Snippet, priority: str = DEFAULT_PRIORITY
    ) -> "Future[Prediction]":
        """Enqueue one snippet; the future resolves to its Prediction.

        The admission gate runs here, in front of the queue: an
        over-budget arrival raises
        :class:`~repro.serving.admission.AdmissionError` (HTTP maps it
        to 429 + ``Retry-After``) instead of enqueueing.
        """
        return self.submit_many([snippet], [priority])[0]

    def submit_many(
        self, snippets: Sequence[Snippet], priorities: Sequence[str]
    ) -> "List[Future[Prediction]]":
        """Enqueue every snippet, or none of them.

        The queue lock is taken once, and item ``i`` passes the admission
        gate as if the items before it were already queued (depth
        ``len(batcher) + i``).  When any item is shed, nothing is
        enqueued, every item counts as shed, and the shed item's
        :class:`~repro.serving.admission.AdmissionError` propagates — so
        no sibling is already running, computing for nothing, when the
        caller learns of the shed.
        """
        if len(priorities) != len(snippets):
            raise ValueError(
                f"{len(priorities)} priorities for {len(snippets)} snippets"
            )
        for priority in priorities:
            if priority not in PRIORITIES:
                raise ValueError(
                    f"unknown priority {priority!r}; options: {PRIORITIES}"
                )
        now = self.clock()
        requests = [
            QueuedRequest(snippet, now, priority=priority)
            for snippet, priority in zip(snippets, priorities)
        ]
        with self._cond:
            if self._closed:
                raise RuntimeError("AsyncLinkingService is closed")
            depth = len(self.batcher)
            for i, priority in enumerate(priorities):
                shed = self.admission.check(priority, depth + i)
                if shed is not None:
                    for each in priorities:
                        self.stats.record_shed(each)
                    raise shed
            for request in requests:
                self.stats.record_admission(request.priority)
                self.batcher.add(request)
            self._cond.notify()
        return [request.future for request in requests]

    def link_batch(
        self,
        snippets: Sequence[Snippet],
        timeout: Optional[float] = None,
        priority: str = DEFAULT_PRIORITY,
    ) -> List[Prediction]:
        """Submit every snippet and gather results in input order.

        All-or-nothing under admission control (:meth:`submit_many`):
        when any item is shed, none is queued and the
        :class:`~repro.serving.admission.AdmissionError` propagates.
        """
        futures = self.submit_many(snippets, [priority] * len(snippets))
        return [future.result(timeout) for future in futures]

    def link_stream(
        self, snippets: Iterable[Snippet], priority: str = DEFAULT_PRIORITY
    ) -> Iterator[Prediction]:
        """Order-preserving incremental results over a (lazy) stream.

        Yields each prediction as soon as it — and everything before it —
        is done, keeping at most ``max_in_flight`` requests outstanding
        so an unbounded stdin stream cannot grow the queue without limit.
        """
        window: Deque[Future] = deque()
        for snippet in snippets:
            window.append(self.submit(snippet, priority))
            if len(window) >= self.max_in_flight:
                yield window.popleft().result()
            while window and window[0].done():
                yield window.popleft().result()
        while window:
            yield window.popleft().result()

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        # Work-conserving: whenever the worker is free, run whatever is
        # queued; sleep only while the queue is empty.  After close(),
        # keep popping until the queue is drained.
        while True:
            with self._cond:
                batch = self.batcher.poll()
                while not batch:
                    if self._closed:
                        return
                    self._cond.wait()
                    batch = self.batcher.poll()
            self._run_batch(batch)

    def _run_batch(self, batch: List[QueuedRequest]) -> None:
        formed_at = self.clock()
        # A caller may have cancelled its future while the request sat in
        # the queue; transition the rest to RUNNING so set_result below is
        # always legal and the worker thread can never be killed by an
        # InvalidStateError.
        live = [r for r in batch if r.future.set_running_or_notify_cancel()]
        if not live:
            return
        try:
            predictions = self.service.link_batch([r.snippet for r in live])
        except BaseException as exc:  # propagate to every waiter in the batch
            for request in live:
                request.future.set_exception(exc)
            return
        done_at = self.clock()
        for request, prediction in zip(live, predictions):
            self.stats.record_latency(
                done_at - request.enqueued_at, formed_at - request.enqueued_at
            )
            request.future.set_result(prediction)
        # The controller's estimated-wait model tracks the real drain rate.
        self.admission.observe_batch(len(live), done_at - formed_at)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain the queue, stop the worker, release shard workers."""
        with self._cond:
            if self._closed and not self._worker.is_alive():
                return
            self._closed = True
            self._cond.notify_all()
        self._worker.join()
        self.service.close()

    def __enter__(self) -> "AsyncLinkingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
