"""Process-based shard workers for true parallel candidate scoring.

The thread-backed :class:`~repro.serving.sharding.ShardedKB` fan-out
contends on the GIL: the per-shard matcher math is a mix of fancy-index
gathers and small matmuls whose Python/numpy bookkeeping holds the GIL,
so N shards on threads buy little real parallelism.  This module moves
each shard into its own long-lived worker **process**:

* at startup every worker receives its :class:`ShardPayload` **once** —
  either pickled whole (the ``h_ref``/``x_ref`` slices and a
  :class:`ScorerSpec`: matcher name + state dict + lexical-skip terms,
  rebuilt into a live matcher), or, with ``use_arena=True``, as a
  :class:`ShardPayloadHandle` of shared-memory descriptors — the
  matrices live in a parent-owned
  :class:`~repro.storage.arena.SharedMemoryArena` and the init message
  is O(1) in their size (``payload_ship_bytes`` vs
  ``payload_matrix_nbytes`` measures the gap); a ``distribute()`` then
  rewrites the segments in place instead of re-pickling slices per
  worker;
* thereafter the pipe only carries :class:`ScoreJob` requests (the
  chunk's distinct query rows + aligned id arrays) and score replies, so
  the steady-state IPC per micro-batch is a few KB while the per-shard
  gather/matmul work runs on a private interpreter and GIL;
* :meth:`ShardWorkerPool.distribute` warm-starts live workers after a
  weight refresh (new embedding slice + new scorer state, no restart);
* a crashed worker is respawned from its retained payload and the
  in-flight request is retried (``max_respawns`` per request);
* :meth:`ShardWorkerPool.close` drains in-flight requests (clock-
  injected deadline, unit-testable with a fake clock) before stopping
  the workers.

Scoring is bit-identical to the in-process path: every backend runs a
job through :func:`score_job`, which calls the model's own
:func:`~repro.core.model.pair_logits` on the same float32 inputs.

The pool prefers the ``fork`` start method (cheap, no re-import) and
falls back to ``spawn``; :func:`resolve_shard_backend` downgrades a
``"process"`` request to ``"thread"`` with a warning on platforms with
no usable multiprocessing context.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..autograd import Module, Tensor, enable_grad, no_grad
from ..core.matching import make_matcher
from ..core.model import pair_logits
from ..storage.arena import ArraySpec, SharedMemoryArena, attach_array

__all__ = [
    "SHARD_BACKENDS",
    "ScoreJob",
    "ScorerSpec",
    "ShardPayload",
    "ShardPayloadHandle",
    "ShardWorkerError",
    "ShardWorkerPool",
    "default_shard_backend",
    "resolve_shard_backend",
    "score_job",
]

#: the ``ShardedKB`` execution backends a config may name
SHARD_BACKENDS = ("thread", "process")

#: environment default for the backend (the CI shard matrix sets this)
SHARD_BACKEND_ENV = "REPRO_SHARD_BACKEND"

#: startup-handshake budget: generous enough for a cold ``spawn``
#: re-import, but bounded — a child deadlocked before its "ready" (e.g.
#: a lock inherited across a fork from a multithreaded parent) must
#: surface as ShardWorkerError instead of hanging the parent forever.
HANDSHAKE_TIMEOUT_S = 60.0


class ShardWorkerError(RuntimeError):
    """A shard worker failed (scoring error, or crash beyond the respawn
    budget)."""


def _mp_context():
    """The preferred multiprocessing context, or ``None`` when the
    platform offers no usable start method.  ``fork`` wins when available
    (no re-import, instant startup); the payload is shipped over the pipe
    either way, so the worker protocol is start-method-agnostic."""
    try:
        methods = multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms only
        return None
    for method in ("fork", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None  # pragma: no cover - exotic platforms only


def process_backend_available() -> bool:
    """Whether this platform can run the process shard backend."""
    return _mp_context() is not None


def default_shard_backend() -> str:
    """The backend used when nothing names one explicitly: the
    ``REPRO_SHARD_BACKEND`` environment variable when set (the CI shard
    matrix forces real subprocesses this way), else ``"thread"``."""
    return os.environ.get(SHARD_BACKEND_ENV, "").strip() or "thread"


def resolve_shard_backend(requested: Optional[str] = None) -> str:
    """Resolve a backend name: explicit argument, else the
    ``REPRO_SHARD_BACKEND`` environment default, else ``"thread"``.

    An unknown name raises; a ``"process"`` request on a platform with no
    usable multiprocessing context degrades to ``"thread"`` with a
    warning (threads are always safe, just slower).
    """
    backend = requested or default_shard_backend()
    if backend not in SHARD_BACKENDS:
        raise ValueError(
            f"unknown shard backend {backend!r}; options: {SHARD_BACKENDS}"
        )
    if backend == "process" and not process_backend_available():
        warnings.warn(
            "process shard backend unavailable on this platform; "
            "falling back to threads",
            RuntimeWarning,
            stacklevel=2,
        )
        return "thread"
    return backend


# ---------------------------------------------------------------------------
# Worker-side scoring
# ---------------------------------------------------------------------------
#: ``(matcher, lexical scale or None)`` — the model half of
#: :func:`~repro.core.model.pair_logits`'s arguments
Scorer = Tuple[Module, Optional[Tensor]]


@dataclass
class ScorerSpec:
    """Picklable recipe for the pair-scoring math of an ``EDGNN``.

    The live model is not shipped (tensors on an autograd tape may hold
    unpicklable backward closures); instead the worker rebuilds the
    matcher from its name + state dict and scores through the same
    :func:`~repro.core.model.pair_logits` as the parent, so worker scores
    are bit-identical to the parent's.
    """

    matcher_name: str
    dim: int
    state: Dict[str, np.ndarray]
    lexical_skip: bool
    lexical_scale: np.ndarray

    @classmethod
    def from_model(cls, model) -> "ScorerSpec":
        return cls(
            matcher_name=model.config.matcher,
            dim=model.encoder.out_dim,
            state=model.matcher.state_dict(),
            lexical_skip=bool(model.config.lexical_skip),
            lexical_scale=model.lexical_scale.data.copy(),
        )

    def build(self) -> Scorer:
        # Parameter construction must see tape recording enabled: a
        # worker respawned mid-batch is forked from a parent thread
        # inside no_grad, and tensors created with recording off drop
        # requires_grad — the rebuilt matcher would register no
        # parameters and reject its own state dict.
        with enable_grad():
            matcher = make_matcher(
                self.matcher_name, self.dim, np.random.default_rng(0)
            )
            matcher.load_state_dict(self.state)
        matcher.eval()
        return matcher, Tensor(self.lexical_scale) if self.lexical_skip else None


@dataclass
class ScoreJob:
    """One shard's slice of a fan-out: score ``ref_ids`` (shard-local)
    against rows ``query_ids`` of the chunk's query matrices."""

    shard_index: int
    h_query: np.ndarray
    query_ids: np.ndarray
    ref_ids: np.ndarray
    x_query: Optional[np.ndarray] = None


def score_job(
    scorer: Scorer, job: ScoreJob, h_ref: np.ndarray, x_ref: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Score one job against a shard's reference rows; returns the scores
    and the seconds spent.  Every shard backend (inline, thread, worker
    process) runs a fan-out through this one function."""
    t0 = time.perf_counter()
    matcher, lexical_scale = scorer
    x_query = None if job.x_query is None else Tensor(job.x_query)
    with no_grad():
        scores = pair_logits(
            matcher,
            lexical_scale,
            Tensor(job.h_query),
            job.query_ids,
            Tensor(h_ref),
            job.ref_ids,
            x_query=x_query,
            x_ref=Tensor(x_ref),
        ).data
    return scores, time.perf_counter() - t0


@dataclass
class ShardPayload:
    """Everything a worker needs, shipped exactly once at (re)spawn."""

    index: int
    num_shards: int
    node_ids: np.ndarray
    h_ref: np.ndarray
    x_ref: np.ndarray
    scorer: ScorerSpec


@dataclass
class ShardPayloadHandle:
    """Descriptor form of a :class:`ShardPayload` for arena-published
    shards: the matrices stay in parent-owned shared-memory segments and
    the init message ships only their :class:`ArraySpec` descriptors —
    pipe traffic is O(1) in the matrix size, and a warm-start
    ``distribute()`` needs no payload re-ship at all (the parent updates
    the segments in place and bumps ``version``)."""

    index: int
    num_shards: int
    node_ids: ArraySpec
    h_ref: ArraySpec
    x_ref: ArraySpec
    scorer: ScorerSpec
    version: int = 0  # arena publish version at ship time


def _worker_main(connection) -> None:  # pragma: no cover - subprocess body
    """Long-lived worker loop: one ``init``, then score/refresh/stop.

    Runs in the child process (excluded from parent coverage; the scoring
    math itself is covered in-parent through :func:`score_job`).
    """
    kind, payload = connection.recv()
    assert kind == "init"
    segments = []  # keep shm mappings alive for the worker's lifetime
    if isinstance(payload, ShardPayloadHandle):
        h_ref, segment = attach_array(payload.h_ref)
        segments.append(segment)
        x_ref, segment = attach_array(payload.x_ref)
        segments.append(segment)
    else:
        h_ref = payload.h_ref
        x_ref = payload.x_ref
    scorer = payload.scorer.build()
    connection.send(("ready", payload.index))
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break  # parent died or closed the pipe: exit quietly
        kind = message[0]
        if kind == "stop":
            connection.close()
            break
        if kind == "refresh":
            _, fresh_h_ref, spec = message
            if fresh_h_ref is not None:
                h_ref = fresh_h_ref
            # Arena-published shards refresh with fresh_h_ref=None: the
            # parent already rewrote the segment bytes in place, and this
            # worker's mapping sees them with zero copies.
            scorer = spec.build()
            connection.send(("refreshed", payload.index))
            continue
        if kind == "score":
            _, seq, job = message
            try:
                # The elapsed seconds ride on the reply so the parent can
                # attribute wall time to this shard without guessing from
                # its own (gather-serialised) clock.
                scores, seconds = score_job(scorer, job, h_ref, x_ref)
                connection.send(("ok", seq, scores, seconds))
            except Exception as exc:
                connection.send(("err", seq, f"{type(exc).__name__}: {exc}"))
            continue
        connection.send(("err", None, f"unknown message kind {kind!r}"))


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------
@dataclass
class _WorkerHandle:
    process: object
    connection: object
    broken: bool = False


class ShardWorkerPool:
    """N long-lived worker processes, one per shard payload.

    Fan-outs overlap across workers (send-all, then gather replies); a
    pool-level lock serialises concurrent fan-outs so pipe traffic stays
    request/reply-matched.  ``clock`` is injected for the drain deadline
    in :meth:`close` (fake-clock testable).
    """

    def __init__(
        self,
        payloads: Sequence[ShardPayload],
        *,
        start_method: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
        max_respawns: int = 2,
        use_arena: bool = False,
    ):
        if not payloads:
            raise ValueError("ShardWorkerPool needs at least one payload")
        context = (
            multiprocessing.get_context(start_method) if start_method else _mp_context()
        )
        if context is None:
            raise RuntimeError("no usable multiprocessing start method")
        self._context = context
        self._payloads: List[ShardPayload] = list(payloads)
        self.clock = clock or time.monotonic
        self.max_respawns = max_respawns
        self.respawns = 0  # lifetime respawn counter (telemetry + tests)
        # Per-shard score telemetry: requests answered and the wall time
        # the workers reported spending on them (worker-side clocks, so
        # concurrent shards are attributed honestly).
        self.shard_calls = [0] * len(payloads)
        self.shard_seconds = [0.0] * len(payloads)
        # Payload-ship telemetry: bytes actually written to command pipes
        # for init/refresh messages, vs the matrix bytes a pickled ship
        # would have cost (the arena's whole point is the gap between
        # these two numbers).
        self.payload_ship_bytes = 0
        self.payload_matrix_nbytes = sum(
            payload.h_ref.nbytes + payload.x_ref.nbytes for payload in payloads
        )
        self._seq = 0
        self._lock = threading.Lock()  # serialises pipe fan-outs
        self._state = threading.Condition()  # close/in-flight bookkeeping
        self._in_flight = 0
        self._closed = False
        self._workers: List[_WorkerHandle] = []
        self._arena: Optional[SharedMemoryArena] = None
        try:
            if use_arena:
                self._arena = SharedMemoryArena()
                for payload in self._payloads:
                    self._arena.publish(f"{payload.index}:node_ids", payload.node_ids)
                    self._arena.publish(f"{payload.index}:h_ref", payload.h_ref)
                    self._arena.publish(f"{payload.index}:x_ref", payload.x_ref)
            for index in range(len(payloads)):
                self._workers.append(self._spawn(index))
        except BaseException:
            # Partial startup must not leak the workers already forked
            # (or the arena segments already published).
            for worker in self._workers:
                try:
                    worker.connection.close()
                except OSError:  # pragma: no cover - close on a dead pipe
                    pass
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            if self._arena is not None:
                self._arena.close()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _init_payload(self, index: int) -> Union[ShardPayload, ShardPayloadHandle]:
        """What the init message ships: the retained payload itself, or —
        with an arena — a descriptor handle whose size is independent of
        the matrices (a respawned worker maps the same segments, which
        already hold the latest distributed bytes)."""
        payload = self._payloads[index]
        if self._arena is None:
            return payload
        return ShardPayloadHandle(
            index=payload.index,
            num_shards=payload.num_shards,
            node_ids=self._arena.spec(f"{payload.index}:node_ids"),
            h_ref=self._arena.spec(f"{payload.index}:h_ref"),
            x_ref=self._arena.spec(f"{payload.index}:x_ref"),
            scorer=payload.scorer,
            version=self._arena.version,
        )

    def _ship(self, connection, message: tuple) -> None:
        """Send a payload-carrying message, metering its pickled size
        (``send_bytes`` of a pickle is what ``Connection.send`` does under
        the hood, so the worker's ``recv()`` is none the wiser)."""
        data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        connection.send_bytes(data)
        self.payload_ship_bytes += len(data)

    def _spawn(self, index: int) -> _WorkerHandle:
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_end,),
            name=f"kb-shard-worker-{index}",
            daemon=True,
        )
        process.start()
        child_end.close()
        try:
            try:
                self._ship(parent_end, ("init", self._init_payload(index)))
                if not parent_end.poll(HANDSHAKE_TIMEOUT_S):
                    raise ShardWorkerError(
                        f"shard worker {index} hung during startup"
                    )
                kind, echoed = parent_end.recv()
            except (EOFError, OSError) as exc:
                raise ShardWorkerError(
                    f"shard worker {index} died during startup"
                ) from exc
            if kind != "ready" or echoed != self._payloads[index].index:
                raise ShardWorkerError(f"shard worker {index} botched its handshake")
        except BaseException:
            # A failed handshake must not leak the process (alive and
            # blocked in recv forever) or the parent pipe end.
            try:
                parent_end.close()
            except OSError:  # pragma: no cover - close on a dead pipe
                pass
            process.terminate()
            process.join(timeout=5.0)
            raise
        return _WorkerHandle(process, parent_end)

    def _respawn(self, index: int) -> None:
        if self._closed:
            # close() already stopped (or is stopping) the workers; a
            # late in-flight retry must not fork fresh ones past it.
            raise ShardWorkerError("ShardWorkerPool is closed")
        worker = self._workers[index]
        try:
            worker.connection.close()
        except OSError:  # pragma: no cover - close on a dead pipe
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        self.respawns += 1
        self._workers[index] = self._spawn(index)

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def arena(self) -> Optional[SharedMemoryArena]:
        """The shared-memory arena holding the published shard payloads,
        or ``None`` when payloads ship pickled over the pipes."""
        return self._arena

    @property
    def processes(self) -> List[object]:
        """Live worker process handles (for telemetry and crash tests)."""
        return [worker.process for worker in self._workers]

    def alive(self) -> List[bool]:
        return [worker.process.is_alive() for worker in self._workers]

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain in-flight fan-outs, then stop every worker.

        New requests are rejected immediately; requests already past
        :meth:`_begin` finish (bounded by ``timeout`` seconds on the
        injected clock — on expiry the workers are stopped anyway).
        Idempotent.
        """
        with self._state:
            already_closed = self._closed
            self._closed = True
            deadline = None if timeout is None else self.clock() + timeout
            while self._in_flight > 0:
                remaining = None if deadline is None else deadline - self.clock()
                if remaining is not None and remaining <= 0:
                    break  # drain budget blown: stop the workers anyway
                self._state.wait(0.05 if remaining is None else min(remaining, 0.05))
        if already_closed:
            return
        # Bounded acquisition: a hung worker can leave a fan-out blocked
        # in recv() holding the lock forever — the expired drain budget
        # must still stop the workers, so fall through to a hard
        # terminate when the lock cannot be had.
        graceful = self._lock.acquire(timeout=5.0)
        try:
            for worker in self._workers:
                if graceful:
                    try:
                        worker.connection.send(("stop",))
                    except (BrokenPipeError, OSError):
                        pass  # already dead; join/terminate below
                    try:
                        worker.connection.close()
                    except OSError:  # pragma: no cover - close on a dead pipe
                        pass
                else:  # pragma: no cover - hung-worker shutdown only
                    worker.process.terminate()
            for worker in self._workers:
                worker.process.join(timeout=5.0)
                if worker.process.is_alive():  # pragma: no cover - stuck worker
                    worker.process.terminate()
                    worker.process.join(timeout=5.0)
            self._workers = []
        finally:
            if graceful:
                self._lock.release()
        # Workers are gone (or terminated); unlinking the arena segments
        # is now safe — and it must happen even after crash/respawn
        # churn, which is why the arena (not any worker) owns them.
        if self._arena is not None:
            self._arena.close()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # In-flight bookkeeping (the drain contract of close())
    # ------------------------------------------------------------------
    def _begin(self) -> None:
        with self._state:
            if self._closed:
                raise RuntimeError("ShardWorkerPool is closed")
            self._in_flight += 1

    def _end(self) -> None:
        with self._state:
            self._in_flight -= 1
            self._state.notify_all()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_many(self, jobs: Sequence[ScoreJob]) -> List[np.ndarray]:
        """Run every job, overlapping the shard workers.

        Requests are written to all target workers first, then replies
        are gathered, so distinct shards compute concurrently.  A worker
        that crashed mid-batch is respawned from its retained payload and
        its request is retried.
        """
        self._begin()
        try:
            with self._lock:
                return self._score_many_locked(jobs)
        finally:
            self._end()

    def _score_many_locked(self, jobs: Sequence[ScoreJob]) -> List[np.ndarray]:
        results: List[Optional[np.ndarray]] = [None] * len(jobs)
        sent: List[Tuple[int, int]] = []  # (job position, seq)
        retry: List[int] = []
        errors: List[ShardWorkerError] = []
        for position, job in enumerate(jobs):
            if self._workers[job.shard_index].broken:
                # Heal a worker left desynced by a previous fan-out (its
                # pipe may hold stale replies) before reusing it.
                self._respawn(job.shard_index)
            worker = self._workers[job.shard_index]
            seq = self._next_seq()
            try:
                worker.connection.send(("score", seq, job))
                sent.append((position, seq))
            except (BrokenPipeError, OSError):
                worker.broken = True
                retry.append(position)
        # Gather phase: every sent request's reply is consumed — even
        # after a scoring error — so one bad reply can never leave stale
        # replies queued in other workers' pipes (which would desync the
        # request/reply protocol for every later fan-out).
        for position, seq in sent:
            job = jobs[position]
            worker = self._workers[job.shard_index]
            if worker.broken:
                # An earlier send to this worker already failed; its pipe
                # is unusable, so this request must be replayed too.
                retry.append(position)
                continue
            try:
                reply = worker.connection.recv()
            except (EOFError, ConnectionResetError, OSError):
                worker.broken = True
                retry.append(position)
                continue
            if reply[0] == "ok" and reply[1] == seq:
                results[position] = reply[2]
                self._note_shard(job.shard_index, reply)
            elif reply[0] == "err" and reply[1] == seq:
                # Deterministic scoring failure: the worker is healthy
                # and in sync; raise (below) without burning a respawn.
                errors.append(ShardWorkerError(f"shard worker failed: {reply[2]}"))
            else:
                worker.broken = True  # reply stream desynced; heal on next use
                retry.append(position)
        if errors:
            raise errors[0]
        for position in retry:
            results[position] = self._retry_job(jobs[position])
        return results  # type: ignore[return-value]

    def _retry_job(self, job: ScoreJob) -> np.ndarray:
        """Respawn the job's (crashed) worker and replay the request."""
        for attempt in range(self.max_respawns):
            self._respawn(job.shard_index)
            worker = self._workers[job.shard_index]
            seq = self._next_seq()
            try:
                worker.connection.send(("score", seq, job))
                reply = worker.connection.recv()
                result = self._parse_reply(reply, seq)
                self._note_shard(job.shard_index, reply)
                return result
            except (BrokenPipeError, EOFError, ConnectionResetError, OSError):
                worker.broken = True
        raise ShardWorkerError(
            f"shard worker {job.shard_index} kept crashing after "
            f"{self.max_respawns} respawns"
        )

    def _note_shard(self, shard_index: int, reply: tuple) -> None:
        """Fold one ok reply's worker-reported wall time into the
        per-shard telemetry."""
        if len(reply) > 3 and isinstance(reply[3], float):
            self.shard_calls[shard_index] += 1
            self.shard_seconds[shard_index] += reply[3]

    @staticmethod
    def _parse_reply(reply: tuple, seq: int) -> np.ndarray:
        kind = reply[0]
        if kind == "ok" and reply[1] == seq:
            return reply[2]
        if kind == "err":
            raise ShardWorkerError(f"shard worker failed: {reply[2]}")
        raise ShardWorkerError(  # pragma: no cover - protocol corruption
            f"shard worker protocol error: expected reply {seq}, got {reply!r}"
        )

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # Warm-start refresh
    # ------------------------------------------------------------------
    def distribute(
        self, h_ref_slices: Sequence[np.ndarray], scorer: ScorerSpec
    ) -> None:
        """Push re-sliced embeddings + the refreshed scorer state to the
        live workers (no restart).  The retained payloads are updated
        first, so a worker that happens to crash here respawns with the
        fresh state anyway."""
        if len(h_ref_slices) != len(self._payloads):
            raise ValueError("one embedding slice per shard payload required")
        self._begin()
        try:
            with self._lock:
                for payload, h_ref in zip(self._payloads, h_ref_slices):
                    payload.h_ref = h_ref
                    payload.scorer = scorer
                    if self._arena is not None:
                        # In-place versioned publish: the workers' live
                        # mappings see the fresh bytes without a single
                        # matrix byte crossing a pipe.  Safe because the
                        # pool lock serialises this against every fan-out
                        # — no worker is reading mid-rewrite.
                        self._arena.update(f"{payload.index}:h_ref", h_ref)
                confirmed = 0
                try:
                    for index, worker in enumerate(self._workers):
                        try:
                            self._ship(
                                worker.connection,
                                (
                                    "refresh",
                                    None if self._arena is not None
                                    else self._payloads[index].h_ref,
                                    scorer,
                                ),
                            )
                            kind, echoed = worker.connection.recv()
                            if kind != "refreshed" or echoed != self._payloads[index].index:
                                raise ShardWorkerError(
                                    f"shard worker {index} botched its refresh"
                                )
                        except (BrokenPipeError, EOFError, ConnectionResetError, OSError):
                            self._respawn(index)  # respawn ships the fresh payload
                        confirmed = index + 1
                except BaseException:
                    # An aborted refresh (e.g. a respawn that itself
                    # failed) must not leave later workers serving stale
                    # embeddings/matcher state: mark every unconfirmed
                    # worker broken so the next fan-out respawns it from
                    # the already-updated payload.
                    for worker in self._workers[confirmed:]:
                        worker.broken = True
                    raise
        finally:
            self._end()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self.num_workers} workers"
        return f"ShardWorkerPool({state}, respawns={self.respawns})"
