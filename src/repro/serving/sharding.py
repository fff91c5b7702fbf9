"""KB sharding for multi-worker serving.

``ShardedKB`` partitions the reference KB's feature rows and the
fingerprinted reference-embedding matrix the serving layer already
caches into ``num_shards`` shards routed by candidate id
(``candidate_id % num_shards``).  A chunk's flat pair list is scattered
to the shards that own each candidate as one
:class:`~repro.serving.workers.ScoreJob` per shard, scored, and gathered
back into the original pair order, so the merged scores are
byte-identical to scoring against the unsharded KB: the matching math is
per (mention, candidate) pair and never mixes rows.

Shard placement is arithmetic (owner ``id % N``, local row ``id // N``),
which keeps the scatter O(candidates) with no lookup tables.

Every job runs through :func:`~repro.serving.workers.score_job` — the
same function, inputs and timing — whichever backend executes it
(``backend=``, default ``"thread"``, overridable via the
``REPRO_SHARD_BACKEND`` environment variable; a single shard scores
inline):

* ``"thread"`` — a ``concurrent.futures`` thread pool in-process; cheap,
  always available, but the per-shard numpy bookkeeping contends on the
  GIL;
* ``"process"`` — a :class:`~repro.serving.workers.ShardWorkerPool` of
  long-lived worker processes, each shipped its shard once at startup;
  the jobs carry only the chunk's distinct query rows and id arrays, so
  N shards score on N independent GILs.  Falls back to threads (with a
  warning) when the platform cannot fork or spawn.

Embeddings are distributed warm-start: the full matrix is computed (or
loaded from the persisted ref cache) once and sliced per shard —
:meth:`ShardedKB.distribute` re-slices after a weight refresh without
rebuilding the partition, and pushes the fresh slices (plus the
refreshed matcher state) to live process workers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..autograd import Tensor
from ..core.pipeline import EDPipeline
from ..storage import StorageConfig, shared_memory_available
from .workers import (
    ScoreJob,
    ScorerSpec,
    ShardPayload,
    ShardWorkerError,
    ShardWorkerPool,
    resolve_shard_backend,
    score_job,
)


@dataclass
class KBShard:
    """One partition of the reference KB.

    ``node_ids`` are the global KB ids this shard owns (every id with
    ``id % num_shards == index``, ascending); row ``i`` of ``h_ref`` /
    ``x_ref`` corresponds to global node ``node_ids[i]``, so the local
    row of global id ``g`` is simply ``g // num_shards``.
    """

    index: int
    node_ids: np.ndarray
    h_ref: np.ndarray
    x_ref: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)


class ShardedKB:
    """Candidate-id-routed shards of the KB with fan-out scoring."""

    def __init__(
        self,
        pipeline: EDPipeline,
        num_shards: int,
        ref_embeddings: Optional[np.ndarray] = None,
        backend: Optional[str] = None,
        storage: Optional[StorageConfig] = None,
        ref_features: Optional[np.ndarray] = None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.pipeline = pipeline
        self.num_shards = num_shards
        self.backend = resolve_shard_backend(backend)
        self.storage = storage or StorageConfig()
        # Warm start: reuse an already-computed (or cache-loaded) matrix
        # instead of re-embedding the KB per shard.
        h_ref = pipeline.ref_embeddings() if ref_embeddings is None else np.asarray(ref_embeddings)
        if h_ref.shape[0] != pipeline.kb.num_nodes:
            raise ValueError("ref_embeddings rows must match the KB node count")
        kb = pipeline.kb
        # The feature matrix may be store-backed (e.g. an mmap of a packed
        # bundle) rather than the KB's live array; slicing either yields
        # identical bytes in a regular per-shard array.
        features = kb.features if ref_features is None else np.asarray(ref_features)
        if features.shape[0] != kb.num_nodes:
            raise ValueError("ref_features rows must match the KB node count")
        self.shards: List[KBShard] = []
        for index in range(num_shards):
            node_ids = np.arange(index, kb.num_nodes, num_shards, dtype=np.int64)
            self.shards.append(
                KBShard(
                    index=index,
                    node_ids=node_ids,
                    h_ref=np.ascontiguousarray(h_ref[node_ids]),
                    x_ref=np.ascontiguousarray(features[node_ids]),
                )
            )
        # Per-shard score telemetry for the thread/inline paths (process
        # workers report their own timings over the reply pipe; see
        # shard_telemetry for the merged view).
        self._telemetry_lock = threading.Lock()
        self._shard_calls = [0] * num_shards
        self._shard_seconds = [0.0] * num_shards
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pool: Optional[ShardWorkerPool] = None
        if num_shards > 1:
            if self.backend == "process":
                self._pool = self._build_pool()
            if self._pool is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=min(num_shards, os.cpu_count() or 1),
                    thread_name_prefix="kb-shard",
                )
        else:
            # One shard scores inline — reporting "process" here would
            # claim workers that do not exist.
            self.backend = "thread"

    def _build_pool(self) -> Optional[ShardWorkerPool]:
        """Fork the long-lived shard workers, shipping each its shard
        (embedding + feature slices and scorer state) once.  A startup
        failure — fork/resource errors, a worker dying in its handshake,
        an unpicklable payload — degrades to the thread backend instead
        of taking the service down."""
        import pickle
        import warnings

        scorer = ScorerSpec.from_model(self.pipeline.model)
        # Arena mode publishes the matrices into shared memory and ships
        # descriptors; otherwise each payload is pickled whole.
        use_arena = self.storage.share_payloads and shared_memory_available()
        payloads = [
            ShardPayload(
                index=shard.index,
                num_shards=self.num_shards,
                node_ids=shard.node_ids,
                h_ref=shard.h_ref,
                x_ref=shard.x_ref,
                scorer=scorer,
            )
            for shard in self.shards
        ]
        try:
            return ShardWorkerPool(payloads, use_arena=use_arena)
        # TypeError/AttributeError are what the pickler actually raises
        # for unpicklable payload members ("cannot pickle '...' object").
        except (
            OSError, ShardWorkerError, pickle.PickleError, TypeError, AttributeError
        ) as exc:
            warnings.warn(
                f"could not start process shard workers ({exc}); "
                "falling back to threads",
                RuntimeWarning,
                stacklevel=3,
            )
            self.backend = "thread"
            return None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, candidate_id: int) -> int:
        """Index of the shard owning a global candidate id."""
        return int(candidate_id) % self.num_shards

    def local_id(self, candidate_id: int) -> int:
        """Row of ``candidate_id`` inside its owning shard."""
        return int(candidate_id) // self.num_shards

    # ------------------------------------------------------------------
    # Embedding refresh
    # ------------------------------------------------------------------
    def distribute(self, ref_embeddings: np.ndarray) -> None:
        """Re-slice a freshly computed full embedding matrix into the
        shards (warm-start after a weight refresh).
        Live process workers receive their fresh slice plus the current
        matcher state over the pipe — no worker restart."""
        ref_embeddings = np.asarray(ref_embeddings)
        if ref_embeddings.shape[0] != self.pipeline.kb.num_nodes:
            raise ValueError("ref_embeddings rows must match the KB node count")
        for shard in self.shards:
            shard.h_ref = np.ascontiguousarray(ref_embeddings[shard.node_ids])
        if self._pool is not None:
            self._pool.distribute(
                [shard.h_ref for shard in self.shards],
                ScorerSpec.from_model(self.pipeline.model),
            )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_pairs_flat(
        self,
        h_query: Tensor,
        query_ids: np.ndarray,
        ref_ids: np.ndarray,
        x_query: Optional[Tensor] = None,
    ) -> np.ndarray:
        """Fan aligned (query node, global KB node) pairs out to the shards
        and gather the scores back into input order.

        Drop-in for the flat ``model.score_pairs(...).data`` call of the
        unsharded path; per-pair math makes the merge exact.
        """
        query_ids = np.asarray(query_ids, dtype=np.int64)
        ref_ids = np.asarray(ref_ids, dtype=np.int64)
        if len(ref_ids) == 0:
            return np.zeros(0, dtype=np.float32)
        # The chunk references only a handful of distinct query rows (one
        # mention node per graph), so each job carries just those rows —
        # remapped here — rather than the whole union embedding matrix.
        # Row selection is exact, so scores are unchanged.
        unique_ids, remapped = np.unique(query_ids, return_inverse=True)
        h_q = h_query.data[unique_ids]
        x_q = x_query.data[unique_ids] if x_query is not None else None
        owner = ref_ids % self.num_shards
        positions: List[np.ndarray] = []
        jobs: List[ScoreJob] = []
        for shard in self.shards:
            mine = np.nonzero(owner == shard.index)[0]
            if len(mine) == 0:
                continue
            positions.append(mine)
            jobs.append(
                ScoreJob(
                    shard_index=shard.index,
                    h_query=h_q,
                    query_ids=remapped[mine],
                    ref_ids=ref_ids[mine] // self.num_shards,
                    x_query=x_q,
                )
            )
        if self._pool is not None:
            parts = self._pool.score_many(jobs)
        else:
            parts = self._score_in_process(jobs)
        out = np.empty(len(ref_ids), dtype=parts[0].dtype)
        for mine, scores in zip(positions, parts):
            out[mine] = scores
        return out

    def _score_in_process(self, jobs: List[ScoreJob]) -> List[np.ndarray]:
        """Run jobs inline or on the thread pool, against the live model's
        matcher, timing them as a worker process would."""
        model = self.pipeline.model
        scorer = (model.matcher, model.lexical_scale if model.config.lexical_skip else None)

        def run(job: ScoreJob) -> Tuple[np.ndarray, float]:
            shard = self.shards[job.shard_index]
            return score_job(scorer, job, shard.h_ref, shard.x_ref)

        if self._executor is None or len(jobs) <= 1:
            results = [run(job) for job in jobs]
        else:
            results = list(self._executor.map(run, jobs))
        with self._telemetry_lock:
            for job, (_, seconds) in zip(jobs, results):
                self._shard_calls[job.shard_index] += 1
                self._shard_seconds[job.shard_index] += seconds
        return [scores for scores, _ in results]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ShardedKB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def worker_pool(self) -> Optional[ShardWorkerPool]:
        """The process worker pool, or ``None`` on the thread backend."""
        return self._pool

    @property
    def respawns(self) -> int:
        """Lifetime worker respawns (0 on the thread backend)."""
        return self._pool.respawns if self._pool is not None else 0

    def shard_telemetry(self) -> Tuple[List[int], List[float]]:
        """Per-shard (score calls, wall seconds), merged across backends:
        thread/inline scoring is timed parent-side, process workers
        report their own compute time over the reply pipe."""
        with self._telemetry_lock:
            calls = list(self._shard_calls)
            seconds = list(self._shard_seconds)
        if self._pool is not None:
            calls = [c + pc for c, pc in zip(calls, self._pool.shard_calls)]
            seconds = [s + ps for s, ps in zip(seconds, self._pool.shard_seconds)]
        return calls, seconds

    @property
    def payload_ship_bytes(self) -> int:
        """Bytes of payload (init/refresh) traffic actually written to
        the worker command pipes (0 on the thread backend)."""
        return self._pool.payload_ship_bytes if self._pool is not None else 0

    @property
    def arena_segments(self) -> int:
        """Shared-memory segments currently published for the workers
        (0 without an arena)."""
        pool = self._pool
        if pool is None or pool.arena is None:
            return 0
        return pool.arena.num_segments

    def __repr__(self) -> str:
        sizes = "+".join(str(s.num_nodes) for s in self.shards)
        return (
            f"ShardedKB(num_shards={self.num_shards}, "
            f"backend={self.backend!r}, nodes={sizes})"
        )
