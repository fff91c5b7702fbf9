"""Batched, cached inference over a fitted :class:`~repro.core.pipeline.EDPipeline`.

The pipeline's :meth:`disambiguate_snippet` ranks candidates for one
mention at a time, paying per call for a query-graph compile and a GNN
forward.  ``LinkingService`` amortises those costs for service-style
traffic:

* the **reference-embedding cache** — KB node embeddings are computed
  once at construction (optionally persisted to disk) and reused for
  every request; a fingerprint over the model weights and the KB shape
  invalidates the cache when either changes;
* the **micro-batch scheduler** — each request's query graphs are packed
  into disjoint unions of at most ``max_batch_size`` graphs (via
  :func:`repro.graph.batch.batch_graphs`) and embedded in one forward
  pass, with all candidate pairs scored by a single ``score_pairs`` call;
* the **result LRU cache** — rankings are memoised under (normalised
  surface, candidate set, query-graph digest), so repeat mentions skip
  the model entirely;
* :class:`~repro.serving.stats.ServiceStats` — throughput, cache hit
  rate, and batch-size telemetry, surfaced by ``repro serve``.

Results are bit-for-bit identical to the sequential pipeline: a disjoint
union has no cross-graph edges, so message passing never mixes graphs,
and the scoring math is the same ``score_pairs`` the pipeline uses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor, no_grad
from ..core.pipeline import EDPipeline, Prediction
from ..core.query_graph import QueryGraph, build_query_graph
from ..graph.batch import batch_graphs
from ..graph.index import normalize_surface
from ..storage import StorageConfig, open_stores
from ..storage.bundle import content_fingerprint as _content_fingerprint
from ..storage.bundle import ordered_parameters, weights_crc
from ..text.corpus import Snippet
from ..text.embedder import HashingNgramEmbedder
from .admission import AdmissionConfig
from .cache import LRUCache
from .stats import ServiceStats
from .workers import SHARD_BACKENDS, default_shard_backend


class MemoizingEmbedder:
    """Surface-embedding memo over a :class:`HashingNgramEmbedder`.

    The hashing embedder is a deterministic pure function of the text, so
    memoising it is exact; in serving traffic the same mention surfaces
    recur across requests, and re-hashing them dominates query-graph
    construction.  Bounded LRU so a high-cardinality stream cannot grow
    it without limit.
    """

    def __init__(self, inner: HashingNgramEmbedder, capacity: int = 65536):
        self.inner = inner
        self._memo = LRUCache(capacity)

    @property
    def dim(self) -> int:
        return self.inner.dim

    def embed(self, text: str) -> np.ndarray:
        vec = self._memo.get(text)
        if vec is None:
            vec = self.inner.embed(text)
            self._memo.put(text, vec)
        return vec

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.inner.dim), dtype=np.float32)
        return np.stack([self.embed(t) for t in texts])


@dataclass(frozen=True)
class HttpConfig:
    """The network endpoint of the HTTP front door
    (:class:`~repro.serving.http.LinkingHTTPServer`).

    Lives inside :class:`ServiceConfig` as the optional ``http`` section,
    so a :class:`~repro.api.LinkerConfig` JSON can declare a fully
    network-served linker; the round trip is strict and exact like every
    other config section.
    """

    host: str = "127.0.0.1"
    port: int = 8080  # 0 binds an ephemeral port (see server.port)
    max_batch: int = 256  # items per /link request; more is a 413
    max_body_bytes: int = 4 * 1024 * 1024  # request body cap; more is a 413
    # Queue-wait budget of the wrapped async service (the "wait" shed
    # policy's default); dispatch is work-conserving, so no request
    # waits for it to run out.
    deadline_ms: float = 25.0

    def __post_init__(self):
        if not (0 <= self.port <= 65535):
            raise ValueError("http port must be in [0, 65535]")
        if self.max_batch < 1:
            raise ValueError("http max_batch must be >= 1")
        if self.max_body_bytes < 1024:
            raise ValueError("http max_body_bytes must be >= 1024")
        if self.deadline_ms <= 0:
            raise ValueError("http deadline_ms must be > 0")


@dataclass
class ServiceConfig:
    """Knobs of the linking service."""

    max_batch_size: int = 32  # query graphs per disjoint-union forward
    cache_size: int = 2048  # LRU entries; <= 0 disables the result cache
    top_k: int = 5
    restrict_to_candidates: bool = True
    ref_cache_path: Optional[str] = None  # persist KB embeddings here
    num_shards: int = 1  # KB shards for fan-out candidate scoring
    shard_workers: Optional[int] = None  # worker threads (default: one per shard)
    # Shard execution backend: "thread" (in-process pool) or "process"
    # (long-lived forked workers, one GIL per shard).  Defaults to the
    # REPRO_SHARD_BACKEND environment variable when set.
    shard_backend: str = field(default_factory=default_shard_backend)
    # Optional network front door (repro.serving.http); a dict — the shape
    # dataclasses.asdict and the LinkerConfig JSON round trip produce — is
    # strictly coerced into an HttpConfig.
    http: Optional[HttpConfig] = None
    # Where the KB feature table and reference-embedding matrix live and
    # how process-shard payloads ship (repro.storage); like http, the
    # dict form from asdict / the LinkerConfig JSON round trip is
    # strictly coerced.
    storage: StorageConfig = field(default_factory=StorageConfig)
    # Overload policy of the async scheduler (repro.serving.admission):
    # queue bound, shed policy (default $REPRO_ADMISSION), priorities,
    # and the adaptive batch-size tuner.  Same strict dict coercion
    # as http/storage, so it round-trips through LinkerConfig JSON.
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.shard_backend not in SHARD_BACKENDS:
            raise ValueError(
                f"unknown shard_backend {self.shard_backend!r}; "
                f"options: {SHARD_BACKENDS}"
            )
        if isinstance(self.http, dict):
            try:
                self.http = HttpConfig(**self.http)
            except TypeError as exc:
                raise ValueError(f"bad http section in ServiceConfig: {exc}") from None
        elif self.http is not None and not isinstance(self.http, HttpConfig):
            raise ValueError("ServiceConfig http must be an HttpConfig (or its dict form)")
        if isinstance(self.storage, dict):
            try:
                self.storage = StorageConfig(**self.storage)
            except TypeError as exc:
                raise ValueError(
                    f"bad storage section in ServiceConfig: {exc}"
                ) from None
        elif not isinstance(self.storage, StorageConfig):
            raise ValueError(
                "ServiceConfig storage must be a StorageConfig (or its dict form)"
            )
        if isinstance(self.admission, dict):
            try:
                self.admission = AdmissionConfig(**self.admission)
            except TypeError as exc:
                raise ValueError(
                    f"bad admission section in ServiceConfig: {exc}"
                ) from None
        elif not isinstance(self.admission, AdmissionConfig):
            raise ValueError(
                "ServiceConfig admission must be an AdmissionConfig (or its dict form)"
            )


class LinkingService:
    """High-throughput entity-linking frontend over a fitted pipeline.

    Accepts either the raw :class:`EDPipeline` engine or a
    :class:`repro.api.Linker` facade (unwrapped on entry; prefer
    ``Linker.serve()`` which also applies the config's service section).
    """

    def __init__(self, pipeline, config: Optional[ServiceConfig] = None):
        if not isinstance(pipeline, EDPipeline):
            # A Linker facade (duck-typed: serving must not import the
            # api layer, which sits above it).
            pipeline = getattr(pipeline, "pipeline", pipeline)
        self.pipeline = pipeline
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self._cache = LRUCache(self.config.cache_size)
        self._embedder = MemoizingEmbedder(pipeline.embedder)
        # Where the matrices live (repro.storage): the memory backend is
        # today's live arrays (+ optional .npz persistence via
        # ref_cache_path); the mmap backend serves both matrices as
        # read-only maps of a packed bundle.
        self._kb_store, self._embedding_store = open_stores(
            self.config.storage, pipeline.kb, ref_cache_path=self.config.ref_cache_path
        )
        self._fingerprint: Optional[tuple] = None
        self._params: Optional[list] = None  # captured at each rebuild
        self._h_ref: Optional[Tensor] = None
        self._x_ref: Optional[Tensor] = None
        self._sharded = None  # ShardedKB when config.num_shards > 1
        self.refresh(force=True)

    # ------------------------------------------------------------------
    # Reference-embedding cache
    # ------------------------------------------------------------------
    def fingerprint(self) -> tuple:
        """Cheap per-request dirty check: model weights checksum plus the
        KB's mutation counter and shape.  Catches weight updates and any
        KB change made through the ``HeteroGraph`` API (including edge
        rewires that keep counts constant).  The checksum walks the
        parameter list captured at the last rebuild, so in-place edits of
        ``features`` rows and a swapped-out parameter Tensor object
        bypass it — call :meth:`refresh` with ``force=True`` after such
        surgery."""
        kb = self.pipeline.kb
        crc = weights_crc(self.pipeline.model, self._params)
        return (crc, kb.version, kb.num_nodes, kb.num_edges)

    def content_fingerprint(self) -> int:
        """Full content checksum (weights + KB nodes/edges/features) that
        keys the *persisted* reference-embedding matrix — unlike
        :meth:`fingerprint` it is stable across processes (it is the key
        both the memory backend's ``.npz`` cache and the mmap bundle's
        manifest carry)."""
        return _content_fingerprint(self.pipeline)

    def refresh(self, force: bool = False) -> bool:
        """Recompute the reference embeddings if the model or KB changed
        since they were cached.  Returns True when a rebuild happened."""
        if not force and self.fingerprint() == self._fingerprint:
            return False
        self._params = ordered_parameters(self.pipeline.model)
        current = self.fingerprint()
        self.pipeline.invalidate_ref_cache()
        self._kb_store.refresh()
        content = self.content_fingerprint()
        h_ref = self._embedding_store.load(content)
        if h_ref is None:
            h_ref = self._embedding_store.store(
                content, self.pipeline.ref_embeddings()
            )
        # Seed the pipeline's own cache so sequential calls agree (and,
        # with a store-backed matrix, score out of the same bytes).
        self.pipeline._h_ref = np.asarray(h_ref)
        x_ref = self._kb_store.features
        self._h_ref = Tensor(h_ref)
        self._x_ref = Tensor(x_ref)
        if self.config.num_shards > 1:
            self._refresh_shards(
                np.asarray(h_ref), x_ref, previous=self._fingerprint, current=current
            )
        self._fingerprint = current
        self._cache.clear()
        self.stats.record_ref_refresh()
        self.stats.record_storage(
            self._kb_store.backend,
            ship_bytes=self._sharded.payload_ship_bytes if self._sharded else 0,
            arena_segments=self._sharded.arena_segments if self._sharded else 0,
        )
        return True

    def _refresh_shards(
        self,
        h_ref: np.ndarray,
        x_ref: np.ndarray,
        previous: Optional[tuple],
        current: tuple,
    ) -> None:
        """(Re)build or warm-start the sharded scoring backend.

        When only the weights changed (KB version/shape untouched) the
        partition stays valid and the fresh embedding matrix is just
        re-sliced into it — the warm-start ref-cache distribution
        (with arena-published payloads, an in-place segment rewrite);
        any KB change rebuilds the partition."""
        from .sharding import ShardedKB

        kb_unchanged = previous is not None and previous[1:] == current[1:]
        if self._sharded is not None and kb_unchanged:
            t0 = perf_counter()
            self._sharded.distribute(h_ref)
            self.stats.record_publish(perf_counter() - t0)
            return
        if self._sharded is not None:
            self._sharded.close()
        self._sharded = ShardedKB(
            self.pipeline,
            self.config.num_shards,
            ref_embeddings=h_ref,
            max_workers=self.config.shard_workers,
            backend=self.config.shard_backend,
            storage=self.config.storage,
            ref_features=x_ref,
        )

    @property
    def sharded(self):
        """The :class:`~repro.serving.sharding.ShardedKB` backend, or
        ``None`` when scoring runs against the unsharded KB."""
        return self._sharded

    @property
    def kb_store(self):
        """The :class:`~repro.storage.KBStore` serving ``x_ref``."""
        return self._kb_store

    @property
    def embedding_store(self):
        """The :class:`~repro.storage.EmbeddingStore` serving ``h_ref``."""
        return self._embedding_store

    def close(self) -> None:
        """Release shard workers (thread pool or worker processes, plus
        any shared-memory arena they published) and the storage
        backends."""
        if self._sharded is not None:
            self._sharded.close()
        self._kb_store.close()
        self._embedding_store.close()

    # ------------------------------------------------------------------
    # Request API
    # ------------------------------------------------------------------
    def link_batch(
        self,
        snippets: Sequence[Snippet],
        top_k: Optional[int] = None,
        restrict_to_candidates: Optional[bool] = None,
    ) -> List[Prediction]:
        """Link the ambiguous mention of every snippet; order-preserving.

        Equivalent to calling ``disambiguate_snippet`` per snippet, but
        cache-aware and batched.
        """
        top_k = self.config.top_k if top_k is None else top_k
        restrict = (
            self.config.restrict_to_candidates
            if restrict_to_candidates is None
            else restrict_to_candidates
        )
        self.refresh()
        caching = self._cache.capacity > 0
        predictions: List[Optional[Prediction]] = [None] * len(snippets)
        pending: List[Tuple[int, QueryGraph, np.ndarray, tuple]] = []
        queued: set = set()  # keys already in `pending` this request
        deferred: List[Tuple[int, QueryGraph, np.ndarray, tuple]] = []
        hits = misses = 0
        for i, snippet in enumerate(snippets):
            qg = self._build_query_graph(snippet)
            t0 = perf_counter()
            candidates = self.pipeline.candidate_ids(
                qg.mention_surface,
                category=snippet.ambiguous_mention.category,
                restrict_to_candidates=restrict,
            )
            self.stats.record_candidates(perf_counter() - t0)
            key = self._cache_key(qg, candidates, restrict) if caching else None
            cached = self._cache.get(key) if caching else None
            if cached is not None:
                hits += 1
                ranked_ids, ranked_scores = cached
                predictions[i] = Prediction(
                    mention=qg.mention_surface,
                    ranked_entities=ranked_ids[:top_k],
                    scores=ranked_scores[:top_k],
                )
            elif caching and key in queued:
                # Intra-batch repeat: the identical request is already
                # queued for computation; serve this copy from the cache
                # entry that computation will write.
                hits += 1
                deferred.append((i, qg, candidates, key))
            else:
                misses += 1
                queued.add(key)
                pending.append((i, qg, candidates, key))

        for start in range(0, len(pending), self.config.max_batch_size):
            chunk = pending[start : start + self.config.max_batch_size]
            t0 = perf_counter()
            scored = self._score_chunk([qg for _, qg, _, _ in chunk],
                                       [cands for _, _, cands, _ in chunk])
            self.stats.record_batch(len(chunk), perf_counter() - t0)
            for (i, qg, candidates, key), scores in zip(chunk, scored):
                order = np.argsort(-scores, kind="stable")
                ranked_ids = [int(candidates[j]) for j in order]
                ranked_scores = [float(scores[j]) for j in order]
                self._cache.put(key, (ranked_ids, ranked_scores))
                predictions[i] = Prediction(
                    mention=qg.mention_surface,
                    ranked_entities=ranked_ids[:top_k],
                    scores=ranked_scores[:top_k],
                )

        for i, qg, candidates, key in deferred:
            value = self._cache.get(key)
            if value is None:
                # The entry was evicted within this request (cache smaller
                # than the request); recompute this one directly — and
                # account it as the miss + forward pass it really is.
                t0 = perf_counter()
                [scores] = self._score_chunk([qg], [candidates])
                self.stats.record_batch(1, perf_counter() - t0)
                hits -= 1
                misses += 1
                order = np.argsort(-scores, kind="stable")
                value = (
                    [int(candidates[j]) for j in order],
                    [float(scores[j]) for j in order],
                )
                self._cache.put(key, value)
            ranked_ids, ranked_scores = value
            predictions[i] = Prediction(
                mention=qg.mention_surface,
                ranked_entities=ranked_ids[:top_k],
                scores=ranked_scores[:top_k],
            )

        self.stats.record_request(len(snippets))
        self.stats.record_cache(hits, misses)
        if self._sharded is not None:
            calls, seconds = self._sharded.shard_telemetry()
            self.stats.record_shards(self._sharded.respawns, calls, seconds)
        generator = self.pipeline.candidate_generator
        self.stats.record_candidate_sources(
            getattr(generator, "name", type(generator).__name__),
            getattr(generator, "index_hits", 0),
            getattr(generator, "fallback_hits", 0),
        )
        return predictions  # type: ignore[return-value]

    def link_texts(
        self,
        texts: Sequence[str],
        ambiguous_surfaces: Optional[Sequence[Optional[str]]] = None,
        top_k: Optional[int] = None,
    ) -> List[Prediction]:
        """NER + linking for raw texts (one ambiguous mention per text)."""
        if ambiguous_surfaces is None:
            ambiguous_surfaces = [None] * len(texts)
        if len(ambiguous_surfaces) != len(texts):
            raise ValueError("ambiguous_surfaces must align with texts")
        snippets = [
            self.pipeline.snippet_from_text(text, surface)
            for text, surface in zip(texts, ambiguous_surfaces)
        ]
        return self.link_batch(snippets, top_k=top_k)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build_query_graph(self, snippet: Snippet) -> QueryGraph:
        """Same construction as the pipeline's, through the surface-
        embedding memo (exact — the hashing embedder is deterministic)."""
        pipeline = self.pipeline
        return build_query_graph(
            snippet,
            pipeline.kb,
            pipeline.index,
            self._embedder,
            augment=pipeline.augment,
            schema=pipeline.schema,
        )

    def _cache_key(self, qg: QueryGraph, candidates: np.ndarray, restrict: bool) -> tuple:
        """(surface, candidate set, context digest): two requests share an
        entry only when the model would score them identically, so caching
        never changes results — the digest covers the query graph's
        features (mention surfaces) and typed edge structure."""
        graph = qg.graph
        digest = hashlib.sha1()
        if graph.features is not None:
            digest.update(np.ascontiguousarray(graph.features).tobytes())
        src, dst, et = graph.edges()
        digest.update(src.tobytes())
        digest.update(dst.tobytes())
        digest.update(et.tobytes())
        digest.update(np.int64(qg.mention_node).tobytes())
        return (
            normalize_surface(qg.mention_surface),
            candidates.tobytes(),
            digest.digest(),
            restrict,
        )

    def _score_chunk(
        self,
        query_graphs: Sequence[QueryGraph],
        candidate_sets: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        """One batched forward + one score_pairs call for a chunk.

        Union-batchable encoders embed the whole chunk as one disjoint
        union; graph-global encoders (MAGNN/HAN) embed per graph, and
        only the pair scoring is batched — results are identical to the
        sequential pipeline either way.
        """
        model = self.pipeline.model
        lengths = [len(c) for c in candidate_sets]
        model.eval()
        with no_grad():
            if model.encoder.union_batchable:
                union, offsets = batch_graphs([qg.graph for qg in query_graphs])
                compiled = model.compile(union)
                x_qry = Tensor(union.features)
                h_qry = model.embed(compiled, x_qry)
            else:
                offsets = list(np.cumsum([0] + [qg.graph.num_nodes for qg in query_graphs[:-1]]))
                x_parts = [qg.graph.features for qg in query_graphs]
                h_parts = [
                    model.embed(model.compile(qg.graph), Tensor(qg.graph.features)).data
                    for qg in query_graphs
                ]
                x_qry = Tensor(np.vstack(x_parts))
                h_qry = Tensor(np.vstack(h_parts))
            mention_ids = np.concatenate([
                np.full(n, offsets[j] + query_graphs[j].mention_node, dtype=np.int64)
                for j, n in enumerate(lengths)
            ])
            ref_ids = np.concatenate([
                np.asarray(c, dtype=np.int64) for c in candidate_sets
            ])
            if self._sharded is not None:
                # Fan the flat pair list out across the KB shards; the
                # gather is positional, so scores match the unsharded call.
                flat = self._sharded.score_pairs_flat(
                    h_qry, mention_ids, ref_ids, x_query=x_qry
                )
            else:
                flat = model.score_pairs(
                    h_qry,
                    mention_ids,
                    self._h_ref,
                    ref_ids,
                    x_query=x_qry,
                    x_ref=self._x_ref,
                ).data
        bounds = np.cumsum([0] + lengths)
        return [flat[bounds[j] : bounds[j + 1]] for j in range(len(lengths))]
