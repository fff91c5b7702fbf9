"""Tests for work-conserving async serving and KB sharding.

The scheduler's queue (:class:`MicroBatcher`) reads no clock, so its pop
order is exercised without threads or wall-clock sleeps.  The shard
equivalence property (sequential == 1-shard == N-shard predictions on a
seeded dataset, for both the thread and process execution backends) and
the async service's end-to-end contract run against a tiny trained
pipeline.

The CI shard matrix forces the backend and shard count via
``REPRO_SHARD_BACKEND`` / ``REPRO_TEST_SHARDS``: tests that build a
sharded service without naming a backend inherit the forced one through
the ``ServiceConfig`` default, and ``env_shards`` swaps the forced shard
count into the tests that would otherwise hardcode one.
"""

import os
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, no_grad
from repro.core import EDPipeline, ModelConfig, TrainConfig
from repro.datasets import load_dataset
from repro.graph.batch import batch_graphs
from repro.serving import (
    AdmissionConfig,
    AsyncLinkingService,
    LinkingService,
    MicroBatcher,
    QueuedRequest,
    ServiceConfig,
    ShardedKB,
)

SCALE = 0.2


def env_shards(default: int) -> int:
    """Shard count for sharded-service tests: the CI matrix's
    ``REPRO_TEST_SHARDS`` when set, else ``default``."""
    return int(os.environ.get("REPRO_TEST_SHARDS", "0") or 0) or default


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("NCBI", scale=SCALE)


@pytest.fixture(scope="module")
def pipeline(dataset):
    pipe = EDPipeline(
        dataset.kb,
        model_config=ModelConfig(variant="graphsage", num_layers=2, seed=0),
        train_config=TrainConfig(epochs=2, patience=5, seed=0),
    )
    pipe.fit(dataset.train, dataset.val, dataset.test)
    return pipe


@pytest.fixture(scope="module")
def sequential(pipeline, dataset):
    return [pipeline.disambiguate_snippet(s) for s in dataset.test]


def embedded_pairs(pipeline, qg, candidates):
    """Embed one query graph once and pair its mention node with every
    candidate: the ``(h_query, query_ids, ref_ids, x_query)`` arguments
    both ``model.score_pairs`` and ``ShardedKB.score_pairs_flat`` take."""
    model = pipeline.model
    model.eval()
    with no_grad():
        x_query = Tensor(qg.graph.features)
        h_query = model.embed(model.compile(qg.graph), x_query)
    ref_ids = np.asarray(candidates, dtype=np.int64)
    query_ids = np.full(len(ref_ids), qg.mention_node, dtype=np.int64)
    return h_query, query_ids, ref_ids, x_query


def unsharded_scores(pipeline, h_query, query_ids, ref_ids, x_query):
    """The reference: ``model.score_pairs`` against the whole KB."""
    with no_grad():
        return pipeline.model.score_pairs(
            h_query,
            query_ids,
            Tensor(pipeline.ref_embeddings()),
            ref_ids,
            x_query=x_query,
            x_ref=Tensor(pipeline.kb.features),
        ).data


def request_at(now: float, payload=None, priority: str = "normal") -> QueuedRequest:
    return QueuedRequest(payload, enqueued_at=now, priority=priority)


def assert_predictions_match(expected, actual, atol=1e-4):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert a.mention == b.mention
        assert a.ranked_entities == b.ranked_entities
        assert np.allclose(a.scores, b.scores, atol=atol)


class TestDeadlineBatcher:
    """Unit tests of the work-conserving pop policy of
    :class:`MicroBatcher` (no threads, no clock, no sleeps).  The class
    keeps the batcher's former name so the test ids stay stable."""

    def test_validates_config(self):
        with pytest.raises(ValueError):
            MicroBatcher(0)
        with pytest.raises(ValueError):
            MicroBatcher(-1)

    def test_idle_queue_never_flushes(self):
        batcher = MicroBatcher(4)
        assert batcher.poll() == []
        batcher.add(request_at(0.0))
        assert len(batcher.poll()) == 1
        assert batcher.poll() == []  # emptied again: nothing to pop
        assert len(batcher) == 0

    def test_full_batch_flushes_immediately(self):
        batcher = MicroBatcher(4)
        for i in range(4):
            batcher.add(request_at(0.0, payload=i))
        batch = batcher.poll()
        assert [r.snippet for r in batch] == [0, 1, 2, 3]
        assert len(batcher) == 0

    def test_partial_batch_pops_at_once(self):
        batcher = MicroBatcher(4)
        batcher.add(request_at(0.0, payload="a"))
        batcher.add(request_at(0.01, payload="b"))
        # Two of four slots filled, no time passed: both run now.
        assert [r.snippet for r in batcher.poll()] == ["a", "b"]
        assert len(batcher) == 0

    def test_backlog_pops_in_full_batches_in_priority_order(self):
        batcher = MicroBatcher(3)
        arrivals = [
            ("l1", "low"), ("n1", "normal"), ("h1", "high"), ("n2", "normal"),
            ("l2", "low"), ("h2", "high"), ("n3", "normal"),
        ]
        for i, (payload, priority) in enumerate(arrivals):
            batcher.add(request_at(i * 0.001, payload, priority))
        batches = []
        while len(batcher):
            batches.append([r.snippet for r in batcher.poll()])
        assert batches == [["h1", "h2", "n1"], ["n2", "n3", "l1"], ["l2"]]

    def test_deadline_flush_caps_at_max_batch_size(self):
        batcher = MicroBatcher(2)
        for i in range(5):
            batcher.add(request_at(0.0, payload=i))
        first = batcher.poll()
        assert [r.snippet for r in first] == [0, 1]  # FIFO, capped
        assert len(batcher) == 3

    def test_no_fixed_size_stall_at_low_traffic(self):
        # One lonely request is served at once: the scheduler never waits
        # for a full batch, nor for a deadline to pass.
        batcher = MicroBatcher(32)
        batcher.add(request_at(0.0, payload="lonely"))
        assert [r.snippet for r in batcher.poll()] == ["lonely"]


class TestShardedKB:
    def test_partition_covers_kb(self, pipeline, dataset):
        sharded = ShardedKB(pipeline, 3)
        ids = np.sort(np.concatenate([s.node_ids for s in sharded.shards]))
        assert np.array_equal(ids, np.arange(dataset.kb.num_nodes))
        for shard in sharded.shards:
            assert np.all(shard.node_ids % 3 == shard.index)
            assert dataset.kb.subgraph(shard.node_ids).num_nodes == len(shard.node_ids)
            assert shard.h_ref.shape[0] == shard.x_ref.shape[0] == len(shard.node_ids)
        sharded.close()

    def test_routing_arithmetic(self, pipeline):
        sharded = ShardedKB(pipeline, 3)
        for cand in (0, 1, 5, 17):
            owner = sharded.shard_of(cand)
            local = sharded.local_id(cand)
            assert sharded.shards[owner].node_ids[local] == cand
        sharded.close()

    def test_views_reassemble_via_splice(self, pipeline, dataset):
        # Subgraphs over the shards' node ids; batch_graphs splices them
        # back into one disjoint union covering every KB node and all
        # shard-internal edges.
        sharded = ShardedKB(pipeline, 4)
        views = [dataset.kb.subgraph(s.node_ids) for s in sharded.shards]
        union, offsets = batch_graphs(views)
        assert union.num_nodes == dataset.kb.num_nodes
        assert offsets == list(np.cumsum([0] + [v.num_nodes for v in views[:-1]]))
        names = {union.node_name(offsets[i] + j)
                 for i, v in enumerate(views) for j in range(v.num_nodes)}
        assert names == set(dataset.kb.node_names)
        sharded.close()

    def test_subgraph_keeps_internal_edges_only(self, dataset):
        kb = dataset.kb
        ids = np.arange(0, kb.num_nodes, 2)
        view = kb.subgraph(ids)
        src, dst, et = kb.edges()
        internal = np.sum(np.isin(src, ids) & np.isin(dst, ids))
        assert view.num_edges == internal
        for local, global_id in enumerate(ids[:10]):
            assert view.node_name(int(local)) == kb.node_name(int(global_id))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5])
    def test_scores_identical_to_unsharded(self, pipeline, dataset, num_shards, backend):
        # The shard-equivalence property: per-pair scoring makes any
        # partition merge back to the exact unsharded score vector —
        # whether the shards score on threads or in worker processes.
        sharded = ShardedKB(pipeline, num_shards, backend=backend)
        for snippet in dataset.test[:4]:
            qg = pipeline.build_query_graph_for(snippet)
            candidates = pipeline.candidate_ids(
                qg.mention_surface, category=snippet.ambiguous_mention.category
            )
            h_query, query_ids, ref_ids, x_query = embedded_pairs(pipeline, qg, candidates)
            expected = unsharded_scores(pipeline, h_query, query_ids, ref_ids, x_query)
            actual = sharded.score_pairs_flat(h_query, query_ids, ref_ids, x_query=x_query)
            assert np.array_equal(expected, actual)
            # The staged pipeline API is the same math.
            assert np.array_equal(expected, pipeline.score_candidates(qg, candidates))
        sharded.close()

    def test_distribute_refreshes_embeddings(self, pipeline):
        sharded = ShardedKB(pipeline, 2)
        fresh = pipeline.ref_embeddings() + 1.0
        sharded.distribute(fresh)
        for shard in sharded.shards:
            assert np.array_equal(shard.h_ref, fresh[shard.node_ids])
        with pytest.raises(ValueError):
            sharded.distribute(fresh[:-1])
        sharded.close()

    def test_invalid_shard_count_rejected(self, pipeline):
        with pytest.raises(ValueError):
            ShardedKB(pipeline, 0)
        with pytest.raises(ValueError):
            ServiceConfig(num_shards=0)


@pytest.fixture(scope="module")
def query_union(pipeline, dataset):
    """Several test query graphs embedded as one disjoint union: a query
    matrix with many distinct rows for pair lists to draw from."""
    graphs = [pipeline.build_query_graph_for(s).graph for s in dataset.test[:4]]
    union, _ = batch_graphs(graphs)
    model = pipeline.model
    model.eval()
    with no_grad():
        x_query = Tensor(union.features)
        h_query = model.embed(model.compile(union), x_query)
    return h_query, x_query


@pytest.fixture(scope="module")
def sharded_by_count(pipeline):
    """One ``ShardedKB`` per shard count 1-5 on the environment's default
    backend (the CI shard matrix forces threads or processes)."""
    backends = {n: ShardedKB(pipeline, n) for n in range(1, 6)}
    yield backends
    for backend in backends.values():
        backend.close()


class TestShardedScoringProperty:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_flat_scores_equal_unsharded(
        self, pipeline, query_union, sharded_by_count, data
    ):
        # Any aligned pair list — repeated query rows and KB ids, the empty
        # list, shards that own no pair — scores bit-identically to the
        # unsharded model.score_pairs call.
        h_query, x_query = query_union
        num_shards = data.draw(st.integers(1, 5), label="num_shards")
        num_rows = h_query.data.shape[0]
        num_nodes = pipeline.kb.num_nodes
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, num_rows - 1), st.integers(0, num_nodes - 1)),
                max_size=48,
            ),
            label="pairs",
        )
        if data.draw(st.booleans(), label="one_owner"):
            # Route every pair to shard 0, leaving the others idle.
            pairs = [(q, r - r % num_shards) for q, r in pairs]
        query_ids = np.array([q for q, _ in pairs], dtype=np.int64)
        ref_ids = np.array([r for _, r in pairs], dtype=np.int64)
        expected = unsharded_scores(pipeline, h_query, query_ids, ref_ids, x_query)
        actual = sharded_by_count[num_shards].score_pairs_flat(
            h_query, query_ids, ref_ids, x_query=x_query
        )
        assert np.array_equal(expected, actual)


class TestShardedService:
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_sequential_one_shard_n_shard_identical(
        self, pipeline, dataset, sequential, num_shards
    ):
        service = LinkingService(
            pipeline,
            ServiceConfig(max_batch_size=8, cache_size=0, num_shards=num_shards),
        )
        try:
            predictions = service.link_batch(dataset.test)
            assert_predictions_match(sequential, predictions)
            if num_shards > 1:
                assert service.sharded is not None
                assert service.sharded.num_shards == num_shards
            else:
                assert service.sharded is None
        finally:
            service.close()

    def test_sharded_matches_unsharded_bitwise(self, pipeline, dataset):
        unsharded = LinkingService(
            pipeline, ServiceConfig(max_batch_size=8, cache_size=0)
        )
        sharded = LinkingService(
            pipeline,
            ServiceConfig(max_batch_size=8, cache_size=0, num_shards=env_shards(3)),
        )
        try:
            for a, b in zip(
                unsharded.link_batch(dataset.test), sharded.link_batch(dataset.test)
            ):
                assert a.ranked_entities == b.ranked_entities
                assert a.scores == b.scores  # exact, not allclose
        finally:
            unsharded.close()
            sharded.close()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_backend_property_identical_to_sequential(
        self, pipeline, dataset, sequential, num_shards, backend
    ):
        # The acceptance property of the process backend: over 1/2/4
        # shards and both execution backends, the sharded service matches
        # EDPipeline.disambiguate_snippet (rankings exact, scores to
        # float tolerance) and is bit-identical to the unsharded service
        # (both sides of the comparison share the batched forward).
        unsharded = LinkingService(
            pipeline, ServiceConfig(max_batch_size=8, cache_size=0)
        )
        service = LinkingService(
            pipeline,
            ServiceConfig(
                max_batch_size=8,
                cache_size=0,
                num_shards=num_shards,
                shard_backend=backend,
            ),
        )
        try:
            predictions = service.link_batch(dataset.test)
            assert_predictions_match(sequential, predictions)
            for a, b in zip(unsharded.link_batch(dataset.test), predictions):
                assert a.ranked_entities == b.ranked_entities
                assert a.scores == b.scores  # bitwise across backends
        finally:
            unsharded.close()
            service.close()

    def test_weight_refresh_redistributes(self, pipeline, dataset):
        service = LinkingService(
            pipeline, ServiceConfig(cache_size=16, num_shards=env_shards(2))
        )
        try:
            service.link_batch(dataset.test[:2])
            backend = service.sharded
            param = pipeline.model.parameters()[0]
            original = param.data.copy()
            try:
                param.data = param.data + 0.125
                assert service.refresh() is True
                # Same ShardedKB object (views reused), fresh embeddings.
                assert service.sharded is backend
                expected = pipeline.ref_embeddings()
                for shard in backend.shards:
                    assert np.array_equal(shard.h_ref, expected[shard.node_ids])
                assert_predictions_match(
                    [pipeline.disambiguate_snippet(s) for s in dataset.test[:2]],
                    service.link_batch(dataset.test[:2]),
                )
            finally:
                param.data = original
                pipeline.invalidate_ref_cache()
        finally:
            service.close()


class TestAsyncLinkingService:
    def test_link_batch_matches_sequential(self, pipeline, dataset, sequential):
        with AsyncLinkingService(
            pipeline,
            ServiceConfig(max_batch_size=8, cache_size=0),
            admission=AdmissionConfig(max_wait_ms=20.0),
        ) as service:
            assert_predictions_match(sequential, service.link_batch(dataset.test))

    def test_sharded_async_matches_sequential(self, pipeline, dataset, sequential):
        inner = LinkingService(
            pipeline,
            ServiceConfig(max_batch_size=8, cache_size=0, num_shards=env_shards(2)),
        )
        with AsyncLinkingService(inner, admission=AdmissionConfig(max_wait_ms=20.0)) as service:
            assert_predictions_match(sequential, service.link_batch(dataset.test))

    def test_submit_returns_future(self, pipeline, dataset):
        with AsyncLinkingService(pipeline, admission=AdmissionConfig(max_wait_ms=10.0)) as service:
            future = service.submit(dataset.test[0])
            assert isinstance(future, Future)
            prediction = future.result(timeout=30.0)
            expected = pipeline.disambiguate_snippet(dataset.test[0])
            assert prediction.ranked_entities == expected.ranked_entities

    def test_latency_stats_recorded(self, pipeline, dataset):
        with AsyncLinkingService(pipeline, admission=AdmissionConfig(max_wait_ms=10.0)) as service:
            service.link_batch(dataset.test[:5])
            stats = service.stats
            assert len(stats.latencies_ms) == 5
            assert len(stats.queue_waits_ms) == 5
            assert stats.latency_count == 5
            assert stats.latency_ms_sum == pytest.approx(sum(stats.latencies_ms))
            assert stats.queue_wait_ms_sum == pytest.approx(sum(stats.queue_waits_ms))
            assert stats.latency_percentile(95) >= stats.latency_percentile(50) > 0
            payload = stats.to_dict()
            assert {"latency_p50_ms", "latency_p95_ms", "queue_wait_p95_ms"} <= set(payload)
            stats.reset()
            assert len(stats.latencies_ms) == 0
            assert stats.latency_count == 0
            assert stats.latency_ms_sum == stats.queue_wait_ms_sum == 0.0
            assert stats.to_dict().get("latency_p50_ms") is None

    def test_link_stream_preserves_order(self, pipeline, dataset, sequential):
        with AsyncLinkingService(
            pipeline,
            ServiceConfig(max_batch_size=4, cache_size=0),
            admission=AdmissionConfig(max_wait_ms=10.0),
        ) as service:
            streamed = list(service.link_stream(iter(dataset.test)))
        assert_predictions_match(sequential, streamed)

    def test_submit_after_close_raises(self, pipeline, dataset):
        service = AsyncLinkingService(pipeline, admission=AdmissionConfig(max_wait_ms=10.0))
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(dataset.test[0])
        service.close()  # idempotent

    def test_close_drains_pending(self, pipeline, dataset, stalled_async_service):
        # Nothing runs before close(): close() must still flush the
        # queued requests instead of abandoning their futures.
        service = stalled_async_service(pipeline)
        futures = [service.submit(s) for s in dataset.test[:3]]
        service.close()
        for future, snippet in zip(futures, dataset.test[:3]):
            expected = pipeline.disambiguate_snippet(snippet)
            assert future.result(timeout=1.0).ranked_entities == expected.ranked_entities

    def test_lone_submit_does_not_wait_out_the_deadline(self, pipeline, dataset):
        # Work-conserving dispatch: an idle worker runs a lone request at
        # once; max_wait_ms is a queue-wait budget, not a batching timer.
        with AsyncLinkingService(
            pipeline, admission=AdmissionConfig(max_wait_ms=60_000.0)
        ) as service:
            service.service.link_batch(dataset.test[:1])  # warm lazy paths
            prediction = service.submit(dataset.test[1]).result(timeout=1.0)
        expected = pipeline.disambiguate_snippet(dataset.test[1])
        assert prediction.ranked_entities == expected.ranked_entities

    def test_link_batch_is_one_micro_batch(self, pipeline, dataset):
        # submit_many queues all items under one lock hold, so an idle
        # worker pops them together rather than one by one.
        with AsyncLinkingService(
            pipeline, ServiceConfig(max_batch_size=32, cache_size=0)
        ) as service:
            predictions = service.link_batch(dataset.test[:10])
            assert list(service.stats.batch_sizes) == [10]
        assert_predictions_match(
            [pipeline.disambiguate_snippet(s) for s in dataset.test[:10]], predictions
        )

    def test_negative_deadline_rejected(self, pipeline):
        inner = LinkingService(pipeline, ServiceConfig(cache_size=0))
        with pytest.raises(ValueError, match="max_wait_ms"):
            AsyncLinkingService(inner, admission=AdmissionConfig(max_wait_ms=-1.0))
        inner.close()

    def test_rejects_config_with_prebuilt_service(self, pipeline):
        inner = LinkingService(pipeline, ServiceConfig(cache_size=0))
        with pytest.raises(ValueError):
            AsyncLinkingService(inner, ServiceConfig())
        inner.close()

    def test_cancelled_future_is_skipped(self, pipeline, dataset, stalled_async_service):
        # Cancelling a queued future must not kill the worker: the rest
        # of the batch still resolves.
        service = stalled_async_service(pipeline)
        first = service.submit(dataset.test[0])
        second = service.submit(dataset.test[1])
        assert first.cancel()
        service.close()  # drains the queue through the worker
        assert first.cancelled()
        expected = pipeline.disambiguate_snippet(dataset.test[1])
        assert second.result(timeout=1.0).ranked_entities == expected.ranked_entities

    def test_no_grad_is_thread_local(self):
        # Shard workers toggle inference mode concurrently; one thread's
        # no_grad must neither leak into nor be clobbered by another's.
        import threading

        from repro.autograd import is_grad_enabled, no_grad

        seen = {}

        def worker():
            seen["before"] = is_grad_enabled()
            with no_grad():
                seen["inside"] = is_grad_enabled()

        with no_grad():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert is_grad_enabled() is False
        assert seen == {"before": True, "inside": False}
        assert is_grad_enabled() is True

    def test_failing_batch_propagates_exception(self, pipeline, dataset, monkeypatch):
        service = AsyncLinkingService(pipeline, admission=AdmissionConfig(max_wait_ms=5.0))
        try:
            def boom(snippets, **kwargs):
                raise RuntimeError("backend down")

            monkeypatch.setattr(service.service, "link_batch", boom)
            future = service.submit(dataset.test[0])
            with pytest.raises(RuntimeError, match="backend down"):
                future.result(timeout=30.0)
        finally:
            monkeypatch.undo()
            service.close()
