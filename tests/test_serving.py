"""Tests for the batched linking service (repro.serving).

Covers batch-vs-sequential result equivalence (the service must return
exactly what ``EDPipeline.disambiguate_snippet`` returns), the result
LRU cache (hits, context sensitivity, invalidation), the persisted
reference-embedding cache, the stats counters, and the vectorised
matcher fast paths the service relies on.
"""

import zlib

import numpy as np
import pytest

from repro.core import EDPipeline, ModelConfig, TrainConfig, make_matcher
from repro.autograd import Tensor
from repro.datasets import load_dataset
from repro.serving import LinkingService, LRUCache, ServiceConfig, ServiceStats
from repro.serving.stats import LATENCY_WINDOW
from repro.storage import StorageConfig
from repro.storage.bundle import ordered_parameters, weights_crc
from repro.text.corpus import Snippet

SCALE = 0.2


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


def assert_equivalent(service, pipeline, snippets, top_k=5, restrict=True):
    batched = service.link_batch(snippets, top_k=top_k, restrict_to_candidates=restrict)
    for snippet, batch_pred in zip(snippets, batched):
        seq_pred = pipeline.disambiguate_snippet(
            snippet, top_k=top_k, restrict_to_candidates=restrict
        )
        assert batch_pred.mention == seq_pred.mention
        assert batch_pred.ranked_entities == seq_pred.ranked_entities
        assert np.allclose(batch_pred.scores, seq_pred.scores, atol=1e-4)


class TestEquivalence:
    def test_link_batch_matches_sequential(self, pipeline, dataset):
        service = LinkingService(pipeline, ServiceConfig(max_batch_size=8, cache_size=0))
        assert_equivalent(service, pipeline, dataset.test)

    def test_unrestricted_candidates(self, pipeline, dataset):
        service = LinkingService(pipeline, ServiceConfig(max_batch_size=8, cache_size=0))
        assert_equivalent(service, pipeline, dataset.test[:6], restrict=False)

    def test_partial_final_microbatch(self, pipeline, dataset):
        # 7 snippets with batch size 4 -> a full chunk and a ragged one.
        service = LinkingService(pipeline, ServiceConfig(max_batch_size=4, cache_size=0))
        assert_equivalent(service, pipeline, dataset.test[:7])
        assert service.stats.batches == 2
        assert list(service.stats.batch_sizes) == [4, 3]

    def test_equivalence_with_cache_enabled(self, pipeline, dataset):
        service = LinkingService(pipeline, ServiceConfig(max_batch_size=8, cache_size=512))
        snippets = list(dataset.test) * 2  # replay forces cache hits
        assert_equivalent(service, pipeline, snippets)

    def test_non_union_batchable_encoder_falls_back(self, dataset):
        # MAGNN's inter-metapath attention is graph-global; the service
        # must embed per graph yet still match the sequential pipeline.
        pipe = EDPipeline(
            dataset.kb,
            model_config=ModelConfig(variant="magnn", num_layers=1, seed=0),
        )
        assert pipe.model.encoder.union_batchable is False
        service = LinkingService(pipe, ServiceConfig(max_batch_size=4, cache_size=0))
        assert_equivalent(service, pipe, dataset.test[:6])

    def test_link_texts_matches_snippet_path(self, pipeline):
        text = (
            "The patient presented with mild spinal hyperplasia, "
            "congenital cardiac cancer and primary dermal necrosis."
        )
        service = LinkingService(pipeline, ServiceConfig(cache_size=0))
        [prediction] = service.link_texts([text])
        sequential = pipeline.disambiguate(text, top_k=service.config.top_k)
        assert prediction.mention == sequential.mention
        assert prediction.ranked_entities == sequential.ranked_entities


class TestResultCache:
    def test_repeat_requests_hit(self, pipeline, dataset):
        service = LinkingService(pipeline, ServiceConfig(cache_size=512))
        first = service.link_batch(dataset.test)
        assert service.stats.cache_hits == 0
        second = service.link_batch(dataset.test)
        assert service.stats.cache_hits == len(dataset.test)
        assert service.stats.batches == pytest.approx(
            np.ceil(len(dataset.test) / service.config.max_batch_size)
        )
        for a, b in zip(first, second):
            assert a.ranked_entities == b.ranked_entities
            assert a.scores == b.scores

    def test_context_changes_miss(self, pipeline, dataset):
        # Same ambiguous mention, context stripped: scoring may differ, so
        # the cache must not serve the full-context entry.
        snippet = dataset.test[0]
        stripped = Snippet(
            text=snippet.ambiguous_mention.mention,
            mentions=[snippet.ambiguous_mention],
            ambiguous_index=0,
        )
        service = LinkingService(pipeline, ServiceConfig(cache_size=512))
        service.link_batch([snippet])
        service.link_batch([stripped])
        assert service.stats.cache_hits == 0
        assert service.stats.cache_misses == 2
        assert_equivalent(service, pipeline, [stripped])

    def test_intra_batch_duplicates_computed_once(self, pipeline, dataset):
        snippet = dataset.test[0]
        service = LinkingService(
            pipeline, ServiceConfig(max_batch_size=8, cache_size=512)
        )
        first, second, third = service.link_batch([snippet] * 3)
        assert service.stats.cache_hits == 2
        assert service.stats.cache_misses == 1
        assert list(service.stats.batch_sizes) == [1]  # duplicates never scored
        assert first.ranked_entities == second.ranked_entities == third.ranked_entities
        assert first.scores == second.scores == third.scores
        assert_equivalent(service, pipeline, [snippet])

    def test_cache_disabled(self, pipeline, dataset):
        service = LinkingService(pipeline, ServiceConfig(cache_size=0))
        service.link_batch(dataset.test[:3])
        service.link_batch(dataset.test[:3])
        assert service.stats.cache_hits == 0
        assert service.stats.cache_misses == 6

    def test_weight_change_invalidates(self, pipeline, dataset):
        service = LinkingService(pipeline, ServiceConfig(cache_size=512))
        service.link_batch(dataset.test[:4])
        before = service.fingerprint()

        param = pipeline.model.parameters()[0]
        original = param.data.copy()
        try:
            param.data = param.data + 0.25
            assert service.fingerprint() != before
            assert service.refresh() is True
            assert service.stats.ref_refreshes == 2
            # Cache was cleared: the same request recomputes.
            service.link_batch(dataset.test[:4])
            assert service.stats.cache_hits == 0
            assert_equivalent(service, pipeline, dataset.test[:4])
        finally:
            param.data = original
            pipeline.invalidate_ref_cache()

    def test_in_place_weight_update_invalidates(self, pipeline, dataset):
        # An optimizer step writes into the arrays the captured parameter
        # list points at; the dirty check must still see it.
        service = LinkingService(pipeline, ServiceConfig(cache_size=512))
        service.link_batch(dataset.test[:2])
        before = service.fingerprint()
        param = pipeline.model.parameters()[-1]
        original = param.data.copy()
        try:
            param.data -= 0.125
            assert service.fingerprint() != before
            service.link_batch(dataset.test[:2])
            assert service.stats.ref_refreshes == 2
            assert_equivalent(service, pipeline, dataset.test[:2])
        finally:
            param.data[...] = original
            pipeline.invalidate_ref_cache()

    def test_fingerprint_checksum_is_weights_crc(self, pipeline):
        # The cheap check must equal the persisted-cache checksum bit for
        # bit: both hash every parameter's C-order bytes in name order.
        service = LinkingService(pipeline, ServiceConfig(cache_size=0))
        expected = 0
        for _, param in sorted(pipeline.model.named_parameters()):
            expected = zlib.crc32(np.ascontiguousarray(param.data).tobytes(), expected)
        assert service.fingerprint()[0] == expected
        assert weights_crc(pipeline.model) == expected
        params = ordered_parameters(pipeline.model)
        assert weights_crc(pipeline.model, params) == expected

    def test_kb_edge_rewire_invalidates(self, dataset):
        # Edge mutations that keep node/edge counts plausible must still
        # flip the fingerprint (the KB version counter covers them).
        kb = dataset.kb.copy()
        pipe = EDPipeline(
            kb, model_config=ModelConfig(variant="graphsage", num_layers=1, seed=0)
        )
        service = LinkingService(pipe, ServiceConfig(cache_size=16))
        before = service.fingerprint()
        src, dst, et = kb.edges()
        kb.add_edge(int(dst[0]), int(src[0]), int(et[0]))
        assert service.fingerprint() != before
        assert service.refresh() is True

    def test_deferred_eviction_fallback_accounting(self, pipeline, dataset):
        # Capacity 1: the duplicate's entry is evicted before the deferred
        # loop runs, forcing a recompute that must count as a miss and a
        # recorded batch — not a phantom cache hit.
        a, b = dataset.test[0], dataset.test[1]
        service = LinkingService(
            pipeline, ServiceConfig(max_batch_size=8, cache_size=1)
        )
        results = service.link_batch([a, a, b])
        assert service.stats.cache_hits == 0
        assert service.stats.cache_misses == 3
        assert list(service.stats.batch_sizes) == [2, 1]
        assert results[0].ranked_entities == results[1].ranked_entities
        assert_equivalent(service, pipeline, [a, b])

    def test_refresh_noop_when_unchanged(self, pipeline):
        service = LinkingService(pipeline, ServiceConfig(cache_size=512))
        assert service.refresh() is False
        assert service.stats.ref_refreshes == 1


class TestRefEmbeddingPersistence:
    # The .npz persistence contract belongs to the memory embedding
    # store, so these pin storage explicitly (the kb-store CI axis
    # forces mmap via REPRO_KB_STORE, whose bundle persists h_ref
    # itself and ignores ref_cache_path).
    def test_ref_cache_roundtrip(self, pipeline, tmp_path, monkeypatch):
        path = str(tmp_path / "ref.npz")
        memory = StorageConfig(kb_store="memory")
        first = LinkingService(
            pipeline, ServiceConfig(ref_cache_path=path, storage=memory)
        )
        assert (tmp_path / "ref.npz").exists()

        # A second service must load the persisted embeddings instead of
        # recomputing them.
        def boom(self):
            raise AssertionError("ref embeddings recomputed despite a valid cache")

        monkeypatch.setattr(EDPipeline, "ref_embeddings", boom)
        second = LinkingService(
            pipeline, ServiceConfig(ref_cache_path=path, storage=memory)
        )
        assert np.array_equal(first._h_ref.data, second._h_ref.data)

    def test_stale_ref_cache_rejected(self, pipeline, tmp_path):
        path = str(tmp_path / "ref.npz")
        service = LinkingService(
            pipeline,
            ServiceConfig(
                ref_cache_path=path, storage=StorageConfig(kb_store="memory")
            ),
        )
        with np.load(path) as payload:
            h_ref = payload["h_ref"]
        np.savez(path, fingerprint=np.int64(12345), h_ref=np.zeros_like(h_ref))
        assert service.embedding_store.load(service.content_fingerprint()) is None


class TestStats:
    def test_counters(self, pipeline, dataset):
        service = LinkingService(
            pipeline, ServiceConfig(max_batch_size=4, cache_size=512)
        )
        service.link_batch(dataset.test[:6])
        stats = service.stats
        assert stats.requests == 1
        assert stats.mentions == 6
        assert stats.batches == 2
        assert stats.mean_batch_size == 3.0
        assert stats.max_batch_size == 4
        assert stats.compute_seconds > 0
        assert stats.mentions_per_second > 0
        payload = stats.to_dict()
        assert payload["cache_hit_rate"] == 0.0
        assert "mentions_per_second" in stats.format()
        stats.reset()
        assert stats.mentions == 0 and list(stats.batch_sizes) == []

    def test_batch_sizes_are_bounded_with_lifetime_aggregates(self):
        # A long-lived service records a batch per flush: the recent-size
        # window stays bounded while mean/max keep their lifetime meaning
        # (the largest batch lands first, so it is evicted from the window).
        stats = ServiceStats()
        sizes = [97] + [i % 7 + 1 for i in range(LATENCY_WINDOW + 9)]
        for size in sizes:
            stats.record_batch(size, 0.001)
        assert len(stats.batch_sizes) == LATENCY_WINDOW
        assert list(stats.batch_sizes) == sizes[-LATENCY_WINDOW:]
        assert stats.batches == len(sizes)
        assert stats.mean_batch_size == sum(sizes) / len(sizes)
        assert stats.max_batch_size == 97

    def test_hit_rate(self, pipeline, dataset):
        service = LinkingService(pipeline, ServiceConfig(cache_size=512))
        service.link_batch(dataset.test[:4])
        service.link_batch(dataset.test[:4])
        assert service.stats.cache_hit_rate == 0.5


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


class TestMatcherFastPaths:
    @pytest.mark.parametrize("name", ["dot", "mlp", "bilinear"])
    def test_one_vs_many_matches_forward(self, name):
        rng = np.random.default_rng(7)
        matcher = make_matcher(name, 16, rng)
        matcher.eval()
        query = rng.normal(size=16).astype(np.float32)
        candidates = rng.normal(size=(11, 16)).astype(np.float32)
        tiled = Tensor(np.repeat(query.reshape(1, -1), 11, axis=0))
        expected = matcher(tiled, Tensor(candidates)).data.reshape(-1)
        fast = matcher.one_vs_many(query, candidates)
        assert np.allclose(fast, expected, atol=1e-5)


class TestStagedPipelineAPI:
    def test_candidate_ids_fallbacks(self, pipeline):
        known = pipeline.index.known_surfaces()[0]
        candidates = pipeline.candidate_ids(known)
        assert list(candidates) == pipeline.index.lookup(known)
        everything = pipeline.candidate_ids("zzz unheard of", category=None)
        assert len(everything) == pipeline.kb.num_nodes

    def test_score_candidates_shape(self, pipeline, dataset):
        qg = pipeline.build_query_graph_for(dataset.test[0])
        candidates = pipeline.candidate_ids(qg.mention_surface)
        scores = pipeline.score_candidates(qg, candidates)
        assert scores.shape == (len(candidates),)
        prediction = pipeline.prediction_from_scores(
            qg.mention_surface, candidates, scores, top_k=3
        )
        assert len(prediction.ranked_entities) <= 3
        assert prediction.scores == sorted(prediction.scores, reverse=True)
