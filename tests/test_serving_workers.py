"""Tests for the process-based shard workers (repro.serving.workers).

Covers the picklable scorer recipe (a rebuilt matcher scores through the
shared ``pair_logits`` bit-identically to ``EDGNN.score_pairs``), backend
resolution (env default, platform
fallback), the worker pool's crash -> respawn-and-retry path with a real
SIGKILL mid-batch, warm-start distribution to live workers, and the
fake-clock drain contract of ``close()``.
"""

import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.core import EDPipeline, ModelConfig, TrainConfig
from repro.core.model import pair_logits
from repro.datasets import load_dataset
from repro.serving import ShardedKB, ShardWorkerError
from repro.serving.workers import (
    SHARD_BACKEND_ENV,
    ScoreJob,
    ScorerSpec,
    resolve_shard_backend,
)

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


@pytest.fixture()
def sharded(pipeline):
    backend = ShardedKB(pipeline, 2, backend="process")
    if backend.worker_pool is None:
        backend.close()
        pytest.skip("process shard backend unavailable on this platform")
    yield backend
    backend.close()


def scoring_inputs(pipeline, snippet):
    """Embed one snippet's query graph once and pair its mention node with
    every candidate: ``(h_query, query_ids, ref_ids, x_query)``."""
    qg = pipeline.build_query_graph_for(snippet)
    candidates = pipeline.candidate_ids(
        qg.mention_surface, category=snippet.ambiguous_mention.category
    )
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


def flat_scores(sharded, inputs):
    h_query, query_ids, ref_ids, x_query = inputs
    return sharded.score_pairs_flat(h_query, query_ids, ref_ids, x_query=x_query)


class TestBackendResolution:
    def test_thread_is_the_default(self, monkeypatch):
        monkeypatch.delenv(SHARD_BACKEND_ENV, raising=False)
        assert resolve_shard_backend() == "thread"
        assert resolve_shard_backend("process") == "process"

    def test_env_var_sets_the_default(self, monkeypatch):
        monkeypatch.setenv(SHARD_BACKEND_ENV, "process")
        assert resolve_shard_backend() == "process"
        # An explicit request always wins over the environment.
        assert resolve_shard_backend("thread") == "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown shard backend"):
            resolve_shard_backend("fibers")

    def test_falls_back_to_threads_when_platform_cannot_fork(self, monkeypatch):
        from repro.serving import workers

        monkeypatch.setattr(workers, "_mp_context", lambda: None)
        with pytest.warns(RuntimeWarning, match="falling back to threads"):
            assert resolve_shard_backend("process") == "thread"

    def test_sharded_kb_records_resolved_backend(self, pipeline):
        sharded = ShardedKB(pipeline, 2, backend="thread")
        assert sharded.backend == "thread"
        assert sharded.worker_pool is None
        assert "backend='thread'" in repr(sharded)
        sharded.close()


class TestScorerSpec:
    def test_pickle_round_trip_scores_bit_identical(self, pipeline, dataset):
        # A worker's matcher, rebuilt from the pickled spec, must score
        # through the shared pair_logits exactly as EDGNN.score_pairs does.
        spec = pickle.loads(pickle.dumps(ScorerSpec.from_model(pipeline.model)))
        matcher, lexical_scale = spec.build()
        h_query, query_ids, ref_ids, x_query = scoring_inputs(pipeline, dataset.test[0])
        expected = unsharded_scores(pipeline, h_query, query_ids, ref_ids, x_query)
        with no_grad():
            actual = pair_logits(
                matcher,
                lexical_scale,
                h_query,
                query_ids,
                Tensor(pipeline.ref_embeddings()),
                ref_ids,
                x_query=x_query,
                x_ref=Tensor(dataset.kb.features),
            ).data
        assert np.array_equal(expected, actual)

    def test_spec_snapshots_matcher_state(self, pipeline):
        spec = ScorerSpec.from_model(pipeline.model)
        assert spec.matcher_name == pipeline.model.config.matcher
        assert spec.lexical_skip == pipeline.model.config.lexical_skip
        for name, value in pipeline.model.matcher.state_dict().items():
            assert np.array_equal(spec.state[name], value)


class TestShardWorkerPool:
    def test_process_backend_scores_match_thread_backend(
        self, pipeline, dataset, sharded
    ):
        thread_backend = ShardedKB(pipeline, 2, backend="thread")
        try:
            for snippet in dataset.test[:3]:
                inputs = scoring_inputs(pipeline, snippet)
                assert np.array_equal(
                    flat_scores(thread_backend, inputs), flat_scores(sharded, inputs)
                )
        finally:
            thread_backend.close()

    def test_killed_worker_respawns_and_scores_correctly(
        self, pipeline, dataset, sharded
    ):
        # Crash recovery: SIGKILL one worker, then score — the pool must
        # respawn it from the retained payload, replay the in-flight
        # request, and return the exact same scores as before the crash.
        inputs = scoring_inputs(pipeline, dataset.test[0])
        before = flat_scores(sharded, inputs)
        pool = sharded.worker_pool
        victim = pool.processes[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        assert not victim.is_alive()
        after = flat_scores(sharded, inputs)
        assert np.array_equal(before, after)
        assert pool.respawns >= 1
        assert all(pool.alive())

    def test_worker_scoring_error_propagates_without_respawn(self, sharded):
        # A deterministic scoring failure (out-of-range shard-local ids)
        # is a bug, not a crash: it must surface as ShardWorkerError and
        # must NOT burn the respawn budget — the worker stays alive.
        pool = sharded.worker_pool
        shard = sharded.shards[0]
        bad = ScoreJob(
            shard_index=0,
            h_query=shard.h_ref[:1],
            query_ids=np.zeros(1, dtype=np.int64),
            ref_ids=np.array([shard.num_nodes + 7], dtype=np.int64),
        )
        with pytest.raises(ShardWorkerError, match="shard worker failed"):
            pool.score_many([bad])
        assert pool.respawns == 0
        assert all(pool.alive())
        good = ScoreJob(
            shard_index=0,
            h_query=shard.h_ref[:1],
            query_ids=np.zeros(2, dtype=np.int64),
            ref_ids=np.arange(2, dtype=np.int64),
        )
        assert pool.score_many([good])[0].shape == (2,)

    def test_error_in_fan_out_does_not_desync_other_workers(
        self, pipeline, dataset, sharded
    ):
        # One bad job in a multi-shard fan-out: the pool must still drain
        # the healthy workers' replies before raising, or the stale
        # replies would mismatch every later request's sequence number
        # and poison the pool for the rest of its life.
        pool = sharded.worker_pool
        shard = sharded.shards[0]
        jobs = [
            ScoreJob(
                shard_index=0,
                h_query=shard.h_ref[:1],
                query_ids=np.zeros(1, dtype=np.int64),
                ref_ids=np.array([shard.num_nodes + 7], dtype=np.int64),
            ),
            ScoreJob(
                shard_index=1,
                h_query=shard.h_ref[:1],
                query_ids=np.zeros(2, dtype=np.int64),
                ref_ids=np.arange(2, dtype=np.int64),
            ),
        ]
        with pytest.raises(ShardWorkerError, match="shard worker failed"):
            pool.score_many(jobs)
        # The pool stays request/reply-synchronized: full scoring through
        # the ShardedKB still matches the in-process path exactly.
        inputs = scoring_inputs(pipeline, dataset.test[0])
        assert np.array_equal(
            unsharded_scores(pipeline, *inputs), flat_scores(sharded, inputs)
        )
        assert all(pool.alive())

    def test_distribute_pushes_fresh_state_to_live_workers(
        self, pipeline, dataset, sharded
    ):
        # Warm-start refresh: perturb the weights, re-embed, distribute —
        # the live workers must score with the *new* embeddings and the
        # *new* matcher state, bit-identically to the in-process path.
        pids = [process.pid for process in sharded.worker_pool.processes]
        param = pipeline.model.parameters()[-1]
        original = param.data.copy()
        try:
            param.data = param.data + 0.25
            pipeline.invalidate_ref_cache()
            sharded.distribute(pipeline.ref_embeddings())
            # The query side is re-embedded under the perturbed weights too.
            inputs = scoring_inputs(pipeline, dataset.test[0])
            assert np.array_equal(
                unsharded_scores(pipeline, *inputs), flat_scores(sharded, inputs)
            )
            # Same long-lived workers, no restart.
            assert [p.pid for p in sharded.worker_pool.processes] == pids
        finally:
            param.data = original
            pipeline.invalidate_ref_cache()
            sharded.distribute(pipeline.ref_embeddings())

    def test_score_after_close_raises(self, pipeline):
        backend = ShardedKB(pipeline, 2, backend="process")
        pool = backend.worker_pool
        if pool is None:
            backend.close()
            pytest.skip("process shard backend unavailable")
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.score_many([])

    def test_distribute_validates_slice_count(self, sharded):
        with pytest.raises(ValueError):
            sharded.worker_pool.distribute(
                [sharded.shards[0].h_ref], ScorerSpec.from_model(sharded.pipeline.model)
            )


class FakeClock:
    """Monotonic fake clock advanced by ``step`` on every read."""

    def __init__(self, step: float = 0.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestCloseDrain:
    """Fake-clock tests of the close() drain contract: in-flight shard
    requests finish before the workers are stopped; a drain timeout on
    the injected clock bounds the wait."""

    def make_pool(self, pipeline, clock):
        sharded = ShardedKB(pipeline, 2, backend="process")
        pool = sharded.worker_pool
        if pool is None:
            sharded.close()
            pytest.skip("process shard backend unavailable")
        pool.clock = clock
        return sharded, pool

    def test_close_waits_for_in_flight_requests(self, pipeline):
        sharded, pool = self.make_pool(pipeline, FakeClock(step=0.0))
        pool._begin()  # simulate a fan-out another thread has in flight
        closed = threading.Event()

        def closer():
            pool.close()  # no timeout: must drain, however long it takes
            closed.set()

        thread = threading.Thread(target=closer)
        thread.start()
        try:
            assert not closed.wait(0.3)  # still draining
            with pytest.raises(RuntimeError):
                pool._begin()  # close() already rejects new requests
        finally:
            pool._end()  # the in-flight request lands
        thread.join(timeout=10.0)
        assert closed.is_set()
        assert pool.num_workers == 0
        sharded.close()

    def test_close_timeout_bounds_the_drain(self, pipeline):
        # The clock jumps 1s per read: a 5s drain budget expires after a
        # few waits even though the in-flight request never finishes.
        sharded, pool = self.make_pool(pipeline, FakeClock(step=1.0))
        pool._begin()
        t0 = time.monotonic()
        pool.close(timeout=5.0)
        assert time.monotonic() - t0 < 5.0  # fake seconds, not real ones
        assert pool.num_workers == 0  # workers stopped despite no drain
        pool._end()
        sharded.close()
