"""Tests for admission control, load shedding, and the adaptive tuner.

The policy objects (:class:`AdmissionController`, :class:`AdaptiveTuner`)
are exercised with fake clocks and synthetic observations — no sleeps.
The configuration surface is checked end to end: strict validation,
the ``REPRO_ADMISSION`` env default, the exact round trip through
``ServiceConfig`` / ``LinkerConfig`` JSON, and Python-API / env / CLI
parity.  Shed paths run against a tiny trained pipeline with a stalled
worker (one that runs nothing until close) so queue depth is deterministic,
and the HTTP 429 contract (``Retry-After``, structured body, the typed
client exception and its bounded-retry helper) runs against a real
server on an ephemeral port.
"""

import dataclasses
import http.client
import json
import sys
import threading

import pytest

from repro.api import Linker, LinkerConfig
from repro.core import EDPipeline, ModelConfig, TrainConfig
from repro.datasets import load_dataset
from repro.serving import (
    AdaptiveTuner,
    AdmissionConfig,
    AdmissionController,
    AdmissionError,
    AsyncLinkingService,
    ErrorResponse,
    HttpConfig,
    LinkerClient,
    LinkerClientError,
    LinkerOverloadedError,
    LinkingHTTPServer,
    LinkingService,
    LinkItem,
    LinkRequest,
    MicroBatcher,
    QueuedRequest,
    ServiceConfig,
    WireError,
    retry_overloaded,
)
from repro.serving.admission import PRIORITY_HEADROOM

SCALE = 0.2

SNIPPET_TEXT = (
    "The patient presented with mild spinal hyperplasia, congenital "
    "cardiac cancer and primary dermal necrosis."
)


# ---------------------------------------------------------------------------
# AdmissionConfig: validation, env default, config round trips
# ---------------------------------------------------------------------------
class TestAdmissionConfig:
    def test_defaults(self):
        config = AdmissionConfig()
        assert config.shed_policy == "none"
        assert config.max_queue == 256
        assert not config.adaptive

    def test_validation(self):
        with pytest.raises(ValueError, match="shed_policy"):
            AdmissionConfig(shed_policy="drop")
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionConfig(max_queue=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            AdmissionConfig(max_wait_ms=-1.0)
        with pytest.raises(ValueError, match="tuner_window"):
            AdmissionConfig(tuner_window=1)
        with pytest.raises(ValueError, match="tuner_interval_ms"):
            AdmissionConfig(tuner_interval_ms=0.0)
        with pytest.raises(ValueError, match="min_deadline_ms"):
            AdmissionConfig(min_deadline_ms=0.0)
        with pytest.raises(ValueError, match="max_deadline_ms"):
            AdmissionConfig(min_deadline_ms=50.0, max_deadline_ms=10.0)
        with pytest.raises(ValueError, match="min_batch_size"):
            AdmissionConfig(min_batch_size=0)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADMISSION", "wait")
        assert AdmissionConfig().shed_policy == "wait"
        assert ServiceConfig().admission.shed_policy == "wait"
        monkeypatch.setenv("REPRO_ADMISSION", "waiiit")
        with pytest.raises(ValueError, match="shed_policy"):
            AdmissionConfig()

    def test_explicit_policy_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADMISSION", "wait")
        assert AdmissionConfig(shed_policy="depth").shed_policy == "depth"

    def test_service_config_coerces_dict(self):
        config = ServiceConfig(admission={"shed_policy": "depth", "max_queue": 8})
        assert config.admission == AdmissionConfig(shed_policy="depth", max_queue=8)

    def test_service_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="admission"):
            ServiceConfig(admission={"shed_policy": "depth", "queue": 8})

    def test_service_config_rejects_non_dict(self):
        with pytest.raises(ValueError, match="admission"):
            ServiceConfig(admission="depth")

    def test_linker_config_json_round_trip(self):
        config = LinkerConfig(
            service=ServiceConfig(
                admission=AdmissionConfig(
                    shed_policy="wait",
                    max_queue=16,
                    max_wait_ms=40.0,
                    adaptive=True,
                    target_p95_ms=30.0,
                )
            )
        )
        loaded = LinkerConfig.from_json(config.to_json())
        # TrainConfig's curriculum object has no __eq__, so compare the
        # section the test is about: the service config (admission
        # included) must survive the round trip exactly.
        assert loaded.service == config.service
        assert loaded.service.admission.shed_policy == "wait"
        payload = json.loads(config.to_json())
        assert payload["service"]["admission"]["max_queue"] == 16

    def test_linker_config_rejects_bad_admission_section(self):
        payload = json.loads(LinkerConfig().to_json())
        payload["service"]["admission"]["shed_policy"] = "nope"
        with pytest.raises(ValueError, match="shed_policy"):
            LinkerConfig.from_json(json.dumps(payload))
        payload["service"]["admission"] = {"max_q": 3}
        with pytest.raises(ValueError, match="admission"):
            LinkerConfig.from_json(json.dumps(payload))


# ---------------------------------------------------------------------------
# AdmissionController: pure shed-or-admit policy (no clock, no threads)
# ---------------------------------------------------------------------------
class TestAdmissionController:
    def test_disabled_policy_always_admits(self):
        controller = AdmissionController(AdmissionConfig(), deadline_ms=25.0)
        assert not controller.enabled
        assert controller.check("low", 10_000) is None

    def test_depth_shed_respects_priority_headroom(self):
        config = AdmissionConfig(shed_policy="depth", max_queue=10)
        controller = AdmissionController(config, deadline_ms=25.0)
        assert controller.depth_budget("high") == 10
        assert controller.depth_budget("normal") == 8
        assert controller.depth_budget("low") == 5
        # At depth 8: low and normal shed, high still admits.
        assert controller.check("low", 8) is not None
        assert controller.check("normal", 8) is not None
        assert controller.check("high", 8) is None
        shed = controller.check("normal", 8)
        assert shed.reason == "queue_depth"
        assert shed.priority == "normal"
        # The bound itself sheds even the highest class.
        assert controller.check("high", 10) is not None

    def test_depth_budget_never_below_one(self):
        config = AdmissionConfig(shed_policy="depth", max_queue=1)
        controller = AdmissionController(config, deadline_ms=25.0)
        for priority in PRIORITY_HEADROOM:
            assert controller.depth_budget(priority) == 1

    def test_ewma_drain_model(self):
        controller = AdmissionController(
            AdmissionConfig(shed_policy="wait"), deadline_ms=25.0
        )
        assert controller.estimated_wait_ms(100) == 0.0  # no data yet
        controller.observe_batch(4, 0.02)  # 5 ms / request
        assert controller.estimated_wait_ms(4) == pytest.approx(20.0)
        controller.observe_batch(4, 0.06)  # 15 ms/req -> EWMA moves by alpha
        assert controller.estimated_wait_ms(1) == pytest.approx(7.0)

    def test_wait_shed_and_retry_after(self):
        config = AdmissionConfig(shed_policy="wait", max_queue=1000, max_wait_ms=20.0)
        controller = AdmissionController(config, deadline_ms=25.0)
        assert controller.wait_budget_ms == 20.0
        controller.observe_batch(1, 0.005)  # 5 ms / request
        assert controller.check("high", 3) is None  # est 20ms == budget
        shed = controller.check("high", 4)  # est 25ms > 20ms
        assert shed is not None and shed.reason == "estimated_wait"
        assert shed.retry_after_ms == pytest.approx(20.0)  # floored at budget
        deep = controller.check("high", 100)
        assert deep.retry_after_ms == pytest.approx(500.0)  # drain estimate
        # Normal sees a scaled budget: 20 * 0.8 = 16ms -> sheds at depth 3.
        assert controller.check("normal", 3) is not None

    def test_wait_budget_defaults_to_deadline(self):
        controller = AdmissionController(
            AdmissionConfig(shed_policy="wait"), deadline_ms=25.0
        )
        assert controller.wait_budget_ms == 25.0


# ---------------------------------------------------------------------------
# AdaptiveTuner: AIMD with a fake clock
# ---------------------------------------------------------------------------
class TestAdaptiveTuner:
    CONFIG = AdmissionConfig(
        shed_policy="depth",
        adaptive=True,
        tuner_window=8,
        tuner_interval_ms=100.0,
        min_deadline_ms=5.0,
        max_deadline_ms=100.0,
        min_batch_size=2,
    )

    def make(self, deadline_ms=40.0, batch=16):
        return AdaptiveTuner(self.CONFIG, deadline_ms, batch)

    def fill(self, tuner, wait_ms, now, n=8):
        changed = False
        for _ in range(n):
            changed |= tuner.observe(wait_ms, now)
        return changed

    def test_backoff_when_p95_over_target(self):
        tuner = self.make()
        assert tuner.target_ms == 40.0
        assert self.fill(tuner, 80.0, now=1.0)
        assert tuner.deadline_ms == 20.0  # multiplicative halving
        assert tuner.batch_size == 8
        assert tuner.adjustments == 1

    def test_recovery_when_p95_under_half_target(self):
        tuner = self.make()
        assert self.fill(tuner, 5.0, now=1.0)
        assert tuner.deadline_ms == 41.0  # additive +1ms
        assert tuner.batch_size == 16  # already at the ceiling

    def test_stable_band_holds_policy(self):
        tuner = self.make()
        assert not self.fill(tuner, 30.0, now=1.0)  # between 0.5x and 1x target
        assert tuner.deadline_ms == 40.0
        assert tuner.adjustments == 0

    def test_interval_gates_adjustments(self):
        tuner = self.make()
        assert self.fill(tuner, 80.0, now=1.0)
        # Window was cleared; refill within the 100ms interval: no change.
        assert not self.fill(tuner, 80.0, now=1.05)
        assert tuner.deadline_ms == 20.0
        # Past the interval the next backoff lands.
        assert tuner.maybe_adjust(now=1.2)
        assert tuner.deadline_ms == 10.0

    def test_converges_to_floor_and_never_below(self):
        tuner = self.make()
        now = 0.0
        for _ in range(20):  # sustained overload
            now += 1.0
            self.fill(tuner, 500.0, now=now)
        assert tuner.deadline_ms == self.CONFIG.min_deadline_ms
        assert tuner.batch_size == self.CONFIG.min_batch_size

    def test_recovers_to_ceiling_and_never_above(self):
        tuner = self.make(deadline_ms=40.0, batch=4)
        now = 0.0
        for _ in range(200):  # sustained idle after the load spike
            now += 1.0
            self.fill(tuner, 1.0, now=now)
        assert tuner.deadline_ms == self.CONFIG.max_deadline_ms
        assert tuner.batch_size == 4  # ceiling is the configured max batch

    def test_step_load_then_recovery(self):
        tuner = self.make()
        now = 1.0
        self.fill(tuner, 200.0, now=now)  # spike: back off
        backed_off = tuner.deadline_ms
        assert backed_off < 40.0
        # Calm traffic recovers additively (the first calm round may eat
        # one more backoff from spike samples still in the window).
        for _ in range(15):
            now += 1.0
            self.fill(tuner, 2.0, now=now)
        assert backed_off < tuner.deadline_ms <= self.CONFIG.max_deadline_ms

    def test_deadline_clamped_into_bounds_at_construction(self):
        tuner = AdaptiveTuner(self.CONFIG, deadline_ms=1000.0, max_batch_size=16)
        assert tuner.deadline_ms == self.CONFIG.max_deadline_ms
        tuner = AdaptiveTuner(self.CONFIG, deadline_ms=1.0, max_batch_size=1)
        assert tuner.deadline_ms == self.CONFIG.min_deadline_ms
        assert tuner.batch_ceiling == self.CONFIG.min_batch_size


# ---------------------------------------------------------------------------
# MicroBatcher priority ordering (no clock)
# ---------------------------------------------------------------------------
class TestBatcherPriority:
    def request(self, now, payload, priority):
        return QueuedRequest(payload, enqueued_at=now, priority=priority)

    def test_batch_filled_in_priority_order(self):
        batcher = MicroBatcher(4)
        batcher.add(self.request(0.00, "n1", "normal"))
        batcher.add(self.request(0.01, "l1", "low"))
        batcher.add(self.request(0.02, "h1", "high"))
        batcher.add(self.request(0.03, "n2", "normal"))
        batch = batcher.poll()  # full batch
        assert [r.snippet for r in batch] == ["h1", "n1", "n2", "l1"]

    def test_low_priority_waits_out_a_backlog(self):
        batcher = MicroBatcher(2)
        batcher.add(self.request(0.00, "l1", "low"))
        for i in range(3):
            batcher.add(self.request(0.01, f"h{i}", "high"))
        assert [r.snippet for r in batcher.poll()] == ["h0", "h1"]
        assert [r.snippet for r in batcher.poll()] == ["h2", "l1"]

    def test_low_priority_rides_a_short_queue_at_once(self):
        batcher = MicroBatcher(8)
        batcher.add(self.request(0.00, "l1", "low"))
        batcher.add(self.request(1.00, "h1", "high"))
        # Below a full batch nothing waits: the low request runs in the
        # very next batch, behind the high one.
        assert [r.snippet for r in batcher.poll()] == ["h1", "l1"]


# ---------------------------------------------------------------------------
# Wire schema v2: priority + retry_after_ms
# ---------------------------------------------------------------------------
class TestWireV2:
    def test_priority_round_trip(self):
        item = LinkItem(text="abc", priority="high")
        loaded = LinkItem.from_dict(item.to_dict())
        assert loaded == item
        assert loaded.priority == "high"

    def test_default_priority_not_emitted(self):
        # v1 consumers never see the key unless a non-default is chosen.
        assert "priority" not in LinkItem(text="abc").to_dict()

    def test_unknown_priority_rejected(self):
        with pytest.raises(WireError, match="priority") as exc_info:
            LinkItem(text="abc", priority="urgent")
        assert exc_info.value.code == "unknown_priority"
        with pytest.raises(WireError, match="priority"):
            LinkItem.from_dict({"text": "a", "priority": 3})

    def test_v1_requests_still_accepted(self):
        payload = {"schema_version": 1, "items": [{"text": "a"}]}
        request = LinkRequest.from_dict(payload)
        assert request.items[0].priority == "normal"

    def test_retry_after_round_trip(self):
        error = ErrorResponse("overloaded", "shed", retry_after_ms=125.5)
        loaded = ErrorResponse.from_dict(error.to_dict())
        assert loaded == error
        assert "retry_after_ms" not in ErrorResponse("x", "y").to_dict()

    def test_bad_retry_after_rejected(self):
        for bad in (-1.0, True, "5"):
            with pytest.raises(WireError, match="retry_after_ms"):
                ErrorResponse("overloaded", "shed", retry_after_ms=bad)


# ---------------------------------------------------------------------------
# Shed paths through the async service and HTTP (tiny trained pipeline)
# ---------------------------------------------------------------------------
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


class TestAsyncShedPaths:
    def test_depth_shed_and_priority_headroom(
        self, pipeline, dataset, stalled_async_service
    ):
        snippet = dataset.test[0]
        admission = AdmissionConfig(shed_policy="depth", max_queue=2)
        service = stalled_async_service(pipeline, admission=admission)
        try:
            future = service.submit(snippet)  # depth 0 < normal budget 1
            with pytest.raises(AdmissionError) as exc_info:
                service.submit(snippet)  # depth 1 >= normal budget 1
            assert exc_info.value.reason == "queue_depth"
            assert exc_info.value.retry_after_ms >= 0.0
            high = service.submit(snippet, priority="high")  # budget 2
            with pytest.raises(AdmissionError):
                service.submit(snippet, priority="high")  # at the bound
            stats = service.stats
            assert stats.admitted == {"normal": 1, "high": 1}
            assert stats.shed == {"normal": 1, "high": 1}
            assert stats.total_shed == 2
            assert stats.shed_rate == pytest.approx(0.5)
        finally:
            service.close()  # drains: the admitted futures still resolve
        expected = pipeline.disambiguate_snippet(snippet)
        for resolved in (future.result(0), high.result(0)):
            assert resolved.ranked_entities == expected.ranked_entities

    def test_unknown_priority_rejected(self, pipeline, dataset, stalled_async_service):
        service = stalled_async_service(
            pipeline, admission=AdmissionConfig(shed_policy="depth")
        )
        try:
            with pytest.raises(ValueError, match="priority"):
                service.submit(dataset.test[0], priority="urgent")
        finally:
            service.close()

    def test_link_batch_is_all_or_nothing(self, pipeline, dataset, stalled_async_service):
        admission = AdmissionConfig(shed_policy="depth", max_queue=2)
        service = stalled_async_service(pipeline, admission=admission)
        try:
            with pytest.raises(AdmissionError):
                service.link_batch([dataset.test[0]] * 3)
            # The item that fit was never queued, so nothing computes.
            assert service.stats.total_admitted == 0
            assert service.stats.shed == {"normal": 3}
            assert len(service.batcher) == 0
        finally:
            service.close()

    def test_shed_submit_many_leaves_queue_depth_unchanged(
        self, pipeline, dataset, stalled_async_service
    ):
        # max_queue=4: normal budget 3, high budget 4.  One queued item
        # leaves room for two more normal ones, not three.
        admission = AdmissionConfig(shed_policy="depth", max_queue=4)
        service = stalled_async_service(pipeline, admission=admission)
        snippets = dataset.test[:3]
        try:
            first = service.submit(dataset.test[3])
            with pytest.raises(AdmissionError) as exc_info:
                service.submit_many(snippets, ["normal"] * 3)
            assert exc_info.value.priority == "normal"
            assert len(service.batcher) == 1
            assert service.stats.admitted == {"normal": 1}
            # Each item is gated at its own priority and position: three
            # high items fit under the high budget of 4.
            futures = service.submit_many(snippets, ["high", "high", "high"])
            assert len(service.batcher) == 4
            with pytest.raises(ValueError, match="priorities"):
                service.submit_many(snippets, ["high"])
        finally:
            service.close()
        for future, snippet in zip([first, *futures], [dataset.test[3], *snippets]):
            expected = pipeline.disambiguate_snippet(snippet)
            assert future.result(0).ranked_entities == expected.ranked_entities

    def test_concurrent_batches_admit_all_or_nothing(self, pipeline, dataset):
        # More submitting threads than cores and a short switch interval:
        # every link_batch is queued whole or shed whole, and the queue
        # never holds more than the normal-priority depth budget.
        admission = AdmissionConfig(shed_policy="depth", max_queue=5)
        service = AsyncLinkingService(
            pipeline, ServiceConfig(max_batch_size=4, admission=admission)
        )
        snippets = dataset.test[:3]
        expected = [pipeline.disambiguate_snippet(s).ranked_entities for s in snippets]
        depths = []
        add = service.batcher.add

        def recording_add(request):
            add(request)
            depths.append(len(service.batcher))

        service.batcher.add = recording_add
        outcomes = []

        def caller():
            for _ in range(10):
                try:
                    predictions = service.link_batch(snippets, timeout=30.0)
                    outcomes.append([p.ranked_entities for p in predictions])
                except AdmissionError:
                    outcomes.append(None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        served = [o for o in outcomes if o is not None]
        assert len(outcomes) == 60 and served
        assert all(o == expected for o in served)
        assert service.stats.admitted.get("normal", 0) == 3 * len(served)
        assert service.stats.shed.get("normal", 0) == 3 * (60 - len(served))
        assert max(depths) <= service.admission.depth_budget("normal")

    def test_disabled_admission_never_sheds(self, pipeline, dataset):
        service = AsyncLinkingService(pipeline, deadline_ms=25.0)
        try:
            predictions = service.link_batch(dataset.test[:4])
            assert len(predictions) == 4
            assert service.stats.total_shed == 0
            assert service.stats.admitted.get("normal") == 4
        finally:
            service.close()


class TestHttpOverload:
    @pytest.fixture()
    def server(self, pipeline):
        service = LinkingService(
            pipeline,
            ServiceConfig(
                max_batch_size=64,
                admission=AdmissionConfig(shed_policy="depth", max_queue=2),
            ),
        )
        config = HttpConfig(port=0)
        with LinkingHTTPServer(service, config) as server:
            yield server

    def test_shed_batch_is_429_with_retry_after(self, server):
        # Two normal-priority items: the first fits (depth 0 < budget 1),
        # the second does not (depth 0 + 1 >= 1) -> the whole request is
        # a 429 and neither item is queued.  Deterministic whatever the
        # worker is doing: submit_many gates all items under one lock.
        body = LinkRequest(
            items=(LinkItem(text=SNIPPET_TEXT), LinkItem(text=SNIPPET_TEXT))
        ).to_json().encode()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/link", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            assert response.status == 429
            retry_after = response.getheader("Retry-After")
            assert retry_after is not None and int(retry_after) >= 1
            error = ErrorResponse.from_json(raw)
            assert error.code == "overloaded"
            assert error.retry_after_ms > 0
        finally:
            conn.close()

    def test_client_raises_typed_overload_error(self, server):
        with LinkerClient(port=server.port) as client:
            with pytest.raises(LinkerOverloadedError) as exc_info:
                client.link_batch([SNIPPET_TEXT, SNIPPET_TEXT])
            assert exc_info.value.status == 429
            assert exc_info.value.retry_after_s >= 1.0
            # High priority rides the headroom past a queued normal item.
            stats = client.stats()
            assert stats["shed"]["normal"] >= 1

    def test_unknown_priority_is_400(self, server):
        payload = {"schema_version": 2, "items": [{"text": "a", "priority": "zzz"}]}
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/link", body=json.dumps(payload).encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            assert response.status == 400
            assert ErrorResponse.from_json(raw).code == "unknown_priority"
        finally:
            conn.close()

    def test_prometheus_exports_admission_series(self, server):
        with LinkerClient(port=server.port) as client:
            with pytest.raises(LinkerClientError):
                client.link_batch([SNIPPET_TEXT, SNIPPET_TEXT])
            text = client.stats(prometheus=True)
        assert 'repro_admission_shed_total{priority="normal"}' in text
        assert "repro_admission_shed_rate" in text


class TestRetryHelper:
    def test_retries_then_succeeds(self):
        naps = []
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise LinkerOverloadedError(429, None, retry_after_s=0.25)
            return "ok"

        assert retry_overloaded(flaky, retries=3, sleep=naps.append) == "ok"
        assert naps == [0.25, 0.25]

    def test_sleep_capped_at_max_wait(self):
        naps = []

        def flaky():
            if not naps:
                raise LinkerOverloadedError(429, None, retry_after_s=30.0)
            return "ok"

        assert retry_overloaded(flaky, max_wait_s=2.0, sleep=naps.append) == "ok"
        assert naps == [2.0]

    def test_exhausted_retries_propagate(self):
        def always():
            raise LinkerOverloadedError(429, None, retry_after_s=0.0)

        with pytest.raises(LinkerOverloadedError):
            retry_overloaded(always, retries=2, sleep=lambda s: None)
        with pytest.raises(ValueError):
            retry_overloaded(always, retries=-1)

    def test_other_errors_not_retried(self):
        def broken():
            raise LinkerClientError(500, None)

        with pytest.raises(LinkerClientError):
            retry_overloaded(broken, sleep=lambda s: pytest.fail("slept"))


# ---------------------------------------------------------------------------
# Python API / env / CLI parity for the admission surface
# ---------------------------------------------------------------------------
class TestAdmissionParity:
    class FakeLinker:
        def __init__(self):
            self.captured = None

        def serve(self, **kwargs):
            self.captured = kwargs
            raise ValueError("captured")

    def capture_cli(self, monkeypatch, argv):
        from repro import cli

        fake = self.FakeLinker()
        monkeypatch.setattr(cli, "_load_checkpoint", lambda path: fake)
        with pytest.raises(SystemExit):
            cli.main(["serve", "--checkpoint", "x", *argv])
        return fake.captured["admission"]

    def test_cli_flags_build_the_same_config(self, monkeypatch):
        admission = self.capture_cli(
            monkeypatch,
            ["--shed-policy", "wait", "--max-queue", "4", "--adaptive"],
        )
        assert admission == AdmissionConfig(
            shed_policy="wait", max_queue=4, adaptive=True
        )

    def test_cli_max_queue_implies_depth(self, monkeypatch):
        monkeypatch.delenv("REPRO_ADMISSION", raising=False)
        admission = self.capture_cli(monkeypatch, ["--max-queue", "4"])
        assert admission == AdmissionConfig(shed_policy="depth", max_queue=4)

    def test_cli_env_supplies_the_policy(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADMISSION", "wait")
        admission = self.capture_cli(monkeypatch, ["--max-queue", "4"])
        assert admission.shed_policy == "wait"
        assert admission.max_queue == 4

    def test_cli_without_flags_defers_to_config_default(self, monkeypatch):
        from repro import cli

        fake = self.FakeLinker()
        monkeypatch.setattr(cli, "_load_checkpoint", lambda path: fake)
        with pytest.raises(SystemExit):
            cli.main(["serve", "--checkpoint", "x"])
        assert fake.captured["admission"] is None

    def test_linker_serve_coercions(self, pipeline):
        linker = Linker(pipeline)
        service = linker.serve(admission="depth")
        try:
            assert service.config.admission.shed_policy == "depth"
        finally:
            service.close()
        service = linker.serve(admission={"shed_policy": "wait", "max_queue": 9})
        try:
            assert service.config.admission == AdmissionConfig(
                shed_policy="wait", max_queue=9
            )
        finally:
            service.close()
        with pytest.raises(ValueError, match="admission"):
            linker.serve(admission=3.14)

    def test_env_python_api_parity(self, pipeline, monkeypatch):
        monkeypatch.setenv("REPRO_ADMISSION", "depth")
        linker = Linker(pipeline)
        service = linker.serve()
        try:
            assert service.config.admission.shed_policy == "depth"
        finally:
            service.close()

    def test_admission_config_survives_linker_round_trip(self):
        config = dataclasses.replace(
            LinkerConfig(),
            service=ServiceConfig(
                admission=AdmissionConfig(shed_policy="depth", max_queue=32)
            ),
        )
        loaded = LinkerConfig.from_json(config.to_json())
        assert loaded.service == config.service
