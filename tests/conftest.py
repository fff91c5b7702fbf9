"""Fixtures shared across the test modules."""

import json

import pytest

from repro.serving import AsyncLinkingService


class StalledAsyncService(AsyncLinkingService):
    """An async service whose worker runs nothing until ``close()``,
    then drains the queue as usual.

    Work-conserving dispatch pops whatever is queued as soon as the
    worker is free, so a backlog only builds behind a running batch.
    Holding the worker back stands in for one busy on a long batch: queue
    depth, admission decisions and cancellation of queued futures become
    deterministic.
    """

    def _run(self) -> None:
        with self._cond:
            while not self._closed:
                self._cond.wait()
        super()._run()


@pytest.fixture
def stalled_async_service():
    """``stalled_async_service(pipeline_or_service, **kwargs)`` builds a
    :class:`StalledAsyncService` (same arguments as
    :class:`AsyncLinkingService`)."""
    return StalledAsyncService


#: the schema-v1 admission keys that only the (since removed) AIMD tuner
#: read, with their v1 defaults
V1_TUNER_DEFAULTS = dict(
    adaptive=False,
    target_p95_ms=0.0,
    tuner_window=64,
    tuner_interval_ms=250.0,
    min_deadline_ms=5.0,
    max_deadline_ms=250.0,
    min_batch_size=1,
)


def _as_v1(payload, http_deadline_ms=25.0, **admission):
    """A copy of a v2 ``LinkerConfig`` dict in the schema-v1 layout:
    the tuner keys and ``service.shard_workers`` present, the budget in
    ``http.deadline_ms`` (when there is an http section), and
    ``admission.max_wait_ms`` 0 ("use the deadline") unless overridden
    in ``admission``."""
    payload = json.loads(json.dumps(payload))
    payload["schema_version"] = 1
    service = payload["service"]
    service["shard_workers"] = None
    service["admission"].update(V1_TUNER_DEFAULTS, max_wait_ms=0.0)
    service["admission"].update(admission)
    if service["http"] is not None:
        service["http"]["deadline_ms"] = http_deadline_ms
    return payload


@pytest.fixture
def as_v1_config():
    """``as_v1_config(payload, http_deadline_ms=25.0, **admission)``
    rewrites a ``LinkerConfig.to_dict()`` payload as schema v1."""
    return _as_v1
