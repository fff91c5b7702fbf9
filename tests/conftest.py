"""Fixtures shared across the test modules."""

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
