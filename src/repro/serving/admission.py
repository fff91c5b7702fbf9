"""Admission control and adaptive batch policy for the serving stack.

Production entity-linking traffic is bursty: when arrivals exceed the
service's compute capacity, an unbounded queue turns every request into
a timeout.  The classic remedy (and the Clipper-style serving designs in
PAPERS.md) is to *shed early*: bound the queue, reject the overflow with
a structured 429 that carries a ``Retry-After`` hint, and keep the
admitted requests inside their latency contract.

Three pieces, all policy-only (no threads, no wall clock — callers pass
``now``, so every decision is unit-testable with a fake clock):

* :class:`AdmissionConfig` — the declarative policy object.  A strict
  frozen section of :class:`~repro.serving.service.ServiceConfig`, so a
  :class:`~repro.api.LinkerConfig` JSON declares overload behaviour the
  same way it declares sharding or storage; the ``REPRO_ADMISSION``
  environment variable supplies the default shed policy.
* :class:`AdmissionController` — the gate in front of the batcher queue.
  Sheds by queue depth and, under ``shed_policy="wait"``, by estimated
  queue wait (depth x an EWMA of observed per-request drain cost).
  Priority classes (``high`` / ``normal`` / ``low``) see scaled budgets:
  low-priority traffic is shed first, and ``normal`` leaves headroom so
  ``high`` still admits at the bound.
* :class:`AdaptiveTuner` — closes the telemetry->policy loop.  AIMD on
  the scheduler's max batch size (and a deadline figure that no longer
  drives anything) against a sliding window of observed queue-wait
  p95s: multiplicative backoff when the p95 blows the target, additive
  recovery when it is comfortably under, always clamped to the
  configured floor/ceiling.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

import numpy as np

__all__ = [
    "PRIORITIES",
    "DEFAULT_PRIORITY",
    "SHED_POLICIES",
    "PRIORITY_HEADROOM",
    "default_shed_policy",
    "AdmissionConfig",
    "AdmissionError",
    "AdmissionController",
    "AdaptiveTuner",
]

#: priority classes in flush order (highest first); also the wire values
#: accepted on :class:`~repro.serving.wire.LinkItem.priority`
PRIORITIES = ("high", "normal", "low")
DEFAULT_PRIORITY = "normal"

#: shedding policies: "none" keeps today's unbounded queue, "depth"
#: bounds queue depth at ``max_queue``, "wait" additionally sheds when
#: the estimated queue wait exceeds the budget
SHED_POLICIES = ("none", "depth", "wait")

#: fraction of the depth/wait budget each priority class may consume —
#: low is shed first, and normal leaves headroom so high still admits
#: when the queue is nearly full
PRIORITY_HEADROOM = {"high": 1.0, "normal": 0.8, "low": 0.5}

#: EWMA smoothing for the observed per-request drain cost
EWMA_ALPHA = 0.2

#: AIMD constants: multiplicative backoff factor, additive recovery steps
AIMD_BACKOFF = 0.5
DEADLINE_STEP_MS = 1.0
BATCH_STEP = 1


def default_shed_policy() -> str:
    """Shed policy from ``REPRO_ADMISSION`` (default: ``"none"``)."""
    return os.environ.get("REPRO_ADMISSION", "none")


@dataclass(frozen=True)
class AdmissionConfig:
    """Overload policy of the async serving stack.

    Lives inside :class:`~repro.serving.service.ServiceConfig` as the
    ``admission`` section; the round trip through
    :class:`~repro.api.LinkerConfig` JSON is strict and exact like every
    other config section (unknown keys and values are rejected).
    """

    # Shedding policy (see SHED_POLICIES); defaults to $REPRO_ADMISSION.
    shed_policy: str = field(default_factory=default_shed_policy)
    max_queue: int = 256  # queued-request bound for the depth check
    # Estimated-wait budget for shed_policy="wait"; 0 inherits the
    # scheduler's deadline_ms (its queue-wait budget).
    max_wait_ms: float = 0.0
    # Adaptive tuning (AdaptiveTuner) of the max batch size; its
    # deadline_ms output is reported but no longer drives the scheduler.
    adaptive: bool = False
    target_p95_ms: float = 0.0  # tuner's queue-wait p95 target; 0 = deadline_ms
    tuner_window: int = 64  # queue-wait observations per adjustment window
    tuner_interval_ms: float = 250.0  # min spacing between adjustments
    min_deadline_ms: float = 5.0  # tuner floor for deadline_ms
    max_deadline_ms: float = 250.0  # tuner ceiling for deadline_ms
    min_batch_size: int = 1  # tuner floor for the max batch size

    def __post_init__(self):
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed_policy {self.shed_policy!r}; "
                f"options: {SHED_POLICIES}"
            )
        if self.max_queue < 1:
            raise ValueError("admission max_queue must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("admission max_wait_ms must be >= 0")
        if self.target_p95_ms < 0:
            raise ValueError("admission target_p95_ms must be >= 0")
        if self.tuner_window < 2:
            raise ValueError("admission tuner_window must be >= 2")
        if self.tuner_interval_ms <= 0:
            raise ValueError("admission tuner_interval_ms must be > 0")
        if self.min_deadline_ms <= 0:
            raise ValueError("admission min_deadline_ms must be > 0")
        if self.max_deadline_ms < self.min_deadline_ms:
            raise ValueError(
                "admission max_deadline_ms must be >= min_deadline_ms"
            )
        if self.min_batch_size < 1:
            raise ValueError("admission min_batch_size must be >= 1")


class AdmissionError(RuntimeError):
    """A request shed by admission control.

    Maps to HTTP 429 with a ``Retry-After`` header; ``retry_after_ms``
    is the controller's estimate of when the queue will have drained
    back under budget.
    """

    def __init__(
        self, message: str, *, reason: str, priority: str, retry_after_ms: float
    ):
        super().__init__(message)
        self.reason = reason  # "queue_depth" | "estimated_wait"
        self.priority = priority
        self.retry_after_ms = retry_after_ms


class AdmissionController:
    """Pure shed-or-admit policy over the batcher's queue depth.

    Holds no lock and reads no clock; the scheduler calls :meth:`check`
    under its own condition variable and feeds
    :meth:`observe_batch` from completed batches so the estimated-wait
    model tracks the service's real drain rate.
    """

    def __init__(self, config: AdmissionConfig, deadline_ms: float):
        self.config = config
        self.wait_budget_ms = (
            config.max_wait_ms if config.max_wait_ms > 0 else deadline_ms
        )
        self._per_item_ms: Optional[float] = None  # EWMA drain cost / request

    @property
    def enabled(self) -> bool:
        return self.config.shed_policy != "none"

    def observe_batch(self, size: int, seconds: float) -> None:
        """Fold one completed batch into the drain-cost EWMA."""
        if size <= 0:
            return
        per_item = seconds * 1000.0 / size
        if self._per_item_ms is None:
            self._per_item_ms = per_item
        else:
            self._per_item_ms += EWMA_ALPHA * (per_item - self._per_item_ms)

    def estimated_wait_ms(self, depth: int) -> float:
        """Expected queue wait at ``depth`` (0.0 before any batch ran)."""
        if self._per_item_ms is None:
            return 0.0
        return depth * self._per_item_ms

    def retry_after_ms(self, depth: int) -> float:
        """Retry hint for a shed request: the estimated drain time of the
        current queue, floored at the wait budget."""
        return max(self.estimated_wait_ms(max(depth, 1)), self.wait_budget_ms)

    def depth_budget(self, priority: str) -> int:
        return max(1, int(self.config.max_queue * PRIORITY_HEADROOM[priority]))

    def check(self, priority: str, depth: int) -> Optional[AdmissionError]:
        """The shed decision for one arriving request, or None to admit."""
        if not self.enabled:
            return None
        budget = self.depth_budget(priority)
        if depth >= budget:
            return AdmissionError(
                f"queue depth {depth} is at the {priority!r}-priority "
                f"bound of {budget} (max_queue={self.config.max_queue})",
                reason="queue_depth",
                priority=priority,
                retry_after_ms=self.retry_after_ms(depth),
            )
        if self.config.shed_policy == "wait":
            wait = self.estimated_wait_ms(depth + 1)
            wait_budget = self.wait_budget_ms * PRIORITY_HEADROOM[priority]
            if wait > wait_budget:
                return AdmissionError(
                    f"estimated queue wait {wait:.1f}ms exceeds the "
                    f"{priority!r}-priority budget of {wait_budget:.1f}ms",
                    reason="estimated_wait",
                    priority=priority,
                    retry_after_ms=self.retry_after_ms(depth),
                )
        return None


class AdaptiveTuner:
    """AIMD tuner of the scheduler's max batch size (and of a deadline).

    Observes per-request queue waits (submit -> batch formed, the metric
    the deadline contract is written against); once a window holds
    enough samples and ``tuner_interval_ms`` has elapsed since the last
    adjustment, compares the window's p95 to the target:

    * p95 over target — multiplicative backoff: halve the deadline and
      the batch size (flush sooner and smaller), clamped to the floors;
    * p95 under half the target — additive recovery: one step back
      toward the configured ceilings;
    * otherwise — stable, no change.

    The window is cleared after every adjustment so the next decision
    reflects only the new policy.  It never reads the clock — callers
    pass ``now`` — so convergence is provable with a fake clock.

    Only ``batch_size`` drives the scheduler.  The work-conserving
    scheduler has no batching timer, so ``deadline_ms`` is reported
    (``ServiceStats.tuner_deadline_ms``) but no longer drives anything.
    """

    def __init__(self, config: AdmissionConfig, deadline_ms: float, max_batch_size: int):
        self.config = config
        self.target_ms = (
            config.target_p95_ms if config.target_p95_ms > 0 else deadline_ms
        )
        self.floor_ms = config.min_deadline_ms
        self.ceiling_ms = config.max_deadline_ms
        self.deadline_ms = min(max(deadline_ms, self.floor_ms), self.ceiling_ms)
        self.batch_floor = config.min_batch_size
        self.batch_ceiling = max(max_batch_size, config.min_batch_size)
        self.batch_size = self.batch_ceiling
        self.adjustments = 0
        self._window: Deque[float] = deque(maxlen=config.tuner_window)
        self._last_adjust_at: Optional[float] = None

    def observe(self, queue_wait_ms: float, now: float) -> bool:
        """Record one queue wait; True when the policy just changed."""
        self._window.append(queue_wait_ms)
        return self.maybe_adjust(now)

    def window_p95(self) -> float:
        if not self._window:
            return 0.0
        return float(np.percentile(np.asarray(self._window), 95))

    def maybe_adjust(self, now: float) -> bool:
        """One AIMD step if a decision is due; True when policy changed."""
        if len(self._window) < max(2, (self._window.maxlen or 2) // 2):
            return False
        if (
            self._last_adjust_at is not None
            and (now - self._last_adjust_at) * 1000.0 < self.config.tuner_interval_ms
        ):
            return False
        p95 = self.window_p95()
        deadline, batch = self.deadline_ms, self.batch_size
        if p95 > self.target_ms:
            deadline = max(self.floor_ms, self.deadline_ms * AIMD_BACKOFF)
            batch = max(self.batch_floor, self.batch_size // 2)
        elif p95 <= 0.5 * self.target_ms:
            deadline = min(self.ceiling_ms, self.deadline_ms + DEADLINE_STEP_MS)
            batch = min(self.batch_ceiling, self.batch_size + BATCH_STEP)
        self._last_adjust_at = now
        if deadline == self.deadline_ms and batch == self.batch_size:
            return False
        self.deadline_ms = deadline
        self.batch_size = batch
        self.adjustments += 1
        self._window.clear()
        return True
