"""Batched high-throughput linking service (the production-facing layer).

Wraps a fitted :class:`~repro.core.pipeline.EDPipeline` behind
:class:`LinkingService`, which serves ``link_batch(snippets)`` and
``link_texts(texts)`` with a persisted reference-embedding cache, a
micro-batch scheduler over disjoint-union forwards, an LRU result cache,
and :class:`ServiceStats` telemetry.  On top of it,
:class:`AsyncLinkingService` (``scheduler``) accepts requests onto a
queue and runs them in work-conserving micro-batches (whatever is
queued whenever its worker is free, so a lone request runs at once and
batches grow with load; ``deadline_ms`` is the queue-wait budget), and
:class:`ShardedKB` (``sharding``) partitions the KB and its embedding
cache for fan-out candidate scoring (``ServiceConfig(num_shards=N)``).
Sharded scoring runs on threads by default or — with
``ServiceConfig(shard_backend="process")`` — on a
:class:`ShardWorkerPool` (``workers``) of long-lived worker processes
for true GIL-free parallelism; results are bit-identical either way.
Where the KB matrices live is a separate axis — ``ServiceConfig``'s
``storage`` section (:class:`~repro.storage.StorageConfig`) picks the
in-RAM or mmap-bundle backend and controls the shared-memory arena
process workers draw their shard payloads from.

The network front door is :class:`LinkingHTTPServer` (``http``): an
asyncio + stdlib HTTP server over the async service speaking the typed,
schema-versioned wire format of ``wire`` (:class:`LinkRequest`,
:class:`LinkResponse`, :class:`ErrorResponse`), with
:class:`LinkerClient` (``client``) as the matching stdlib client.

Overload protection is the ``admission`` module:
:class:`AdmissionConfig` (the ``admission`` section of
:class:`ServiceConfig`; default shed policy from ``$REPRO_ADMISSION``)
bounds the scheduler's queue with priority classes, sheds the overflow
as structured 429s with ``Retry-After``
(:class:`AdmissionError` / :class:`LinkerOverloadedError`), and — with
``adaptive=True`` — lets the :class:`AdaptiveTuner` AIMD-adjust the
max batch size from observed queue-wait p95s.
See ``examples/serving_quickstart.py``, ``examples/http_quickstart.py``
and the ``repro serve`` CLI command (``repro serve --http PORT``).
"""

from .admission import (  # noqa: F401
    PRIORITIES,
    SHED_POLICIES,
    AdaptiveTuner,
    AdmissionConfig,
    AdmissionController,
    AdmissionError,
)
from .cache import LRUCache  # noqa: F401
from .client import (  # noqa: F401
    LinkerClient,
    LinkerClientError,
    LinkerOverloadedError,
    retry_overloaded,
)
from .http import LinkingHTTPServer  # noqa: F401
from .scheduler import AsyncLinkingService, MicroBatcher, QueuedRequest  # noqa: F401
from .service import HttpConfig, LinkingService, ServiceConfig  # noqa: F401
from .sharding import KBShard, ShardedKB  # noqa: F401
from .stats import ServiceStats  # noqa: F401
from .wire import (  # noqa: F401
    WIRE_SCHEMA_VERSION,
    ErrorResponse,
    LinkItem,
    LinkRequest,
    LinkResponse,
    WireError,
    WirePrediction,
    parse_stream_line,
)
from .workers import (  # noqa: F401
    SHARD_BACKENDS,
    ShardWorkerError,
    ShardWorkerPool,
    resolve_shard_backend,
)

__all__ = [
    "LinkingService",
    "ServiceConfig",
    "HttpConfig",
    "ServiceStats",
    "LRUCache",
    "AsyncLinkingService",
    "MicroBatcher",
    "QueuedRequest",
    "ShardedKB",
    "KBShard",
    "ShardWorkerPool",
    "ShardWorkerError",
    "SHARD_BACKENDS",
    "resolve_shard_backend",
    "LinkingHTTPServer",
    "LinkerClient",
    "LinkerClientError",
    "LinkerOverloadedError",
    "retry_overloaded",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionError",
    "AdaptiveTuner",
    "PRIORITIES",
    "SHED_POLICIES",
    "WIRE_SCHEMA_VERSION",
    "WireError",
    "LinkItem",
    "LinkRequest",
    "LinkResponse",
    "WirePrediction",
    "ErrorResponse",
    "parse_stream_line",
]
