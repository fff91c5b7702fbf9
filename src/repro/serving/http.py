"""The network front door: an asyncio + stdlib HTTP server over the
work-conserving async linking service.

Everything below :class:`LinkingHTTPServer` is in-process only; this
module turns the serving stack into a deployable network service without
adding a single dependency — the HTTP/1.1 framing is hand-rolled over
``asyncio.start_server`` (keep-alive, chunked responses for streams) and
the payloads are the typed, schema-versioned wire dataclasses of
:mod:`repro.serving.wire`.

Endpoints:

* ``POST /link`` — a :class:`~repro.serving.wire.LinkRequest` (single
  snippet or batch); the response's predictions are bit-identical to
  ``LinkingService.link_batch`` on the same snippets.  Requests from
  concurrent connections share micro-batches through the wrapped
  :class:`~repro.serving.AsyncLinkingService`.
* ``POST /link_stream`` — NDJSON bulk jobs: each input line is one
  :class:`~repro.serving.wire.LinkItem` payload; each output line is a
  prediction (or a per-line :class:`~repro.serving.wire.ErrorResponse`
  for unparseable input), flushed incrementally in input order as
  micro-batches complete.
* ``GET /healthz`` — liveness; reports (and returns 503 for) a draining
  server so load balancers stop routing before shutdown.
* ``GET /stats`` — :class:`~repro.serving.ServiceStats` as JSON, or
  Prometheus text exposition when the ``Accept`` header asks for
  ``text/plain``.

Errors are structured: malformed JSON, unknown keys and schema-version
mismatches are 400s carrying an ``ErrorResponse`` body, an oversized
batch or body is a 413, and any request arriving while the server drains
is a 503.  :meth:`LinkingHTTPServer.close` drains: new work is refused
with 503 while in-flight futures complete, then the wrapped async
service shuts down on its existing injected clock.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Optional, Tuple

from ..core.pipeline import EDPipeline
from .admission import AdmissionError
from .scheduler import AsyncLinkingService
from .service import HttpConfig, LinkingService
from .stats import ServiceStats
from .wire import (
    WIRE_SCHEMA_VERSION,
    ErrorResponse,
    LinkItem,
    LinkRequest,
    LinkResponse,
    WireError,
    WirePrediction,
)

__all__ = ["LinkingHTTPServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: request head (request line + headers) size cap
_MAX_HEAD_BYTES = 64 * 1024

_JSON = "application/json"
_TEXT = "text/plain; version=0.0.4; charset=utf-8"  # Prometheus exposition


class _HttpError(Exception):
    """Internal routing signal: status + structured error body (plus any
    extra response headers, e.g. ``Retry-After`` on a 429)."""

    def __init__(
        self, status: int, error: ErrorResponse, headers: Optional[dict] = None
    ):
        super().__init__(error.message)
        self.status = status
        self.error = error
        self.headers = headers or {}


def _shed_http_error(exc: AdmissionError) -> _HttpError:
    """An admission shed as a 429: the structured body carries the
    controller's ``retry_after_ms`` estimate, the ``Retry-After`` header
    the same hint in whole seconds (ceiling, so never 0)."""
    retry_after_s = max(1, int(-(-exc.retry_after_ms // 1000)))
    return _HttpError(
        429,
        ErrorResponse(
            "overloaded", str(exc), retry_after_ms=round(exc.retry_after_ms, 3)
        ),
        headers={"Retry-After": str(retry_after_s)},
    )


def _wire_http_error(exc: WireError, detail: Optional[str] = None) -> _HttpError:
    return _HttpError(exc.status, exc.to_response(detail))


class LinkingHTTPServer:
    """Serve a linker over HTTP (see the module docstring for the API).

    Accepts a ready :class:`AsyncLinkingService`, or anything an async
    service can wrap — a :class:`LinkingService`, a raw
    :class:`EDPipeline`, or a :class:`repro.api.Linker` facade — in which
    case the scheduler is built here with the config's ``deadline_ms``
    budget.  The server owns what it builds (and adopts what it is
    given): :meth:`close` drains the HTTP layer first, then closes the
    async service, which drains its queue and shard workers on the
    injected clock they already carry.

        server = LinkingHTTPServer(linker.serve(), HttpConfig(port=0))
        server.start()                      # or: with server: ...
        print(server.port)                  # the bound port
        server.close()                      # drain, then shut down
    """

    def __init__(self, service, config: Optional[HttpConfig] = None):
        self.config = config or HttpConfig()
        if isinstance(service, AsyncLinkingService):
            self.service = service
        else:
            if not isinstance(service, (LinkingService, EDPipeline)):
                # A Linker facade (duck-typed; http sits below the api layer).
                service = getattr(service, "pipeline", service)
            self.service = AsyncLinkingService(
                service, deadline_ms=self.config.deadline_ms
            )
        self.host = self.config.host
        self.port = self.config.port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._start_error: Optional[BaseException] = None
        self._in_flight = 0
        self._draining = False
        self._closed = threading.Event()

    @property
    def stats(self) -> ServiceStats:
        return self.service.stats

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "LinkingHTTPServer":
        """Bind and serve in a background thread; returns once the socket
        is listening (``self.port`` then holds the real port, also with
        ``port=0``).  Raises the bind error (e.g. address in use)."""
        if self._thread is not None:
            return self
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="linking-http-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._start_error is not None:
            self._thread.join()
            raise self._start_error
        return self

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._server = self._loop.run_until_complete(
                asyncio.start_server(
                    self._handle_connection, self.host, self.port,
                    limit=_MAX_HEAD_BYTES,
                )
            )
            self.port = self._server.sockets[0].getsockname()[1]
        except BaseException as exc:
            self._start_error = exc
            self._started.set()
            self._loop.close()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._server.close()
            self._loop.run_until_complete(self._server.wait_closed())
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

    def drain(self) -> None:
        """Refuse new work with 503; in-flight requests keep completing."""
        self._draining = True

    def close(self, drain_timeout: float = 30.0) -> None:
        """Drain, wait for in-flight requests, stop serving, shut down the
        wrapped async service (which drains its own queue and shard
        workers on the clock injected at construction)."""
        if self._closed.is_set():
            return
        self._closed.set()
        self.drain()
        if self._thread is not None and self._start_error is None:
            self._idle.wait(drain_timeout)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
        self.service.close()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`close` is called (the CLI's foreground
        mode); returns whether the server closed within ``timeout``."""
        return self._closed.wait(timeout)

    def __enter__(self) -> "LinkingHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    ConnectionError,
                ):
                    return
                try:
                    method, path, headers = self._parse_head(head)
                except _HttpError as exc:
                    await self._write_error(writer, exc, keep_alive=False)
                    return
                keep_alive = headers.get("connection", "").lower() != "close"
                try:
                    body = await self._read_body(reader, headers)
                except _HttpError as exc:
                    # The body was not consumed; the framing is lost, so
                    # the connection cannot be reused.
                    await self._write_error(writer, exc, keep_alive=False)
                    return
                try:
                    await self._dispatch(method, path, headers, body, writer, keep_alive)
                except _HttpError as exc:
                    await self._write_error(writer, exc, keep_alive)
                except ConnectionError:
                    return
                except Exception as exc:  # surface, never kill the server
                    await self._write_error(
                        writer,
                        _HttpError(500, ErrorResponse("internal", repr(exc))),
                        keep_alive,
                    )
                if not keep_alive:
                    return
        finally:
            writer.close()

    def _parse_head(self, head: bytes) -> Tuple[str, str, dict]:
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, target, _version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(
                400, ErrorResponse("bad_request", "malformed HTTP request line")
            ) from None
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(
                    400, ErrorResponse("bad_request", f"malformed header {line!r}")
                )
            headers[name.strip().lower()] = value.strip()
        return method.upper(), target.split("?", 1)[0], headers

    async def _read_body(self, reader, headers: dict) -> bytes:
        if "transfer-encoding" in headers:
            raise _HttpError(
                400,
                ErrorResponse("bad_request", "chunked request bodies are not supported"),
            )
        raw = headers.get("content-length", "0")
        try:
            length = int(raw)
            if length < 0:
                raise ValueError
        except ValueError:
            raise _HttpError(
                400, ErrorResponse("bad_request", f"bad Content-Length {raw!r}")
            ) from None
        if length > self.config.max_body_bytes:
            raise _HttpError(
                413,
                ErrorResponse(
                    "payload_too_large",
                    f"request body of {length} bytes exceeds the "
                    f"{self.config.max_body_bytes}-byte limit",
                ),
            )
        if length == 0:
            return b""
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise _HttpError(
                400, ErrorResponse("bad_request", "request body shorter than Content-Length")
            ) from None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(self, method, path, headers, body, writer, keep_alive) -> None:
        route = {
            ("GET", "/healthz"): self._get_healthz,
            ("GET", "/stats"): self._get_stats,
        }.get((method, path))
        if route is not None:
            status, content_type, payload = route(headers)
            await self._write(writer, status, payload, content_type, keep_alive)
            return
        if path == "/link" or path == "/link_stream":
            if method != "POST":
                raise _HttpError(
                    405, ErrorResponse("method_not_allowed", f"{path} expects POST")
                )
            if self._draining:
                raise _HttpError(
                    503, ErrorResponse("draining", "server is draining; retry elsewhere")
                )
            self._enter()
            try:
                if path == "/link":
                    status, content_type, payload = await self._post_link(body)
                    await self._write(writer, status, payload, content_type, keep_alive)
                else:
                    await self._post_link_stream(body, writer, keep_alive)
            finally:
                self._exit()
            return
        raise _HttpError(404, ErrorResponse("not_found", f"no route for {method} {path}"))

    def _enter(self) -> None:
        self._in_flight += 1
        self._idle.clear()

    def _exit(self) -> None:
        self._in_flight -= 1
        if self._in_flight == 0:
            self._idle.set()

    def _get_healthz(self, headers: dict) -> Tuple[int, str, bytes]:
        status = "draining" if self._draining else "ok"
        payload = {
            "schema_version": WIRE_SCHEMA_VERSION,
            "status": status,
            "in_flight": self._in_flight,
        }
        code = 503 if self._draining else 200
        return code, _JSON, json.dumps(payload).encode()

    def _get_stats(self, headers: dict) -> Tuple[int, str, bytes]:
        accept = headers.get("accept", "")
        if "text/plain" in accept:
            return 200, _TEXT, self.stats.to_prometheus().encode()
        payload = {
            "schema_version": WIRE_SCHEMA_VERSION,
            "stats": self.stats.to_dict(),
        }
        return 200, _JSON, json.dumps(payload).encode()

    # ------------------------------------------------------------------
    # Work endpoints
    # ------------------------------------------------------------------
    def _resolve_snippet(self, item: LinkItem, where: str):
        if item.snippet is not None:
            return item.snippet
        try:
            return self.service.pipeline.snippet_from_text(item.text, item.mention)
        except ValueError as exc:
            raise WireError(f"{where}: {exc}") from None

    def _submit(self, snippets, priorities):
        """Queue the items, all or none; a shed is a 429.  A lone item
        goes through ``submit``, the per-request entry point that
        ``perfbench`` traces for queue wait; several go through
        ``submit_many``."""
        try:
            if len(snippets) == 1:
                return [self.service.submit(snippets[0], priority=priorities[0])]
            return self.service.submit_many(snippets, priorities)
        except AdmissionError as exc:  # shed: 429 + Retry-After, not 503
            raise _shed_http_error(exc) from None
        except RuntimeError as exc:  # the async service is already closed
            raise _HttpError(503, ErrorResponse("draining", str(exc))) from None

    def _to_wire(self, prediction, top_k: Optional[int]) -> WirePrediction:
        if top_k is not None:
            prediction = type(prediction)(
                mention=prediction.mention,
                ranked_entities=prediction.ranked_entities[:top_k],
                scores=prediction.scores[:top_k],
            )
        names = tuple(
            self.service.pipeline.entity_name(e) for e in prediction.ranked_entities
        )
        return WirePrediction.from_prediction(prediction, entity_names=names)

    async def _post_link(self, body: bytes) -> Tuple[int, str, bytes]:
        try:
            request = LinkRequest.from_json(body)
            if len(request.items) > self.config.max_batch:
                raise WireError(
                    f"{len(request.items)} items exceed the per-request "
                    f"limit of {self.config.max_batch}",
                    code="payload_too_large",
                    status=413,
                )
            snippets = [
                self._resolve_snippet(item, f"items[{i}]")
                for i, item in enumerate(request.items)
            ]
        except WireError as exc:
            raise _wire_http_error(exc) from None
        # All-or-nothing admission: when any item is shed, none is queued
        # and the whole request is the 429 (partial responses would break
        # the items<->predictions alignment the wire contract promises).
        futures = self._submit(snippets, [item.priority for item in request.items])
        predictions = await asyncio.gather(
            *(asyncio.wrap_future(f) for f in futures)
        )
        response = LinkResponse(
            predictions=tuple(self._to_wire(p, request.top_k) for p in predictions)
        )
        return 200, _JSON, response.to_json().encode()

    async def _post_link_stream(self, body: bytes, writer, keep_alive: bool) -> None:
        """NDJSON in, NDJSON out: results flush incrementally in input
        order; a bad input line becomes an ErrorResponse line instead of
        aborting the job."""
        head = (
            f"HTTP/1.1 200 {_REASONS[200]}\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        lines = [line for line in body.split(b"\n") if line.strip()]
        window = []  # (future | None, error | None) in input order

        async def flush(blocking: bool) -> None:
            while window:
                future, error = window[0]
                if error is None and not blocking and not future.done():
                    break
                window.pop(0)
                if error is not None:
                    payload = error.to_json()
                else:
                    try:
                        prediction = await asyncio.wrap_future(future)
                        payload = json.dumps(self._to_wire(prediction, None).to_dict())
                    except Exception as exc:
                        payload = ErrorResponse("internal", repr(exc)).to_json()
                chunk = payload.encode() + b"\n"
                writer.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
                await writer.drain()

        for line in lines:
            try:
                item = LinkItem.from_dict(
                    json.loads(line.decode("utf-8")), where="stream item"
                )
                snippet = self._resolve_snippet(item, "stream item")
                window.append((self._submit([snippet], [item.priority])[0], None))
            except (json.JSONDecodeError, UnicodeDecodeError, WireError) as exc:
                window.append(
                    (None, ErrorResponse("parse_error", str(exc), detail=line.decode("utf-8", "replace")))
                )
            except _HttpError as exc:
                # A shed line is a per-line error record (carrying the
                # retry hint) — the rest of the stream keeps flowing.
                window.append((None, exc.error))
            await flush(blocking=False)
        await flush(blocking=True)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------
    async def _write(
        self, writer, status, payload: bytes, content_type, keep_alive,
        extra_headers: Optional[dict] = None,
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
        )
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        head += f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    async def _write_error(self, writer, exc: _HttpError, keep_alive: bool) -> None:
        try:
            await self._write(
                writer, exc.status, exc.error.to_json().encode(), _JSON, keep_alive,
                extra_headers=exc.headers,
            )
        except ConnectionError:
            pass
