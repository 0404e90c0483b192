"""Single-event-loop asyncio HTTP front-end for the inference server.

:class:`AsyncServeHTTPServer` is the ``serve --http`` front-end.  It
multiplexes every client on one event loop (thread ``serve-http-loop``)
rather than one thread per connection, so the connection ceiling is the fd
limit, not the OS thread budget.  Its wire features:

* **keep-alive + pipelining** — requests on one connection are answered
  in order; a client may write several before reading the first response;
* **streaming responses** — ``POST /v1/infer`` with ``{"stream": true}``
  answers with chunked newline-delimited JSON, one item per line as the
  re-order buffer releases it, so a large batch's first result arrives
  after one batch flush instead of after the whole batch;
* **SSE progress** — ``{"request_id": "..."}`` names a request and
  ``GET /v1/infer/{request_id}/events`` follows its completion counters as
  ``text/event-stream`` ``progress``/``done`` events from a second
  connection;
* **backpressure, not blocked accepts** — queue overflow surfaces as
  ``429`` with a ``Retry-After`` hint computed from the micro-batcher's
  observed service time, instead of tying up an accept thread.

The engine side is unchanged: requests funnel through the *same*
``InferenceServer.submit()`` path as in-process callers, bridged with ``loop.run_in_executor`` (admission may block) and
``asyncio.wrap_future`` (results are plain ``concurrent.futures`` futures
resolved by engine threads).  That is why outputs stay bitwise identical to
a direct ``run_batch`` for every executor spec — the async layer only
encodes and decodes bytes.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
import urllib.parse
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.concurrency import make_lock, thread_shared
from repro.errors import BadRequestError, ServeError, UnknownModelError
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.serve.http import (
    DEFAULT_HOST,
    MAX_BODY_BYTES,
    dump_json,
    error_body,
    health_payload,
    infer_response_body,
    models_payload,
    parse_infer_request,
    retry_after_headers,
    status_for_error,
    stream_item_body,
    submit_images,
    trace_payload,
)
from repro.serve.server import InferenceServer
from repro.serve.telemetry import FrontendTelemetry

#: Per-line read limit (request line / single header); also the stream
#: buffer's high-water mark.  Generous: a base64 body arrives via
#: Content-Length reads, not readline.
READLINE_LIMIT = 64 * 1024

#: How long the SSE poller sleeps between progress snapshots.
SSE_POLL_S = 0.05

#: How many *finished* named requests the progress registry remembers, so a
#: subscriber that arrives after completion still gets an immediate ``done``.
PROGRESS_CAPACITY = 256

#: Seconds :meth:`AsyncServeHTTPServer.stop` waits for in-flight connection
#: handlers before cancelling them (SIGTERM drain grace).
DRAIN_GRACE_S = 30.0


class _HTTPError(Exception):
    """A malformed request that must be answered without the serve mapping."""

    def __init__(self, status: int, message: str, close: bool = False) -> None:
        super().__init__(message)
        self.status = status
        self.close = close


@thread_shared
class RequestProgress:
    """Completion counters for one named request (``request_id`` payload).

    Mutated from engine threads (future done-callbacks) and read from the
    event loop (the SSE poller), hence the lock.
    """

    def __init__(self, request_id: str, total: int) -> None:
        self._lock = make_lock("RequestProgress._lock")
        self.request_id = request_id
        self.total = int(total)
        self._completed = 0
        self._failed = 0

    def observe(self, future) -> None:
        """Future done-callback: count one completion or failure."""
        failed = future.cancelled() or future.exception() is not None
        with self._lock:
            if failed:
                self._failed += 1
            else:
                self._completed += 1

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            completed, failed = self._completed, self._failed
        if completed + failed >= self.total:
            status = "failed" if failed else "done"
        else:
            status = "running"
        return {
            "request_id": self.request_id,
            "total": self.total,
            "completed": completed,
            "failed": failed,
            "status": status,
        }


@thread_shared
class _ProgressRegistry:
    """Bounded ``request_id`` → :class:`RequestProgress` map (LRU eviction)."""

    def __init__(self, capacity: int = PROGRESS_CAPACITY) -> None:
        self._lock = make_lock("_ProgressRegistry._lock")
        self._entries: "OrderedDict[str, RequestProgress]" = OrderedDict()
        self.capacity = int(capacity)

    def register(self, request_id: str, total: int) -> RequestProgress:
        progress = RequestProgress(request_id, total)
        with self._lock:
            self._entries[request_id] = progress
            self._entries.move_to_end(request_id)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return progress

    def get(self, request_id: str) -> Optional[RequestProgress]:
        with self._lock:
            return self._entries.get(request_id)


class AsyncServeHTTPServer:
    """Asyncio HTTP front-end over a running :class:`InferenceServer`.

    Public surface: ``start/stop/port/url/health/request_shutdown/wait``
    plus context management.  The event loop runs on a dedicated daemon
    thread; ``start()`` returns once the socket is bound, and binding
    failures raise :class:`ServeError` from ``start()`` itself.

    Parameters: ``server`` (lifecycle not owned), ``host``/``port``
    (``port=0`` → ephemeral), ``allow_shutdown`` (enables
    ``POST /v1/shutdown``), ``max_body_bytes`` (400 above it).
    """

    def __init__(
        self,
        server: InferenceServer,
        host: str = DEFAULT_HOST,
        port: int = 0,
        allow_shutdown: bool = False,
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        self.server = server
        self.host = host
        self.allow_shutdown = bool(allow_shutdown)
        self.max_body_bytes = int(max_body_bytes)
        self.telemetry = FrontendTelemetry()
        self._requested_port = int(port)
        self._bound_port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._bridge: Optional[ThreadPoolExecutor] = None
        self._started_ts: Optional[float] = None
        self._startup_error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._shutdown_event = threading.Event()
        self._progress = _ProgressRegistry()
        registry = getattr(server, "metrics", None)
        if registry is not None:
            self.telemetry.register_metrics(registry, {"frontend": "async"})

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "AsyncServeHTTPServer":
        """Bind the socket and start the event-loop thread."""
        if self._thread is not None:
            raise ServeError("HTTP front-end already started")
        self._ready.clear()
        self._startup_error = None
        self._bound_port = None
        # The admission bridge: submit() may block on a full queue, which
        # must never happen on the event loop.  Sized well above the replica
        # count so slow admissions queue here, not in the loop.
        self._bridge = ThreadPoolExecutor(
            max_workers=32, thread_name_prefix="serve-http-bridge"
        )
        self._started_ts = time.monotonic()
        self._thread = threading.Thread(
            target=self._run_loop, name="serve-http-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            self._bridge.shutdown(wait=False)
            self._bridge = None
            raise ServeError(
                f"cannot bind HTTP front-end to {self.host}:{self._requested_port}: "
                f"{self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        """Close the listener, drain in-flight requests, join (idempotent)."""
        if self._thread is None:
            return
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._signal_stop)
            except RuntimeError:
                pass  # loop already shut down between the check and the call
        self._thread.join()
        self._thread = None
        self._loop = None
        if self._bridge is not None:
            self._bridge.shutdown(wait=True)
            self._bridge = None
        self._shutdown_event.set()

    def _signal_stop(self) -> None:
        if self._stop_async is not None:
            self._stop_async.set()

    def __enter__(self) -> "AsyncServeHTTPServer":
        return self.start() if self._thread is None else self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def request_shutdown(self) -> None:
        """Signal whoever owns the front-end (see :meth:`wait`) to stop it.

        Handlers must not call :meth:`stop` themselves — joining the serving
        thread from inside one of its handlers would deadlock — so shutdown
        is a flag the owning thread observes.
        """
        self._shutdown_event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until a shutdown is requested (or ``timeout`` elapses)."""
        return self._shutdown_event.wait(timeout)

    # ------------------------------------------------------------------ state
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._bound_port is not None:
            return self._bound_port
        return self._requested_port

    @property
    def url(self) -> str:
        """Base URL clients should target (wildcard binds → loopback)."""
        host = "127.0.0.1" if self.host in ("0.0.0.0", "::", "") else self.host
        return f"http://{host}:{self.port}"

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` body (see :func:`~repro.serve.http.health_payload`)."""
        uptime = (
            time.monotonic() - self._started_ts if self._started_ts is not None else 0.0
        )
        return health_payload(self.server, uptime)

    # ------------------------------------------------------------------ event loop
    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            pending = [task for task in asyncio.all_tasks(loop) if not task.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        self._stop_async = asyncio.Event()
        self._conn_tasks: set = set()
        try:
            server = await asyncio.start_server(
                self._handle_connection,
                host=self.host,
                port=self._requested_port,
                limit=READLINE_LIMIT,
            )
        except OSError as error:
            self._startup_error = error
            self._ready.set()
            return
        self._bound_port = int(server.sockets[0].getsockname()[1])
        self._ready.set()
        try:
            await self._stop_async.wait()
        finally:
            server.close()
            await server.wait_closed()
            # In-flight handlers see _stop_async after their current response
            # and close; idle keep-alive connections notice it immediately.
            tasks = [task for task in self._conn_tasks if not task.done()]
            if tasks:
                _, hung = await asyncio.wait(tasks, timeout=DRAIN_GRACE_S)
                for task in hung:
                    task.cancel()
                if hung:
                    await asyncio.gather(*hung, return_exceptions=True)

    # ------------------------------------------------------------------ connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.telemetry.connection_opened()
        assert self._stop_async is not None
        stop_wait = asyncio.ensure_future(self._stop_async.wait())
        try:
            while not self._stop_async.is_set():
                # Race the next request against shutdown so idle keep-alive
                # connections release promptly during a drain.
                read = asyncio.ensure_future(self._read_request(reader))
                await asyncio.wait({read, stop_wait}, return_when=asyncio.FIRST_COMPLETED)
                if not read.done():
                    read.cancel()
                    try:
                        await read
                    except (asyncio.CancelledError, Exception):  # repro: noqa[RPR105]
                        pass  # connection is closing; the request was never read
                    break
                try:
                    request = read.result()
                except _HTTPError as error:
                    await self._send_json(
                        writer,
                        error.status,
                        {"error": str(error), "type": "BadRequestError"},
                        keep_alive=False,
                    )
                    break
                except (ConnectionError, asyncio.IncompleteReadError, ValueError):
                    break  # peer went away mid-request or overran the limit
                if request is None:
                    break  # clean EOF between requests
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (ConnectionError, BrokenPipeError):
            pass  # peer reset; nothing left to answer
        finally:
            stop_wait.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
            self.telemetry.connection_closed()
            if task is not None:
                self._conn_tasks.discard(task)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, Dict[str, str], bytes]]:
        """Parse one request; returns ``(method, path, query, headers, body)``.

        ``None`` means the peer closed cleanly between requests.  Raises
        :class:`_HTTPError` for malformed framing (answered with 400 and a
        closed connection — framing errors poison the byte stream).
        """
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").rstrip("\r\n").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HTTPError(400, f"malformed request line {request_line[:64]!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HTTPError(400, f"malformed header line {line[:64]!r}")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length_header = headers.get("content-length")
        if length_header is not None:
            try:
                length = int(length_header)
            except ValueError:
                raise _HTTPError(400, f"invalid Content-Length {length_header!r}") from None
            if length < 0 or length > self.max_body_bytes:
                raise _HTTPError(
                    400,
                    f"request body of {length} bytes exceeds the "
                    f"{self.max_body_bytes}-byte limit",
                )
            body = await reader.readexactly(length)
        split = urllib.parse.urlsplit(target)
        return method, split.path, split.query, headers, body

    # ------------------------------------------------------------------ dispatch
    async def _dispatch(
        self, request: Tuple[str, str, str, Dict[str, str], bytes], writer
    ) -> bool:
        method, path, query, headers, body = request
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        loop = asyncio.get_running_loop()

        async def _in_bridge(fn, *args):
            # Every InferenceServer call leaves the loop: they take engine
            # locks and may block (admission, stats under contention).
            return await loop.run_in_executor(self._bridge, fn, *args)

        try:
            if method == "GET" and path == "/healthz":
                payload = await _in_bridge(self.health)
                self.telemetry.record_request("/healthz", 200)
                await self._send_json(writer, 200, payload, keep_alive)
            elif method == "GET" and path == "/metrics":
                registry = getattr(self.server, "metrics", None)
                if registry is None:
                    raise ServeError("metrics registry not available")
                text = await _in_bridge(registry.render_prometheus)
                self.telemetry.record_request("/metrics", 200)
                await self._send_text(
                    writer, 200, text, PROMETHEUS_CONTENT_TYPE, keep_alive
                )
            elif method == "GET" and path == "/v1/models":
                payload = await _in_bridge(models_payload, self.server)
                self.telemetry.record_request("/v1/models", 200)
                await self._send_json(writer, 200, payload, keep_alive)
            elif method == "GET" and path == "/v1/stats":
                model = urllib.parse.parse_qs(query).get("model", [None])[0]
                try:
                    payload = await _in_bridge(self.server.stats, model)
                except UnknownModelError as error:
                    self.telemetry.record_request("/v1/stats", 404)
                    await self._send_error(writer, 404, error, keep_alive)
                    return keep_alive
                self.telemetry.record_request("/v1/stats", 200)
                await self._send_json(writer, 200, payload, keep_alive)
            elif method == "GET" and path.startswith("/v1/trace/"):
                trace_id = urllib.parse.unquote(path[len("/v1/trace/") :])
                try:
                    payload = await _in_bridge(trace_payload, self.server, trace_id)
                except ServeError as error:
                    self.telemetry.record_request("/v1/trace/{trace_id}", 404)
                    await self._send_error(writer, 404, error, keep_alive)
                    return keep_alive
                self.telemetry.record_request("/v1/trace/{trace_id}", 200)
                await self._send_json(writer, 200, payload, keep_alive)
            elif (
                method == "GET"
                and path.startswith("/v1/infer/")
                and path.endswith("/events")
            ):
                request_id = urllib.parse.unquote(path[len("/v1/infer/") : -len("/events")])
                return await self._sse_events(request_id, writer, keep_alive)
            elif method == "POST" and path == "/v1/infer":
                return await self._infer(body, writer, keep_alive)
            elif method == "POST" and path == "/v1/shutdown" and self.allow_shutdown:
                self.telemetry.record_request("/v1/shutdown", 200)
                await self._send_json(writer, 200, {"status": "shutting-down"}, keep_alive)
                self.request_shutdown()
            elif method not in ("GET", "POST"):
                error = ServeError(f"method {method} not supported")
                self.telemetry.record_request(path, 501)
                await self._send_json(
                    writer, 501, error_body(error), keep_alive
                )
            elif self._known_path(path) and not self._method_matches(method, path):
                error = ServeError(f"method {method} not allowed for {path!r}")
                self.telemetry.record_request(path, 405)
                await self._send_json(writer, 405, error_body(error), keep_alive)
            else:
                error = ServeError(f"unknown path {path!r}")
                self.telemetry.record_request(path, 404)
                await self._send_error(writer, 404, error, keep_alive)
        except (ConnectionError, BrokenPipeError):
            return False
        except Exception as error:  # pragma: no cover - handler safety net
            try:
                await self._send_error(writer, status_for_error(error), error, False)
            except (ConnectionError, BrokenPipeError):
                pass
            return False
        return keep_alive

    @staticmethod
    def _known_path(path: str) -> bool:
        if path in ("/healthz", "/metrics", "/v1/models", "/v1/stats", "/v1/infer", "/v1/shutdown"):
            return True
        return path.startswith("/v1/trace/") or (
            path.startswith("/v1/infer/") and path.endswith("/events")
        )

    @staticmethod
    def _method_matches(method: str, path: str) -> bool:
        if path in ("/v1/infer", "/v1/shutdown"):
            return method == "POST"
        return method == "GET"

    # ------------------------------------------------------------------ infer
    async def _infer(self, body: bytes, writer, keep_alive: bool) -> bool:
        start = time.monotonic()
        loop = asyncio.get_running_loop()
        try:
            payload = self._parse_json(body)
            request = parse_infer_request(payload, self.server)
            futures = await loop.run_in_executor(
                self._bridge, submit_images, self.server, request
            )
        except Exception as error:
            status = status_for_error(error)
            self.telemetry.record_request("/v1/infer", status)
            await self._send_error(writer, status, error, keep_alive)
            return keep_alive
        if request.request_id is not None:
            progress = self._progress.register(request.request_id, len(futures))
            for future in futures:
                future.add_done_callback(progress.observe)
        if request.stream:
            return await self._infer_stream(request, futures, writer, keep_alive, start)
        results = await asyncio.gather(
            *(asyncio.wrap_future(future) for future in futures), return_exceptions=True
        )
        failure = next((r for r in results if isinstance(r, BaseException)), None)
        if failure is not None:
            status = status_for_error(failure)
            self.telemetry.record_request("/v1/infer", status)
            await self._send_error(writer, status, failure, keep_alive)
            return keep_alive
        outputs = np.stack(results)
        latency_ms = (time.monotonic() - start) * 1e3
        self.telemetry.record_request("/v1/infer", 200)
        await self._send_json(
            writer, 200, infer_response_body(outputs, request, latency_ms), keep_alive
        )
        return keep_alive

    async def _infer_stream(
        self, request, futures: List, writer, keep_alive: bool, start: float
    ) -> bool:
        """Chunked NDJSON response: one line per item as futures resolve.

        Futures resolve in submission order (the batcher's re-order buffer
        releases results in order), so awaiting them sequentially streams
        items ``0, 1, 2, ...`` with no buffering.  A failure emits one
        ``{"index", "error", "type"}`` line and ends the stream — earlier
        items were already delivered and stay valid.
        """
        await self._start_stream(writer, "application/x-ndjson", keep_alive)
        delivered = 0
        failed = False
        try:
            for index, future in enumerate(futures):
                try:
                    output = await asyncio.wrap_future(future)
                except Exception as error:
                    item = {"index": index, **error_body(error)}
                    await self._write_chunk(writer, dump_json(item) + b"\n")
                    failed = True
                    break
                line = dump_json(stream_item_body(index, output, request.encoding))
                await self._write_chunk(writer, line + b"\n")
                delivered += 1
            if not failed:
                final: Dict[str, object] = {
                    "done": True,
                    "count": delivered,
                    "latency_ms": (time.monotonic() - start) * 1e3,
                }
                if request.model is not None:
                    final["model"] = request.model
                if request.request_id is not None:
                    final["request_id"] = request.request_id
                await self._write_chunk(writer, dump_json(final) + b"\n")
            await self._end_stream(writer)
        except (ConnectionError, BrokenPipeError):
            keep_alive = False  # client went away mid-stream
        self.telemetry.record_stream(delivered)
        self.telemetry.record_request("/v1/infer", 200)
        return keep_alive and not failed

    # ------------------------------------------------------------------ SSE
    async def _sse_events(self, request_id: str, writer, keep_alive: bool) -> bool:
        progress = self._progress.get(request_id)
        if progress is None:
            error = ServeError(f"unknown request id {request_id!r}")
            self.telemetry.record_request("/v1/infer/{request_id}/events", 404)
            await self._send_error(writer, 404, error, keep_alive)
            return keep_alive
        assert self._stop_async is not None
        await self._start_stream(writer, "text/event-stream", keep_alive)
        events = 0
        last: Optional[Dict[str, object]] = None
        try:
            while True:
                snap = progress.snapshot()
                if snap != last:
                    name = "done" if snap["status"] in ("done", "failed") else "progress"
                    frame = f"event: {name}\ndata: {dump_json(snap).decode('utf-8')}\n\n"
                    await self._write_chunk(writer, frame.encode("utf-8"))
                    events += 1
                    last = snap
                    if name == "done":
                        break
                if self._stop_async.is_set():
                    break  # draining: end the stream, client resubscribes
                try:
                    await asyncio.wait_for(self._stop_async.wait(), timeout=SSE_POLL_S)
                except asyncio.TimeoutError:
                    pass
            await self._end_stream(writer)
        except (ConnectionError, BrokenPipeError):
            keep_alive = False
        self.telemetry.record_sse(events)
        self.telemetry.record_request("/v1/infer/{request_id}/events", 200)
        return keep_alive

    # ------------------------------------------------------------------ responses
    @staticmethod
    def _parse_json(body: bytes):
        if not body:
            raise BadRequestError("missing Content-Length header")
        try:
            return json.loads(body)
        except ValueError as error:
            raise BadRequestError(f"request body is not valid JSON: {error}") from error

    @staticmethod
    def _head(
        status: int,
        content_type: str,
        keep_alive: bool,
        extra: Optional[Dict[str, str]] = None,
        length: Optional[int] = None,
    ) -> bytes:
        reason = http.client.responses.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        else:
            lines.append("Transfer-Encoding: chunked")
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _send_json(
        self,
        writer,
        status: int,
        payload: Dict[str, object],
        keep_alive: bool,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        body = dump_json(payload)
        writer.write(
            self._head(status, "application/json", keep_alive, extra, len(body)) + body
        )
        await writer.drain()

    async def _send_text(
        self, writer, status: int, text: str, content_type: str, keep_alive: bool
    ) -> None:
        body = text.encode("utf-8")
        writer.write(self._head(status, content_type, keep_alive, None, len(body)) + body)
        await writer.drain()

    async def _send_error(
        self, writer, status: int, error: BaseException, keep_alive: bool
    ) -> None:
        await self._send_json(
            writer, status, error_body(error), keep_alive, retry_after_headers(error)
        )

    async def _start_stream(self, writer, content_type: str, keep_alive: bool) -> None:
        writer.write(self._head(200, content_type, keep_alive, None, None))
        await writer.drain()

    @staticmethod
    async def _write_chunk(writer, data: bytes) -> None:
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await writer.drain()

    @staticmethod
    async def _end_stream(writer) -> None:
        writer.write(b"0\r\n\r\n")
        await writer.drain()
