"""HTTP wire format, request helpers and client for the inference server.

The front-end itself is :class:`~repro.serve.http_async.AsyncServeHTTPServer`
— a single-event-loop asyncio server multiplexing keep-alive connections,
with NDJSON streaming responses and SSE progress.  It funnels every request
through the *same* ``submit()`` path in-process callers use, so in-order
delivery and bitwise determinism are preserved: the HTTP layer only encodes
and decodes payloads.  This module holds what the front-end and
:class:`HTTPInferenceClient` share: the route table (:data:`API_ROUTES`,
which ``docs/http-api.md`` is checked against by the docs-freshness test),
the payload codecs, request validation and the error → status mapping.

Endpoints
---------
``POST /v1/infer``
    One single-image request (``{"image": ...}``) or a batch
    (``{"images": ...}``).  Payloads are either nested JSON lists or
    base64-encoded ``.npy`` blobs (``image_npy_b64`` / ``images_npy_b64``),
    which round-trip float64 bits exactly and are ~3x denser than JSON.
    An optional ``{"model": name}`` field routes to one of the server's
    hosted models (absent → the default model, preserving the single-model
    API); unknown names are a 404.  ``{"block": false}`` turns queue
    overflow into an HTTP 429 with a ``Retry-After`` backpressure hint
    instead of blocking the connection (open-loop shedding over the wire).
    ``{"stream": true}`` switches the response to
    chunked newline-delimited JSON (one item per line as the re-order
    buffer releases it) and ``{"request_id": "..."}`` names the request so
    its progress can be followed over SSE.
``GET /v1/infer/{request_id}/events``
    Server-sent-events progress for a named in-flight request.
``GET /v1/models``
    The hosted-model listing: name, network, input shape, executor, current
    replica count and autoscaling bounds per model, plus the default name.
``GET /v1/stats``
    The server's :meth:`~repro.serve.server.InferenceServer.stats` snapshot —
    SLO telemetry, flush-policy state, replica-pool counters and a
    ``models`` section covering every hosted model — as JSON.
    ``GET /v1/stats?model=NAME`` narrows to one model (404 when unknown).
``GET /metrics``
    Prometheus text exposition (format 0.0.4) of the server's unified
    :class:`~repro.obs.metrics.MetricsRegistry` — serving telemetry,
    replica-pool and accelerator counters, breaker state, tracer health.
``GET /v1/trace/{trace_id}``
    One finished (or in-flight) request trace as JSON: the span tree plus
    the per-stage duration breakdown.  Unknown or evicted ids are a 404.
``GET /healthz``
    Liveness probe: workload name, input shape, executor, hosted models,
    uptime.
``POST /v1/shutdown``
    Requests a clean shutdown; only honoured when the front-end was built
    with ``allow_shutdown=True`` (404 otherwise, so probes cannot kill a
    server that did not opt in).

Error mapping: malformed payloads (including non-finite pixels) → 400,
queue overflow → 429, server not
running → 503, unknown path or model → 404, wrong method → 405.  Every
error body is ``{"error": msg, "type": ExceptionName}``.

:class:`HTTPInferenceClient` is the matching stdlib-only client.  It exposes
the same ``submit()/stats()`` surface as :class:`InferenceServer`, so a
:class:`~repro.serve.loadgen.LoadGenerator` can drive a remote server over
HTTP unchanged (``python -m repro loadgen --url ...``).
"""

from __future__ import annotations

import base64
import http.client
import io
import json
import random
import time
import urllib.parse
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Optional, Tuple

import numpy as np

from repro.concurrency import make_lock
from repro.errors import (
    BadRequestError,
    CircuitOpenError,
    QueueOverflowError,
    RequestTimeoutError,
    ServeError,
    UnknownModelError,
)
from repro.serve.server import InferenceServer

#: Default bind host; loopback so a bare ``--http`` never exposes a socket.
DEFAULT_HOST = "127.0.0.1"

#: Largest accepted request body (a 64 MB batch is ~2000 LeNet images).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Payload encodings understood by the client (the server accepts both).
ENCODINGS = ("json", "npy_b64")

#: The complete serving API: ``(method, route template)`` pairs.  The
#: front-end registers exactly these routes, ``docs/http-api.md`` documents
#: exactly these routes, and ``tests/test_docs.py`` diffs the two — so the
#: endpoint reference cannot drift from the implementation.
#: ``POST /v1/shutdown`` is answered only when the front-end opted in.
API_ROUTES = (
    ("GET", "/healthz"),
    ("GET", "/metrics"),
    ("GET", "/v1/models"),
    ("GET", "/v1/stats"),
    ("GET", "/v1/trace/{trace_id}"),
    ("GET", "/v1/infer/{request_id}/events"),
    ("POST", "/v1/infer"),
    ("POST", "/v1/shutdown"),
)


# ---------------------------------------------------------------------------
# payload codecs (shared by server and client)
# ---------------------------------------------------------------------------


def encode_array_b64(array: np.ndarray) -> str:
    """Base64 ``.npy`` serialization of an array (bitwise-exact transport)."""
    buffer = io.BytesIO()
    np.save(buffer, np.asarray(array))
    return base64.b64encode(buffer.getvalue()).decode("ascii")


def decode_array_b64(text: str) -> np.ndarray:
    """Inverse of :func:`encode_array_b64`; malformed input → 400."""
    try:
        raw = base64.b64decode(text, validate=True)
        return np.load(io.BytesIO(raw), allow_pickle=False)
    except Exception as error:
        raise BadRequestError(f"invalid base64 .npy payload: {error}") from error


def decode_infer_payload(
    payload: object, input_shape: Tuple[int, ...]
) -> Tuple[np.ndarray, bool, str]:
    """Decode a ``POST /v1/infer`` body into a validated image batch.

    Returns ``(images, batched, encoding)`` where ``images`` always has shape
    ``(B,) + input_shape``, ``batched`` says whether the caller sent a batch
    (and so expects a batch response), and ``encoding`` is the payload field
    family used (``"json"`` or ``"npy_b64"``) so the response can mirror it.
    """
    if not isinstance(payload, dict):
        raise BadRequestError("request body must be a JSON object")
    fields = [
        key
        for key in ("image", "images", "image_npy_b64", "images_npy_b64")
        if key in payload
    ]
    if len(fields) != 1:
        raise BadRequestError(
            "request must carry exactly one of 'image', 'images', "
            f"'image_npy_b64' or 'images_npy_b64', got {fields or 'none'}"
        )
    field = fields[0]
    encoding = "npy_b64" if field.endswith("_npy_b64") else "json"
    batched = field.startswith("images")
    if encoding == "npy_b64":
        array = decode_array_b64(payload[field])
    else:
        try:
            array = np.asarray(payload[field], dtype=float)
        except (TypeError, ValueError) as error:
            raise BadRequestError(f"{field!r} is not a numeric array: {error}") from error
    if array.dtype == object:
        raise BadRequestError(f"{field!r} is not a rectangular numeric array")
    array = np.asarray(array, dtype=float)
    if not batched:
        array = array[None]
    expected_ndim = 1 + len(input_shape)
    if array.ndim != expected_ndim or array.shape[1:] != tuple(input_shape):
        raise BadRequestError(
            f"{field!r} must decode to shape "
            f"{'(batch, ' if batched else '('}"
            f"{', '.join(map(str, input_shape))}), got {array[0].shape if not batched else array.shape}"
        )
    if batched and array.shape[0] < 1:
        raise BadRequestError("'images' batch must contain at least one image")
    if not np.isfinite(array).all():
        raise BadRequestError(f"{field!r} has non-finite (NaN/Inf) pixels")
    return array, batched, encoding


def _json_default(value):
    """JSON fallback for numpy scalars/arrays inside stats payloads."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return float(value)


def dump_json(payload: object) -> bytes:
    """The one JSON serialization of every response body."""
    return json.dumps(payload, default=_json_default).encode("utf-8")


# ---------------------------------------------------------------------------
# request handling
# ---------------------------------------------------------------------------


class InferRequest:
    """A validated ``POST /v1/infer`` body, front-end independent."""

    __slots__ = (
        "model",
        "images",
        "batched",
        "encoding",
        "block",
        "timeout",
        "stream",
        "request_id",
    )

    def __init__(self, model, images, batched, encoding, block, timeout, stream, request_id):
        self.model = model
        self.images = images
        self.batched = batched
        self.encoding = encoding
        self.block = block
        self.timeout = timeout
        self.stream = stream
        self.request_id = request_id


def parse_infer_request(payload: object, server: InferenceServer) -> InferRequest:
    """Validate a ``POST /v1/infer`` payload against ``server``'s models.

    Raises :class:`BadRequestError` on malformed fields and
    :class:`UnknownModelError` for unknown model names (the model resolves
    first, so unknown names 404 before shape validation — which depends on
    the model's input shape).
    """
    model = None
    if isinstance(payload, dict) and "model" in payload:
        model = payload["model"]
        if not isinstance(model, str):
            raise BadRequestError(f"'model' must be a JSON string, got {model!r}")
    input_shape = server.input_shape(model)
    images, batched, encoding = decode_infer_payload(payload, input_shape)
    block = payload.get("block", True)
    if not isinstance(block, bool):
        raise BadRequestError(f"'block' must be a JSON boolean, got {block!r}")
    timeout = payload.get("timeout_s")
    if timeout is not None and (
        isinstance(timeout, bool) or not isinstance(timeout, (int, float))
    ):
        raise BadRequestError(f"'timeout_s' must be a JSON number, got {timeout!r}")
    stream = payload.get("stream", False)
    if not isinstance(stream, bool):
        raise BadRequestError(f"'stream' must be a JSON boolean, got {stream!r}")
    request_id = payload.get("request_id")
    if request_id is not None and (not isinstance(request_id, str) or not request_id):
        raise BadRequestError(
            f"'request_id' must be a non-empty JSON string, got {request_id!r}"
        )
    return InferRequest(model, images, batched, encoding, block, timeout, stream, request_id)


def submit_images(server: InferenceServer, request: InferRequest) -> list:
    """Admit every image of ``request`` via ``server.submit``; returns futures.

    Only passes ``model=`` when the request named one: ``submit()`` may be
    wrapped (tests spy on it, middleware may decorate it) with the narrower
    pre-multi-model signature, and default-model requests should not require
    the wrapper to grow a kwarg it never uses.

    On queue overflow, part of the batch may already be admitted; those
    requests are waited out so the engine work completes and telemetry stays
    consistent, then the overflow is re-raised with the admitted count and a
    ``retry_after_s`` backpressure hint (the 429 response's ``Retry-After``).
    """
    futures = []
    overflow = None
    submit_kwargs = {} if request.model is None else {"model": request.model}
    for image in request.images:
        try:
            futures.append(
                server.submit(
                    image, block=request.block, timeout=request.timeout, **submit_kwargs
                )
            )
        except QueueOverflowError as error:
            overflow = error
            break
    if overflow is None:
        return futures
    for future in futures:
        try:
            future.result()
        except Exception:  # repro: noqa[RPR105] - draining
            pass  # already-admitted work; the overflow itself is
            # reported to the client right below
    rejection = QueueOverflowError(
        f"{overflow} ({len(futures)} of {len(request.images)} images "
        "admitted and executed before overflow)"
    )
    hint = getattr(server, "admission_retry_after_s", None)
    if hint is not None:
        rejection.retry_after_s = float(hint(request.model))  # type: ignore[attr-defined]
    raise rejection


def infer_response_body(
    outputs: np.ndarray, request: InferRequest, latency_ms: float
) -> Dict[str, object]:
    """The non-streamed ``POST /v1/infer`` response body."""
    body: Dict[str, object] = {"count": int(outputs.shape[0]), "latency_ms": latency_ms}
    if request.model is not None:
        body["model"] = request.model
    if request.request_id is not None:
        body["request_id"] = request.request_id
    if request.encoding == "npy_b64":
        key = "outputs_npy_b64" if request.batched else "output_npy_b64"
        body[key] = encode_array_b64(outputs if request.batched else outputs[0])
    elif request.batched:
        body["outputs"] = outputs.tolist()
    else:
        body["output"] = outputs[0].tolist()
    return body


def stream_item_body(index: int, output: np.ndarray, encoding: str) -> Dict[str, object]:
    """One NDJSON line of a streamed response.

    The per-item encoding mirrors the non-streamed body exactly — the same
    ``encode_array_b64`` / ``tolist()`` serialization of the same output row
    — so streamed and non-streamed responses byte-compare equal item-wise.
    """
    if encoding == "npy_b64":
        return {"index": int(index), "output_npy_b64": encode_array_b64(output)}
    return {"index": int(index), "output": output.tolist()}


def status_for_error(error: BaseException) -> int:
    """The serve exception hierarchy → HTTP status mapping."""
    if isinstance(error, QueueOverflowError):
        return 429
    if isinstance(error, BadRequestError):
        return 400
    if isinstance(error, UnknownModelError):
        return 404  # the model name addresses a resource, like a path
    if isinstance(error, ServeError):
        # Includes CircuitOpenError: breaker shed-load is 503 with a
        # Retry-After header (see retry_after_headers), like lifecycle errors.
        return 503
    return 500


def error_body(error: BaseException) -> Dict[str, object]:
    """Every error response body is ``{"error": msg, "type": ExceptionName}``."""
    return {"error": str(error), "type": type(error).__name__}


def retry_after_headers(error: BaseException) -> Optional[Dict[str, str]]:
    """``Retry-After`` header for errors carrying a ``retry_after_s`` hint.

    Whole seconds, rounded up: the client must not come back early.
    """
    retry_after_s = getattr(error, "retry_after_s", None)
    if retry_after_s is None:
        return None
    return {"Retry-After": str(max(1, int(-(-float(retry_after_s) // 1))))}


def models_payload(server: InferenceServer) -> Dict[str, object]:
    """The ``GET /v1/models`` body."""
    return {"default": server.default_model, "models": server.models()}


def trace_payload(server: InferenceServer, trace_id: str) -> Dict[str, object]:
    """The ``GET /v1/trace/{trace_id}`` body; raises ServeError for 404s."""
    tracer = getattr(server, "tracer", None)
    if tracer is None:
        raise ServeError("tracing is disabled on this server")
    trace = tracer.get(trace_id)
    if trace is None:
        raise ServeError(f"unknown trace {trace_id!r}")
    return trace


def health_payload(server: InferenceServer, uptime_s: float) -> Dict[str, object]:
    """The ``/healthz`` body: legacy summary plus live/ready/degraded.

    ``status`` stays ``"ok"`` on a healthy server (probes and older callers
    key on it); it reads ``"degraded"`` while a model is recovering and
    ``"down"`` when nothing can admit traffic.
    """
    levels = server.health_levels()
    if levels["live"] and levels["ready"]:
        status = "degraded" if levels["degraded"] else "ok"
    else:
        status = "down"
    return {
        "status": status,
        "live": levels["live"],
        "ready": levels["ready"],
        "degraded": levels["degraded"],
        "model_health": levels["models"],
        "network": server.network.name,
        "input_shape": list(server.network.input_shape.as_tuple()),
        "executor": str(server.executor),
        "policy": server.policy.kind,
        "models": server.model_names(),
        "default_model": server.default_model,
        "uptime_s": uptime_s,
    }


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------


class HTTPInferenceClient:
    """Stdlib HTTP client speaking the ``/v1`` serving API.

    Duck-type compatible with :class:`InferenceServer` where the
    :class:`~repro.serve.loadgen.LoadGenerator` is concerned: ``submit()``
    returns a future of the output vector (dispatched on an internal thread
    pool, one HTTP request per inference), and ``stats()`` fetches the remote
    telemetry snapshot.  HTTP errors are mapped back onto the serve exception
    hierarchy (429 → :class:`QueueOverflowError`, 400 →
    :class:`BadRequestError`, breaker shed 503 → :class:`CircuitOpenError`,
    anything else → :class:`ServeError`), so shed-load accounting works
    unchanged over the wire.

    **Timeouts.**  ``connect_timeout_s`` bounds the TCP connect,
    ``timeout_s`` bounds each socket read after that (a hung server surfaces
    as :class:`~repro.errors.RequestTimeoutError` instead of blocking the
    caller forever).

    **Retries.**  Transient failures — connection errors, timeouts and 503s
    (the server restarting a replica, or a breaker shedding load) — are
    retried up to ``max_retries`` times with jittered exponential backoff;
    a ``Retry-After`` header, when the server sends one, overrides the
    computed delay.  Inference is pure and admission is idempotent, so
    retrying a ``POST /v1/infer`` cannot change the result.  Definite
    rejections (400, 404, 429) are never retried: shed-load accounting
    requires every 429 to surface exactly once.

    **Connections.**  Requests reuse keep-alive connections from an idle
    pool (at most ``max_connections`` retained) instead of dialing per
    request, so a load generator with ``--connections N`` holds N
    keep-alive sockets against the async front-end.  A pooled connection
    the server closed while idle gets one silent retry on a fresh dial —
    that is transport housekeeping, not a request retry, so it does not
    count against ``max_retries``.  :meth:`transport_stats` exposes the
    dial/reuse counters.
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = 60.0,
        max_connections: int = 16,
        encoding: str = "json",
        model: Optional[str] = None,
        connect_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        retry_backoff_max_s: float = 2.0,
        retry_seed: int = 0,
        sleep=time.sleep,
    ) -> None:
        if encoding not in ENCODINGS:
            raise ServeError(
                f"unknown payload encoding {encoding!r}: expected one of {ENCODINGS}"
            )
        if max_retries < 0:
            raise ServeError(f"max_retries must be >= 0, got {max_retries}")
        self.base_url = url.rstrip("/")
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or parts.hostname is None:
            raise ServeError(
                f"invalid server URL {url!r}: expected http[s]://host[:port]"
            )
        self._scheme = parts.scheme
        self._host = parts.hostname
        self._port = parts.port
        self._path_prefix = parts.path.rstrip("/")
        self.timeout_s = float(timeout_s)
        self.connect_timeout_s = (
            self.timeout_s if connect_timeout_s is None else float(connect_timeout_s)
        )
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.retry_backoff_max_s = float(retry_backoff_max_s)
        self.encoding = encoding
        #: Default model name sent with every request (None = server default).
        self.model = model
        self._sleep = sleep
        self._retry_rng = random.Random(retry_seed)
        self._retry_lock = make_lock("HTTPInferenceClient._retry_lock")
        self._retries_performed = 0
        self._max_connections = int(max_connections)
        self._pool_lock = make_lock("HTTPInferenceClient._pool_lock")
        self._pool: list = []  # idle keep-alive connections (LIFO)
        self._connections_opened = 0
        self._connections_reused = 0
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=max_connections, thread_name_prefix="http-client"
        )

    # ------------------------------------------------------------------ transport
    @property
    def retries_performed(self) -> int:
        """Total transport retries this client has made (telemetry)."""
        with self._retry_lock:
            return self._retries_performed

    def transport_stats(self) -> Dict[str, int]:
        """Connection-pool counters: dials, reuses, idle size, retries."""
        with self._pool_lock:
            stats = {
                "connections_opened": self._connections_opened,
                "connections_reused": self._connections_reused,
                "connections_idle": len(self._pool),
            }
        stats["retries_performed"] = self.retries_performed
        return stats

    def _dial(self):
        connection_cls = (
            http.client.HTTPSConnection
            if self._scheme == "https"
            else http.client.HTTPConnection
        )
        connection = connection_cls(
            self._host, self._port, timeout=self.connect_timeout_s
        )
        try:
            connection.connect()
        except (TimeoutError, OSError) as error:
            raise self._transport_error("connect to", error) from error
        # Separate read budget: the connect timeout guarded the dial,
        # everything after runs on the per-read timeout.
        if connection.sock is not None:
            connection.sock.settimeout(self.timeout_s)
        with self._pool_lock:
            self._connections_opened += 1
        return connection

    def _acquire(self):
        """An idle pooled connection if one exists, else a fresh dial."""
        with self._pool_lock:
            if self._pool:
                self._connections_reused += 1
                return self._pool.pop(), True
        return self._dial(), False

    def _release(self, connection, reusable: bool) -> None:
        if reusable:
            with self._pool_lock:
                if not self._closed and len(self._pool) < self._max_connections:
                    self._pool.append(connection)
                    return
        connection.close()

    def _open_response(self, method: str, path: str, body: Optional[bytes]):
        """Send one request and return ``(connection, response)``, body unread.

        A pooled connection can go stale while idle (server-side keep-alive
        timeout, server restart); failures on a *reused* connection get one
        silent retry on a fresh dial before surfacing, and that retry does
        not count against ``max_retries`` — the request was never delivered.
        """
        headers = {"Content-Type": "application/json"} if body else {}
        connection, reused = self._acquire()
        try:
            connection.request(method, self._path_prefix + path, body=body, headers=headers)
            return connection, connection.getresponse()
        except (TimeoutError, OSError, http.client.HTTPException) as error:
            connection.close()
            if not reused:
                raise self._transport_error("read from", error) from error
        connection = self._dial()
        try:
            connection.request(method, self._path_prefix + path, body=body, headers=headers)
            return connection, connection.getresponse()
        except (TimeoutError, OSError, http.client.HTTPException) as error:
            connection.close()
            raise self._transport_error("read from", error) from error

    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        """One API call with bounded, jittered, Retry-After-aware retries."""
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except ServeError as error:
                if not getattr(error, "_retryable", False) or attempt >= self.max_retries:
                    raise
                delay = getattr(error, "retry_after_s", None)
                if not delay:
                    delay = min(
                        self.retry_backoff_s * (2**attempt), self.retry_backoff_max_s
                    )
                    delay *= 0.5 + 0.5 * self._retry_rng.random()  # jitter
                attempt += 1
                with self._retry_lock:
                    self._retries_performed += 1
                self._sleep(float(delay))

    def _request_once(self, method: str, path: str, payload: Optional[dict]) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        connection, response = self._open_response(method, path, body)
        try:
            status = response.status
            reason = response.reason
            retry_after = response.getheader("Retry-After")
            raw = response.read()
        except (TimeoutError, OSError, http.client.HTTPException) as error:
            connection.close()
            raise self._transport_error("read from", error) from error
        self._release(connection, not response.will_close)
        if status >= 400:
            raise self._mapped_error(status, reason, raw, retry_after)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise ServeError(
                f"invalid JSON response from {self.base_url}: {error}"
            ) from error

    def _transport_error(self, stage: str, error: BaseException) -> ServeError:
        if isinstance(error, TimeoutError):
            mapped: ServeError = RequestTimeoutError(
                f"timed out trying to {stage} inference server at "
                f"{self.base_url} ({self.connect_timeout_s if 'connect' in stage else self.timeout_s} s)"
            )
        else:
            mapped = ServeError(
                f"cannot {stage} inference server at {self.base_url}: {error}"
            )
        mapped._retryable = True  # type: ignore[attr-defined]
        return mapped

    @staticmethod
    def _mapped_error(
        status: int, reason: str, raw: bytes, retry_after: Optional[str]
    ) -> ServeError:
        detail = ""
        error_type = ""
        try:
            body = json.loads(raw)
            detail = body.get("error", "")
            error_type = body.get("type", "")
        except (ValueError, AttributeError, TypeError):
            pass  # non-JSON or non-object body; fall back to the HTTP reason
        message = f"HTTP {status}: {detail or reason}"
        retry_after_s: Optional[float] = None
        if retry_after is not None:
            try:
                retry_after_s = max(0.0, float(retry_after))
            except ValueError:
                pass
        if status == 429:
            return QueueOverflowError(message)
        if status == 400:
            return BadRequestError(message)
        if status == 404 and error_type == "UnknownModelError":
            return UnknownModelError(message)
        if status == 503 and error_type == "CircuitOpenError":
            error: ServeError = CircuitOpenError(
                message, retry_after_s=retry_after_s or 1.0
            )
        else:
            error = ServeError(message)
            if retry_after_s is not None:
                error.retry_after_s = retry_after_s  # type: ignore[attr-defined]
        if status == 503:
            error._retryable = True  # type: ignore[attr-defined]
        return error

    # ------------------------------------------------------------------ API
    def _resolve_model(self, model: Optional[str]) -> Optional[str]:
        return self.model if model is None else model

    def _admission_fields(
        self, payload: dict, block: bool, timeout: Optional[float], model: Optional[str]
    ) -> dict:
        payload["block"] = bool(block)
        if timeout is not None:
            payload["timeout_s"] = float(timeout)
        model = self._resolve_model(model)
        if model is not None:
            payload["model"] = model
        return payload

    def infer(
        self,
        image: np.ndarray,
        block: bool = True,
        timeout: Optional[float] = None,
        model: Optional[str] = None,
    ) -> np.ndarray:
        """Run one image through the remote server; returns the output vector.

        ``timeout`` bounds server-side *admission* blocking (the
        ``timeout_s`` payload field) with the same semantics as
        :meth:`InferenceServer.submit`: a still-full queue raises
        :class:`QueueOverflowError` (HTTP 429) once it expires.  ``model``
        routes to one of the server's hosted models (falling back to the
        client's default, then the server's).
        """
        image = np.asarray(image, dtype=float)
        if self.encoding == "npy_b64":
            payload = {"image_npy_b64": encode_array_b64(image)}
        else:
            payload = {"image": image.tolist()}
        self._admission_fields(payload, block, timeout, model)
        body = self._request("POST", "/v1/infer", payload)
        if "output_npy_b64" in body:
            return decode_array_b64(body["output_npy_b64"])
        return np.asarray(body["output"], dtype=float)

    def infer_batch(
        self,
        images: np.ndarray,
        block: bool = True,
        timeout: Optional[float] = None,
        model: Optional[str] = None,
        stream: bool = False,
    ) -> np.ndarray:
        """Run a whole batch in one HTTP request; returns (B, num_outputs).

        ``stream=True`` consumes the response as NDJSON items instead of one
        body (async front-end only) — same outputs, same order, but the
        server starts sending as soon as the first item completes.
        """
        if stream:
            rows = [output for _, output in self.infer_stream(images, block, timeout, model)]
            return np.stack(rows)
        images = np.asarray(images, dtype=float)
        if self.encoding == "npy_b64":
            payload = {"images_npy_b64": encode_array_b64(images)}
        else:
            payload = {"images": images.tolist()}
        self._admission_fields(payload, block, timeout, model)
        body = self._request("POST", "/v1/infer", payload)
        if "outputs_npy_b64" in body:
            return decode_array_b64(body["outputs_npy_b64"])
        return np.asarray(body["outputs"], dtype=float)

    def infer_stream(
        self,
        images: np.ndarray,
        block: bool = True,
        timeout: Optional[float] = None,
        model: Optional[str] = None,
        request_id: Optional[str] = None,
    ):
        """Stream a batch's per-item results as they complete (async front-end).

        Yields ``(index, output_vector)`` pairs in submission order — the
        server releases items through the same in-order path as the
        non-streamed response, so indices arrive ``0, 1, 2, ...``.  A
        mid-stream failure raises the mapped serve exception after all
        earlier items were yielded.  ``request_id`` names the request so a
        second connection can follow it via :meth:`events`.
        """
        images = np.asarray(images, dtype=float)
        if self.encoding == "npy_b64":
            payload: dict = {"images_npy_b64": encode_array_b64(images)}
        else:
            payload = {"images": images.tolist()}
        self._admission_fields(payload, block, timeout, model)
        payload["stream"] = True
        if request_id is not None:
            payload["request_id"] = request_id
        for item in self._ndjson_items("/v1/infer", payload):
            if "error" in item:
                raise self._item_error(item)
            if item.get("done"):
                return
            if "output_npy_b64" in item:
                yield int(item["index"]), decode_array_b64(item["output_npy_b64"])
            else:
                yield int(item["index"]), np.asarray(item["output"], dtype=float)

    def events(self, request_id: str):
        """Follow SSE progress for a named request (``GET .../events``).

        Yields ``{"event": name, "data": payload}`` dicts — ``progress``
        events while the request runs, one final ``done`` — then returns.
        Unknown request ids raise :class:`ServeError` (HTTP 404).
        """
        path = f"/v1/infer/{urllib.parse.quote(request_id)}/events"
        connection, response = self._open_response("GET", path, None)
        complete = False
        try:
            if response.status >= 400:
                raw = response.read()
                complete = not response.will_close
                raise self._mapped_error(
                    response.status,
                    response.reason,
                    raw,
                    response.getheader("Retry-After"),
                )
            event_name: Optional[str] = None
            data_lines: list = []
            while True:
                try:
                    line = response.readline()
                except (TimeoutError, OSError, http.client.HTTPException) as error:
                    raise self._transport_error("read from", error) from error
                if not line:
                    complete = not response.will_close
                    return
                text = line.decode("utf-8").rstrip("\r\n")
                if not text:  # blank line dispatches the accumulated event
                    if data_lines:
                        data = json.loads("\n".join(data_lines))
                        name = event_name or "message"
                        if name == "done":
                            # Drain before yielding: a consumer that stops at
                            # the terminal event closes this generator at the
                            # yield, and the connection must already be marked
                            # reusable by then.
                            response.read()  # drain the terminal chunk
                            complete = not response.will_close
                            yield {"event": name, "data": data}
                            return
                        yield {"event": name, "data": data}
                    event_name, data_lines = None, []
                elif text.startswith("event:"):
                    event_name = text[len("event:") :].strip()
                elif text.startswith("data:"):
                    data_lines.append(text[len("data:") :].strip())
        finally:
            self._release(connection, complete)

    def _ndjson_items(self, path: str, payload: dict):
        """POST ``payload`` and yield each NDJSON line of the response."""
        body = json.dumps(payload).encode("utf-8")
        connection, response = self._open_response("POST", path, body)
        complete = False
        try:
            if response.status >= 400:
                raw = response.read()
                complete = not response.will_close
                raise self._mapped_error(
                    response.status,
                    response.reason,
                    raw,
                    response.getheader("Retry-After"),
                )
            while True:
                try:
                    line = response.readline()
                except (TimeoutError, OSError, http.client.HTTPException) as error:
                    raise self._transport_error("read from", error) from error
                if not line:
                    # EOF without a terminal item; the body is exhausted, so
                    # the socket is still reusable unless the server asked to
                    # close it.
                    complete = not response.will_close
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    item = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ServeError(
                        f"invalid NDJSON line from {self.base_url}: {error}"
                    ) from error
                if isinstance(item, dict) and (item.get("done") or "error" in item):
                    # Drain before yielding the terminal item: consumers stop
                    # iterating the moment they see it (``infer_stream``
                    # returns on ``done``, raises on ``error``), which closes
                    # this generator at the yield — the connection must
                    # already be marked reusable by then.
                    try:
                        response.read()  # drain the terminal chunk for reuse
                        complete = not response.will_close
                    except (TimeoutError, OSError, http.client.HTTPException):
                        complete = False
                    yield item
                    return
                yield item
        finally:
            self._release(connection, complete)

    _ITEM_ERROR_TYPES = {
        "QueueOverflowError": QueueOverflowError,
        "BadRequestError": BadRequestError,
        "UnknownModelError": UnknownModelError,
        "ServeError": ServeError,
    }

    @classmethod
    def _item_error(cls, item: dict) -> ServeError:
        """Map a mid-stream ``{"index", "error", "type"}`` line to an exception."""
        message = f"item {item.get('index')}: {item.get('error', 'inference failed')}"
        if item.get("type") == "CircuitOpenError":
            return CircuitOpenError(message)
        return cls._ITEM_ERROR_TYPES.get(item.get("type", ""), ServeError)(message)

    def submit(
        self,
        image: np.ndarray,
        block: bool = True,
        timeout: Optional[float] = None,
        model: Optional[str] = None,
    ) -> "Future[np.ndarray]":
        """LoadGenerator-compatible async submit (one HTTP request per image).

        ``block``/``timeout`` carry :meth:`InferenceServer.submit` admission
        semantics over the wire.  Queue overflow surfaces when the future
        resolves (the wire cannot report admission separately from
        completion), which the load generator's gather phase accounts for.
        """
        return self._executor.submit(
            self.infer, np.asarray(image, dtype=float), block, timeout, model
        )

    def stats(self, model: Optional[str] = None) -> dict:
        """Remote :meth:`InferenceServer.stats` snapshot (JSON-typed).

        ``model`` narrows to one hosted model's snapshot.  Unlike the infer
        calls, the client's default model is *not* applied here: bare
        ``stats()`` keeps returning the whole-server snapshot.
        """
        path = "/v1/stats"
        if model is not None:
            path += "?" + urllib.parse.urlencode({"model": model})
        return self._request("GET", path)

    def models(self) -> dict:
        """Remote hosted-model listing (``GET /v1/models``)."""
        return self._request("GET", "/v1/models")

    def healthz(self) -> dict:
        """Remote liveness probe."""
        return self._request("GET", "/healthz")

    def shutdown_remote(self) -> dict:
        """Ask the remote front-end to shut down (requires ``allow_shutdown``)."""
        return self._request("POST", "/v1/shutdown", {})

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        self._executor.shutdown(wait=True)
        with self._pool_lock:
            self._closed = True
            idle, self._pool = self._pool, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "HTTPInferenceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
