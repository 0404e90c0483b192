"""Async HTTP front-end lane (``pytest -m asynchttp``).

Covered: NDJSON streaming responses (in-order delivery, byte-for-byte
equality with the non-streamed body item-wise, bitwise equality vs a direct
``run_batch`` across executors), SSE progress events, raw-socket keep-alive
+ pipelining, client connection-pool reuse, queue-overflow backpressure as
``429 + Retry-After``, the wire-side telemetry counters, and the chaos
subset replayed against the asyncio front-end (replica SIGKILL mid-batch
with zero lost requests, breaker shed as 503).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse

import numpy as np
import pytest

from repro.config import small_test_chip
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.errors import CircuitOpenError, ServeError
from repro.nn import build_lenet5
from repro.serve import (
    AsyncServeHTTPServer,
    CircuitBreakerPolicy,
    HTTPInferenceClient,
    InferenceServer,
    LoadGenerator,
    ModelDefinition,
    ModelRegistry,
    encode_array_b64,
)

pytestmark = pytest.mark.asynchttp

_CHIP = dict(rows=32, columns=32, num_cores=2)


@pytest.fixture(scope="module")
def lenet_workload():
    network = build_lenet5()
    weights = generate_random_weights(network, seed=0, scale=0.3)
    config = small_test_chip(**_CHIP)
    images = np.random.default_rng(1).uniform(
        0.0, 1.0, (8,) + network.input_shape.as_tuple()
    )
    direct = FunctionalInferenceEngine(network, weights, config).run_batch(images)
    return network, weights, config, images, direct


def _server(lenet_workload, **overrides) -> InferenceServer:
    network, weights, config, _, _ = lenet_workload
    options = dict(max_batch=4, max_wait_s=0.005)
    options.update(overrides)
    return InferenceServer(network, weights, config, **options)


def _faulty_server(lenet_workload, **model_options) -> InferenceServer:
    """A single-model server whose definition carries fault/breaker knobs."""
    network, weights, config, _, _ = lenet_workload
    options = dict(max_batch=4, max_wait_s=0.005)
    options.update(model_options)
    registry = ModelRegistry(
        [
            ModelDefinition(
                name="lenet5", network=network, weights=dict(weights), config=config,
                **options,
            )
        ]
    )
    return InferenceServer(registry=registry)


def _raw_post(url: str, payload: dict):
    """POST and return ``(status, headers, body_bytes)`` without retries."""
    parts = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30.0)
    try:
        body = json.dumps(payload).encode("utf-8")
        connection.request(
            "POST", "/v1/infer", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestStreaming:
    def test_streamed_items_byte_equal_non_streamed_npy(self, lenet_workload):
        """Acceptance: streamed and non-streamed responses byte-compare equal
        item-wise — the streamed ``output_npy_b64`` string for item *i* is the
        exact base64 serialization of row *i* of the non-streamed batch."""
        _, _, _, images, _ = lenet_workload
        payload = {"images_npy_b64": encode_array_b64(images), "block": True}
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                status, _, plain = _raw_post(front.url, payload)
                assert status == 200
                status, headers, streamed = _raw_post(
                    front.url, {**payload, "stream": True}
                )
                assert status == 200
                assert headers.get("Content-Type") == "application/x-ndjson"
        from repro.serve import decode_array_b64

        batch = decode_array_b64(json.loads(plain)["outputs_npy_b64"])
        lines = [json.loads(line) for line in streamed.splitlines() if line]
        assert lines[-1]["done"] is True
        assert lines[-1]["count"] == len(images)
        items = lines[:-1]
        assert [item["index"] for item in items] == list(range(len(images)))
        for index, item in enumerate(items):
            # string equality of the base64 payloads == byte equality
            assert item["output_npy_b64"] == encode_array_b64(batch[index])

    def test_streamed_json_items_equal_non_streamed_rows(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        payload = {"images": images.tolist(), "block": True}
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                _, _, plain = _raw_post(front.url, payload)
                _, _, streamed = _raw_post(front.url, {**payload, "stream": True})
        outputs = json.loads(plain)["outputs"]
        items = [json.loads(line) for line in streamed.splitlines() if line][:-1]
        assert [item["output"] for item in items] == outputs

    @pytest.mark.parametrize("executor", ["serial", "thread:2", "process:2"])
    def test_streamed_bitwise_vs_run_batch_all_executors(self, lenet_workload, executor):
        """Acceptance: bitwise-identical outputs through the async front-end
        for every executor spec."""
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload, executor=executor) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url, encoding="npy_b64") as client:
                    plain = client.infer_batch(images)
                    streamed = client.infer_batch(images, stream=True)
        assert np.array_equal(plain, direct)
        assert np.array_equal(streamed, direct)

    def test_stream_yields_index_output_pairs_in_order(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url) as client:
                    pairs = list(client.infer_stream(images))
        assert [index for index, _ in pairs] == list(range(len(images)))
        assert np.array_equal(np.stack([row for _, row in pairs]), direct)


class TestSSEProgress:
    def test_events_report_progress_then_done(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url) as client:
                    done = threading.Event()
                    collected = []

                    def subscribe():
                        # subscribes while the batch is in flight
                        collected.extend(client.events("sse-req"))
                        done.set()

                    rows = []
                    stream = client.infer_stream(images, request_id="sse-req")
                    first = next(stream)
                    watcher = threading.Thread(target=subscribe, daemon=True)
                    watcher.start()
                    rows = [first] + list(stream)
                    assert done.wait(30.0), "SSE subscriber never saw 'done'"
        assert np.array_equal(np.stack([r for _, r in rows]), direct)
        assert collected, "no SSE events received"
        final = collected[-1]
        assert final["event"] == "done"
        assert final["data"]["status"] == "done"
        assert final["data"]["completed"] == len(images)
        assert final["data"]["failed"] == 0
        assert all(event["data"]["request_id"] == "sse-req" for event in collected)

    def test_late_subscriber_gets_immediate_done(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url) as client:
                    client.infer_batch(
                        images[:2], stream=False
                    )  # no request_id: nothing registered
                    list(client.infer_stream(images[:2], request_id="finished"))
                    events = list(client.events("finished"))
        assert len(events) == 1
        assert events[0]["event"] == "done"
        assert events[0]["data"]["total"] == 2

    def test_unknown_request_id_is_404(self, lenet_workload):
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url, max_retries=0) as client:
                    with pytest.raises(ServeError, match="HTTP 404"):
                        list(client.events("never-registered"))


class TestKeepAliveAndPipelining:
    def test_raw_socket_pipelined_requests_answered_in_order(self, lenet_workload):
        """Two requests written back-to-back before reading anything: the
        front-end answers both, in order, on the same connection."""
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                with socket.create_connection(("127.0.0.1", front.port), 30.0) as sock:
                    request = (
                        b"GET /healthz HTTP/1.1\r\n"
                        b"Host: x\r\nAccept: */*\r\n\r\n"
                    )
                    sock.sendall(request + request)  # pipelined
                    sock.settimeout(30.0)
                    buffer = b""
                    deadline = time.monotonic() + 30.0
                    while buffer.count(b'"status"') < 2 and time.monotonic() < deadline:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        buffer += chunk
        assert buffer.count(b"HTTP/1.1 200 OK") == 2
        assert b"Connection: keep-alive" in buffer

    def test_client_pool_reuses_one_connection(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url) as client:
                    for image in images:
                        client.infer(image)  # sequential: one socket suffices
                    transport = client.transport_stats()
                    snapshot = front.telemetry.snapshot()
        assert transport["connections_opened"] == 1
        assert transport["connections_reused"] == len(images) - 1
        assert snapshot["connections_opened"] == 1
        assert snapshot["requests"].get("/v1/infer 200") == len(images)

    def test_client_pool_reuses_connection_across_streams_and_sse(
        self, lenet_workload
    ):
        """Streamed NDJSON and SSE responses return their socket to the pool.

        Regression: ``infer_stream`` stops iterating ``_ndjson_items`` the
        moment it sees the terminal item, closing the generator at the yield —
        the drain-and-mark-reusable step must therefore run *before* that
        yield, or every stream leaks its pooled connection.
        """
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url, encoding="npy_b64") as client:
                    batch = client.infer_batch(images)
                    rows = dict(client.infer_stream(images, request_id="pool"))
                    for event in client.events("pool"):
                        if event["event"] == "done":
                            break  # early-exit consumer: worst case for reuse
                    client.healthz()
                    transport = client.transport_stats()
        np.testing.assert_array_equal(batch, direct)
        np.testing.assert_array_equal(
            np.stack([rows[i] for i in range(len(images))]), direct
        )
        assert transport["connections_opened"] == 1, transport
        assert transport["connections_idle"] == 1, transport

    def test_telemetry_counts_streams_and_sse(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url) as client:
                    list(client.infer_stream(images, request_id="telemetry"))
                    list(client.events("telemetry"))
                    # the server records the SSE counters just after the
                    # client read the last event: allow it a beat
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        snapshot = front.telemetry.snapshot()
                        if snapshot["sse_streams"] >= 1:
                            break
                        time.sleep(0.02)
        assert snapshot["streams_started"] == 1
        assert snapshot["stream_items"] == len(images)
        assert snapshot["sse_streams"] == 1
        assert snapshot["sse_events"] >= 1

    def test_metrics_expose_frontend_families(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url) as client:
                    client.infer(images[0])
                parts = urllib.parse.urlsplit(front.url)
                connection = http.client.HTTPConnection(
                    parts.hostname, parts.port, timeout=30.0
                )
                try:
                    connection.request("GET", "/metrics")
                    text = connection.getresponse().read().decode("utf-8")
                finally:
                    connection.close()
        assert "repro_http_connections_opened_total" in text
        assert 'repro_http_requests_total{frontend="async",route="/v1/infer"' in text


class TestBackpressure:
    def test_queue_overflow_is_429_with_retry_after_header(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        server = _server(
            lenet_workload, max_batch=2, max_wait_s=0.0, queue_capacity=2
        )
        with server:
            with AsyncServeHTTPServer(server) as front:
                saw_429 = None
                # non-blocking floods shed once the 2-deep queue fills
                for _ in range(12):
                    status, headers, body = _raw_post(
                        front.url,
                        {"images": images.tolist(), "block": False},
                    )
                    if status == 429:
                        saw_429 = (headers, json.loads(body))
                        break
        assert saw_429 is not None, "flood never produced a 429"
        headers, payload = saw_429
        assert payload["type"] == "QueueOverflowError"
        retry_after = headers.get("Retry-After")
        assert retry_after is not None, "429 without Retry-After hint"
        assert int(retry_after) >= 1

    def test_retry_after_hint_tracks_service_time(self, lenet_workload):
        """The hint grows with observed batch service time and queue depth."""
        with _server(lenet_workload) as server:
            batcher = server._runtime(None).batcher
            assert batcher.retry_after_hint_s() == 1.0  # no samples yet: default
            batcher.observe_batch(4, 0.2)
            hint = batcher.retry_after_hint_s()
            assert 0.05 <= hint <= 30.0
            batcher.observe_batch(4, 10.0)  # EWMA moves toward slow batches
            assert server.admission_retry_after_s() > hint


class TestAsyncChaos:
    def test_replica_sigkill_mid_run_zero_lost_bitwise_over_async_http(
        self, lenet_workload
    ):
        """Chaos acceptance: process replicas crash every few batches while a
        closed-loop client drives the async front-end — nothing is lost and
        every output stays bitwise identical."""
        _, _, _, images, direct = lenet_workload
        server = _faulty_server(
            lenet_workload,
            executor="process:2",
            max_batch=2,
            faults=["crash:every=5"],
            dispatch_timeout_s=120.0,
            max_attempts=3,
            backoff_base_s=0.01,
        )
        flood = np.concatenate([images, images])
        with server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(
                    front.url, timeout_s=120.0, encoding="npy_b64"
                ) as client:
                    report = LoadGenerator(client).run_closed_loop(
                        flood, concurrency=4
                    )
            stats = server.stats()
        assert report.requests == len(flood)  # zero lost requests
        assert np.array_equal(report.outputs, np.concatenate([direct, direct]))
        faults = stats["pool"]["faults"]
        assert faults["injection"]["injected"]["crash"] >= 1
        assert faults["replica_restarts"] >= 1
        assert faults["batches_failed"] == 0

    def test_open_breaker_is_503_circuit_open_over_async_http(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        server = _faulty_server(
            lenet_workload,
            executor="thread:1",
            faults=["crash"],
            max_attempts=1,
            backoff_base_s=0.0,
            breaker=CircuitBreakerPolicy(
                failure_threshold=0.5, window=4, min_samples=1, recovery_s=60.0,
            ),
        )
        with server, AsyncServeHTTPServer(server) as front:
            client = HTTPInferenceClient(front.url, timeout_s=120.0, max_retries=0)
            try:
                with pytest.raises(ServeError):
                    client.infer(images[0])  # trips the breaker
                with pytest.raises(CircuitOpenError) as excinfo:
                    client.infer(images[0])  # now shed at admission
                health = client.healthz()
            finally:
                client.close()
        assert excinfo.value.retry_after_s >= 1.0  # Retry-After round-tripped
        assert health["status"] == "down"

    def test_stopped_engine_maps_to_503_mid_keep_alive(self, lenet_workload):
        """A pooled keep-alive connection outlives the engine: requests on it
        surface the lifecycle 503, not a hung socket."""
        _, _, _, images, _ = lenet_workload
        server = _server(lenet_workload).start()
        with AsyncServeHTTPServer(server) as front:
            with HTTPInferenceClient(front.url, max_retries=0) as client:
                client.infer(images[0])
                server.stop()
                with pytest.raises(ServeError, match="HTTP 503"):
                    client.infer(images[0])
