"""Tests for the HTTP front-end (``repro.serve.http`` + ``repro.serve.http_async``).

Part of the ``serving`` lane.  Covered: bitwise equivalence of HTTP-served
outputs against a direct ``run_batch`` for every executor spec (the PR's
acceptance criterion), both payload encodings (JSON lists and base64 ``.npy``),
the stats/health endpoints, the HTTP error mapping (400/404/405/429/503,
non-finite pixels included),
queue-overflow shedding over the wire, driving an HTTP server with the load
generator, and the ``serve --http`` CLI round trip.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.config import small_test_chip
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.errors import BadRequestError, QueueOverflowError, ServeError
from repro.nn import build_lenet5
from repro.serve import (
    AsyncServeHTTPServer,
    HTTPInferenceClient,
    InferenceServer,
    LoadGenerator,
    decode_array_b64,
    encode_array_b64,
    poisson_arrivals,
)

pytestmark = pytest.mark.serving

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


def _post_raw(url: str, body: bytes, content_type="application/json"):
    """POST raw bytes; returns (status, parsed JSON body)."""
    request = urllib.request.Request(
        url, data=body, method="POST", headers={"Content-Type": content_type}
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestPayloadCodec:
    def test_npy_b64_round_trip_is_bitwise(self):
        array = np.random.default_rng(0).normal(size=(3, 5))
        assert np.array_equal(decode_array_b64(encode_array_b64(array)), array)

    def test_invalid_b64_rejected(self):
        with pytest.raises(BadRequestError, match="base64"):
            decode_array_b64("definitely not base64!!!")
        with pytest.raises(BadRequestError, match="base64"):
            decode_array_b64(encode_array_b64(np.zeros(3))[:-8])


class TestHTTPInference:
    @pytest.mark.parametrize("executor", ["serial", "thread:2", "process:2"])
    def test_http_batch_bitwise_equal_run_batch_for_every_executor(
        self, lenet_workload, executor
    ):
        """Acceptance: HTTP responses are bitwise identical to run_batch."""
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload, executor=executor) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url) as client:
                    served = client.infer_batch(images)
        assert np.array_equal(served, direct)

    def test_single_image_json_and_npy_bitwise(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url) as json_client:
                    json_out = json_client.infer(images[0])
                with HTTPInferenceClient(front.url, encoding="npy_b64") as npy_client:
                    npy_out = npy_client.infer(images[0])
                    npy_batch = npy_client.infer_batch(images)
        assert np.array_equal(json_out, direct[0])
        assert np.array_equal(npy_out, direct[0])
        assert np.array_equal(npy_batch, direct)

    def test_stats_and_healthz_endpoints(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        with _server(lenet_workload, policy="adaptive", slo_s=0.5) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url) as client:
                    health = client.healthz()
                    client.infer_batch(images)
                    stats = client.stats()
        assert health["status"] == "ok"
        assert health["network"] == "lenet5"
        assert health["policy"] == "adaptive"
        assert tuple(health["input_shape"]) == (28, 28, 1)
        assert stats["policy"]["policy"] == "adaptive"
        assert stats["telemetry"]["requests_completed"] == len(images)
        assert stats["telemetry"]["latency_p99_s"] > 0

    def test_block_and_timeout_plumb_through_to_submit(self, lenet_workload):
        """The wire carries InferenceServer.submit's admission semantics."""
        _, _, _, images, direct = lenet_workload
        captured = []
        with _server(lenet_workload) as server:
            original = server.submit

            def spy(image, block=True, timeout=None):
                captured.append((block, timeout))
                return original(image, block=block, timeout=timeout)

            server.submit = spy
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url) as client:
                    output = client.infer(images[0], timeout=0.75)
        assert np.array_equal(output, direct[0])
        assert captured == [(True, 0.75)]

    def test_wildcard_bind_url_is_reachable(self, lenet_workload):
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server, host="0.0.0.0") as front:
                assert front.url.startswith("http://127.0.0.1:")
                with HTTPInferenceClient(front.url) as client:
                    assert client.healthz()["status"] == "ok"

    def test_submit_futures_resolve_in_order(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url) as client:
                    futures = [client.submit(image) for image in images]
                    served = np.stack([future.result(timeout=30) for future in futures])
        assert np.array_equal(served, direct)


class TestHTTPErrorMapping:
    def test_malformed_payloads_get_400(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        nan_image = images[0].copy()
        nan_image.flat[5] = np.nan
        inf_batch = images[:2].copy()
        inf_batch[1].flat[7] = np.inf
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                infer = front.url + "/v1/infer"
                cases = [
                    b"not json at all",
                    b"[1, 2, 3]",  # not an object
                    b"{}",  # no image field
                    json.dumps(
                        {"image": [[0.0]], "images": [[[0.0]]]}
                    ).encode(),  # both fields
                    json.dumps({"image": [[0.0, 1.0], [2.0]]}).encode(),  # ragged
                    json.dumps({"image": [[0.0]]}).encode(),  # wrong shape
                    json.dumps(
                        {"image": np.zeros((28, 28, 1)).tolist(), "block": "yes"}
                    ).encode(),  # non-boolean block
                    json.dumps({"image_npy_b64": "bogus!!"}).encode(),
                    json.dumps(
                        {"image": np.zeros((28, 28, 1)).tolist(), "timeout_s": "soon"}
                    ).encode(),  # non-numeric timeout
                    json.dumps({"image": nan_image.tolist()}).encode(),  # NaN literal
                    json.dumps({"images_npy_b64": encode_array_b64(inf_batch)}).encode(),
                ]
                for body in cases:
                    status, payload = _post_raw(infer, body)
                    assert status == 400, body[:40]
                    assert payload["type"] == "BadRequestError"

    def test_unknown_path_404_wrong_method_405(self, lenet_workload):
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                status, payload = _post_raw(front.url + "/v1/nope", b"{}")
                assert status == 404
                # shutdown endpoint is hidden unless explicitly enabled
                status, _ = _post_raw(front.url + "/v1/shutdown", b"{}")
                assert status == 404
                request = urllib.request.Request(front.url + "/v1/infer", method="GET")
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10.0)
                assert excinfo.value.code in (404, 405, 501)

    def test_stopped_server_maps_to_503(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        server = _server(lenet_workload).start()
        with AsyncServeHTTPServer(server) as front:
            server.stop()
            with HTTPInferenceClient(front.url) as client:
                with pytest.raises(ServeError, match="HTTP 503"):
                    client.infer(images[0])

    def test_queue_overflow_sheds_as_429(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        many = np.concatenate([images] * 4)
        server = _server(
            lenet_workload, max_batch=2, max_wait_s=0.0, queue_capacity=2
        )
        with server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url, max_connections=16) as client:
                    futures = [
                        client.submit(image, block=False) for image in many
                    ]
                    rejected = 0
                    for index, future in enumerate(futures):
                        try:
                            output = future.result(timeout=60)
                        except QueueOverflowError:
                            rejected += 1
                            continue
                        assert np.array_equal(output, direct[index % len(images)])
        # a 32-request flood against a 2-deep queue must shed something
        assert rejected > 0


class TestHTTPLoadGeneration:
    def test_open_loop_over_http_bitwise_and_stats(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload, executor="thread:2") as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url) as client:
                    report = LoadGenerator(client).run_open_loop(
                        images, poisson_arrivals(500.0, len(images), seed=2)
                    )
        assert np.array_equal(report.outputs, direct)
        assert report.requests == len(images)
        assert report.server["telemetry"]["requests_completed"] == len(images)

    def test_closed_loop_over_http(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url) as client:
                    report = LoadGenerator(client).run_closed_loop(
                        images, concurrency=2
                    )
        assert np.array_equal(report.outputs, direct)


class TestServeHTTPLifecycle:
    def test_port_zero_resolves_and_double_start_rejected(self, lenet_workload):
        with _server(lenet_workload) as server:
            front = AsyncServeHTTPServer(server, port=0)
            assert front.port == 0
            with front:
                assert front.port > 0
                with pytest.raises(ServeError, match="already started"):
                    front.start()
            front.stop()  # idempotent

    def test_shutdown_endpoint_signals_owner(self, lenet_workload):
        with _server(lenet_workload) as server:
            with AsyncServeHTTPServer(server, allow_shutdown=True) as front:
                with HTTPInferenceClient(front.url) as client:
                    assert not front.wait(0.0)
                    response = client.shutdown_remote()
                    assert response["status"] == "shutting-down"
                    assert front.wait(5.0)


class TestServeHTTPCli:
    def test_serve_http_cli_round_trip(self, tmp_path):
        """CI-safe round trip: ``--http 0`` picks a free port, ``--ready-file``
        publishes the bound URL, so the test never races the bind and never
        collides with another port user on a loaded runner."""
        ready_file = tmp_path / "serve-url.txt"
        result = {}

        def run():
            result["code"] = main(
                [
                    "serve", "--network", "lenet5", "--rows", "32", "--columns", "32",
                    "--http", "0", "--policy", "adaptive", "--slo-ms", "500",
                    "--allow-remote-shutdown", "--ready-file", str(ready_file),
                ]
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 60.0
        url = None
        while time.monotonic() < deadline:
            if ready_file.exists():
                url = ready_file.read_text().strip()
                if url:
                    break
            time.sleep(0.1)
        assert url, "serve --http 0 never published its URL to --ready-file"
        client = HTTPInferenceClient(url, timeout_s=30.0)
        try:
            health = None
            while time.monotonic() < deadline:
                try:
                    health = client.healthz()
                    break
                except ServeError:
                    time.sleep(0.1)
            assert health is not None, "HTTP front-end never came up"
            assert health["policy"] == "adaptive"
            assert health["models"] == ["lenet5"]
            image = np.random.default_rng(7).uniform(0.0, 1.0, (28, 28, 1))
            output = client.infer(image)
            assert output.shape[-1] == 10
            client.shutdown_remote()
        finally:
            client.close()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert result["code"] == 0
