"""Online-serving benchmarks: batching policies under load.

The paper's Fig. 7 batch analysis is an *offline* argument that batching
amortises PCM tile programming and per-dispatch overhead; these benchmarks
make the same argument *online*:

* the identical burst of requests is served with the micro-batcher disabled
  (``max_batch=1``) and with dynamic batching (``max_batch=8``) — dynamic
  batching must win on throughput while staying bitwise identical to a
  direct ``run_batch`` of the same images;
* the same bursty arrival trace is served under the static ``fixed`` flush
  policy and the deadline/SLO-aware ``adaptive`` policy — the adaptive
  policy must meet a latency deadline the fixed policy (tuned for
  throughput, oblivious to deadlines) misses, or match its throughput
  within 5% when both meet it;
* tracing's cost is not timed here: ``tests/test_observability.py``
  counts the trace objects and spans it makes (``TestTracingCost``), and
  the traced ``serve-open`` perfbench run reports ``obs.trace_overhead_pct``;
* the same keep-alive request wave is driven at 100 / 500 / 2000 concurrent
  connections against the asyncio HTTP front-end — it must answer every
  client at every count with bitwise-identical outputs.
"""

from __future__ import annotations

import asyncio
import csv
import json
import resource
import time

import numpy as np

from repro.config import small_test_chip
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.nn import build_lenet5
from repro.serve import (
    AsyncServeHTTPServer,
    InferenceServer,
    LoadGenerator,
    bursty_arrivals,
    poisson_arrivals,
)
from repro.serve.http import encode_array_b64

#: Serving scenario: LeNet on a dual-core 32x32 chip, one 16-request burst.
_CHIP = dict(rows=32, columns=32, num_cores=2)
_REQUESTS = 16


def _workload():
    network = build_lenet5()
    weights = generate_random_weights(network, seed=0, scale=0.3)
    config = small_test_chip(**_CHIP)
    images = np.random.default_rng(1).uniform(
        0.0, 1.0, (_REQUESTS,) + network.input_shape.as_tuple()
    )
    return network, weights, config, images


def _serve_burst(network, weights, config, images, max_batch):
    """Serve one all-at-once burst; returns (outputs, rps, telemetry)."""
    server = InferenceServer(
        network,
        weights,
        config,
        max_batch=max_batch,
        max_wait_s=0.002 if max_batch > 1 else 0.0,
        queue_capacity=max(_REQUESTS, max_batch),
    )
    with server:
        start = time.perf_counter()
        outputs = server.serve_batch(images)
        elapsed = time.perf_counter() - start
        telemetry = server.telemetry.snapshot()
    return outputs, len(images) / elapsed, telemetry


def test_dynamic_batching_beats_batch1_serving(results_dir):
    """Acceptance: micro-batching must out-serve batch-size-1 serving."""
    network, weights, config, images = _workload()
    direct = FunctionalInferenceEngine(network, weights, config).run_batch(images)

    single_out, single_rps, single_tel = _serve_burst(
        network, weights, config, images, max_batch=1
    )
    batched_out, batched_rps, batched_tel = _serve_burst(
        network, weights, config, images, max_batch=8
    )

    # Serving must not change a single bit, batched or not.
    assert np.array_equal(single_out, direct)
    assert np.array_equal(batched_out, direct)

    # The batcher really formed multi-request batches...
    assert max(batched_tel["batch_size_histogram"]) > 1
    assert single_tel["batch_size_histogram"] == {1: _REQUESTS}
    # ...and they pay off: fewer dispatch chains -> higher throughput.
    assert batched_rps > single_rps * 1.2

    with open(results_dir / "serving_batching.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["policy", "throughput_rps", "p50_ms", "p99_ms", "mean_batch_size"]
        )
        for policy, rps, tel in (
            ("batch-1", single_rps, single_tel),
            ("dynamic max_batch=8", batched_rps, batched_tel),
        ):
            writer.writerow(
                [
                    policy,
                    f"{rps:.1f}",
                    f"{tel['latency_p50_s'] * 1e3:.2f}",
                    f"{tel['latency_p99_s'] * 1e3:.2f}",
                    f"{tel['mean_batch_size']:.2f}",
                ]
            )
    print(
        f"serving throughput: batch-1 {single_rps:.1f} rps -> dynamic batching "
        f"{batched_rps:.1f} rps ({batched_rps / single_rps:.2f}x, mean batch "
        f"{batched_tel['mean_batch_size']:.1f})"
    )


def test_adaptive_policy_meets_deadline_fixed_misses(results_dir):
    """Acceptance: SLO-aware flushing beats a deadline the fixed policy blows.

    The fixed policy is configured the way a throughput-first operator would
    (large ``max_batch``, generous ``max_wait``) — on a bursty trace whose
    bursts never fill the batch, every batch waits out the full timer and the
    250 ms deadline is blown.  The adaptive policy is told the deadline and
    nothing else; it must meet it (after one calibration pass) or, if the
    fixed policy happens to meet it too, stay within 5% of its throughput.
    """
    network, weights, config, images = _workload()
    direct = FunctionalInferenceEngine(network, weights, config).run_batch(images)
    slo_s = 0.25
    arrivals = bursty_arrivals(
        400.0, _REQUESTS, seed=3, burst_length=8, burst_factor=10.0
    )

    def run(**policy_kwargs):
        server = InferenceServer(
            network, weights, config, queue_capacity=64, **policy_kwargs
        )
        with server:
            generator = LoadGenerator(server)
            generator.run_open_loop(images, arrivals)  # warm + calibrate
            return generator.run_open_loop(images, arrivals)  # measured

    fixed = run(max_batch=32, max_wait_s=0.6)
    adaptive = run(policy="adaptive", slo_s=slo_s, max_batch=32)

    # Policy choice must never change a bit.
    assert np.array_equal(fixed.outputs, direct)
    assert np.array_equal(adaptive.outputs, direct)

    fixed_p95 = fixed.client_latency["latency_p95_s"]
    adaptive_p95 = adaptive.client_latency["latency_p95_s"]
    assert adaptive_p95 <= slo_s, (
        f"adaptive policy blew the {slo_s * 1e3:.0f} ms deadline: "
        f"p95 {adaptive_p95 * 1e3:.1f} ms"
    )
    assert fixed_p95 > slo_s or adaptive.achieved_rps >= 0.95 * fixed.achieved_rps
    # the adaptive policy still batches (it is not degenerating to batch-1)
    assert adaptive.server["telemetry"]["mean_batch_size"] > 1

    with open(results_dir / "serving_policies.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["policy", "p95_ms", "slo_ms", "meets_slo", "throughput_rps", "mean_batch_size"]
        )
        for name, report, p95 in (
            ("fixed max_wait=600ms", fixed, fixed_p95),
            (f"adaptive slo={slo_s * 1e3:.0f}ms", adaptive, adaptive_p95),
        ):
            writer.writerow(
                [
                    name,
                    f"{p95 * 1e3:.1f}",
                    f"{slo_s * 1e3:.0f}",
                    p95 <= slo_s,
                    f"{report.achieved_rps:.1f}",
                    f"{report.server['telemetry']['mean_batch_size']:.2f}",
                ]
            )
    print(
        f"bursty arrivals vs {slo_s * 1e3:.0f} ms SLO: fixed p95 "
        f"{fixed_p95 * 1e3:.1f} ms ({fixed.achieved_rps:.1f} rps) -> adaptive p95 "
        f"{adaptive_p95 * 1e3:.1f} ms ({adaptive.achieved_rps:.1f} rps)"
    )


#: Concurrent keep-alive client counts for the front-end scaling sweep.
_CONN_COUNTS = (100, 500, 2000)
#: fds per in-process client connection: the client socket + the accepted one.
_FDS_PER_CONN = 2


def _usable_connections(requested: int) -> int:
    """Clamp a client count to what RLIMIT_NOFILE can hold (with headroom)."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < hard:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
            soft = hard
        except (ValueError, OSError):
            pass
    return min(requested, max(1, (soft - 256) // _FDS_PER_CONN))


async def _drive_keepalive_wave(url: str, request_bodies, expected_b64, count: int):
    """``count`` concurrent keep-alive clients, one infer + one healthz each.

    Every client dials, parks until *all* clients are connected (so the
    measured window really holds ``count`` simultaneous keep-alive
    connections), then sends one ``POST /v1/infer`` followed by one
    ``GET /healthz`` on the same connection.  Returns
    ``(connect_s, serve_s, mismatches)``.
    """
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    dial_gate = asyncio.Semaphore(64)  # spare the listen backlog, keep conns open
    connected = 0
    all_connected = asyncio.Event()
    go = asyncio.Event()
    dial_failure = None
    mismatches = 0

    async def read_response(reader):
        status = (await reader.readline()).split(b" ")[1]
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.lower() == "content-length":
                length = int(value.strip())
        return status, await reader.readexactly(length)

    async def client(index: int) -> None:
        nonlocal connected, dial_failure, mismatches
        async with dial_gate:
            for attempt in range(20):  # the accept backlog is finite: retry dials
                try:
                    reader, writer = await asyncio.open_connection(host, int(port))
                    break
                except OSError:
                    await asyncio.sleep(0.05 * (attempt + 1))
            else:
                # Fail the whole wave immediately instead of letting the
                # all-connected barrier time out.
                dial_failure = OSError(f"client {index}: could not connect to {url}")
                all_connected.set()
                raise dial_failure
        connected += 1
        if connected == count:
            all_connected.set()
        await go.wait()
        try:
            body = request_bodies[index % len(request_bodies)]
            writer.write(
                b"POST /v1/infer HTTP/1.1\r\nHost: bench\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            status, payload = await read_response(reader)
            answer = json.loads(payload)
            if status != b"200" or (
                answer.get("output_npy_b64") != expected_b64[index % len(expected_b64)]
            ):
                mismatches += 1
            # Second request on the same socket: keep-alive actually reused.
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
            await writer.drain()
            status, _ = await read_response(reader)
            if status != b"200":
                mismatches += 1
        finally:
            writer.close()

    tasks = [asyncio.create_task(client(i)) for i in range(count)]
    dial_start = time.perf_counter()
    try:
        await asyncio.wait_for(all_connected.wait(), timeout=120.0)
        if dial_failure is not None:
            raise dial_failure
        connect_s = time.perf_counter() - dial_start
        serve_start = time.perf_counter()
        go.set()
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=300.0)
    except BaseException:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        raise
    return connect_s, time.perf_counter() - serve_start, mismatches


def test_async_frontend_scales_keepalive_connections(results_dir):
    """Acceptance: the asyncio front-end holds 100/500/2000 keep-alive clients.

    Each client performs one single-image infer (checked bitwise against a
    direct ``run_batch`` via the base64 ``.npy`` wire encoding — string
    equality of the payload is byte equality of the tensor) plus one healthz
    on the same connection.  The front-end must answer every client at every
    count.
    """
    network, weights, config, images = _workload()
    direct = FunctionalInferenceEngine(network, weights, config).run_batch(images)
    request_bodies = [
        json.dumps({"image_npy_b64": encode_array_b64(image)}).encode("ascii")
        for image in images
    ]
    expected_b64 = [encode_array_b64(row) for row in direct]

    rows = []
    server = InferenceServer(
        network,
        weights,
        config,
        executor="thread:2",
        max_batch=32,
        max_wait_s=0.002,
        queue_capacity=2 * max(_CONN_COUNTS),
    )
    with server:
        server.serve_batch(images)  # warm: program tiles before timing
        with AsyncServeHTTPServer(server, port=0) as front:
            for requested in _CONN_COUNTS:
                count = _usable_connections(requested)
                connect_s, serve_s, mismatches = asyncio.run(
                    _drive_keepalive_wave(front.url, request_bodies, expected_b64, count)
                )
                rows.append(
                    dict(
                        connections=count,
                        ok=mismatches == 0,
                        connect_s=connect_s,
                        serve_s=serve_s,
                        rps=count / serve_s,
                    )
                )

    with open(results_dir / "serving_conn_scaling.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["connections", "all_ok_bitwise", "connect_s", "serve_s", "rps"])
        for row in rows:
            writer.writerow(
                [
                    row["connections"],
                    row["ok"],
                    f"{row['connect_s']:.2f}",
                    f"{row['serve_s']:.2f}",
                    f"{row['rps']:.1f}",
                ]
            )

    for row in rows:
        print(
            f"conn scaling {row['connections']:>5} clients: connect "
            f"{row['connect_s']:.2f}s, serve {row['serve_s']:.2f}s "
            f"({row['rps']:.0f} req/s, bitwise {'ok' if row['ok'] else 'FAIL'})"
        )
    # Every count it was able to dial (fd-limit clamping only ever lowers
    # the count), including the >=500 acceptance bar, with zero non-200s and
    # zero bitwise mismatches.
    for row in rows:
        assert row["ok"], f"async front-end failed at {row['connections']} conns: {row}"


def test_open_loop_poisson_slo_report(results_dir):
    """Open-loop Poisson run: SLO telemetry is complete and self-consistent."""
    network, weights, config, images = _workload()
    with InferenceServer(
        network, weights, config, executor="thread:2", max_batch=4, max_wait_s=0.002
    ) as server:
        report = LoadGenerator(server).run_open_loop(
            images, poisson_arrivals(800.0, _REQUESTS, seed=2)
        )
    telemetry = report.server["telemetry"]
    assert telemetry["requests_completed"] == _REQUESTS
    assert telemetry["throughput_rps"] > 0
    assert telemetry["latency_p99_s"] >= telemetry["latency_p50_s"] > 0
    assert sum(
        size * count for size, count in telemetry["batch_size_histogram"].items()
    ) == _REQUESTS
    print(
        f"open-loop poisson: {report.achieved_rps:.1f} rps, server p50 "
        f"{telemetry['latency_p50_s'] * 1e3:.2f} ms, p99 "
        f"{telemetry['latency_p99_s'] * 1e3:.2f} ms, mean batch "
        f"{telemetry['mean_batch_size']:.2f}"
    )
