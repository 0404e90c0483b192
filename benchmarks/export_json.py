"""Export serving benchmark smoke timings as one JSON artifact.

CI runs this after the test lanes and uploads the result
(``BENCH_serving.json``) as a workflow artifact, so every commit appends a
point to the performance trajectory without anyone re-running benchmarks by
hand.  The measurements are the *smoke* versions of
``benchmarks/bench_serving.py``: small enough for a CI runner, but shaped
like the real benchmarks (throughput, latency percentiles, flush-reason
counts).

Usage::

    PYTHONPATH=src python benchmarks/export_json.py --output BENCH_serving.json
    PYTHONPATH=src python benchmarks/export_json.py --requests 8   # even faster

Numbers are wall-clock measurements on whatever machine runs them — compare
trends across runs of the *same* runner class, not absolute values across
machines.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
import time
from datetime import datetime, timezone

import numpy as np

from repro.config import small_test_chip
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.nn import build_lenet5
from repro.serve import (
    AsyncServeHTTPServer,
    InferenceServer,
    LoadGenerator,
    ModelDefinition,
    ModelRegistry,
)
from repro.serve.http import encode_array_b64

#: The benchmark scenario: LeNet on a dual-core 32x32 chip.
_CHIP = dict(rows=32, columns=32, num_cores=2)


def _workload(num_images: int):
    network = build_lenet5()
    weights = generate_random_weights(network, seed=0, scale=0.3)
    config = small_test_chip(**_CHIP)
    images = np.random.default_rng(1).uniform(
        0.0, 1.0, (num_images,) + network.input_shape.as_tuple()
    )
    return network, weights, config, images


def _serve_burst(network, weights, config, images, max_batch: int) -> dict:
    """Serve one all-at-once burst; returns throughput + SLO telemetry."""
    server = InferenceServer(
        network,
        weights,
        config,
        max_batch=max_batch,
        max_wait_s=0.002 if max_batch > 1 else 0.0,
        queue_capacity=max(len(images), max_batch),
    )
    with server:
        start = time.perf_counter()
        outputs = server.serve_batch(images)
        elapsed = time.perf_counter() - start
        telemetry = server.telemetry.snapshot()
    direct = FunctionalInferenceEngine(network, weights, config).run_batch(images)
    return {
        "max_batch": max_batch,
        "requests": int(len(images)),
        "throughput_rps": len(images) / elapsed,
        "latency_p50_ms": telemetry["latency_p50_s"] * 1e3,
        "latency_p95_ms": telemetry["latency_p95_s"] * 1e3,
        "latency_p99_ms": telemetry["latency_p99_s"] * 1e3,
        "mean_batch_size": telemetry["mean_batch_size"],
        "flush_reasons": telemetry["flush_reasons"],
        "bitwise_match_vs_run_batch": bool(np.array_equal(outputs, direct)),
    }


def _faulted_burst(network, weights, config, images) -> dict:
    """Serve a burst under an injected crash; returns recovery counters.

    The robustness trajectory: a ``crash:at=2`` rule kills a replica on the
    second dispatch (deterministic at any ``--requests`` size), supervision
    restarts it and re-executes the failed batch, and the burst must still
    come back complete and bitwise-correct.  The exported counters
    (restarts, recovered batches, retry histogram) make a supervision
    regression visible in the artifact diff.
    """
    registry = ModelRegistry(
        [
            ModelDefinition(
                name=network.name,
                network=network,
                weights=dict(weights),
                config=config,
                executor="thread:2",
                max_batch=2,
                max_wait_s=0.002,
                queue_capacity=max(len(images), 2),
                faults=["crash:at=2"],
                max_attempts=3,
                backoff_base_s=0.0,
            )
        ]
    )
    server = InferenceServer(registry=registry)
    with server:
        start = time.perf_counter()
        outputs = server.serve_batch(images)
        elapsed = time.perf_counter() - start
        stats = server.stats()
    direct = FunctionalInferenceEngine(network, weights, config).run_batch(images)
    faults = stats["pool"]["faults"]
    return {
        "injected": faults["injection"]["injected"],
        "replica_restarts": faults["replica_restarts"],
        "batches_recovered": faults["batches_recovered"],
        "batches_failed": faults["batches_failed"],
        "retry_histogram": faults["retry_histogram"],
        "requests_failed": stats["telemetry"]["requests_failed"],
        "throughput_rps": len(images) / elapsed,
        "bitwise_match_vs_run_batch": bool(np.array_equal(outputs, direct)),
    }


def _traced_burst(network, weights, config, images) -> dict:
    """Serve a burst with full tracing; returns the per-stage mean breakdown.

    The observability trajectory: mean milliseconds per pipeline stage
    (admit → … → deliver, from the request traces) plus the tracer's own
    bookkeeping, so a regression that shifts time between stages — or starts
    dropping traces — shows up in the artifact diff even when end-to-end
    throughput still looks fine.
    """
    server = InferenceServer(
        network,
        weights,
        config,
        max_batch=8,
        max_wait_s=0.002,
        queue_capacity=max(len(images), 8),
    )
    with server:
        start = time.perf_counter()
        server.serve_batch(images)
        elapsed = time.perf_counter() - start
    # Read after the graceful stop: the deliver span finishes just *after*
    # the response future resolves, so an in-flight snapshot can undercount.
    telemetry = server.telemetry.snapshot()
    tracer = server.tracer.snapshot()
    breakdown = telemetry["stage_breakdown"]
    return {
        "throughput_rps": len(images) / elapsed,
        "traces_finished": tracer["finished"],
        "traces_dropped": tracer["dropped"],
        "stage_mean_ms": {
            name: stats["mean_s"] * 1e3 for name, stats in breakdown.items()
        },
    }


#: Concurrent keep-alive clients for the CI-sized scaling sweep (the full
#: 100/500/2000 sweep lives in ``bench_serving.py``).
_CONN_COUNTS = (50, 200, 500)


async def _keepalive_wave(url: str, bodies, expected_b64, count: int) -> dict:
    """``count`` concurrent keep-alive clients: one infer + one healthz each."""
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    dial_gate = asyncio.Semaphore(64)  # spare the listen backlog
    connected = 0
    all_connected = asyncio.Event()
    go = asyncio.Event()
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
        nonlocal connected, mismatches
        async with dial_gate:
            for attempt in range(20):
                try:
                    reader, writer = await asyncio.open_connection(host, int(port))
                    break
                except OSError:
                    await asyncio.sleep(0.05 * (attempt + 1))
            else:
                raise OSError(f"client {index}: could not connect to {url}")
        connected += 1
        if connected == count:
            all_connected.set()
        await go.wait()
        try:
            body = bodies[index % len(bodies)]
            writer.write(
                b"POST /v1/infer HTTP/1.1\r\nHost: bench\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            status, payload = await read_response(reader)
            if status != b"200" or (
                json.loads(payload).get("output_npy_b64")
                != expected_b64[index % len(expected_b64)]
            ):
                mismatches += 1
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
            await writer.drain()
            status, _ = await read_response(reader)
            if status != b"200":
                mismatches += 1
        finally:
            writer.close()

    tasks = [asyncio.create_task(client(i)) for i in range(count)]
    try:
        await asyncio.wait_for(all_connected.wait(), timeout=60.0)
        start = time.perf_counter()
        go.set()
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=120.0)
        elapsed = time.perf_counter() - start
    except BaseException:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        raise
    return {
        "connections": count,
        "all_ok_bitwise": mismatches == 0,
        "serve_s": elapsed,
        "throughput_rps": count / elapsed,
    }


def _conn_scaling(network, weights, config, images) -> dict:
    """The asyncio front-end under concurrent keep-alive clients.

    The connection-scaling trajectory: every client holds one keep-alive
    connection, sends one single-image infer (checked bitwise against a
    direct ``run_batch`` through the base64 ``.npy`` encoding) plus one
    healthz on the same socket.  A count the front-end stops answering at
    records an ``error`` entry instead of silently shrinking the sweep.
    """
    direct = FunctionalInferenceEngine(network, weights, config).run_batch(images)
    bodies = [
        json.dumps({"image_npy_b64": encode_array_b64(image)}).encode("ascii")
        for image in images
    ]
    expected = [encode_array_b64(row) for row in direct]
    points = []
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
            for count in _CONN_COUNTS:
                try:
                    points.append(
                        asyncio.run(_keepalive_wave(front.url, bodies, expected, count))
                    )
                except (OSError, asyncio.TimeoutError) as error:
                    points.append(
                        {
                            "connections": count,
                            "all_ok_bitwise": False,
                            "error": f"{type(error).__name__}: {error}",
                        }
                    )
                    break  # larger counts would only time out again
    return {"async": points}


def export(num_images: int) -> dict:
    network, weights, config, images = _workload(num_images)
    serving = {
        "batch_1": _serve_burst(network, weights, config, images, max_batch=1),
        "dynamic_batching": _serve_burst(network, weights, config, images, max_batch=8),
    }
    serving["batching_speedup"] = (
        serving["dynamic_batching"]["throughput_rps"]
        / serving["batch_1"]["throughput_rps"]
    )
    return {
        "meta": {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "workload": "lenet5",
            "chip": _CHIP,
        },
        "serving": serving,
        "robustness": _faulted_burst(network, weights, config, images),
        "observability": _traced_burst(network, weights, config, images),
        "async_conn_scaling": _conn_scaling(network, weights, config, images),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default="BENCH_serving.json",
        help="where to write the JSON artifact (default: BENCH_serving.json)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=16,
        help="burst size per serving measurement (default 16)",
    )
    args = parser.parse_args(argv)
    if args.requests < 1:
        parser.error(f"--requests must be >= 1, got {args.requests}")
    payload = export(args.requests)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    serving = payload["serving"]
    robustness = payload["robustness"]
    print(
        f"wrote {args.output}: dynamic batching "
        f"{serving['dynamic_batching']['throughput_rps']:.1f} rps "
        f"({serving['batching_speedup']:.2f}x vs batch-1), "
        f"chaos burst recovered {robustness['batches_recovered']} batches "
        f"over {robustness['replica_restarts']} restarts"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
