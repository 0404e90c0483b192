"""Tests for the observability subsystem (``repro.obs`` + its serve wiring).

Everything here carries the ``obs`` marker, so ``pytest -m obs`` runs the
lane on its own (CI also runs it under ``REPRO_SANITIZE=1``).  Covered: the
metrics registry's Prometheus text exposition (golden output, label
escaping, histogram bucket monotonicity), the tracer's sampling/ring
bounds, trace propagation across thread and ``process:N`` replica
boundaries (including a mid-batch replica restart), the exactly-tiling
stage breakdown, the telemetry satellites (bounded latency reservoir,
per-reason flush sizes, admission→delivery window), the slow-request log,
the ``/metrics`` + ``/v1/trace/{id}`` HTTP endpoints, the offline
trace-report command, and bitwise identity of served outputs with tracing
enabled.
"""

from __future__ import annotations

import collections
import io
import json
import math
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.config import small_test_chip
from repro.core.accelerator import OpticalCrossbarAccelerator, accelerator_metric_families
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.errors import ServeError, SimulationError
from repro.nn import build_lenet5
from repro.obs import (
    STAGES,
    MetricsRegistry,
    SlowRequestLog,
    Tracer,
    load_chrome_trace,
    summarize_chrome_trace,
)
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    escape_label_value,
    format_value,
)
from repro.obs.tracing import DispatchTraceRecorder, RequestTrace, Span
from repro.serve import (
    AsyncServeHTTPServer,
    EngineReplicaSpec,
    EngineWorkerPool,
    InferenceServer,
    LatencyReservoir,
    ModelDefinition,
    ModelRegistry,
    ServeTelemetry,
)

pytestmark = pytest.mark.obs

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


def _serve_all(server, images):
    futures = [server.submit(image) for image in images]
    return np.stack([future.result() for future in futures])


def _wait_for_traces(tracer, count, timeout_s=10.0):
    """Traces finish just *after* the response future resolves (the deliver
    span covers the future hand-off), so tests wait for them explicitly."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        traces = tracer.traces()
        if len(traces) >= count:
            return traces
        time.sleep(0.002)
    raise AssertionError(
        f"only {len(tracer.traces())} of {count} traces finished within {timeout_s}s"
    )


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


def _family(name, metric_type, help_text, samples):
    return {"name": name, "type": metric_type, "help": help_text, "samples": samples}


class TestMetricsRegistry:
    def test_prometheus_golden_text(self):
        registry = MetricsRegistry()
        registry.register_collector(
            lambda: [
                _family(
                    "test_requests_total",
                    "counter",
                    "Requests.",
                    [({"outcome": "ok"}, 3), ({"outcome": "error"}, 1)],
                ),
                _family("test_queue_depth", "gauge", "Queue depth.", [({}, 7)]),
            ]
        )
        text = registry.render_prometheus()
        assert text == (
            "# HELP test_queue_depth Queue depth.\n"
            "# TYPE test_queue_depth gauge\n"
            "test_queue_depth 7\n"
            "# HELP test_requests_total Requests.\n"
            "# TYPE test_requests_total counter\n"
            'test_requests_total{outcome="ok"} 3\n'
            'test_requests_total{outcome="error"} 1\n'
        )

    def test_label_escaping(self):
        registry = MetricsRegistry()
        samples = [({"path": 'a\\b"c\nd'}, 1)]
        registry.register_collector(
            lambda: [_family("test_escapes_total", "counter", "Escapes.", samples)]
        )
        line = registry.render_prometheus().splitlines()[-1]
        assert line == 'test_escapes_total{path="a\\\\b\\"c\\nd"} 1'
        assert escape_label_value('x"y') == 'x\\"y'

    def test_format_value_specials(self):
        assert format_value(3.0) == "3"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(float("nan")) == "NaN"
        assert format_value(0.25) == "0.25"

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: [_family("0bad", "counter", "Doc.", [])])
        with pytest.raises(SimulationError):
            registry.collect()

    def test_collector_families_merge_by_name(self):
        registry = MetricsRegistry()

        def collector_a():
            return [
                {
                    "name": "test_merged_total",
                    "type": "counter",
                    "help": "Merged.",
                    "samples": [({"src": "a"}, 1.0)],
                }
            ]

        def collector_b():
            return [
                {
                    "name": "test_merged_total",
                    "type": "counter",
                    "help": "ignored duplicate help",
                    "samples": [({"src": "b"}, 2.0)],
                }
            ]

        registry.register_collector(collector_a)
        registry.register_collector(collector_b)
        (family,) = registry.collect()
        assert family["help"] == "Merged."
        assert sorted(labels["src"] for labels, _ in family["samples"]) == ["a", "b"]
        text = registry.render_prometheus()
        assert text.count("# HELP test_merged_total") == 1
        assert text.count("# TYPE test_merged_total") == 1

    def test_render_json_shape(self):
        registry = MetricsRegistry()
        registry.register_collector(
            lambda: [_family("test_one_total", "counter", "One.", [({}, 1)])]
        )
        payload = registry.render_json()
        assert payload["test_one_total"]["type"] == "counter"
        (sample,) = payload["test_one_total"]["samples"]
        assert sample == {"name": "test_one_total", "labels": {}, "value": 1.0}


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_ring_is_bounded(self):
        tracer = Tracer(capacity=4)
        for _ in range(10):
            trace = tracer.start_trace()
            trace.finish(trace.start_s + 0.001)
        snap = tracer.snapshot()
        assert snap["started"] == 10
        assert snap["finished"] == 4
        assert snap["dropped"] == 6
        assert len(tracer.trace_ids()) == 4

    def test_sampling_zero_and_determinism(self):
        tracer = Tracer(sample_rate=0.0)
        assert tracer.start_trace() is None
        assert tracer.snapshot()["sampled_out"] == 1
        picks = []
        for _ in range(2):
            sampler = Tracer(sample_rate=0.5, seed=7)
            picks.append(
                [sampler.start_trace() is not None for _ in range(32)]
            )
        assert picks[0] == picks[1]  # seeded sampling reproduces
        assert any(picks[0]) and not all(picks[0])

    def test_stage_durations_exclude_children(self):
        tracer = Tracer()
        trace = tracer.start_trace()
        t0 = trace.start_s
        trace.add_span("admit", t0, t0 + 0.001)
        execute = trace.add_span("replica_execute", t0 + 0.001, t0 + 0.003)
        trace.add_span(
            "replica_run", t0 + 0.001, t0 + 0.003, parent_id=execute.span_id
        )
        trace.finish(t0 + 0.003)
        durations = trace.stage_durations()
        assert set(durations) == {"admit", "replica_execute", "e2e"}
        # The float interval itself: on a monotonic clock read hours after
        # boot, (t0 + 0.003) - t0 is further than 1e-9 from 0.003.
        assert durations["e2e"] == (t0 + 0.003) - t0

    def test_chrome_trace_shape(self, tmp_path):
        tracer = Tracer()
        trace = tracer.start_trace()
        trace.add_span("admit", trace.start_s, trace.start_s + 0.002)
        trace.finish(trace.start_s + 0.002)
        path = tmp_path / "trace.json"
        assert tracer.export_chrome(str(path)) == 1
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"request", "admit"}
        admit = next(e for e in complete if e["name"] == "admit")
        assert math.isclose(admit["dur"], 2000.0, rel_tol=1e-6)
        assert admit["args"]["trace_id"] == trace.trace_id


# ---------------------------------------------------------------------------
# telemetry satellites
# ---------------------------------------------------------------------------


class TestLatencyReservoir:
    def test_exact_below_capacity(self):
        reservoir = LatencyReservoir(capacity=64)
        values = [float(i) for i in range(50)]
        for value in values:
            reservoir.add(value)
        assert reservoir.count == 50
        assert not reservoir.saturated
        assert sorted(reservoir.values()) == values
        summary = reservoir.summary()
        assert summary["latency_max_s"] == 49.0
        assert math.isclose(summary["latency_mean_s"], np.mean(values))

    def test_bounded_above_capacity_with_exact_streaming_stats(self):
        reservoir = LatencyReservoir(capacity=32, seed=3)
        for i in range(10_000):
            reservoir.add(float(i))
        assert reservoir.count == 10_000
        assert reservoir.saturated
        assert len(reservoir.values()) == 32
        summary = reservoir.summary()
        # Exact even though the sample is bounded:
        assert summary["latency_max_s"] == 9999.0
        assert math.isclose(summary["latency_mean_s"], 4999.5)

    def test_telemetry_memory_is_bounded(self):
        telemetry = ServeTelemetry(reservoir_capacity=16)
        for i in range(1000):
            telemetry.record_admission(queue_depth=1)
            telemetry.record_response(float(i) / 1e3)
        snapshot = telemetry.snapshot()
        assert snapshot["requests_completed"] == 1000
        assert snapshot["latency_samples"] == 16
        assert snapshot["latency_sample_saturated"] is True
        assert math.isclose(snapshot["latency_max_s"], 0.999)


class TestTelemetrySatellites:
    def test_flush_sizes_tracked_per_reason(self):
        telemetry = ServeTelemetry()
        telemetry.record_flush("full", 8)
        telemetry.record_flush("full", 6)
        telemetry.record_flush("deadline", 2)
        snapshot = telemetry.snapshot()
        sizes = snapshot["flush_sizes"]
        assert sizes["full"] == {
            "batches": 2,
            "requests": 14,
            "mean_size": 7.0,
            "max_size": 8,
        }
        assert sizes["deadline"]["requests"] == 2
        # legacy per-reason batch counts unchanged
        assert snapshot["flush_reasons"] == {"full": 2, "deadline": 1}

    def test_window_spans_first_admission_to_last_delivery(self):
        clock = iter([10.0, 11.0, 12.0]).__next__
        telemetry = ServeTelemetry(clock=clock)
        telemetry.record_admission(queue_depth=1)  # t=10 (first admission)
        telemetry.record_response(0.5)  # t=11
        telemetry.record_response(0.5)  # t=12 (last delivery)
        snapshot = telemetry.snapshot()
        assert snapshot["window_s"] == 2.0
        assert snapshot["throughput_rps"] == 1.0


# ---------------------------------------------------------------------------
# slow-request log
# ---------------------------------------------------------------------------


class TestSlowRequestLog:
    def test_emits_json_lines_over_threshold_only(self):
        stream = io.StringIO()
        log = SlowRequestLog(0.05, stream=stream, wall_clock=lambda: 1234.5)
        assert not log.observe(model="m", seq=0, latency_s=0.01)
        assert log.observe(
            model="m",
            seq=1,
            latency_s=0.075,
            trace_id="t-1",
            stages_s={"queue_wait": 0.06, "replica_execute": 0.015},
        )
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["event"] == "slow_request"
        assert entry["seq"] == 1
        assert entry["trace_id"] == "t-1"
        assert entry["latency_ms"] == 75.0
        assert entry["threshold_ms"] == 50.0
        assert entry["stages_ms"]["queue_wait"] == 60.0
        assert log.emitted == 1


# ---------------------------------------------------------------------------
# end-to-end: traced serving
# ---------------------------------------------------------------------------


class TestTracedServing:
    def test_trace_tiles_request_lifetime(self, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        with InferenceServer(
            network, weights, config, max_batch=4, max_wait_s=0.005
        ) as server:
            outputs = _serve_all(server, images)
            traces = _wait_for_traces(server.tracer, len(images))
            snapshot = server.stats()
        assert np.array_equal(outputs, direct)  # tracing keeps outputs bitwise
        assert len(traces) == len(images)
        for trace in traces:
            durations = trace.stage_durations()
            assert set(STAGES) <= set(durations)
            stage_sum = sum(v for k, v in durations.items() if k != "e2e")
            # The stage spans tile the lifetime exactly: no gap > 1 ms.
            assert abs(stage_sum - durations["e2e"]) < 1e-3
        breakdown = snapshot["telemetry"]["stage_breakdown"]
        assert set(STAGES) <= set(breakdown)
        assert breakdown["replica_execute"]["count"] == len(images)
        mean_sum = sum(breakdown[stage]["mean_s"] for stage in STAGES)
        assert abs(mean_sum - breakdown["e2e"]["mean_s"]) < 1e-3

    def test_serial_executor_bills_compute_to_replica_execute(self, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        with InferenceServer(
            network, weights, config, max_batch=4, max_wait_s=0.005, executor="serial"
        ) as server:
            outputs = _serve_all(server, images)
            traces = _wait_for_traces(server.tracer, len(images))
        assert np.array_equal(outputs, direct)
        for trace in traces:
            spans = {span.name: span for span in trace.spans()}
            dispatch = spans["dispatch"]
            execute = spans["replica_execute"]
            run = spans["replica_run"]
            # The serial pool runs the batch inside submit(); that compute
            # belongs to replica_execute, which starts where dispatch ends.
            assert dispatch.end_s == execute.start_s
            assert execute.start_s <= run.start_s and run.end_s <= execute.end_s
            assert dispatch.duration_s < run.duration_s

    def test_trace_propagates_across_process_boundary(self, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        with InferenceServer(
            network, weights, config, max_batch=4, max_wait_s=0.005, executor="process:2"
        ) as server:
            outputs = _serve_all(server, images)
            traces = _wait_for_traces(server.tracer, len(images))
        assert np.array_equal(outputs, direct)
        import os

        parent_pid = os.getpid()
        for trace in traces:
            durations = trace.stage_durations()
            stage_sum = sum(v for k, v in durations.items() if k != "e2e")
            # The pickle round trip to the worker sits inside the dispatch /
            # replica_execute windows, so the tiling stays gap-free.
            assert abs(stage_sum - durations["e2e"]) < 1e-3
            spans = {span.name: span for span in trace.spans()}
            assert "replica_run" in spans
            run = spans["replica_run"]
            execute = spans["replica_execute"]
            assert run.parent_id == execute.span_id
            assert run.span_id.startswith(f"p{run.meta['pid']}.")
            assert run.meta["pid"] != parent_pid
            # Rebased worker times stay inside the parent's execute window.
            assert run.start_s >= execute.start_s - 1e-3
            assert run.end_s <= execute.end_s + 1e-3

    def test_trace_records_mid_batch_restart(self, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        registry = ModelRegistry(
            [
                ModelDefinition(
                    name="lenet5",
                    network=network,
                    weights=dict(weights),
                    config=config,
                    executor="thread:1",
                    max_batch=4,
                    max_wait_s=0.005,
                    faults=["corrupt:at=1"],
                    max_attempts=3,
                    backoff_base_s=0.0,
                )
            ]
        )
        with InferenceServer(registry=registry) as server:
            outputs = _serve_all(server, images[:4])
            traces = _wait_for_traces(server.tracer, 4)
        assert np.array_equal(outputs, direct[:4])
        names = [span.name for trace in traces for span in trace.spans()]
        assert "attempt" in names  # the failed attempt is visible
        assert "restart" in names  # and so is the replica replacement
        for trace in traces:
            spans = {span.name: span for span in trace.spans()}
            execute = spans["replica_execute"]
            attempt = spans["attempt"]
            restart = spans["restart"]
            assert attempt.parent_id == execute.span_id
            assert restart.parent_id == execute.span_id
            assert attempt.meta["error"] == "CorruptResultError"
            assert attempt.meta["attempt"] == 1

    def test_rejected_admissions_finish_the_trace(self, lenet_workload, monkeypatch):
        network, weights, config, images, _ = lenet_workload
        with InferenceServer(
            network, weights, config, max_batch=4, max_wait_s=0.005
        ) as server:
            runtime = server._runtime(None)

            def overflow(*args, **kwargs):
                raise ServeError("queue full")

            monkeypatch.setattr(runtime.batcher, "submit", overflow)
            with pytest.raises(ServeError):
                server.submit(images[0])
            snap = server.tracer.snapshot()
            assert snap["started"] == 1
            (trace,) = server.tracer.traces()
            payload = trace.as_dict()
        assert payload["finished"] is True
        assert payload["meta"]["outcome"] == "rejected"
        assert payload["meta"]["error"] == "ServeError"
        assert server.telemetry.snapshot()["requests_rejected"] == 1

    def test_stats_expose_tracer_and_metrics(self, lenet_workload):
        network, weights, config, images, _ = lenet_workload
        with InferenceServer(
            network, weights, config, max_batch=4, max_wait_s=0.005
        ) as server:
            _serve_all(server, images[:4])
            _wait_for_traces(server.tracer, 4)
            snapshot = server.stats()
        assert snapshot["tracer"]["finished"] == 4
        assert snapshot["tracer"]["dropped"] == 0
        metrics = snapshot["metrics"]
        completed = next(
            sample["value"]
            for sample in metrics["repro_serve_requests_total"]["samples"]
            if sample["labels"].get("outcome") == "completed"
        )
        assert completed == 4.0
        assert "repro_traces_started_total" in metrics
        assert "repro_accelerator_programming_events_total" in metrics

    def test_tracing_disabled_leaves_no_tracer(self, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        with InferenceServer(
            network, weights, config, max_batch=4, max_wait_s=0.005, tracing=False
        ) as server:
            outputs = _serve_all(server, images[:4])
            snapshot = server.stats()
        assert np.array_equal(outputs, direct[:4])
        assert server.tracer is None
        assert snapshot["tracer"] is None
        assert "stage_breakdown" in snapshot["telemetry"]
        assert snapshot["telemetry"]["stage_breakdown"] == {}


class TestTracingCost:
    """Tracing's cost in objects made, counted rather than timed.

    A traced request records one span per stage plus the replica's
    ``replica_run``, whatever the load; an untraced server makes no trace,
    no span and no dispatch recorder.  The wall-clock ratio this replaces
    (traced over untraced serving throughput) is the perfbench metric
    ``obs.trace_overhead_pct``.
    """

    @staticmethod
    def _count_constructions(monkeypatch):
        counts = collections.Counter()
        for owner in (RequestTrace, Span, DispatchTraceRecorder):

            def counting(self, *args, _original=owner.__init__, _name=owner.__name__, **kwargs):
                counts[_name] += 1
                _original(self, *args, **kwargs)

            monkeypatch.setattr(owner, "__init__", counting)
        return counts

    def test_traced_request_records_one_span_per_stage(self, monkeypatch, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        counts = self._count_constructions(monkeypatch)
        with InferenceServer(
            network, weights, config, max_batch=4, max_wait_s=0.005, executor="serial"
        ) as server:
            outputs = _serve_all(server, images)
            traces = _wait_for_traces(server.tracer, len(images))
        recorded = dict(counts)
        assert np.array_equal(outputs, direct)
        assert recorded["RequestTrace"] == len(images)
        assert recorded["Span"] == len(images) * (len(STAGES) + 1)
        expected = collections.Counter(STAGES + ("replica_run", "request"))
        for trace in traces:
            assert collections.Counter(span.name for span in trace.spans()) == expected

    def test_untraced_server_makes_no_trace_and_records_no_span(self, monkeypatch, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        counts = self._count_constructions(monkeypatch)
        with InferenceServer(
            network, weights, config, max_batch=4, max_wait_s=0.005, tracing=False
        ) as server:
            outputs = _serve_all(server, images)
        assert np.array_equal(outputs, direct)
        assert server.tracer is None
        assert counts == {}


# ---------------------------------------------------------------------------
# HTTP endpoints
# ---------------------------------------------------------------------------


class TestObservabilityHTTP:
    def test_metrics_and_trace_endpoints(self, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        with InferenceServer(
            network, weights, config, max_batch=4, max_wait_s=0.005
        ) as server:
            with AsyncServeHTTPServer(server, port=0) as front:
                future = server.submit(images[0])
                future.result()
                _wait_for_traces(server.tracer, 1)
                response = urllib.request.urlopen(front.url + "/metrics")
                assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
                text = response.read().decode("utf-8")
                assert "# TYPE repro_serve_requests_total counter" in text
                assert 'repro_serve_requests_total{model="lenet5",outcome="completed"} 1' in text

                trace_id = server.tracer.trace_ids()[0]
                body = json.load(
                    urllib.request.urlopen(front.url + "/v1/trace/" + trace_id)
                )
                assert body["trace_id"] == trace_id
                assert body["finished"] is True
                names = [span["name"] for span in body["spans"]]
                for stage in STAGES:
                    assert stage in names

                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(front.url + "/v1/trace/does-not-exist")
                assert excinfo.value.code == 404


# ---------------------------------------------------------------------------
# offline report + CLI
# ---------------------------------------------------------------------------


class TestTraceReport:
    def test_report_round_trip(self, lenet_workload, tmp_path):
        network, weights, config, images, _ = lenet_workload
        path = tmp_path / "trace.json"
        with InferenceServer(
            network, weights, config, max_batch=4, max_wait_s=0.005
        ) as server:
            _serve_all(server, images)
            _wait_for_traces(server.tracer, len(images))
            assert server.export_trace(str(path)) == len(images)
        events = load_chrome_trace(str(path))
        summary = summarize_chrome_trace(events)
        assert summary["traces"] == len(images)
        assert summary["e2e"]["count"] == len(images)
        for stage in STAGES:
            assert summary["stages"][stage]["count"] == len(images)
        assert len(summary["slowest"]) == 5

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(SimulationError):
            load_chrome_trace(str(path))

    def test_cli_trace_report(self, lenet_workload, tmp_path, capsys):
        network, weights, config, images, _ = lenet_workload
        path = tmp_path / "trace.json"
        with InferenceServer(
            network, weights, config, max_batch=4, max_wait_s=0.005
        ) as server:
            _serve_all(server, images[:4])
            _wait_for_traces(server.tracer, 4)
            server.export_trace(str(path))
        assert main(["trace-report", str(path), "--top", "2", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["traces"] == 4
        assert len(summary["slowest"]) == 2
        assert main(["trace-report", str(path)]) == 0
        text = capsys.readouterr().out
        assert "end-to-end" in text
        assert "queue_wait" in text

    def test_cli_serve_trace_out_and_slow_ms(self, tmp_path, capsys):
        trace_path = tmp_path / "serve_trace.json"
        code = main(
            [
                "serve",
                "--network",
                "lenet5",
                "--rows",
                "32",
                "--columns",
                "32",
                "--requests",
                "6",
                "--rate",
                "2000",
                "--trace-out",
                str(trace_path),
                "--slow-ms",
                "0.001",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert trace_path.exists()
        events = load_chrome_trace(str(trace_path))
        assert summarize_chrome_trace(events)["traces"] == 6
        # --json stdout is pure JSON; the trace-export notice goes to stderr
        report = json.loads(captured.out)
        assert report["requests"] == 6
        assert "wrote 6 request traces" in captured.err
        # every request beats 1 µs, so the slow log saw all of them
        slow_lines = [
            json.loads(line)
            for line in captured.err.splitlines()
            if line.startswith('{"event": "slow_request"')
        ]
        assert len(slow_lines) == 6
        assert all("trace_id" in entry for entry in slow_lines)


# ---------------------------------------------------------------------------
# standalone accelerator exporter
# ---------------------------------------------------------------------------


class TestAcceleratorMetrics:
    def test_register_metrics_exports_functional_statistics(self):
        accelerator = OpticalCrossbarAccelerator(small_test_chip(**_CHIP))
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(24, 24))
        vectors = rng.normal(size=(4, 24))
        accelerator.linear(weights, vectors)
        registry = MetricsRegistry()
        accelerator.register_metrics(registry)
        text = registry.render_prometheus()
        stats = accelerator.functional_statistics()
        assert (
            f"repro_accelerator_programming_events_total {stats['programming_events']}"
            in text
        )
        assert 'repro_accelerator_tile_cache_total{event="miss"}' in text
        assert 'repro_accelerator_core_tile_dispatches_total{core="0"}' in text

    def test_accelerator_and_pool_export_the_same_families(self, lenet_workload):
        network, weights, config, images, _ = lenet_workload
        labels = {"model": "lenet"}

        def accelerator_families(registry):
            return {
                name: (
                    family["type"],
                    family["help"],
                    sorted(sorted(sample["labels"].items()) for sample in family["samples"]),
                )
                for name, family in registry.render_json().items()
                if name.startswith("repro_accelerator_")
            }

        engine = FunctionalInferenceEngine(network, weights, config)
        engine.run_batch(images)
        standalone = MetricsRegistry()
        engine.accelerator.register_metrics(standalone, labels)
        with EngineWorkerPool(
            EngineReplicaSpec(network=network, weights=weights, config=config),
            "thread:1",
        ) as pool:
            pool.run_batch(images)
            served = MetricsRegistry()
            pool.register_metrics(served, labels)
            pool_families = accelerator_families(served)
        standalone_families = accelerator_families(standalone)
        assert len(standalone_families) == 7
        assert pool_families == standalone_families
        # a process pool that has served nothing merges to {}: no families
        assert accelerator_metric_families({}, labels) == []
