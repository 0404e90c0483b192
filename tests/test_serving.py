"""Tests for the online inference-serving subsystem (``repro.serve``).

Everything here carries the ``serving`` marker, so ``pytest -m serving`` runs
the whole lane as a smoke sweep; the tests also run as part of tier-1.
Covered: the shared executor-spec parser, the micro-batcher's flush /
backpressure edge cases, in-order delivery under parallel executors, bitwise
equivalence of served outputs against direct ``run_batch``, the ``process:N``
pool on a LeNet workload, thread-safety of the accelerator's functional
statistics, SLO telemetry, arrival processes and the serve/loadgen CLI.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.config import small_test_chip
from repro.core.accelerator import OpticalCrossbarAccelerator
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.errors import QueueOverflowError, ServeError, SimulationError
from repro.nn import build_lenet5
from repro.serve import (
    AdaptiveFlushPolicy,
    AnalyticalCostModel,
    EngineReplicaSpec,
    EngineWorkerPool,
    ExecutorSpec,
    FixedFlushPolicy,
    InferenceServer,
    LoadGenerator,
    MicroBatcher,
    ServeTelemetry,
    bursty_arrivals,
    latency_summary,
    make_flush_policy,
    merge_functional_statistics,
    parse_executor_spec,
    poisson_arrivals,
)

pytestmark = pytest.mark.serving

#: Serving-scale chip: big enough that LeNet tiles into a handful of plans.
_CHIP = dict(rows=32, columns=32, num_cores=2)


@pytest.fixture(scope="module")
def lenet_workload():
    network = build_lenet5()
    weights = generate_random_weights(network, seed=0, scale=0.3)
    config = small_test_chip(**_CHIP)
    images = np.random.default_rng(1).uniform(
        0.0, 1.0, (12,) + network.input_shape.as_tuple()
    )
    direct = FunctionalInferenceEngine(network, weights, config).run_batch(images)
    return network, weights, config, images, direct


def _server(lenet_workload, **overrides):
    network, weights, config, _, _ = lenet_workload
    options = dict(max_batch=4, max_wait_s=0.005)
    options.update(overrides)
    return InferenceServer(network, weights, config, **options)


# ---------------------------------------------------------------------------
# executor-spec parser (shared by serve and infer --workers)
# ---------------------------------------------------------------------------


class TestExecutorSpecParser:
    @pytest.mark.parametrize(
        "value, kind, count",
        [
            ("serial", "serial", 1),
            ("thread", "thread", None),
            ("thread:3", "thread", 3),
            ("process", "process", None),
            ("process:2", "process", 2),
            (4, "thread", 4),
            ("4", "thread", 4),
        ],
    )
    def test_accepted_spellings(self, value, kind, count):
        spec = parse_executor_spec(value)
        assert (spec.kind, spec.count) == (kind, count)

    @pytest.mark.parametrize(
        "value",
        ["bogus", "", "thread:0", "thread:-1", "thread:x", "process:",
         "serial:2", "process:1.5", "0", "-3", 0, -1, True, 2.5, None],
    )
    def test_malformed_specs_raise_simulation_error(self, value):
        with pytest.raises(SimulationError, match="executor"):
            parse_executor_spec(value)

    def test_round_trips_and_resolution(self):
        assert str(parse_executor_spec("process:2")) == "process:2"
        assert str(parse_executor_spec("thread")) == "thread"
        assert str(parse_executor_spec("serial")) == "serial"
        assert parse_executor_spec("thread").resolved_count(default=7) == 7
        assert parse_executor_spec("thread:3").resolved_count(default=7) == 3
        spec = ExecutorSpec("serial")
        assert parse_executor_spec(spec) is spec


# ---------------------------------------------------------------------------
# micro-batcher edge cases
# ---------------------------------------------------------------------------


class TestMicroBatcher:
    def test_flush_on_full_returns_immediately(self):
        batcher = MicroBatcher(max_batch=4, max_wait_s=5.0, capacity=16)
        for index in range(6):
            batcher.submit(np.full(2, index))
        start = time.monotonic()
        batch = batcher.next_batch()
        elapsed = time.monotonic() - start
        assert [request.seq for request in batch] == [0, 1, 2, 3]
        assert elapsed < 1.0  # did not wait for max_wait_s
        assert batcher.depth == 2

    def test_flush_on_timeout_returns_partial_batch(self):
        batcher = MicroBatcher(max_batch=8, max_wait_s=0.05, capacity=16)
        batcher.submit(np.zeros(2))
        batcher.submit(np.ones(2))
        start = time.monotonic()
        batch = batcher.next_batch()
        elapsed = time.monotonic() - start
        assert len(batch) == 2
        assert elapsed >= 0.02  # waited for more work before flushing
        assert elapsed < 2.0

    def test_zero_wait_flushes_greedily(self):
        batcher = MicroBatcher(max_batch=8, max_wait_s=0.0, capacity=16)
        batcher.submit(np.zeros(2))
        assert len(batcher.next_batch()) == 1

    def test_overflow_raises_when_not_blocking(self):
        batcher = MicroBatcher(max_batch=2, max_wait_s=0.0, capacity=2)
        batcher.submit(np.zeros(2))
        batcher.submit(np.zeros(2))
        with pytest.raises(QueueOverflowError, match="full"):
            batcher.submit(np.zeros(2), block=False)
        with pytest.raises(QueueOverflowError, match="full"):
            batcher.submit(np.zeros(2), timeout=0.01)

    def test_backpressure_unblocks_when_consumer_drains(self):
        batcher = MicroBatcher(max_batch=2, max_wait_s=0.0, capacity=2)
        batcher.submit(np.zeros(2))
        batcher.submit(np.zeros(2))
        admitted = threading.Event()

        def producer():
            batcher.submit(np.zeros(2))  # blocks until the consumer drains
            admitted.set()

        thread = threading.Thread(target=producer)
        thread.start()
        try:
            assert not admitted.wait(0.05)  # still blocked: queue is full
            assert len(batcher.next_batch()) == 2
            assert admitted.wait(2.0)
        finally:
            thread.join(2.0)
        assert batcher.depth == 1

    def test_close_refuses_new_requests_but_drains_queued(self):
        batcher = MicroBatcher(max_batch=4, max_wait_s=0.0, capacity=8)
        batcher.submit(np.zeros(2))
        batcher.close()
        with pytest.raises(ServeError, match="closed"):
            batcher.submit(np.zeros(2))
        assert len(batcher.next_batch()) == 1
        assert batcher.next_batch(poll_timeout_s=0.01) is None

    def test_invalid_policy_parameters_rejected(self):
        with pytest.raises(SimulationError):
            MicroBatcher(max_batch=0)
        with pytest.raises(SimulationError):
            MicroBatcher(max_wait_s=-0.1)
        with pytest.raises(SimulationError):
            MicroBatcher(max_batch=8, capacity=4)


# ---------------------------------------------------------------------------
# flush policies
# ---------------------------------------------------------------------------


class TestFlushPolicies:
    def test_fixed_policy_target_and_deadline(self):
        policy = FixedFlushPolicy(max_batch=6, max_wait_s=0.25)
        assert policy.target_batch() == 6
        assert policy.flush_deadline(10.0) == pytest.approx(10.25)
        assert policy.snapshot() == {
            "policy": "fixed",
            "max_batch": 6,
            "max_wait_s": 0.25,
        }

    def test_make_flush_policy_spellings(self):
        fixed = make_flush_policy("fixed", max_batch=3, max_wait_s=0.1)
        assert isinstance(fixed, FixedFlushPolicy) and fixed.max_batch == 3
        adaptive = make_flush_policy("adaptive", slo_s=0.2, max_batch=12)
        assert isinstance(adaptive, AdaptiveFlushPolicy)
        assert adaptive.slo_s == 0.2 and adaptive.max_batch_cap == 12
        passthrough = FixedFlushPolicy()
        assert make_flush_policy(passthrough) is passthrough
        with pytest.raises(SimulationError, match="flush policy"):
            make_flush_policy("bogus")

    def test_adaptive_uncalibrated_is_optimistic(self):
        policy = AdaptiveFlushPolicy(slo_s=0.1, max_batch_cap=16, safety=0.5)
        assert policy.target_batch() == 16  # no scale yet: cap applies
        assert policy.estimate_service_s(4) is None
        # full (safety-scaled) budget available while uncalibrated
        assert policy.flush_deadline(5.0) == pytest.approx(5.05)
        assert policy.snapshot()["calibrated"] is False

    def test_adaptive_calibration_tunes_target_batch(self):
        model = AnalyticalCostModel(fixed_units=1.0, per_image_units=1.0)
        policy = AdaptiveFlushPolicy(
            slo_s=1.0, cost_model=model, max_batch_cap=16, safety=0.5, ewma_alpha=1.0
        )
        # one 1-image batch took 0.2 s -> scale 0.1 s/unit -> largest B with
        # 0.1 * (1 + B) <= 0.5 is B = 4
        policy.observe_batch(1, 0.2)
        assert policy.target_batch() == 4
        assert policy.estimate_service_s(4) == pytest.approx(0.5)
        # the deadline reserves the predicted service time out of the budget
        assert policy.flush_deadline(7.0) == pytest.approx(7.0)
        # a much slower service time shrinks the target to the floor of 1
        policy.observe_batch(1, 2.0)
        assert policy.target_batch() == 1
        # a much faster one grows it back to the cap
        policy.observe_batch(8, 0.009)
        assert policy.target_batch() == 16
        snapshot = policy.snapshot()
        assert snapshot["calibrated"] is True
        assert snapshot["observed_batches"] == 3

    def test_adaptive_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            AdaptiveFlushPolicy(slo_s=0.0)
        with pytest.raises(SimulationError):
            AdaptiveFlushPolicy(slo_s=0.1, max_batch_cap=0)
        with pytest.raises(SimulationError):
            AdaptiveFlushPolicy(slo_s=0.1, safety=1.5)
        with pytest.raises(SimulationError):
            AdaptiveFlushPolicy(slo_s=0.1, ewma_alpha=0.0)
        with pytest.raises(SimulationError):
            AnalyticalCostModel(fixed_units=1.0, per_image_units=0.0)
        with pytest.raises(SimulationError):
            AnalyticalCostModel(fixed_units=-1.0, per_image_units=1.0)

    def test_analytical_cost_model_from_workload(self, lenet_workload):
        network, _, config, _, _ = lenet_workload
        model = AnalyticalCostModel.from_workload(network, config)
        assert model.per_image_units > 0
        assert model.fixed_units >= 0
        # affine and increasing in the batch size
        assert model.units(2) > model.units(1)
        assert model.units(4) - model.units(2) == pytest.approx(
            2 * model.per_image_units
        )

    def test_batcher_flush_reasons(self):
        flushes = []
        batcher = MicroBatcher(
            policy=FixedFlushPolicy(max_batch=2, max_wait_s=0.02),
            capacity=8,
            on_flush=lambda reason, size: flushes.append((reason, size)),
        )
        batcher.submit(np.zeros(2))
        batcher.submit(np.zeros(2))
        batcher.next_batch()  # two queued, target two -> flush-on-full
        batcher.submit(np.zeros(2))
        batcher.next_batch()  # partial batch that waits out the deadline
        batcher.submit(np.zeros(2))
        batcher.close()
        batcher.next_batch()  # closed with a partial batch queued
        assert flushes == [("full", 2), ("deadline", 1), ("close", 1)]

    def test_batcher_clamps_adaptive_target_to_capacity(self):
        policy = AdaptiveFlushPolicy(slo_s=10.0, max_batch_cap=64)
        batcher = MicroBatcher(policy=policy, capacity=4)
        assert batcher.max_batch == 4  # uncalibrated cap 64, clamped
        assert batcher.max_wait_s is None  # adaptive has no fixed wait knob
        for _ in range(4):
            batcher.submit(np.zeros(2))
        assert len(batcher.next_batch()) == 4


class TestAdaptiveServing:
    def test_adaptive_server_bitwise_and_policy_stats(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _server(
            lenet_workload, policy="adaptive", slo_s=0.5, max_batch=16
        ) as server:
            served = server.serve_batch(images)
            stats = server.stats()
        assert np.array_equal(served, direct)
        assert stats["policy"]["policy"] == "adaptive"
        assert stats["policy"]["slo_s"] == pytest.approx(0.5)
        assert stats["policy"]["calibrated"] is True
        assert stats["telemetry"]["flush_reasons"]  # reasons were recorded

    def test_fixed_server_snapshot_reports_flush_reasons(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        with _server(lenet_workload, max_batch=len(images), max_wait_s=0.2) as server:
            server.serve_batch(images)
            snapshot = server.telemetry.snapshot()
        assert sum(snapshot["flush_reasons"].values()) == snapshot["batches"]
        assert set(snapshot["flush_reasons"]) <= {"full", "deadline", "close"}


# ---------------------------------------------------------------------------
# server: equivalence, ordering, errors
# ---------------------------------------------------------------------------


class TestInferenceServer:
    @pytest.mark.parametrize("executor", ["serial", "thread:2"])
    def test_served_outputs_bitwise_equal_run_batch(self, lenet_workload, executor):
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload, executor=executor) as server:
            served = server.serve_batch(images)
        assert np.array_equal(served, direct)

    def test_process_pool_served_outputs_bitwise_equal(self, lenet_workload):
        """The roadmap's process executor: replicas beyond the GIL, same bits."""
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload, executor="process:2") as server:
            served = server.serve_batch(images)
            stats = server.stats()
        assert np.array_equal(served, direct)
        assert stats["pool"]["replicas"] == 2
        assert stats["pool"]["executor"] == "process:2"
        assert sum(stats["pool"]["per_core_tile_dispatches"]) > 0

    def test_in_order_delivery_with_parallel_single_request_batches(
        self, lenet_workload
    ):
        _, _, _, images, direct = lenet_workload
        delivered = []
        network, weights, config, _, _ = lenet_workload
        server = InferenceServer(
            network,
            weights,
            config,
            executor="thread:4",
            max_batch=1,  # every request its own batch -> completions can race
            max_wait_s=0.0,
            on_response=lambda seq, output: delivered.append(seq),
        )
        with server:
            served = server.serve_batch(images)
        assert delivered == sorted(delivered) == list(range(len(images)))
        assert np.array_equal(served, direct)

    def test_raising_on_response_callback_does_not_stall_delivery(
        self, lenet_workload
    ):
        _, _, _, images, direct = lenet_workload
        network, weights, config, _, _ = lenet_workload
        delivered = []

        def callback(seq, output):
            delivered.append(seq)
            raise RuntimeError("listener bug")

        server = InferenceServer(
            network, weights, config, max_batch=4, max_wait_s=0.005,
            on_response=callback,
        )
        with server:
            served = server.serve_batch(images)
        assert np.array_equal(served, direct)
        assert delivered == list(range(len(images)))

    def test_pool_statistics_exclude_warmup_traffic(self, lenet_workload):
        """Reported counters describe served work only, for every executor."""
        per_executor = {}
        for executor in ("serial", "process:2"):
            # max_batch=1 pins the micro-batch boundaries, so the served tile
            # dispatch count is deterministic and comparable across executors.
            with _server(
                lenet_workload, executor=executor, max_batch=1, max_wait_s=0.0
            ) as server:
                zero_traffic = server.stats()["pool"]
                assert zero_traffic.get("sharded_dispatches", 0) == 0
                _, _, _, images, _ = lenet_workload
                server.serve_batch(images)
                served = server.stats()["pool"]
            assert sum(served["per_core_tile_dispatches"]) > 0
            per_executor[executor] = sum(served["per_core_tile_dispatches"])
        # identical traffic -> identical served tile counts across executors
        assert per_executor["serial"] == per_executor["process:2"]

    def test_submit_validates_shape_and_lifecycle(self, lenet_workload):
        with _server(lenet_workload) as server:
            with pytest.raises(ServeError, match="shape"):
                server.submit(np.zeros((3, 3, 1)))
        with pytest.raises(ServeError, match="not running"):
            server.submit(np.zeros(server.network.input_shape.as_tuple()))
        unstarted = _server(lenet_workload)
        with pytest.raises(ServeError, match="not running"):
            unstarted.submit(np.zeros(unstarted.network.input_shape.as_tuple()))

    def test_stop_drains_queued_requests(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        server = _server(lenet_workload, max_wait_s=0.2, max_batch=64).start()
        futures = [server.submit(image) for image in images]
        server.stop()  # closes admission, flushes the partial batch
        served = np.stack([future.result(timeout=10.0) for future in futures])
        assert np.array_equal(served, direct)
        histogram = server.telemetry.snapshot()["batch_size_histogram"]
        assert histogram == {len(images): 1}

    def test_telemetry_counts_and_batch_histogram(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        with _server(lenet_workload, max_batch=4, max_wait_s=0.2) as server:
            server.serve_batch(images)  # sequential submits still batch up
            snapshot = server.telemetry.snapshot()
        assert snapshot["requests_admitted"] == len(images)
        assert snapshot["requests_completed"] == len(images)
        assert snapshot["throughput_rps"] > 0
        sizes = snapshot["batch_size_histogram"]
        assert sum(size * count for size, count in sizes.items()) == len(images)
        assert snapshot["latency_p99_s"] >= snapshot["latency_p50_s"] >= 0


# ---------------------------------------------------------------------------
# worker pool + satellite guards
# ---------------------------------------------------------------------------


class TestEngineWorkerPool:
    def test_run_batch_sharded_matches_direct(self, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        replica = EngineReplicaSpec(network=network, weights=weights, config=config)
        with EngineWorkerPool(replica, "process:2") as pool:
            sharded = pool.run_batch_sharded(images)
            stats = pool.statistics()
        assert np.array_equal(sharded, direct)
        # each process replica programs its own tile plans
        assert stats["replicas"] == 2
        assert stats["tile_cache_misses"] >= 2

    def test_merge_functional_statistics(self):
        merged = merge_functional_statistics(
            [
                {"programming_events": 2, "per_core_tile_dispatches": (1, 2)},
                {"programming_events": 3, "per_core_tile_dispatches": (4, 5)},
            ]
        )
        assert merged["programming_events"] == 5
        assert merged["per_core_tile_dispatches"] == (5, 7)
        assert merge_functional_statistics([]) == {}

    def test_closed_pool_rejects_submissions(self, lenet_workload):
        network, weights, config, images, _ = lenet_workload
        replica = EngineReplicaSpec(network=network, weights=weights, config=config)
        pool = EngineWorkerPool(replica, "serial")
        pool.close()
        with pytest.raises(ServeError, match="closed"):
            pool.submit(images[:1])


class TestSatelliteGuards:
    def test_run_batch_rejects_empty_batches(self, lenet_workload):
        network, weights, config, _, _ = lenet_workload
        engine = FunctionalInferenceEngine(network, weights, config)
        for empty in ([], np.empty((0,) + network.input_shape.as_tuple())):
            with pytest.raises(SimulationError, match="empty"):
                engine.run_batch(empty)

    def test_functional_statistics_thread_safe_under_concurrent_linear(self):
        """Concurrent GEMMs must not lose counter increments."""
        accelerator = OpticalCrossbarAccelerator(
            small_test_chip(rows=16, columns=16, num_cores=2)
        )
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(40, 24))  # 3 x 2 = 6 tiles
        inputs = rng.uniform(size=(4, 40))
        calls_per_thread, num_threads = 25, 4

        def worker():
            for _ in range(calls_per_thread):
                accelerator.linear(weights, inputs)

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total_calls = calls_per_thread * num_threads
        stats = accelerator.functional_statistics()
        assert stats["sharded_dispatches"] == total_calls
        assert stats["tile_cache_misses"] == 1
        assert stats["tile_cache_hits"] == total_calls - 1
        assert sum(stats["per_core_tile_dispatches"]) == total_calls * 6


# ---------------------------------------------------------------------------
# telemetry + arrival processes + load generator
# ---------------------------------------------------------------------------


class TestTelemetry:
    def test_latency_summary_matches_numpy_percentiles(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(0.01, size=200)
        summary = latency_summary(samples)
        for q in (50, 95, 99):
            assert summary[f"latency_p{q}_s"] == pytest.approx(
                float(np.percentile(samples, q))
            )
        assert summary["latency_mean_s"] == pytest.approx(float(samples.mean()))

    def test_empty_summary_is_zeroed(self):
        summary = latency_summary([])
        assert summary["latency_p99_s"] == 0.0
        assert summary["latency_max_s"] == 0.0

    def test_snapshot_aggregates_all_sections(self):
        telemetry = ServeTelemetry()
        telemetry.record_admission(queue_depth=3)
        telemetry.record_admission(queue_depth=5)
        telemetry.record_rejection()
        telemetry.record_batch(size=2, service_time_s=0.25)
        telemetry.record_response(0.1)
        telemetry.record_response(0.3)
        snapshot = telemetry.snapshot()
        assert snapshot["requests_admitted"] == 2
        assert snapshot["requests_rejected"] == 1
        assert snapshot["requests_completed"] == 2
        assert snapshot["queue_depth_max"] == 5
        assert snapshot["queue_depth_mean"] == pytest.approx(4.0)
        assert snapshot["batch_size_histogram"] == {2: 1}
        assert snapshot["mean_batch_size"] == pytest.approx(2.0)
        assert snapshot["service_time_s"] == pytest.approx(0.25)
        assert snapshot["latency_p50_s"] == pytest.approx(0.2)


class TestArrivalProcesses:
    def test_poisson_offsets_are_sorted_and_rate_scaled(self):
        offsets = poisson_arrivals(1000.0, 500, seed=4)
        assert offsets[0] == 0.0
        assert np.all(np.diff(offsets) >= 0)
        mean_gap = offsets[-1] / (len(offsets) - 1)
        assert 0.5e-3 < mean_gap < 2.0e-3  # ~1/rate

    def test_bursty_long_run_rate_and_burst_structure(self):
        rate, burst_length, burst_factor = 1000.0, 8, 10.0
        offsets = bursty_arrivals(
            rate, 400, seed=5, burst_length=burst_length, burst_factor=burst_factor
        )
        gaps = np.diff(offsets)
        on_gap = 1.0 / (rate * burst_factor)
        # within a burst, arrivals come burst_factor times faster than the mean
        assert np.isclose(np.median(gaps), on_gap)
        long_run_rate = len(offsets) / offsets[-1]
        assert 0.5 * rate < long_run_rate < 2.0 * rate

    def test_bursty_short_trace_still_gets_an_off_gap(self):
        """burst_length clamps so a short trace is not one giant 10x burst."""
        rate, factor = 500.0, 10.0
        offsets = bursty_arrivals(rate, 8, seed=6, burst_length=8, burst_factor=factor)
        long_run_rate = len(offsets) / offsets[-1]
        assert long_run_rate < 0.5 * rate * factor
        gaps = np.diff(offsets)
        assert gaps.max() > 2 * gaps.min()  # an OFF gap exists

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            poisson_arrivals(0.0, 10)
        with pytest.raises(SimulationError):
            poisson_arrivals(100.0, 0)
        with pytest.raises(SimulationError):
            bursty_arrivals(100.0, 10, burst_factor=1.0)
        with pytest.raises(SimulationError):
            bursty_arrivals(100.0, 10, burst_length=0)


class TestLoadGenerator:
    def test_open_loop_poisson_bitwise_and_telemetry(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload, executor="thread:2") as server:
            report = LoadGenerator(server).run_open_loop(
                images, poisson_arrivals(800.0, len(images), seed=2)
            )
        assert np.array_equal(report.outputs, direct)
        assert report.requests == len(images)
        assert report.achieved_rps > 0
        telemetry = report.server["telemetry"]
        assert telemetry["requests_completed"] == len(images)
        assert report.client_latency["latency_p99_s"] >= report.client_latency["latency_p50_s"]

    def test_open_loop_sheds_on_overflow_when_requested(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        server = _server(
            lenet_workload, max_batch=2, max_wait_s=0.0, queue_capacity=2
        )
        with server:
            # all-at-once arrivals against a 2-deep queue must shed load
            report = LoadGenerator(server).run_open_loop(
                images, np.zeros(len(images)), shed_on_overflow=True
            )
        assert report.rejected > 0
        assert report.requests + report.rejected == len(images)
        assert len(report.outputs) == report.requests
        assert report.server["telemetry"]["requests_rejected"] == report.rejected

    def test_closed_loop_reassembles_outputs_in_image_order(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _server(lenet_workload, executor="thread:2") as server:
            report = LoadGenerator(server).run_closed_loop(images, concurrency=3)
        assert np.array_equal(report.outputs, direct)
        assert report.loop == "closed"
        assert report.requests == len(images)
        summary = report.summary()
        assert summary["client_latency_p50_s"] >= 0
        assert summary["server"]["telemetry"]["requests_completed"] == len(images)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestServingCli:
    _chip = ["--rows", "32", "--columns", "32"]

    def test_serve_json_reports_slo_and_bitwise_match(self, capsys):
        code = main(
            ["serve", "--network", "lenet5", "--requests", "6", "--rate", "800",
             "--executor", "thread:2", "--json"] + self._chip
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["bitwise_match_vs_run_batch"] is True
        assert summary["requests"] == 6
        assert summary["achieved_rps"] > 0
        assert summary["latency_p99_ms"] >= summary["latency_p50_ms"]
        assert sum(summary["per_core_tile_dispatches"]) > 0

    def test_serve_text_report(self, capsys):
        code = main(
            ["serve", "--network", "lenet5", "--requests", "4", "--rate", "500",
             "--arrival", "bursty"] + self._chip
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "latency p50/p95/p99" in output
        assert "bitwise-identical" in output

    def test_loadgen_closed_sweep(self, capsys):
        code = main(
            ["loadgen", "--network", "lenet5", "--mode", "closed",
             "--concurrency", "1,2", "--requests", "4", "--json"] + self._chip
        )
        assert code == 0
        sweep = json.loads(capsys.readouterr().out)
        assert sweep["mode"] == "closed"
        assert [point["load"] for point in sweep["points"]] == [1, 2]
        assert all(point["bitwise_match_vs_run_batch"] for point in sweep["points"])

    def test_infer_accepts_process_workers(self, capsys):
        code = main(
            ["infer", "--network", "lenet5", "--images", "4",
             "--workers", "process:2", "--json"] + self._chip
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["workers"] == "process:2"
        assert sum(summary["per_core_tile_dispatches"]) > 0

    def test_infer_process_matches_serial_bitwise(self, capsys):
        base = ["infer", "--network", "lenet5", "--images", "4", "--json"] + self._chip
        assert main(base) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(base + ["--workers", "process:2"]) == 0
        process = json.loads(capsys.readouterr().out)
        assert process["mean_relative_error"] == serial["mean_relative_error"]
        assert process["top1_match_rate"] == serial["top1_match_rate"]

    @pytest.mark.parametrize("spec", ["process:0", "bogus:3", "serial:2", "0"])
    def test_infer_rejects_malformed_executor_specs(self, spec):
        with pytest.raises(SystemExit):
            main(["infer", "--network", "lenet5", "--images", "1", "--workers", spec])

    @pytest.mark.parametrize(
        "option",
        [
            ["--rate", "0"],
            ["--rate", "-5"],
            ["--requests", "0"],
            ["--max-batch", "0"],
            ["--max-wait-ms", "-1"],
            ["--queue-capacity", "0"],
        ],
    )
    def test_serve_rejects_invalid_options_as_usage_errors(self, option):
        with pytest.raises(SystemExit):
            main(["serve", "--network", "lenet5"] + option)

    @pytest.mark.parametrize("clients", ["2.7", "0", "1,0", "x"])
    def test_loadgen_rejects_non_integer_concurrency(self, clients):
        with pytest.raises(SystemExit):
            main(
                ["loadgen", "--network", "lenet5", "--mode", "closed",
                 "--concurrency", clients]
            )
