"""Fault-tolerance lane for the serving subsystem (``pytest -m chaos``).

Covered: the ``--inject-fault`` spec grammar and the deterministic
:class:`FaultInjector`; the circuit-breaker state machine on a fake clock;
worker-pool supervision under injected crash / hang / slow / corrupt faults
(retry-with-restart, exponential backoff via an injectable sleeper, bitwise
re-execution, attempt exhaustion); *real* process-replica deaths (a SIGKILLed
child must surface as a recoverable batch failure, never a hang); server-level
degradation (breaker open → ``CircuitOpenError`` shed, health levels, fault
telemetry); client retries honoring ``Retry-After``; and graceful SIGTERM
shutdown of the ``serve --http`` CLI.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.config import small_test_chip
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.errors import (
    BadRequestError,
    CircuitOpenError,
    QueueOverflowError,
    ReplicaCrashError,
    ReplicaFailureError,
    RequestTimeoutError,
    ServeError,
    SimulationError,
)
from repro.nn import build_lenet5
from repro.serve import (
    AsyncServeHTTPServer,
    CircuitBreaker,
    CircuitBreakerPolicy,
    EngineReplicaSpec,
    EngineWorkerPool,
    FaultInjector,
    FaultRule,
    HTTPInferenceClient,
    InferenceServer,
    LoadGenerator,
    ModelDefinition,
    ModelRegistry,
    parse_fault_spec,
    spec_serialization_count,
)
from repro.serve.faults import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DEFAULT_HANG_DELAY_S,
    DEFAULT_SLOW_DELAY_S,
    FaultAction,
)

pytestmark = pytest.mark.chaos

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


def _pool(lenet_workload, executor="thread:2", **options) -> EngineWorkerPool:
    network, weights, config, _, _ = lenet_workload
    replica = EngineReplicaSpec(network=network, weights=weights, config=config)
    return EngineWorkerPool(replica, executor, **options)


def _faulty_server(lenet_workload, *, name="lenet5", **model_options) -> InferenceServer:
    """A single-model server whose definition carries fault/breaker knobs."""
    network, weights, config, _, _ = lenet_workload
    options = dict(max_batch=4, max_wait_s=0.005)
    options.update(model_options)
    registry = ModelRegistry(
        [
            ModelDefinition(
                name=name, network=network, weights=dict(weights), config=config,
                **options,
            )
        ]
    )
    return InferenceServer(registry=registry)


# ---------------------------------------------------------------------------
# fault spec grammar + deterministic injector
# ---------------------------------------------------------------------------


class TestFaultSpecs:
    @pytest.mark.parametrize(
        "spec, kind, every, at, delay_s, times",
        [
            ("crash:every=5", "crash", 5, None, None, None),
            ("hang:at=3", "hang", None, 3, None, 1),
            ("slow:every=2,delay_ms=20", "slow", 2, None, 0.02, None),
            ("corrupt:at=7,times=1", "corrupt", None, 7, None, 1),
            ("crash", "crash", 1, None, None, None),  # bare kind = every dispatch
        ],
    )
    def test_accepted_spellings(self, spec, kind, every, at, delay_s, times):
        rule = parse_fault_spec(spec)
        assert (rule.kind, rule.every, rule.at, rule.delay_s, rule.times) == (
            kind, every, at, delay_s, times,
        )

    def test_probability_spelling_with_seed(self):
        rule = parse_fault_spec("crash:probability=0.25,seed=7")
        assert rule.kind == "crash"
        assert rule.probability == 0.25
        assert rule.seed == 7

    @pytest.mark.parametrize(
        "spec",
        [
            "fry",                      # unknown kind
            "",                         # empty
            "crash:every=0",            # every must be >= 1
            "crash:at=0",               # at must be >= 1
            "crash:probability=1.5",    # probability in (0, 1]
            "crash:every",              # missing value
            "crash:every=x",            # not a number
            "crash:nope=1",             # unknown key
            "crash:every=2,at=3",       # more than one trigger
            "slow:delay_ms=-5",         # negative delay
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(SimulationError):
            parse_fault_spec(spec)

    def test_at_rule_fires_exactly_once(self):
        rule = parse_fault_spec("crash:at=3")
        fired = []
        for index in range(1, 10):
            if rule.matches(index):
                rule.fired += 1
                fired.append(index)
        assert fired == [3]

    def test_probability_schedule_is_seed_deterministic(self):
        def schedule(seed):
            rule = FaultRule(kind="slow", probability=0.5, seed=seed)
            return [rule.matches(i) for i in range(1, 51)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_action_defaults_are_kind_specific(self):
        assert parse_fault_spec("slow:every=1").action().delay_s == DEFAULT_SLOW_DELAY_S
        assert parse_fault_spec("hang:every=1").action().delay_s == DEFAULT_HANG_DELAY_S
        assert parse_fault_spec("crash").action().delay_s == 0.0
        with pytest.raises(SimulationError):
            FaultAction(kind="melt")

    def test_injector_first_match_wins_and_counts(self):
        injector = FaultInjector(["corrupt:at=2", "crash:every=2"])
        kinds = []
        for _ in range(6):
            action = injector.next_action()
            kinds.append(None if action is None else action.kind)
        # dispatch 2 hits the corrupt rule first; 4 and 6 fall through to crash
        assert kinds == [None, "corrupt", None, "crash", None, "crash"]
        snapshot = injector.snapshot()
        assert snapshot["dispatches"] == 6
        assert snapshot["injected"] == {"corrupt": 1, "crash": 2}
        assert snapshot["rules"] == 2

    def test_injector_without_rules_never_fires(self):
        injector = FaultInjector()
        assert all(injector.next_action() is None for _ in range(10))
        assert injector.dispatches == 10


# ---------------------------------------------------------------------------
# circuit breaker (fake clock: every transition tested without sleeping)
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self, **policy):
        options = dict(
            failure_threshold=0.5, window=4, min_samples=2,
            recovery_s=10.0, half_open_successes=2,
        )
        options.update(policy)
        now = [0.0]
        breaker = CircuitBreaker(CircuitBreakerPolicy(**options), clock=lambda: now[0])
        return breaker, now

    def test_opens_at_failure_threshold_and_sheds(self):
        breaker, _ = self._breaker()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED  # min_samples not reached
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        snapshot = breaker.snapshot()
        assert snapshot["times_opened"] == 1
        assert snapshot["rejections"] == 1
        assert snapshot["retry_after_s"] == pytest.approx(10.0)

    def test_failures_below_threshold_keep_it_closed(self):
        breaker, _ = self._breaker(failure_threshold=0.75)
        for _ in range(20):
            breaker.record_success()
            breaker.record_failure()  # steady 50% < 75% threshold
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_retry_after_counts_down_with_the_clock(self):
        breaker, now = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.retry_after_s() == pytest.approx(10.0)
        now[0] = 6.0
        assert breaker.retry_after_s() == pytest.approx(4.0)

    def test_half_open_probe_closes_after_consecutive_successes(self):
        breaker, now = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 10.0  # recovery window elapsed
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()  # the probe is admitted
        breaker.record_success()
        assert breaker.state == BREAKER_HALF_OPEN  # needs 2 consecutive
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.snapshot()["window_samples"] == 0  # history cleared

    def test_half_open_failure_snaps_back_open(self):
        breaker, now = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.snapshot()["times_opened"] == 2
        assert breaker.retry_after_s() == pytest.approx(10.0)  # clock restarted

    @pytest.mark.parametrize(
        "policy",
        [
            dict(failure_threshold=0.0),
            dict(failure_threshold=1.5),
            dict(window=0),
            dict(min_samples=0),
            dict(min_samples=9),  # > window
            dict(recovery_s=-1.0),
            dict(half_open_successes=0),
        ],
    )
    def test_invalid_policies_rejected(self, policy):
        options = dict(window=8)
        options.update(policy)
        with pytest.raises(SimulationError):
            CircuitBreakerPolicy(**options)


# ---------------------------------------------------------------------------
# pool supervision with in-process replicas (fast: no forks)
# ---------------------------------------------------------------------------


class TestPoolSupervision:
    def test_injected_crashes_recover_bitwise(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        injector = FaultInjector(["crash:every=3"])
        with _pool(
            lenet_workload, "thread:2",
            fault_injector=injector, backoff_base_s=0.0,
        ) as pool:
            served = np.concatenate(
                [pool.run_batch(images[i : i + 2]) for i in range(0, len(images), 2)]
            )
            faults = pool.fault_statistics()
            assert pool.count == 2  # in-place replacement kept the fleet size
        assert np.array_equal(served, direct)
        assert faults["replica_restarts"] >= 1
        assert faults["replica_failures"].get("ReplicaCrashError", 0) >= 1
        assert faults["batches_recovered"] >= 1
        assert faults["retry_histogram"].get(1, 0) >= 1
        assert faults["batches_failed"] == 0
        assert faults["injection"]["injected"]["crash"] >= 1

    def test_corrupt_outputs_are_caught_and_retried(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _pool(
            lenet_workload, "thread:1",
            fault_injector=FaultInjector(["corrupt:at=1"]), backoff_base_s=0.0,
        ) as pool:
            served = pool.run_batch(images)
            faults = pool.fault_statistics()
        assert np.array_equal(served, direct)  # the poisoned result was dropped
        assert faults["replica_failures"] == {"CorruptResultError": 1}
        assert faults["batches_recovered"] == 1

    def test_validation_can_be_disabled(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        with _pool(
            lenet_workload, "thread:1", validate_outputs=False,
            fault_injector=FaultInjector(["corrupt:at=1"]),
        ) as pool:
            served = pool.run_batch(images)
            assert pool.fault_statistics()["replica_restarts"] == 0
        assert np.isnan(served).any()  # poison flows through unchecked

    def test_injected_hang_times_out_and_recovers(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _pool(
            lenet_workload, "thread:1", dispatch_timeout_s=0.05,
            fault_injector=FaultInjector(["hang:at=1"]), backoff_base_s=0.0,
        ) as pool:
            served = pool.run_batch(images)
            faults = pool.fault_statistics()
        assert np.array_equal(served, direct)
        assert faults["replica_failures"] == {"ReplicaTimeoutError": 1}

    def test_slow_fault_adds_latency_but_no_failure(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _pool(
            lenet_workload, "thread:1",
            fault_injector=FaultInjector(["slow:at=1,delay_ms=30"]),
        ) as pool:
            start = time.monotonic()
            served = pool.run_batch(images)
            elapsed = time.monotonic() - start
            faults = pool.fault_statistics()
        assert np.array_equal(served, direct)
        assert elapsed >= 0.03
        assert faults["replica_restarts"] == 0
        assert faults["injection"]["injected"] == {"slow": 1}

    def test_exponential_backoff_schedule_and_streak_reset(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        sleeps = []
        injector = FaultInjector(
            ["crash:at=1", "crash:at=2", "crash:at=3", "crash:at=6"]
        )
        with _pool(
            lenet_workload, "thread:1",
            fault_injector=injector, max_attempts=5,
            backoff_base_s=0.01, backoff_max_s=0.03, sleep=sleeps.append,
        ) as pool:
            # dispatches 1-3 crash, 4 succeeds: backoff doubles then caps
            assert np.array_equal(pool.run_batch(images), direct)
            assert sleeps == [0.01, 0.02, 0.03]
            assert pool.fault_statistics()["retry_histogram"] == {3: 1}
            # a clean batch (dispatch 5) resets the streak, so the next
            # crash (dispatch 6) backs off from the base again
            assert np.array_equal(pool.run_batch(images), direct)
            assert np.array_equal(pool.run_batch(images), direct)
            assert sleeps == [0.01, 0.02, 0.03, 0.01]
            assert pool.fault_statistics()["consecutive_failures"] == 0

    def test_attempt_budget_exhaustion_raises_replica_failure(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        with _pool(
            lenet_workload, "thread:1",
            fault_injector=FaultInjector(["crash"]),  # every dispatch
            max_attempts=2, backoff_base_s=0.0,
        ) as pool:
            with pytest.raises(ReplicaFailureError) as excinfo:
                pool.run_batch(images)
            faults = pool.fault_statistics()
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last_error, ReplicaCrashError)
        assert faults["batches_failed"] == 1
        assert faults["batches_recovered"] == 0

    def test_non_fault_errors_return_the_replica(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _pool(lenet_workload, "thread:1") as pool:
            with pytest.raises(SimulationError):
                pool.run_batch(np.zeros((2, 5, 5, 1)))  # wrong input shape
            # the replica went back to the free list: no restart, still serving
            assert pool.fault_statistics()["replica_restarts"] == 0
            assert np.array_equal(pool.run_batch(images), direct)

    def test_restart_in_flight_is_visible_and_count_invariant(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        entered = threading.Event()
        release = threading.Event()

        def gated_sleep(_delay):
            entered.set()
            assert release.wait(timeout=30.0)

        with _pool(
            lenet_workload, "thread:2",
            fault_injector=FaultInjector(["crash:at=1"]),
            backoff_base_s=0.01, sleep=gated_sleep,
        ) as pool:
            future = pool.submit(images)
            assert entered.wait(timeout=30.0)  # supervisor is mid-restart
            assert pool.restarting == 1
            assert pool.count == 2  # the recovering slot still counts
            release.set()
            assert np.array_equal(future.result(timeout=60), direct)
            assert pool.restarting == 0
            assert pool.fault_statistics()["replica_restarts"] == 1

    def test_invalid_supervision_parameters_rejected(self, lenet_workload):
        with pytest.raises(SimulationError):
            _pool(lenet_workload, "thread:1", dispatch_timeout_s=0.0)
        with pytest.raises(SimulationError):
            _pool(lenet_workload, "thread:1", max_attempts=0)
        with pytest.raises(SimulationError):
            _pool(lenet_workload, "thread:1", backoff_base_s=-1.0)


# ---------------------------------------------------------------------------
# real process-replica deaths
# ---------------------------------------------------------------------------


class TestProcessReplicaFaults:
    def test_sigkilled_child_surfaces_and_recovers(self, lenet_workload):
        """Regression: a process replica dying mid-service must surface as a
        recoverable batch failure — never leave the dispatch blocked forever."""
        _, _, _, images, direct = lenet_workload
        with _pool(
            lenet_workload, "process:1",
            dispatch_timeout_s=120.0, backoff_base_s=0.0,
        ) as pool:
            assert np.array_equal(pool.run_batch(images), direct)
            pids = pool.replica_pids()
            assert len(pids) == 1
            os.kill(pids[0], signal.SIGKILL)
            # the next batch lands on the dead worker: the pool must detect
            # the death, rebuild the replica and re-execute bitwise
            assert np.array_equal(pool.run_batch(images), direct)
            faults = pool.fault_statistics()
            fresh = pool.replica_pids()
        assert faults["replica_restarts"] >= 1
        assert faults["batches_recovered"] >= 1
        assert fresh and fresh != pids

    def test_injected_process_crash_is_a_real_sigkill(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _pool(
            lenet_workload, "process:1",
            fault_injector=FaultInjector(["crash:at=2"]),
            dispatch_timeout_s=120.0, backoff_base_s=0.0,
        ) as pool:
            assert np.array_equal(pool.run_batch(images), direct)
            before = pool.replica_pids()
            assert np.array_equal(pool.run_batch(images), direct)  # crash + retry
            faults = pool.fault_statistics()
            after = pool.replica_pids()
        assert faults["replica_restarts"] == 1
        assert faults["injection"]["injected"] == {"crash": 1}
        assert after != before  # the worker process really died

    def test_hung_process_replica_is_killed_and_replaced(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        with _pool(
            lenet_workload, "process:1",
            fault_injector=FaultInjector(["hang:at=2"]),
            dispatch_timeout_s=1.5, backoff_base_s=0.0,
        ) as pool:
            assert np.array_equal(pool.run_batch(images), direct)
            start = time.monotonic()
            assert np.array_equal(pool.run_batch(images), direct)
            elapsed = time.monotonic() - start
            faults = pool.fault_statistics()
        assert faults["replica_failures"].get("ReplicaTimeoutError", 0) == 1
        assert faults["replica_restarts"] == 1
        assert elapsed >= 1.5  # the timeout, not the 60 s hang, bounded it

    def test_spec_pickled_once_across_replica_restarts(self, lenet_workload):
        """Restarts reuse the cached payload: one serialization per pool, ever.

        Two injected crashes force two supervision restarts; before the fix
        every restart re-pickled the weight-laden spec through the fresh
        ``ProcessPoolExecutor`` initializer.
        """
        _, _, _, images, direct = lenet_workload
        before = spec_serialization_count()
        with _pool(
            lenet_workload,
            "process:1",
            fault_injector=FaultInjector(["crash:at=1", "crash:at=3"]),
            dispatch_timeout_s=120.0,
            max_attempts=3,
            backoff_base_s=0.0,
        ) as pool:
            for _ in range(3):
                assert np.array_equal(pool.run_batch(images), direct)
            restarts = pool.fault_statistics()["replica_restarts"]
        assert restarts == 2
        assert spec_serialization_count() - before == 1

    def test_periodic_kills_full_run_zero_lost_bitwise(self, lenet_workload):
        """Crash a process replica every K batches, drive a full closed-loop
        load run, lose nothing, stay bitwise."""
        _, _, _, images, direct = lenet_workload
        server = _faulty_server(
            lenet_workload,
            executor="process:2",
            max_batch=2,  # small batches: the every=5 rule fires mid-run
            faults=["crash:every=5"],
            dispatch_timeout_s=120.0,
            max_attempts=3,
            backoff_base_s=0.01,
        )
        flood = np.concatenate([images, images])
        with server:
            report = LoadGenerator(server).run_closed_loop(flood, concurrency=4)
            stats = server.stats()
        assert report.requests == len(flood)  # zero lost requests
        assert np.array_equal(report.outputs, np.concatenate([direct, direct]))
        faults = stats["pool"]["faults"]
        assert faults["injection"]["injected"]["crash"] >= 1
        assert faults["replica_restarts"] >= 1
        assert faults["batches_failed"] == 0
        assert stats["telemetry"]["requests_failed"] == 0


# ---------------------------------------------------------------------------
# server-level degradation: breaker, shedding, health, failure telemetry
# ---------------------------------------------------------------------------


class TestServerDegradation:
    def test_breaker_opens_sheds_and_recovers(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        server = _faulty_server(
            lenet_workload,
            executor="thread:1",
            max_batch=2,
            faults=["crash:times=4"],  # every dispatch, first 4 only
            max_attempts=1,            # each faulted batch fails outright
            backoff_base_s=0.0,
            breaker=CircuitBreakerPolicy(
                failure_threshold=0.5, window=4, min_samples=2,
                recovery_s=2.0, half_open_successes=1,
            ),
        )
        with server:
            for image in images[:4]:
                with pytest.raises((ReplicaFailureError, CircuitOpenError)):
                    server.submit(image).result(timeout=60)
            # enough batch failures recorded: admissions are now shed
            with pytest.raises(CircuitOpenError) as excinfo:
                server.submit(images[0])
            assert excinfo.value.retry_after_s >= 0.0
            assert excinfo.value.model == "lenet5"
            levels = server.health_levels()
            assert levels["live"] and not levels["ready"]
            assert levels["degraded"]
            assert levels["models"]["lenet5"] == "down"
            stats = server.stats()
            assert stats["breaker"]["state"] == BREAKER_OPEN
            assert stats["breaker"]["times_opened"] >= 1
            assert stats["telemetry"]["requests_shed"] >= 1
            assert stats["telemetry"]["requests_failed"] >= 1
            assert stats["health"] == "down"

            # after the recovery window the half-open probe goes through;
            # the injector's rules are exhausted, so it closes again
            deadline = time.monotonic() + 30.0
            recovered = None
            while time.monotonic() < deadline:
                try:
                    recovered = server.serve_batch(images)
                    break
                except (CircuitOpenError, ReplicaFailureError):
                    time.sleep(0.05)
            assert recovered is not None, "breaker never recovered"
            assert np.array_equal(recovered, direct)
            assert server.health_levels()["models"]["lenet5"] == "ok"
            assert server.stats()["breaker"]["state"] == BREAKER_CLOSED

    def test_supervised_faults_are_invisible_to_clients(self, lenet_workload):
        """Faults below the attempt budget: clients just see correct answers."""
        _, _, _, images, direct = lenet_workload
        server = _faulty_server(
            lenet_workload,
            executor="thread:2",
            max_batch=2,  # >= 4 dispatches for 8 images, so the fault fires
            faults=["crash:every=4"],
            max_attempts=3,
            backoff_base_s=0.0,
            breaker=CircuitBreakerPolicy(
                failure_threshold=0.9, window=8, min_samples=4,
            ),
        )
        with server:
            served = server.serve_batch(images)
            stats = server.stats()
        assert np.array_equal(served, direct)
        assert stats["pool"]["faults"]["batches_recovered"] >= 1
        assert stats["telemetry"]["requests_failed"] == 0
        assert stats["telemetry"]["requests_shed"] == 0
        assert stats["breaker"]["state"] == BREAKER_CLOSED

    def test_nan_pixel_is_rejected_at_submit_not_blamed_on_a_replica(
        self, lenet_workload
    ):
        """One NaN pixel among four requests on ``thread:1``: only that
        request fails, at admission.  It must never reach a batch, where the
        pool's output check would count it as replica corruption (restarting
        the replica and failing every request batched with it)."""
        _, _, _, images, direct = lenet_workload
        poisoned = images[:4].copy()
        poisoned[2].flat[100] = np.nan
        server = _faulty_server(
            lenet_workload,
            executor="thread:1",
            max_batch=4,
            max_wait_s=0.05,
            backoff_base_s=0.0,
            breaker=CircuitBreakerPolicy(failure_threshold=0.5, window=4, min_samples=1),
        )
        with server:
            futures = {}
            for index, image in enumerate(poisoned):
                if index == 2:
                    with pytest.raises(BadRequestError, match="non-finite"):
                        server.submit(image)
                else:
                    futures[index] = server.submit(image)
            served = {index: f.result(timeout=60) for index, f in futures.items()}
            stats = server.stats()
        for index, output in served.items():
            assert np.array_equal(output, direct[index])
        faults = stats["pool"]["faults"]
        assert faults["replica_restarts"] == 0
        assert faults["replica_failures"] == {}
        assert stats["telemetry"]["requests_failed"] == 0
        assert stats["breaker"]["state"] == BREAKER_CLOSED


# ---------------------------------------------------------------------------
# HTTP client retries (scripted stub server: no engine in the loop)
# ---------------------------------------------------------------------------


class _ScriptedHTTP:
    """A real HTTP listener answering from a scripted list of responses.

    Each entry is ``(status, headers, body_bytes)``; the last entry repeats
    once the script is exhausted.  ``hits`` counts requests served.
    """

    def __init__(self, script, delay_s=0.0):
        self.script = list(script)
        self.delay_s = delay_s
        self.hits = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):  # noqa: A002
                pass

            def _serve(self):
                if outer.delay_s:
                    time.sleep(outer.delay_s)
                index = min(outer.hits, len(outer.script) - 1)
                outer.hits += 1
                status, headers, body = outer.script[index]
                self.send_response(status)
                for key, value in headers.items():
                    self.send_header(key, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            do_GET = do_POST = _serve

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


class TestHTTPClientRetries:
    def test_transient_503_retried_honoring_retry_after(self):
        stub = _ScriptedHTTP(
            [
                (503, {"Retry-After": "0.25"}, b'{"error": "restarting"}'),
                (200, {}, b'{"ok": true}'),
            ]
        )
        sleeps = []
        try:
            client = HTTPInferenceClient(stub.url, max_retries=2, sleep=sleeps.append)
            try:
                assert client.stats() == {"ok": True}
            finally:
                client.close()
        finally:
            stub.close()
        assert stub.hits == 2
        assert sleeps == [0.25]  # the server's hint, not the backoff schedule
        assert client.retries_performed == 1

    def test_backoff_without_retry_after_is_jittered_and_seeded(self):
        def run(seed):
            stub = _ScriptedHTTP(
                [
                    (503, {}, b'{"error": "busy"}'),
                    (503, {}, b'{"error": "busy"}'),
                    (200, {}, b'{"ok": true}'),
                ]
            )
            sleeps = []
            try:
                client = HTTPInferenceClient(
                    stub.url, max_retries=2, retry_backoff_s=0.04,
                    retry_seed=seed, sleep=sleeps.append,
                )
                try:
                    assert client.stats() == {"ok": True}
                finally:
                    client.close()
            finally:
                stub.close()
            return sleeps

        first = run(seed=3)
        assert len(first) == 2
        assert 0.02 <= first[0] <= 0.04     # base 0.04, jitter in [0.5, 1.0]
        assert 0.04 <= first[1] <= 0.08     # doubled
        assert run(seed=3) == first          # same seed, same schedule
        assert run(seed=4) != first

    def test_429_and_400_are_never_retried(self):
        stub = _ScriptedHTTP([(429, {}, b'{"error": "queue full"}')])
        try:
            client = HTTPInferenceClient(stub.url, max_retries=5, sleep=lambda _: None)
            try:
                with pytest.raises(QueueOverflowError):
                    client.stats()
            finally:
                client.close()
        finally:
            stub.close()
        assert stub.hits == 1  # shed load is the server's decision: no retry
        assert client.retries_performed == 0

    def test_persistent_breaker_shed_surfaces_circuit_open(self):
        body = b'{"error": "shedding", "type": "CircuitOpenError"}'
        stub = _ScriptedHTTP([(503, {"Retry-After": "1"}, body)])
        sleeps = []
        try:
            client = HTTPInferenceClient(stub.url, max_retries=2, sleep=sleeps.append)
            try:
                with pytest.raises(CircuitOpenError) as excinfo:
                    client.stats()
            finally:
                client.close()
        finally:
            stub.close()
        assert stub.hits == 3  # initial try + 2 retries
        assert sleeps == [1.0, 1.0]
        assert excinfo.value.retry_after_s == 1.0

    def test_connection_refused_is_a_serve_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = HTTPInferenceClient(
            f"http://127.0.0.1:{port}", max_retries=0, connect_timeout_s=5.0,
        )
        try:
            with pytest.raises(ServeError, match="cannot connect"):
                client.healthz()
        finally:
            client.close()

    def test_read_timeout_maps_to_request_timeout_error(self):
        stub = _ScriptedHTTP([(200, {}, b'{"ok": true}')], delay_s=1.0)
        try:
            client = HTTPInferenceClient(stub.url, timeout_s=0.1, max_retries=0)
            try:
                with pytest.raises(RequestTimeoutError):
                    client.stats()
            finally:
                client.close()
        finally:
            stub.close()


class TestHTTPDegradedSurface:
    def test_healthz_and_stats_expose_fault_state(self, lenet_workload):
        _, _, _, images, direct = lenet_workload
        server = _faulty_server(
            lenet_workload, executor="thread:1",
            faults=["crash:at=1"], max_attempts=2, backoff_base_s=0.0,
        )
        with server, AsyncServeHTTPServer(server, port=0) as front:
            client = HTTPInferenceClient(front.url, timeout_s=120.0)
            try:
                assert np.array_equal(client.infer(images[0]), direct[0])
                health = client.healthz()
                stats = client.stats()
            finally:
                client.close()
        assert health["live"] and health["ready"]
        assert health["model_health"]["lenet5"] == "ok"
        assert health["status"] == "ok"  # legacy field stays for healthy servers
        faults = stats["pool"]["faults"]
        assert faults["replica_restarts"] == 1
        assert faults["batches_recovered"] == 1
        assert faults["batches_failed"] == 0
        assert faults["injection"]["injected"] == {"crash": 1}
        assert stats["telemetry"]["requests_failed"] == 0

    def test_open_breaker_is_http_503_with_retry_after(self, lenet_workload):
        _, _, _, images, _ = lenet_workload
        server = _faulty_server(
            lenet_workload, executor="thread:1",
            faults=["crash"], max_attempts=1, backoff_base_s=0.0,
            breaker=CircuitBreakerPolicy(
                failure_threshold=0.5, window=4, min_samples=1, recovery_s=60.0,
            ),
        )
        with server, AsyncServeHTTPServer(server, port=0) as front:
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
        assert health["live"] and not health["ready"]
        assert health["model_health"]["lenet5"] == "down"


# ---------------------------------------------------------------------------
# graceful shutdown of the serve CLI
# ---------------------------------------------------------------------------


class TestGracefulShutdown:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_serve_http_drains_and_exits_zero(self, tmp_path, signum):
        ready_file = tmp_path / "serve-url.txt"
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(repo_root, "src"), env.get("PYTHONPATH")) if p
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--network", "lenet5", "--rows", "32", "--columns", "32",
                "--http", "0", "--ready-file", str(ready_file),
            ],
            cwd=repo_root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if ready_file.exists() and ready_file.read_text().strip():
                    break
                if process.poll() is not None:
                    break
                time.sleep(0.1)
            assert process.poll() is None, (
                f"serve exited early:\n{process.stdout.read()}"
            )
            process.send_signal(signum)
            stdout, _ = process.communicate(timeout=120.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30.0)
        assert process.returncode == 0, f"non-zero exit:\n{stdout}"
        assert signal.Signals(signum).name in stdout
        assert "draining and shutting down" in stdout
