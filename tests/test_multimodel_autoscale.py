"""Tests for multi-workload serving and queue-depth replica autoscaling.

Part of the ``serving`` lane.  Covered: the pure autoscaler decision function
under synthetic queue-depth traces (scale-up on sustained depth, hold on
momentary spikes, stepwise scale-down after idle cooldowns, bound clamping),
dynamic worker-pool resizing (grow/shrink with drain-before-retire, retired
replicas keeping their served-traffic statistics), the model registry,
multi-model routing correctness (per-model bitwise equivalence against a
direct ``run_batch``), unknown-model errors (``UnknownModelError`` →
HTTP 404), the multi-model HTTP surface (``/v1/models``, per-model
``/v1/stats``, the ``model`` payload field), mixed-model load generation and
the ``serve --model/--autoscale`` CLI.
"""

from __future__ import annotations

import json
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.config import small_test_chip
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.errors import ServeError, SimulationError, UnknownModelError
from repro.nn import build_lenet5, build_mlp
from repro.serve import (
    AsyncServeHTTPServer,
    Autoscaler,
    AutoscalerPolicy,
    AutoscalerState,
    EngineReplicaSpec,
    EngineWorkerPool,
    FaultInjector,
    HTTPInferenceClient,
    InferenceServer,
    LoadGenerator,
    ModelDefinition,
    ModelRegistry,
    ServeTelemetry,
    mixed_model_schedule,
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


@pytest.fixture(scope="module")
def model_zoo():
    """Two LeNet variants (distinct weights) plus an MLP, with references.

    The zoo uses a 64×64 chip: the MLP's dense layers tile into ~4× fewer
    crossbar plans than at 32×32, which keeps every server start (tile
    programming per replica) fast.
    """
    config = small_test_chip(rows=64, columns=64, num_cores=2)
    zoo = {}
    for index, (name, builder) in enumerate(
        [("lenet-a", build_lenet5), ("lenet-b", build_lenet5), ("mlp", build_mlp)]
    ):
        network = builder()
        weights = generate_random_weights(network, seed=10 + index, scale=0.3)
        images = np.random.default_rng(20 + index).uniform(
            0.0, 1.0, (5,) + network.input_shape.as_tuple()
        )
        direct = FunctionalInferenceEngine(network, weights, config).run_batch(images)
        zoo[name] = (network, weights, images, direct)
    return config, zoo


def _registry(config, zoo, names, **knobs) -> ModelRegistry:
    registry = ModelRegistry()
    options = dict(config=config, max_batch=4, max_wait_s=0.002)
    options.update(knobs)
    for name in names:
        network, weights, _, _ = zoo[name]
        registry.add(name, network, weights, **options)
    return registry


# ---------------------------------------------------------------------------
# autoscaler decision function (synthetic queue-depth traces)
# ---------------------------------------------------------------------------


class TestAutoscalerPolicyDecide:
    def _policy(self, **overrides) -> AutoscalerPolicy:
        options = dict(
            min_replicas=1,
            max_replicas=4,
            scale_up_queue_depth=4,
            sustain_s=1.0,
            cooldown_s=5.0,
        )
        options.update(overrides)
        return AutoscalerPolicy(**options)

    def test_scale_up_requires_sustained_depth(self):
        policy = self._policy()
        state = AutoscalerState()
        # first over-threshold sample only starts the timer
        assert policy.decide(state, 0.0, depth=10, replicas=1) is None
        # still inside the sustain window: hold
        assert policy.decide(state, 0.5, depth=10, replicas=1) is None
        # sustained past the window: one step up
        assert policy.decide(state, 1.1, depth=10, replicas=1) == 2

    def test_momentary_spike_does_not_scale(self):
        policy = self._policy()
        state = AutoscalerState()
        assert policy.decide(state, 0.0, depth=10, replicas=1) is None
        # the spike drained before the sustain window elapsed: timer resets
        assert policy.decide(state, 0.5, depth=1, replicas=1) is None
        assert policy.decide(state, 2.0, depth=10, replicas=1) is None
        assert policy.decide(state, 2.5, depth=10, replicas=1) is None
        assert policy.decide(state, 3.1, depth=10, replicas=1) == 2

    def test_scale_up_clamps_to_max_replicas(self):
        policy = self._policy(step=4)
        state = AutoscalerState()
        policy.decide(state, 0.0, depth=10, replicas=3)
        assert policy.decide(state, 1.5, depth=10, replicas=3) == 4
        # already at the ceiling: sustained depth holds instead of scaling
        policy.decide(state, 2.0, depth=10, replicas=4)
        assert policy.decide(state, 4.0, depth=10, replicas=4) is None

    def test_scale_down_after_idle_cooldown_stepwise(self):
        policy = self._policy()
        state = AutoscalerState()
        assert policy.decide(state, 0.0, depth=0, replicas=3) is None
        assert policy.decide(state, 4.0, depth=0, replicas=3) is None
        # idle past the cooldown: one step down...
        assert policy.decide(state, 5.1, depth=0, replicas=3) == 2
        # ...and the next step needs a *fresh* cooldown
        assert policy.decide(state, 6.0, depth=0, replicas=2) is None
        assert policy.decide(state, 10.2, depth=0, replicas=2) == 1
        # at the floor the idle queue holds
        assert policy.decide(state, 20.0, depth=0, replicas=1) is None
        assert policy.decide(state, 30.0, depth=0, replicas=1) is None

    def test_traffic_resets_the_idle_timer(self):
        policy = self._policy()
        state = AutoscalerState()
        assert policy.decide(state, 0.0, depth=0, replicas=2) is None
        # mid-cooldown traffic (above the idle line, below overload) resets it
        assert policy.decide(state, 4.0, depth=2, replicas=2) is None
        assert policy.decide(state, 5.5, depth=0, replicas=2) is None
        assert policy.decide(state, 9.0, depth=0, replicas=2) is None
        assert policy.decide(state, 10.6, depth=0, replicas=2) == 1

    def test_out_of_range_replicas_snap_back_into_bounds(self):
        policy = self._policy()
        assert policy.decide(AutoscalerState(), 0.0, depth=5, replicas=9) == 4
        per_model = policy.decide(
            AutoscalerState(), 0.0, depth=0, replicas=1, min_replicas=2, max_replicas=3
        )
        assert per_model == 2

    def test_invalid_policies_rejected(self):
        with pytest.raises(SimulationError):
            AutoscalerPolicy(min_replicas=0)
        with pytest.raises(SimulationError):
            AutoscalerPolicy(min_replicas=3, max_replicas=2)
        with pytest.raises(SimulationError):
            AutoscalerPolicy(scale_up_queue_depth=0)
        with pytest.raises(SimulationError):
            AutoscalerPolicy(scale_up_queue_depth=2, scale_down_queue_depth=2)
        with pytest.raises(SimulationError):
            AutoscalerPolicy(sustain_s=-1.0)
        with pytest.raises(SimulationError):
            AutoscalerPolicy(step=0)


# ---------------------------------------------------------------------------
# dynamic worker-pool resizing
# ---------------------------------------------------------------------------


class TestPoolResize:
    def test_grow_and_shrink_stay_bitwise(self, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        replica = EngineReplicaSpec(network=network, weights=weights, config=config)
        with EngineWorkerPool(replica, "thread:1", max_count=3) as pool:
            assert pool.resizable
            assert np.array_equal(pool.run_batch(images), direct)
            assert pool.resize(3) == 3
            assert np.array_equal(pool.run_batch_sharded(images), direct)
            assert pool.resize(1) == 1
            assert np.array_equal(pool.run_batch(images), direct)

    def test_resize_clamps_to_max_count(self, lenet_workload):
        network, weights, config, _, _ = lenet_workload
        replica = EngineReplicaSpec(network=network, weights=weights, config=config)
        with EngineWorkerPool(replica, "thread:1", max_count=2) as pool:
            assert pool.resize(50) == 2
            assert pool.resize(0) == 1

    def test_retired_replicas_keep_their_traffic_statistics(self, lenet_workload):
        network, weights, config, images, _ = lenet_workload
        replica = EngineReplicaSpec(network=network, weights=weights, config=config)
        with EngineWorkerPool(replica, "thread:1", max_count=2) as pool:
            pool.resize(2)
            pool.run_batch_sharded(images)
            before = sum(pool.statistics()["per_core_tile_dispatches"])
            assert before > 0
            pool.resize(1)
            after = sum(pool.statistics()["per_core_tile_dispatches"])
        assert after == before  # the retired replica's work did not vanish

    def test_shrink_drains_in_flight_batches(self, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        replica = EngineReplicaSpec(network=network, weights=weights, config=config)
        with EngineWorkerPool(replica, "thread:2", max_count=2) as pool:
            futures = [pool.submit(images) for _ in range(4)]
            # shrink while batches are in flight: the retiring replica must
            # finish its work first, so every future still resolves bitwise
            assert pool.resize(1) == 1
            for future in futures:
                assert np.array_equal(future.result(timeout=60), direct)

    def test_serial_pools_are_not_resizable(self, lenet_workload):
        network, weights, config, _, _ = lenet_workload
        replica = EngineReplicaSpec(network=network, weights=weights, config=config)
        with EngineWorkerPool(replica, "serial") as pool:
            assert not pool.resizable
            with pytest.raises(ServeError, match="cannot be resized"):
                pool.resize(2)

    def test_process_pool_resize_bitwise(self, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        replica = EngineReplicaSpec(network=network, weights=weights, config=config)
        with EngineWorkerPool(replica, "process:1", max_count=2) as pool:
            assert np.array_equal(pool.run_batch(images), direct)
            assert pool.resize(2) == 2
            assert np.array_equal(pool.run_batch_sharded(images), direct)
            assert pool.statistics()["replicas"] == 2


class TestResizeDuringRestart:
    """Replica supervision must not fight the autoscaler (PR 6 invariant)."""

    class _FakePool:
        """Just enough pool surface for the control loop: counters, no engines."""

        def __init__(self, count=2):
            self.count = count
            self.restarting = 0
            self.resizable = True
            self.resize_calls = []

        def resize(self, target, drain_timeout_s=None):
            self.resize_calls.append(target)
            self.count = target
            return target

    def _runtime(self, pool):
        return SimpleNamespace(
            pool=pool,
            batcher=SimpleNamespace(depth=0),
            telemetry=ServeTelemetry(),
            min_replicas=1,
            max_replicas=4,
        )

    def test_scale_down_deferred_while_replica_restarts(self):
        policy = AutoscalerPolicy(
            min_replicas=1, max_replicas=4, cooldown_s=1.0, interval_s=0.01
        )
        now = [0.0]
        pool = self._FakePool(count=2)
        runtime = self._runtime(pool)
        scaler = Autoscaler({"m": runtime}, policy, clock=lambda: now[0])
        # synthetic idle trace: depth stays 0, the cooldown elapses at t=1.5
        assert scaler.evaluate_model("m", runtime) is None  # starts the timer
        now[0] = 1.5
        pool.restarting = 1  # a supervisor restart is in flight
        assert scaler.evaluate_model("m", runtime) is None
        assert pool.resize_calls == []  # held, not applied
        assert pool.count == 2
        # once the restart lands, the next elapsed cooldown applies the step
        pool.restarting = 0
        now[0] = 3.0
        assert scaler.evaluate_model("m", runtime) == 1
        assert pool.resize_calls == [1]

    def test_scale_up_is_not_deferred_by_a_restart(self):
        policy = AutoscalerPolicy(
            min_replicas=1, max_replicas=4, scale_up_queue_depth=3, sustain_s=0.5
        )
        now = [0.0]
        pool = self._FakePool(count=2)
        pool.restarting = 1
        runtime = self._runtime(pool)
        runtime.batcher.depth = 8  # sustained overload
        scaler = Autoscaler({"m": runtime}, policy, clock=lambda: now[0])
        assert scaler.evaluate_model("m", runtime) is None  # sustain window
        now[0] = 1.0
        # growing while a slot recovers only helps the backlog: not held
        assert scaler.evaluate_model("m", runtime) == 3
        assert pool.resize_calls == [3]

    def test_real_pool_resize_during_restart_keeps_inventory(self, lenet_workload):
        """``resize()`` racing a supervisor restart must neither double-count
        the recovering slot nor retire it (the failed handle is checked out,
        so only healthy free-listed replicas are eligible)."""
        network, weights, config, images, direct = lenet_workload
        replica = EngineReplicaSpec(network=network, weights=weights, config=config)
        entered = threading.Event()
        release = threading.Event()

        def gated_sleep(_delay):
            entered.set()
            assert release.wait(timeout=30.0)

        with EngineWorkerPool(
            replica, "thread:2", max_count=3,
            fault_injector=FaultInjector(["crash:at=1"]),
            backoff_base_s=0.01, sleep=gated_sleep,
        ) as pool:
            future = pool.submit(images)
            assert entered.wait(timeout=30.0)  # supervisor is mid-restart
            assert pool.restarting == 1
            assert pool.count == 2  # the recovering slot still counts
            # growing during the restart builds one replica on top of the
            # full-strength fleet — the recovering slot is not double-counted
            assert pool.resize(3) == 3
            release.set()
            assert np.array_equal(future.result(timeout=60), direct)
            assert pool.restarting == 0
            assert pool.count == 3
            assert pool.fault_statistics()["replica_restarts"] == 1
            # every replica is healthy and serving after the dust settles
            assert np.array_equal(pool.run_batch_sharded(images), direct)


# ---------------------------------------------------------------------------
# registry + routing
# ---------------------------------------------------------------------------


class TestModelRegistry:
    def test_default_is_first_registered_and_lookup_works(self, model_zoo):
        config, zoo = model_zoo
        registry = _registry(config, zoo, ["lenet-a", "mlp"])
        assert registry.default_name == "lenet-a"
        assert registry.names() == ["lenet-a", "mlp"]
        assert registry.resolve(None).name == "lenet-a"
        assert registry.resolve("mlp").name == "mlp"
        assert "mlp" in registry and "nope" not in registry

    def test_unknown_model_error_names_hosted_models(self, model_zoo):
        config, zoo = model_zoo
        registry = _registry(config, zoo, ["lenet-a", "mlp"])
        with pytest.raises(UnknownModelError, match="lenet-a.*mlp"):
            registry.get("nope")
        # the error doubles as a SimulationError and a ServeError
        assert issubclass(UnknownModelError, SimulationError)
        assert issubclass(UnknownModelError, ServeError)

    def test_duplicate_and_invalid_definitions_rejected(self, model_zoo):
        config, zoo = model_zoo
        network, weights, _, _ = zoo["lenet-a"]
        registry = ModelRegistry()
        registry.add("a", network, weights, config=config)
        with pytest.raises(SimulationError, match="already registered"):
            registry.add("a", network, weights, config=config)
        with pytest.raises(SimulationError, match="non-empty"):
            ModelDefinition(name="  ", network=network, weights=weights)
        with pytest.raises(SimulationError, match="min_replicas"):
            ModelDefinition(
                name="x", network=network, weights=weights,
                min_replicas=3, max_replicas=2,
            )
        with pytest.raises(ServeError, match="empty"):
            InferenceServer(registry=ModelRegistry())


class TestMultiModelRouting:
    def test_per_model_outputs_bitwise_equal_direct_run_batch(self, model_zoo):
        """Acceptance: routed responses match each model's own run_batch."""
        config, zoo = model_zoo
        names = ["lenet-a", "lenet-b", "mlp"]
        registry = _registry(config, zoo, names, executor="thread:2")
        with InferenceServer.hosting(registry) as server:
            served = {
                name: server.serve_batch(zoo[name][2], model=name) for name in names
            }
        for name in names:
            assert np.array_equal(served[name], zoo[name][3]), name
        # the two LeNet variants really computed different functions
        assert not np.array_equal(served["lenet-a"], served["lenet-b"])

    def test_interleaved_submissions_route_correctly(self, model_zoo):
        config, zoo = model_zoo
        names = ["lenet-a", "lenet-b"]
        registry = _registry(config, zoo, names, max_batch=2)
        with InferenceServer.hosting(registry) as server:
            futures = []
            for index in range(5):
                for name in names:
                    image = zoo[name][2][index % len(zoo[name][2])]
                    futures.append((name, index % len(zoo[name][2]),
                                    server.submit(image, model=name)))
            for name, row, future in futures:
                assert np.array_equal(future.result(timeout=60), zoo[name][3][row])

    def test_default_model_keeps_single_model_api(self, model_zoo):
        config, zoo = model_zoo
        registry = _registry(config, zoo, ["lenet-a", "mlp"])
        with InferenceServer.hosting(registry) as server:
            assert server.default_model == "lenet-a"
            served = server.serve_batch(zoo["lenet-a"][2])  # no model given
            stats = server.stats()
        assert np.array_equal(served, zoo["lenet-a"][3])
        # legacy top-level keys describe the default model...
        assert stats["telemetry"]["requests_completed"] == len(zoo["lenet-a"][2])
        # ...and the models section covers every hosted model
        assert set(stats["models"]) == {"lenet-a", "mlp"}
        assert stats["default_model"] == "lenet-a"
        assert stats["models"]["mlp"]["telemetry"]["requests_completed"] == 0

    def test_unknown_model_and_wrong_shape_raise(self, model_zoo):
        config, zoo = model_zoo
        registry = _registry(config, zoo, ["lenet-a", "mlp"])
        with InferenceServer.hosting(registry) as server:
            with pytest.raises(UnknownModelError, match="unknown model"):
                server.submit(zoo["lenet-a"][2][0], model="nope")
            with pytest.raises(UnknownModelError):
                server.stats(model="nope")
            # an mlp-shaped image aimed at the lenet model is a shape error
            with pytest.raises(ServeError, match="lenet-a"):
                server.submit(zoo["mlp"][2][0], model="lenet-a")

    def test_failed_start_stops_already_started_models(self, model_zoo):
        """A later model failing to start must not leak earlier runtimes."""
        config, zoo = model_zoo
        network, weights, _, _ = zoo["lenet-a"]
        registry = ModelRegistry()
        registry.add("good", network, weights, config=config, executor="thread:1")
        registry.add("bad", network, {}, config=config)  # no weights: build fails
        server = InferenceServer(registry=registry)
        with pytest.raises(Exception):
            server.start()
        time.sleep(0.2)  # give a leaked dispatcher time to show up if any
        assert not any(
            thread.name == "serve-dispatch-good" and thread.is_alive()
            for thread in threading.enumerate()
        ), "the first model's dispatch thread leaked past the failed start()"
        with pytest.raises(ServeError, match="not running"):
            server.submit(zoo["lenet-a"][2][0])

    def test_models_listing_marks_default(self, model_zoo):
        config, zoo = model_zoo
        registry = _registry(config, zoo, ["lenet-a", "mlp"])
        with InferenceServer.hosting(registry) as server:
            listing = server.models()
        assert [entry["name"] for entry in listing] == ["lenet-a", "mlp"]
        assert [entry["default"] for entry in listing] == [True, False]
        assert listing[0]["input_shape"] == [28, 28, 1]
        assert listing[1]["network"] == "mlp"


# ---------------------------------------------------------------------------
# autoscaling end to end
# ---------------------------------------------------------------------------


class TestAutoscalingEndToEnd:
    def test_replicas_rise_under_load_and_fall_after_cooldown(
        self, lenet_workload, monkeypatch
    ):
        """Scaling decisions are ticked by hand on a fake clock.

        The server's own control loop never ticks (a one-hour interval).
        While the flood is queued the only replica is held at its first
        dispatch, so the queue stays deep for the whole sustain window; the
        replica that scaling adds is built and warmed up on this thread.
        """
        network, weights, config, images, direct = lenet_workload
        policy = AutoscalerPolicy(
            min_replicas=1,
            max_replicas=3,
            scale_up_queue_depth=3,
            sustain_s=0.02,
            cooldown_s=0.25,
            interval_s=3600.0,
        )
        server = InferenceServer(
            network,
            weights,
            config,
            executor="thread:1",
            max_batch=2,
            max_wait_s=0.001,
            queue_capacity=256,
            autoscaler=policy,
        )
        test_thread = threading.get_ident()
        release = threading.Event()
        run_batch = FunctionalInferenceEngine.run_batch

        def held_run_batch(engine, batch):
            if threading.get_ident() != test_thread:
                assert release.wait(timeout=60.0)
            return run_batch(engine, batch)

        now = [0.0]
        with server:
            runtime = server._runtime(None)
            scaler = Autoscaler({runtime.name: runtime}, policy, clock=lambda: now[0])
            monkeypatch.setattr(FunctionalInferenceEngine, "run_batch", held_run_batch)
            flood = np.concatenate([images] * 6)
            futures = [server.submit(image) for image in flood]
            assert scaler.evaluate_model(runtime.name, runtime) is None  # sustain starts
            now[0] = 0.02
            assert scaler.evaluate_model(runtime.name, runtime) == 2
            peak = server.replica_count()
            release.set()
            for index, future in enumerate(futures):
                assert np.array_equal(
                    future.result(timeout=120), direct[index % len(images)]
                )
            assert peak > 1, "sustained queue depth never scaled the pool up"
            # after the flood drains, the idle cooldown shrinks back to min
            now[0] = 1.0
            assert scaler.evaluate_model(runtime.name, runtime) is None  # idle starts
            now[0] = 1.25
            assert scaler.evaluate_model(runtime.name, runtime) == 1
            assert server.replica_count() == 1
            scaling = server.telemetry.snapshot()["autoscaler"]
        assert scaling["scale_ups"] >= 1
        assert scaling["scale_downs"] >= 1
        directions = [event["direction"] for event in scaling["events"]]
        assert "up" in directions and "down" in directions
        up = next(e for e in scaling["events"] if e["direction"] == "up")
        assert up["to_replicas"] == up["from_replicas"] + 1
        assert up["queue_depth"] >= 3

    def test_serial_models_are_left_alone(self, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        policy = AutoscalerPolicy(
            min_replicas=1, max_replicas=3, sustain_s=0.0, interval_s=0.01
        )
        with InferenceServer(
            network, weights, config, executor="serial", max_batch=2,
            autoscaler=policy,
        ) as server:
            served = server.serve_batch(np.concatenate([images] * 3))
            assert server.replica_count() == 1
        assert np.array_equal(served, np.concatenate([direct] * 3))


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------


class TestMultiModelHTTP:
    def test_model_field_routes_and_stays_bitwise(self, model_zoo):
        config, zoo = model_zoo
        names = ["lenet-a", "lenet-b", "mlp"]
        registry = _registry(config, zoo, names)
        with InferenceServer.hosting(registry) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url, timeout_s=60.0) as client:
                    for name in names:
                        served = client.infer_batch(zoo[name][2], model=name)
                        assert np.array_equal(served, zoo[name][3]), name
                    # omitting the model still hits the default
                    default_out = client.infer(zoo["lenet-a"][2][0])
                    assert np.array_equal(default_out, zoo["lenet-a"][3][0])

    def test_client_default_model_applies_to_every_call(self, model_zoo):
        config, zoo = model_zoo
        registry = _registry(config, zoo, ["lenet-a", "mlp"])
        with InferenceServer.hosting(registry) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(
                    front.url, timeout_s=60.0, model="mlp"
                ) as client:
                    served = client.infer(zoo["mlp"][2][0])
                    assert np.array_equal(served, zoo["mlp"][3][0])
                    futures = [client.submit(image) for image in zoo["mlp"][2]]
                    gathered = np.stack([f.result(timeout=60) for f in futures])
        assert np.array_equal(gathered, zoo["mlp"][3])

    def test_models_endpoint_and_per_model_stats(self, model_zoo):
        config, zoo = model_zoo
        registry = _registry(config, zoo, ["lenet-a", "mlp"])
        with InferenceServer.hosting(registry) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url, timeout_s=60.0) as client:
                    client.infer_batch(zoo["mlp"][2], model="mlp")
                    listing = client.models()
                    mlp_stats = client.stats(model="mlp")
                    all_stats = client.stats()
        assert listing["default"] == "lenet-a"
        assert [m["name"] for m in listing["models"]] == ["lenet-a", "mlp"]
        assert mlp_stats["model"] == "mlp"
        assert mlp_stats["telemetry"]["requests_completed"] == len(zoo["mlp"][2])
        assert set(all_stats["models"]) == {"lenet-a", "mlp"}

    def test_unknown_model_is_http_404(self, model_zoo):
        config, zoo = model_zoo
        registry = _registry(config, zoo, ["lenet-a"])
        with InferenceServer.hosting(registry) as server:
            with AsyncServeHTTPServer(server) as front:
                with HTTPInferenceClient(front.url, timeout_s=60.0) as client:
                    with pytest.raises(UnknownModelError, match="HTTP 404"):
                        client.infer(zoo["lenet-a"][2][0], model="nope")
                    with pytest.raises(UnknownModelError, match="HTTP 404"):
                        client.stats(model="nope")
                    with pytest.raises(ServeError, match="'model' must be"):
                        client.infer(zoo["lenet-a"][2][0], model=7)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# mixed-model load generation
# ---------------------------------------------------------------------------


class TestMixedLoadGeneration:
    def test_mixed_model_schedule_covers_and_weights(self):
        schedule = mixed_model_schedule(["a", "b"], 40, weights=[3.0, 1.0], seed=0)
        assert len(schedule) == 40
        assert set(schedule) == {"a", "b"}  # both models guaranteed traffic
        assert schedule.count("a") > schedule.count("b")
        with pytest.raises(SimulationError):
            mixed_model_schedule([], 10)
        with pytest.raises(SimulationError):
            mixed_model_schedule(["a"], 10, weights=[1.0, 2.0])
        with pytest.raises(SimulationError):
            mixed_model_schedule(["a"], 10, weights=[0.0])

    def test_open_loop_mixed_traffic_bitwise_per_model(self, model_zoo):
        config, zoo = model_zoo
        names = ["lenet-a", "mlp"]
        registry = _registry(config, zoo, names, executor="thread:2")
        schedule, images, expected = [], [], []
        for index in range(8):
            name = names[index % 2]
            row = index // 2 % len(zoo[name][2])
            schedule.append(name)
            images.append(zoo[name][2][row])
            expected.append(zoo[name][3][row])
        with InferenceServer.hosting(registry) as server:
            report = LoadGenerator(server).run_open_loop(
                images,
                poisson_arrivals(500.0, len(images), seed=3),
                models=schedule,
            )
        assert report.requests == len(images)
        # heterogeneous output shapes come back as an object array
        assert report.outputs.dtype == object
        for served, reference in zip(report.outputs, expected):
            assert np.array_equal(served, reference)
        assert report.server["models"]["mlp"]["telemetry"]["requests_completed"] == 4

    def test_closed_loop_mixed_traffic(self, model_zoo):
        config, zoo = model_zoo
        names = ["lenet-a", "lenet-b"]
        registry = _registry(config, zoo, names)
        schedule = [names[i % 2] for i in range(6)]
        images = [zoo[name][2][i // 2] for i, name in enumerate(schedule)]
        with InferenceServer.hosting(registry) as server:
            report = LoadGenerator(server).run_closed_loop(
                images, concurrency=2, models=schedule
            )
        for index, name in enumerate(schedule):
            assert np.array_equal(report.outputs[index], zoo[name][3][index // 2])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestMultiModelCli:
    # 64×64: keeps the MLP's tile programming cheap (see model_zoo)
    _chip = ["--rows", "64", "--columns", "64"]

    def test_serve_multi_model_json_bitwise_per_model(self, capsys):
        code = main(
            ["serve", "--model", "small=lenet5", "--model", "mlp=mlp",
             "--requests", "8", "--rate", "800", "--executor", "thread:2",
             "--json"] + self._chip
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["bitwise_match_vs_run_batch"] is True
        assert set(summary["models"]) == {"small", "mlp"}
        for model_summary in summary["models"].values():
            assert model_summary["bitwise_match_vs_run_batch"] is True
            assert model_summary["requests"] >= 1

    def test_serve_autoscale_scales_up_and_reports_events(self, capsys, monkeypatch):
        """Serving replicas hold their batches until the first scale-up.

        The flood then keeps each queue deep for as many 10 ms ticks as the
        sustain window needs, however fast a replica would drain it.  This
        thread and the autoscaler's (which builds and warms up the added
        replica) are never held.
        """
        scaled_up = threading.Event()
        run_batch = FunctionalInferenceEngine.run_batch
        record_scale_event = ServeTelemetry.record_scale_event
        test_thread = threading.current_thread()

        def held_run_batch(engine, batch):
            thread = threading.current_thread()
            if thread is not test_thread and thread.name != "serve-autoscaler":
                scaled_up.wait(timeout=30.0)
            return run_batch(engine, batch)

        def recording_scale_event(telemetry, direction, *args, **kwargs):
            record_scale_event(telemetry, direction, *args, **kwargs)
            if direction == "up":
                scaled_up.set()

        monkeypatch.setattr(FunctionalInferenceEngine, "run_batch", held_run_batch)
        monkeypatch.setattr(ServeTelemetry, "record_scale_event", recording_scale_event)
        code = main(
            ["serve", "--model", "a=lenet5", "--model", "b=lenet5",
             "--requests", "48", "--rate", "4000", "--autoscale",
             "--min-replicas", "1", "--max-replicas", "3",
             "--scale-up-depth", "3", "--scale-sustain-ms", "10",
             "--scale-interval-ms", "10", "--scale-cooldown-ms", "60000",
             "--max-batch", "2", "--json"] + self._chip
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["autoscale"] is True
        assert summary["bitwise_match_vs_run_batch"] is True
        # a 4000 rps flood against 1 starting replica must scale something up
        assert any(
            model["scale_ups"] >= 1 and model["replicas"] > 1
            for model in summary["models"].values()
        )

    def test_serve_with_fewer_requests_than_models_reports_na(self, capsys):
        """Regression: a hosted model with zero requests must not crash the
        summary (its bitwise verdict is simply absent/None)."""
        code = main(
            ["serve", "--model", "a=lenet5", "--model", "b=mlp",
             "--requests", "1", "--json"] + self._chip
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        verdicts = [
            model["bitwise_match_vs_run_batch"] for model in summary["models"].values()
        ]
        # one model served the single request (bitwise True), one sat idle (None)
        assert verdicts.count(True) == 1 and verdicts.count(None) == 1
        assert summary["bitwise_match_vs_run_batch"] is True

    def test_loadgen_mixed_models_closed_loop(self, capsys):
        code = main(
            ["loadgen", "--model", "a=lenet5", "--model", "b=mlp",
             "--mix", "1,1", "--mode", "closed", "--concurrency", "2",
             "--requests", "6", "--json"] + self._chip
        )
        assert code == 0
        sweep = json.loads(capsys.readouterr().out)
        assert sweep["points"][0]["bitwise_match_vs_run_batch"] is True

    @pytest.mark.parametrize(
        "option",
        [
            ["--model", "nodelimiter"],
            ["--model", "=lenet5"],
            ["--model", "a="],
            ["--model", "a=unknown_workload"],
            ["--model", "a=lenet5", "--model", "a=mlp"],  # duplicate name
            ["--model", "a=lenet5", "--mix", "1,2"],  # mix arity mismatch
            ["--autoscale", "--min-replicas", "4", "--max-replicas", "2"],
        ],
    )
    def test_invalid_multi_model_options_are_usage_errors(self, option):
        with pytest.raises(SystemExit):
            main(["serve", "--network", "lenet5", "--requests", "1"] + option)
