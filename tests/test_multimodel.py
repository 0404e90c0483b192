"""Tests for multi-workload serving.

Part of the ``serving`` lane.  Covered: a replaced replica's served traffic
staying in the worker pool's statistics, the model registry, multi-model
routing correctness (per-model bitwise equivalence against a direct
``run_batch``), unknown-model errors (``UnknownModelError`` → HTTP 404), the
multi-model HTTP surface (``/v1/models``, per-model ``/v1/stats``, the
``model`` payload field), mixed-model load generation and the
``serve --model`` CLI.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.config import small_test_chip
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.errors import ServeError, SimulationError, UnknownModelError
from repro.nn import build_lenet5, build_mlp
from repro.serve import (
    AsyncServeHTTPServer,
    EngineReplicaSpec,
    EngineWorkerPool,
    FaultInjector,
    HTTPInferenceClient,
    InferenceServer,
    LoadGenerator,
    ModelDefinition,
    ModelRegistry,
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
# worker-pool statistics
# ---------------------------------------------------------------------------


class TestPoolStatistics:
    def test_retired_replicas_keep_their_traffic_statistics(self, lenet_workload):
        network, weights, config, images, direct = lenet_workload
        replica = EngineReplicaSpec(network=network, weights=weights, config=config)
        with EngineWorkerPool(
            replica, "thread:1", backoff_base_s=0.0,
            fault_injector=FaultInjector(["crash:at=2"]),
        ) as pool:
            pool.run_batch(images)
            first = sum(pool.statistics()["per_core_tile_dispatches"])
            assert first > 0
            # the second batch crashes its replica, which is replaced and the
            # batch retried: the retired replica's first batch must not vanish
            assert np.array_equal(pool.run_batch(images), direct)
            assert pool.fault_statistics()["replica_restarts"] == 1
            assert sum(pool.statistics()["per_core_tile_dispatches"]) == 2 * first


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
        ],
    )
    def test_invalid_multi_model_options_are_usage_errors(self, option):
        with pytest.raises(SystemExit):
            main(["serve", "--network", "lenet5", "--requests", "1"] + option)
