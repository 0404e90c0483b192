"""Tests for end-to-end functional inference on the optical crossbar."""

import numpy as np
import pytest

from repro.config import small_test_chip
from repro.core.inference import (
    FunctionalInferenceEngine,
    agreement_metrics,
    generate_random_weights,
)
from repro.crossbar import CrossbarNoiseModel
from repro.errors import SimulationError
from repro.nn import (
    ActivationLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    Network,
    PoolLayer,
    TensorShape,
    build_lenet5,
    build_mlp,
)
from repro.nn.layers import AddLayer, BatchNormLayer


def tiny_cnn() -> Network:
    """A minimal conv -> pool -> dense network for fast functional tests."""
    layers = [
        ConvLayer("conv1", out_channels=4, kernel_size=3, padding=1, bias=False),
        PoolLayer("pool1", kernel_size=2, stride=2, kind="max"),
        FlattenLayer("flatten"),
        DenseLayer("fc", out_features=5, bias=False),
    ]
    return Network("tiny_cnn", TensorShape(8, 8, 2), layers)


class TestReferenceExecution:
    def test_reference_output_shape(self):
        network = tiny_cnn()
        engine = FunctionalInferenceEngine(
            network, generate_random_weights(network), small_test_chip(rows=32, columns=32)
        )
        image = np.random.default_rng(0).uniform(0, 1, (8, 8, 2))
        output = engine.run_reference(image)
        assert output.shape == (5,)

    def test_reference_matches_manual_computation_for_dense_only_network(self):
        network = build_mlp(input_features=6, hidden_features=(4,), num_classes=3)
        weights = generate_random_weights(network, seed=1)
        engine = FunctionalInferenceEngine(network, weights, small_test_chip())
        image = np.arange(6, dtype=float).reshape(1, 1, 6) / 6.0
        output = engine.run_reference(image)
        hidden = np.maximum(image.reshape(-1) @ weights["fc1"], 0.0)
        expected = hidden @ weights["fc_out"]
        assert np.allclose(output, expected)

    def test_residual_add_uses_skip_connection(self):
        main = ConvLayer("main", out_channels=2, kernel_size=3, padding=1, bias=False, activation="identity")
        bn = BatchNormLayer("bn")
        add = AddLayer("add", skip_from=None)
        add.input_from = "bn"
        relu = ActivationLayer("relu")
        network = Network("residual", TensorShape(4, 4, 2), [main, bn, add, relu])
        weights = generate_random_weights(network, seed=2)
        engine = FunctionalInferenceEngine(network, weights, small_test_chip())
        image = np.random.default_rng(3).uniform(0, 1, (4, 4, 2))
        # skip_from=None falls back to the previous output (= bn output), so the
        # residual sum degenerates to 2x the main path here.
        output = engine.run_reference(image)
        assert output.shape == (4 * 4 * 2,)


class TestOpticalExecution:
    @pytest.fixture(scope="class")
    def engine(self):
        network = tiny_cnn()
        return FunctionalInferenceEngine(
            network, generate_random_weights(network, seed=5), small_test_chip(rows=32, columns=32)
        )

    def test_optical_output_correlates_with_reference(self, engine):
        image = np.random.default_rng(4).uniform(0, 1, (8, 8, 2))
        report = engine.agreement(image)
        assert report["correlation"] > 0.97
        assert report["relative_error"] < 0.25

    def test_noise_degrades_agreement(self):
        network = tiny_cnn()
        weights = generate_random_weights(network, seed=5)
        image = np.random.default_rng(4).uniform(0, 1, (8, 8, 2))
        clean = FunctionalInferenceEngine(
            network, weights, small_test_chip(rows=32, columns=32)
        ).agreement(image)
        noisy = FunctionalInferenceEngine(
            network,
            weights,
            small_test_chip(rows=32, columns=32),
            noise_model=CrossbarNoiseModel.pessimistic(),
        ).agreement(image)
        assert noisy["relative_error"] >= clean["relative_error"]

    def test_lenet_optical_inference_preserves_argmax(self):
        network = build_lenet5(input_size=12)
        weights = generate_random_weights(network, seed=6, scale=0.3)
        engine = FunctionalInferenceEngine(
            network, weights, small_test_chip(rows=64, columns=64)
        )
        image = np.random.default_rng(7).uniform(0, 1, (12, 12, 1))
        report = engine.agreement(image)
        assert report["correlation"] > 0.95
        assert report["top1_match"] == 1.0


class TestBatchedInference:
    @pytest.fixture(scope="class")
    def engine(self):
        network = tiny_cnn()
        return FunctionalInferenceEngine(
            network, generate_random_weights(network, seed=5), small_test_chip(rows=32, columns=32)
        )

    def test_run_batch_shape(self, engine):
        images = np.random.default_rng(0).uniform(0, 1, (4, 8, 8, 2))
        outputs = engine.run_batch(images)
        assert outputs.shape == (4, 5)

    def test_run_batch_matches_per_image_run(self, engine):
        images = np.random.default_rng(1).uniform(0, 1, (3, 8, 8, 2))
        batched = engine.run_batch(images)
        per_image = np.stack([engine.run(image) for image in images])
        assert np.array_equal(batched, per_image)

    def test_run_batch_reference_matches_per_image(self, engine):
        images = np.random.default_rng(2).uniform(0, 1, (3, 8, 8, 2))
        batched = engine.run_batch_reference(images)
        per_image = np.stack([engine.run_reference(image) for image in images])
        assert np.array_equal(batched, per_image)

    def test_batch_agreement_report(self, engine):
        images = np.random.default_rng(3).uniform(0, 1, (3, 8, 8, 2))
        report = engine.batch_agreement(images)
        assert report["batch"] == 3.0
        assert 0.0 <= report["top1_match_rate"] <= 1.0
        assert report["mean_relative_error"] <= report["max_relative_error"]

    def test_run_batch_programs_each_layer_once(self):
        network = tiny_cnn()
        engine = FunctionalInferenceEngine(
            network, generate_random_weights(network, seed=5), small_test_chip(rows=32, columns=32)
        )
        images = np.random.default_rng(4).uniform(0, 1, (6, 8, 8, 2))
        engine.run_batch(images)
        events = engine.accelerator.functional_statistics()["programming_events"]
        engine.run_batch(images)
        assert engine.accelerator.functional_statistics()["programming_events"] == events

    def test_run_batch_rejects_bad_shape(self, engine):
        with pytest.raises(SimulationError):
            engine.run_batch(np.zeros((2, 4, 4, 2)))
        with pytest.raises(SimulationError):
            engine.run_batch(np.zeros((8, 8, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_run_batch_rejects_non_finite_pixels(self, engine, bad):
        images = np.random.default_rng(5).uniform(0, 1, (2, 8, 8, 2))
        images[1, 3, 3, 0] = bad
        with pytest.raises(SimulationError, match="non-finite"):
            engine.run_batch(images)
        with pytest.raises(SimulationError, match="non-finite"):
            engine.run_batch_reference(images)


class TestAgreementMetrics:
    def test_zero_reference_and_zero_optical_agree_exactly(self):
        metrics = agreement_metrics(np.zeros((2, 3)), np.zeros((2, 3)))
        assert metrics["mean_relative_error"] == 0.0
        assert metrics["max_relative_error"] == 0.0

    def test_zero_reference_with_nonzero_optical_reports_inf(self):
        # A zero reference used to be scored as *perfect* agreement no matter
        # what the optical path produced; it must flag infinite error instead.
        optical = np.array([[0.5, -0.25, 0.0]])
        metrics = agreement_metrics(optical, np.zeros((1, 3)))
        assert np.isinf(metrics["max_relative_error"])
        assert np.isinf(metrics["mean_relative_error"])

    def test_mixed_batch_keeps_finite_rows_and_flags_the_zero_norm_one(self):
        optical = np.array([[1.0, 0.0], [1.0, 0.0]])
        reference = np.array([[2.0, 0.0], [0.0, 0.0]])
        metrics = agreement_metrics(optical, reference)
        assert np.isinf(metrics["max_relative_error"])
        assert metrics["batch"] == 2.0
        assert metrics["top1_match_rate"] == 1.0

    def test_nonzero_reference_unaffected(self):
        optical = np.array([[1.0, 1.0]])
        reference = np.array([[1.0, 0.0]])
        metrics = agreement_metrics(optical, reference)
        assert metrics["max_relative_error"] == pytest.approx(1.0)


class TestValidation:
    def test_missing_weights_rejected(self):
        network = tiny_cnn()
        with pytest.raises(SimulationError):
            FunctionalInferenceEngine(network, {}, small_test_chip())

    def test_wrong_input_shape_rejected(self):
        network = tiny_cnn()
        engine = FunctionalInferenceEngine(
            network, generate_random_weights(network), small_test_chip()
        )
        with pytest.raises(SimulationError):
            engine.run_reference(np.zeros((4, 4, 2)))

    def test_generate_random_weights_shapes(self):
        network = tiny_cnn()
        weights = generate_random_weights(network)
        assert weights["conv1"].shape == (3, 3, 2, 4)
        assert weights["fc"].shape == (4 * 4 * 4, 5)


class TestProgrammedLayers:
    def test_engine_holds_one_read_only_layer_per_crossbar_layer(self):
        network = tiny_cnn()
        weights = generate_random_weights(network, seed=2)
        engine = FunctionalInferenceEngine(network, weights, small_test_chip(rows=32, columns=32))
        assert set(engine.layers) == {"conv1", "fc"}
        for name, layer in engine.layers.items():
            assert not layer.weights.flags.writeable
            assert np.array_equal(layer.weights, weights[name])
            assert layer.engine is None  # programmed by the first batch
        weights["fc"][:] = 0.0  # the caller's array, not the engine's copy
        assert engine.layers["fc"].weights.any()

    def test_first_batch_misses_once_per_layer_and_later_batches_hit(self):
        network = build_lenet5()
        engine = FunctionalInferenceEngine(
            network,
            generate_random_weights(network, seed=1, scale=0.3),
            small_test_chip(rows=32, columns=32),
        )
        images = np.random.default_rng(2).uniform(0, 1, (2,) + network.input_shape.as_tuple())
        layers = len(engine.layers)
        assert layers == 5
        first = engine.run_batch(images)
        stats = engine.accelerator.functional_statistics()
        assert (stats["tile_cache_misses"], stats["tile_cache_hits"]) == (layers, 0)
        events = stats["programming_events"]
        programmed = {name: layer.engine for name, layer in engine.layers.items()}
        for batch in range(1, 4):
            assert engine.run_batch(images).tobytes() == first.tobytes()
            stats = engine.accelerator.functional_statistics()
            assert stats["tile_cache_misses"] == layers
            assert stats["tile_cache_hits"] == batch * layers
            assert stats["programming_events"] == events
        assert {name: layer.engine for name, layer in engine.layers.items()} == programmed

    def test_warm_run_batch_copies_no_weight_matrix(self):
        import tracemalloc

        network = build_mlp()
        engine = FunctionalInferenceEngine(
            network,
            generate_random_weights(network, seed=3, scale=0.05),
            small_test_chip(rows=64, columns=64, num_cores=2),
        )
        largest = max(layer.weights.nbytes for layer in engine.layers.values())
        assert largest >= 32 * 2**20
        images = np.random.default_rng(4).uniform(0, 1, (5,) + network.input_shape.as_tuple())
        engine.run_batch(images)  # programs every layer
        tracemalloc.start()
        try:
            engine.run_batch(images)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < largest / 2
