"""Tests for the OpticalCrossbarAccelerator façade (performance + functional paths)."""

import numpy as np
import pytest

from repro import OpticalCrossbarAccelerator, small_test_chip
from repro.errors import SimulationError
from repro.nn import build_lenet5
from repro.nn.im2col import conv2d_reference


class TestPerformancePath:
    def test_default_configuration_is_the_paper_optimum(self):
        accelerator = OpticalCrossbarAccelerator()
        assert accelerator.config.rows == 128
        assert accelerator.config.columns == 128
        assert accelerator.config.is_dual_core

    def test_evaluate_returns_full_metrics(self, resnet50, optimal_config):
        accelerator = OpticalCrossbarAccelerator(optimal_config)
        metrics = accelerator.evaluate(resnet50)
        assert metrics.inferences_per_second > 0
        assert metrics.power_w > 0
        assert metrics.area_mm2 > 0

    def test_runtime_specs_accessible(self, optimal_config):
        accelerator = OpticalCrossbarAccelerator(optimal_config)
        runtime = accelerator.runtime_specs(build_lenet5())
        assert runtime.total_compute_cycles > 0

    def test_peak_tops_and_describe(self, optimal_config):
        accelerator = OpticalCrossbarAccelerator(optimal_config)
        description = accelerator.describe()
        assert description["peak_tops"] == pytest.approx(optimal_config.peak_tops)
        assert description["rows"] == 128


class TestFunctionalPath:
    @pytest.fixture()
    def accelerator(self):
        return OpticalCrossbarAccelerator(small_test_chip())

    def test_linear_single_vector(self, accelerator):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(12, 5))
        vector = rng.uniform(0, 1, 12)
        result = accelerator.linear(weights, vector)
        reference = vector @ weights
        assert result.shape == (5,)
        # INT6 quantisation of weights/inputs/outputs on a tiny 8x8 tile leaves
        # a few percent of error; correlation with the exact result stays high.
        assert np.corrcoef(result, reference)[0, 1] > 0.95

    def test_linear_matrix_input_tiles_over_large_weights(self, accelerator):
        rng = np.random.default_rng(1)
        # 20x11 weights force tiling on the 8x8 test chip.
        weights = rng.normal(size=(20, 11))
        inputs = rng.uniform(0, 1, (6, 20))
        result = accelerator.linear(weights, inputs)
        reference = inputs @ weights
        assert result.shape == (6, 11)
        relative_error = np.linalg.norm(result - reference) / np.linalg.norm(reference)
        assert relative_error < 0.15

    def test_conv2d_matches_reference_convolution(self, accelerator):
        rng = np.random.default_rng(2)
        fmap = rng.uniform(0, 1, (6, 6, 3))
        weights = rng.normal(size=(3, 3, 3, 4))
        optical = accelerator.conv2d(fmap, weights, stride=1, padding=1)
        reference = conv2d_reference(fmap, weights, stride=1, padding=1)
        assert optical.shape == reference.shape
        correlation = np.corrcoef(optical.ravel(), reference.ravel())[0, 1]
        assert correlation > 0.98

    def test_linear_shape_validation(self, accelerator):
        with pytest.raises(SimulationError):
            accelerator.linear(np.zeros((4, 4)), np.zeros(5))
        with pytest.raises(SimulationError):
            accelerator.linear(np.zeros(4), np.zeros(4))

    def test_conv2d_rejects_non_square_kernels(self, accelerator):
        with pytest.raises(SimulationError, match="square kernels"):
            accelerator.conv2d(np.zeros((6, 6, 2)), np.zeros((3, 2, 2, 4)))

    def test_conv2d_rejects_non_4d_weights(self, accelerator):
        with pytest.raises(SimulationError, match="k, k, C_in, C_out"):
            accelerator.conv2d(np.zeros((6, 6, 2)), np.zeros((3, 3, 2)))

    def test_conv2d_rejects_2d_feature_map(self, accelerator):
        with pytest.raises(SimulationError, match="feature_map"):
            accelerator.conv2d(np.zeros((6, 6)), np.zeros((3, 3, 2, 4)))

    def test_conv2d_rejects_5d_feature_map(self, accelerator):
        with pytest.raises(SimulationError, match="feature_map"):
            accelerator.conv2d(np.zeros((2, 2, 6, 6, 2)), np.zeros((3, 3, 2, 4)))

    def test_conv2d_rejects_channel_mismatch(self, accelerator):
        with pytest.raises(SimulationError, match="channels"):
            accelerator.conv2d(np.zeros((6, 6, 3)), np.zeros((3, 3, 2, 4)))

    def test_conv2d_batched_matches_per_image(self, accelerator):
        rng = np.random.default_rng(3)
        fmaps = rng.uniform(0, 1, (3, 6, 6, 2))
        weights = rng.normal(size=(3, 3, 2, 4))
        batched = accelerator.conv2d(fmaps, weights, stride=1, padding=1)
        assert batched.shape == (3, 6, 6, 4)
        for i in range(3):
            per_image = accelerator.conv2d(fmaps[i], weights, stride=1, padding=1)
            assert np.array_equal(batched[i], per_image)


class TestProgrammedTileCache:
    @pytest.fixture()
    def accelerator(self):
        return OpticalCrossbarAccelerator(small_test_chip())

    def test_repeated_linear_programs_each_tile_once(self, accelerator):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(20, 11))  # 3 x 2 tile grid on the 8x8 chip
        inputs = rng.uniform(0, 1, (4, 20))
        layer = accelerator.layer(weights)
        first = accelerator.linear(layer, inputs)
        events_after_first = accelerator.functional_statistics()["programming_events"]
        # 6 tiles x 2 arrays (positive/negative) per signed engine.
        assert events_after_first == 12
        for _ in range(5):
            again = accelerator.linear(layer, inputs)
            assert np.array_equal(again, first)
        stats = accelerator.functional_statistics()
        assert stats["programming_events"] == events_after_first
        assert stats["tile_cache_hits"] == 5
        assert stats["tile_cache_misses"] == 1

    def test_interleaved_layers_keep_correct_results(self, accelerator):
        rng = np.random.default_rng(1)
        weights_a = rng.normal(size=(12, 5))
        weights_b = rng.normal(size=(9, 7))
        x_a = rng.uniform(0, 1, (3, 12))
        x_b = rng.uniform(0, 1, (3, 9))
        baseline_a = OpticalCrossbarAccelerator(small_test_chip()).linear(weights_a, x_a)
        baseline_b = OpticalCrossbarAccelerator(small_test_chip()).linear(weights_b, x_b)
        layer_a, layer_b = accelerator.layer(weights_a), accelerator.layer(weights_b)
        for _ in range(3):
            assert np.array_equal(accelerator.linear(layer_a, x_a), baseline_a)
            assert np.array_equal(accelerator.linear(layer_b, x_b), baseline_b)
        stats = accelerator.functional_statistics()
        assert stats["tile_cache_misses"] == 2  # one programming per layer
        assert stats["tile_cache_hits"] == 4

    def test_mutated_weights_are_reprogrammed(self, accelerator):
        rng = np.random.default_rng(2)
        weights = rng.normal(size=(8, 8))
        inputs = rng.uniform(0, 1, (2, 8))
        first = accelerator.linear(weights, inputs)
        events = accelerator.functional_statistics()["programming_events"]
        weights[0, 0] += 1.0  # an array is programmed afresh on every call
        second = accelerator.linear(weights, inputs)
        stats = accelerator.functional_statistics()
        assert stats["programming_events"] == 2 * events
        assert stats["tile_cache_misses"] == 2
        assert stats["tile_cache_hits"] == 0
        fresh = OpticalCrossbarAccelerator(small_test_chip()).linear(weights, inputs)
        assert second.tobytes() == fresh.tobytes()
        assert first.shape == second.shape

    def test_matrix_layout_does_not_change_the_output(self, accelerator):
        rng = np.random.default_rng(5)
        weights = rng.normal(size=(20, 11))
        inputs = rng.uniform(0, 1, (2, 20))
        first = accelerator.linear(weights, inputs)
        again = accelerator.linear(np.array(weights, order="F"), inputs)
        strided = accelerator.linear(np.repeat(weights, 2, axis=0)[::2], inputs)
        assert again.tobytes() == first.tobytes()
        assert strided.tobytes() == first.tobytes()

    def test_same_bytes_different_shape_weights_are_distinct_plans(self, accelerator):
        # (2, 8) and (8, 2) views of the same buffer have identical bytes;
        # each array is its own layer, programmed with its own shape.
        base = np.arange(16, dtype=float) / 16.0
        wide, tall = base.reshape(2, 8), base.reshape(8, 2)
        x_wide = np.linspace(0, 1, 2)[None, :]
        x_tall = np.linspace(0, 1, 8)[None, :]
        result_wide = accelerator.linear(wide, x_wide)
        result_tall = accelerator.linear(tall, x_tall)
        stats = accelerator.functional_statistics()
        assert stats["tile_cache_misses"] == 2
        assert stats["tile_cache_hits"] == 0
        assert result_wide.shape == (1, 8) and result_tall.shape == (1, 2)
        fresh_wide = OpticalCrossbarAccelerator(small_test_chip()).linear(wide, x_wide)
        fresh_tall = OpticalCrossbarAccelerator(small_test_chip()).linear(tall, x_tall)
        assert np.array_equal(result_wide, fresh_wide)
        assert np.array_equal(result_tall, fresh_tall)


class TestProgrammedLayer:
    @pytest.fixture()
    def accelerator(self):
        return OpticalCrossbarAccelerator(small_test_chip())

    def test_layer_keeps_a_read_only_copy_and_programs_on_first_read(self, accelerator):
        rng = np.random.default_rng(8)
        weights = rng.normal(size=(20, 11))
        inputs = rng.uniform(0, 1, (3, 20))
        expected = OpticalCrossbarAccelerator(small_test_chip()).linear(weights, inputs)
        layer = accelerator.layer(weights)
        assert layer.engine is None
        assert accelerator.functional_statistics()["programming_events"] == 0
        weights[:] = 0.0  # the caller's array, not the layer's copy
        assert not layer.weights.flags.writeable
        with pytest.raises(ValueError):
            layer.weights[0, 0] = 1.0
        assert accelerator.linear(layer, inputs).tobytes() == expected.tobytes()
        assert layer.tiling.num_tiles == 6

    def test_conv2d_reads_one_layer_of_filters(self, accelerator):
        rng = np.random.default_rng(9)
        fmaps = rng.uniform(0, 1, (2, 6, 6, 2))
        filters = rng.normal(size=(3, 3, 2, 4))
        expected = OpticalCrossbarAccelerator(small_test_chip()).conv2d(
            fmaps, filters, stride=1, padding=1
        )
        layer = accelerator.layer(filters)
        assert layer.matrix.shape == (18, 4)
        for _ in range(3):
            again = accelerator.conv2d(fmaps, layer, stride=1, padding=1)
            assert again.tobytes() == expected.tobytes()
        stats = accelerator.functional_statistics()
        assert stats["tile_cache_misses"] == 1
        assert stats["tile_cache_hits"] == 2

    def test_layer_shape_errors(self, accelerator):
        with pytest.raises(SimulationError, match="k, n"):
            accelerator.layer(np.zeros(4))
        with pytest.raises(SimulationError, match="k, n"):
            accelerator.layer(np.zeros((3, 2, 2, 4)))
        with pytest.raises(SimulationError, match="k, k, C_in, C_out"):
            accelerator.conv2d(np.zeros((6, 6, 2)), accelerator.layer(np.zeros((18, 4))))
        with pytest.raises(SimulationError, match="incompatible"):
            accelerator.linear(accelerator.layer(np.zeros((4, 4))), np.zeros(5))

    def test_a_layer_is_read_only_by_its_own_accelerator(self, accelerator):
        layer = OpticalCrossbarAccelerator(small_test_chip()).layer(np.ones((8, 8)))
        with pytest.raises(SimulationError, match="another accelerator"):
            accelerator.linear(layer, np.ones((1, 8)))
        assert accelerator.functional_statistics()["tile_cache_misses"] == 0
