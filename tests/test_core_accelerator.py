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
        first = accelerator.linear(weights, inputs)
        events_after_first = accelerator.functional_statistics()["programming_events"]
        # 6 tiles x 2 arrays (positive/negative) per signed engine.
        assert events_after_first == 12
        for _ in range(5):
            again = accelerator.linear(weights, inputs)
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
        for _ in range(3):
            assert np.array_equal(accelerator.linear(weights_a, x_a), baseline_a)
            assert np.array_equal(accelerator.linear(weights_b, x_b), baseline_b)
        stats = accelerator.functional_statistics()
        assert stats["tile_cache_misses"] == 2  # one plan per distinct weight matrix
        assert stats["tile_cache_hits"] == 4

    def test_mutated_weights_are_reprogrammed(self, accelerator):
        rng = np.random.default_rng(2)
        weights = rng.normal(size=(8, 8))
        inputs = rng.uniform(0, 1, (2, 8))
        first = accelerator.linear(weights, inputs)
        events = accelerator.functional_statistics()["programming_events"]
        weights[0, 0] += 1.0  # in-place mutation must invalidate the cache key
        second = accelerator.linear(weights, inputs)
        assert accelerator.functional_statistics()["programming_events"] > events
        fresh = OpticalCrossbarAccelerator(small_test_chip()).linear(weights, inputs)
        assert np.array_equal(second, fresh)
        assert first.shape == second.shape

    def test_equal_matrix_in_a_new_array_is_a_cache_hit(self, accelerator):
        rng = np.random.default_rng(5)
        weights = rng.normal(size=(20, 11))
        inputs = rng.uniform(0, 1, (2, 20))
        first = accelerator.linear(weights, inputs)
        events = accelerator.functional_statistics()["programming_events"]
        again = accelerator.linear(np.array(weights, order="F"), inputs)
        stats = accelerator.functional_statistics()
        assert stats["programming_events"] == events
        assert stats["tile_cache_hits"] == 1
        assert stats["tile_cache_misses"] == 1
        assert again.tobytes() == first.tobytes()

    def test_matrix_differing_in_one_middle_element_is_a_miss(self, accelerator):
        rng = np.random.default_rng(6)
        weights = rng.normal(size=(16, 16))
        inputs = rng.uniform(0, 1, (2, 16))
        accelerator.linear(weights, inputs)
        events = accelerator.functional_statistics()["programming_events"]
        changed = weights.copy()
        changed[8, 8] += 1.0  # byte 1088 of 2048: leading and trailing bytes match
        key, changed_key = accelerator._weight_key(weights), accelerator._weight_key(changed)
        assert hash(key) == hash(changed_key)
        assert key != changed_key
        second = accelerator.linear(changed, inputs)
        stats = accelerator.functional_statistics()
        assert stats["tile_cache_misses"] == 2
        assert stats["programming_events"] > events
        fresh = OpticalCrossbarAccelerator(small_test_chip()).linear(changed, inputs)
        assert second.tobytes() == fresh.tobytes()

    def test_lru_eviction_keeps_statistics(self):
        accelerator = OpticalCrossbarAccelerator(
            small_test_chip(), max_cached_weight_plans=2
        )
        rng = np.random.default_rng(3)
        matrices = [rng.normal(size=(8, 8)) for _ in range(3)]
        inputs = rng.uniform(0, 1, (1, 8))
        for matrix in matrices:
            accelerator.linear(matrix, inputs)
        stats = accelerator.functional_statistics()
        assert stats["tile_cache_evictions"] == 1
        assert stats["programming_events"] == 6  # 3 plans x 1 tile x 2 arrays
        # The evicted (oldest) plan reprograms on reuse; the cached ones do not.
        accelerator.linear(matrices[0], inputs)
        assert accelerator.functional_statistics()["programming_events"] == 8

    def test_clear_functional_cache(self, accelerator):
        rng = np.random.default_rng(4)
        weights = rng.normal(size=(8, 8))
        inputs = rng.uniform(0, 1, (1, 8))
        accelerator.linear(weights, inputs)
        accelerator.clear_functional_cache()
        accelerator.linear(weights, inputs)
        stats = accelerator.functional_statistics()
        assert stats["programming_events"] == 4  # reprogrammed after the clear
        assert stats["tile_cache_misses"] == 2

    def test_clear_functional_cache_keeps_hit_and_eviction_counters(self, accelerator):
        rng = np.random.default_rng(5)
        weights = rng.normal(size=(8, 8))
        inputs = rng.uniform(0, 1, (1, 8))
        accelerator.linear(weights, inputs)
        accelerator.linear(weights, inputs)  # one warm hit before the clear
        accelerator.clear_functional_cache()
        accelerator.linear(weights, inputs)  # re-programs (miss, not an eviction)
        accelerator.linear(weights, inputs)  # warm again
        stats = accelerator.functional_statistics()
        assert stats["tile_cache_hits"] == 2
        assert stats["tile_cache_misses"] == 2
        assert stats["tile_cache_evictions"] == 0
        assert stats["programming_events"] == 4

    def test_cache_holds_exactly_max_plans_without_eviction(self):
        accelerator = OpticalCrossbarAccelerator(
            small_test_chip(), max_cached_weight_plans=2
        )
        rng = np.random.default_rng(6)
        first, second = (rng.normal(size=(8, 8)) for _ in range(2))
        inputs = rng.uniform(0, 1, (1, 8))
        # Exactly max_cached_weight_plans distinct matrices: no eviction, and
        # every re-use is a hit.
        for matrix in (first, second, first, second):
            accelerator.linear(matrix, inputs)
        stats = accelerator.functional_statistics()
        assert stats["tile_cache_evictions"] == 0
        assert stats["tile_cache_hits"] == 2
        assert stats["programming_events"] == 4

    def test_eviction_drops_the_least_recently_used_plan(self):
        accelerator = OpticalCrossbarAccelerator(
            small_test_chip(), max_cached_weight_plans=2
        )
        rng = np.random.default_rng(7)
        a, b, c = (rng.normal(size=(8, 8)) for _ in range(3))
        inputs = rng.uniform(0, 1, (1, 8))
        accelerator.linear(a, inputs)
        accelerator.linear(b, inputs)
        accelerator.linear(a, inputs)  # touch a: b becomes the LRU entry
        accelerator.linear(c, inputs)  # evicts b
        events = accelerator.functional_statistics()["programming_events"]
        accelerator.linear(a, inputs)  # still cached
        assert accelerator.functional_statistics()["programming_events"] == events
        accelerator.linear(b, inputs)  # evicted: must re-program
        assert accelerator.functional_statistics()["programming_events"] == events + 2

    def test_same_bytes_different_shape_weights_are_distinct_plans(self, accelerator):
        # (2, 8) and (8, 2) views of the same buffer have identical bytes; the
        # cache key must still tell them apart (shape is part of the key).
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
