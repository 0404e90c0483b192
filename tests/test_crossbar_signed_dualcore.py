"""Unit tests for signed GEMM execution and the dual-core chip clock."""

import numpy as np
import pytest
import schedule_oracle

from repro.crossbar import CrossbarArray, SignedCrossbarEngine
from repro.errors import ProgrammingError, SimulationError
from repro.scalesim.latency import layer_makespan_s


class TestSignedCrossbarEngine:
    def test_signed_matvec_approximates_reference(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(0, 1, (32, 16))
        inputs = rng.uniform(0, 1, 32)  # ReLU-style non-negative inputs
        engine = SignedCrossbarEngine(32, 16)
        engine.program(weights)
        result = engine.matvec(inputs)
        reference = weights.T @ inputs
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(result - reference)) / scale < 0.2

    def test_signed_inputs_are_supported(self):
        rng = np.random.default_rng(1)
        weights = rng.normal(0, 1, (16, 8))
        inputs = rng.normal(0, 1, 16)
        engine = SignedCrossbarEngine(16, 8)
        engine.program(weights)
        result = engine.matvec(inputs)
        reference = weights.T @ inputs
        correlation = np.corrcoef(result, reference)[0, 1]
        assert correlation > 0.98

    def test_zero_input_returns_zero(self):
        engine = SignedCrossbarEngine(8, 4)
        engine.program(np.ones((8, 4)))
        assert np.allclose(engine.matvec(np.zeros(8)), 0.0)

    def test_matmul_shape(self):
        rng = np.random.default_rng(2)
        engine = SignedCrossbarEngine(8, 4)
        engine.program(rng.normal(size=(8, 4)))
        outputs = engine.matmul(rng.uniform(0, 1, (5, 8)))
        assert outputs.shape == (5, 4)

    def test_statistics_count_both_arrays(self):
        engine = SignedCrossbarEngine(4, 4)
        engine.program(np.zeros((4, 4)))
        stats = engine.statistics()
        assert stats["programming_events"] == 2

    def test_requires_programming_before_matvec(self):
        engine = SignedCrossbarEngine(4, 4)
        with pytest.raises(SimulationError):
            engine.matvec(np.zeros(4))

    def test_shape_validation(self):
        engine = SignedCrossbarEngine(4, 4)
        with pytest.raises(SimulationError):
            engine.program(np.zeros((3, 4)))
        engine.program(np.zeros((4, 4)))
        with pytest.raises(SimulationError):
            engine.matvec(np.zeros(5))
        with pytest.raises(SimulationError):
            engine.matmul(np.zeros((3, 5)))

    def test_matmul_requires_programming(self):
        engine = SignedCrossbarEngine(4, 4)
        with pytest.raises(SimulationError):
            engine.matmul(np.zeros((2, 4)))


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_are_rejected(self, bad):
        weights = np.ones((20, 11))
        weights[13, 9] = bad
        engine = SignedCrossbarEngine(20, 11, tile_shape=(8, 8))
        with pytest.raises(ProgrammingError):
            engine.program(weights)


class TestSignedBatchedMatmul:
    """The batched signed GEMM must reproduce the per-vector path exactly."""

    def _programmed_engine(self, rows=16, columns=12, seed=0):
        rng = np.random.default_rng(seed)
        engine = SignedCrossbarEngine(rows, columns)
        engine.program(rng.normal(size=(rows, columns)))
        return engine, rng

    def test_mixed_sign_batch_matches_per_vector_matvec(self):
        engine, rng = self._programmed_engine()
        inputs = rng.normal(size=(17, 16))
        batched = engine.matmul(inputs)
        per_vector = np.stack([engine.matvec(vector) for vector in inputs])
        assert np.array_equal(batched, per_vector)

    def test_zero_vectors_inside_batch_produce_exact_zeros(self):
        engine, rng = self._programmed_engine(seed=1)
        inputs = rng.normal(size=(6, 16))
        inputs[0] = 0.0
        inputs[3] = 0.0
        outputs = engine.matmul(inputs)
        assert np.array_equal(outputs[0], np.zeros(12))
        assert np.array_equal(outputs[3], np.zeros(12))
        # Per-vector input scales: the non-zero rows must be unaffected by the
        # zero rows sharing the batch.
        alone = engine.matmul(inputs[1:2])
        assert np.array_equal(outputs[1], alone[0])

    def test_all_zero_batch_short_circuits(self):
        engine, _ = self._programmed_engine(seed=2)
        outputs = engine.matmul(np.zeros((4, 16)))
        assert outputs.shape == (4, 12)
        assert np.array_equal(outputs, np.zeros((4, 12)))

    def test_per_vector_scales_are_independent(self):
        engine, rng = self._programmed_engine(seed=3)
        small = rng.uniform(0, 0.01, 16)
        large = rng.uniform(0, 100.0, 16)
        batched = engine.matmul(np.stack([small, large]))
        assert np.array_equal(batched[0], engine.matvec(small))
        assert np.array_equal(batched[1], engine.matvec(large))

    def test_nonnegative_batch_skips_negative_passes(self, monkeypatch):
        engine, rng = self._programmed_engine(seed=4)
        inputs = rng.uniform(0, 1, (8, 16))
        read_sizes = []
        original = CrossbarArray.matmul

        def spy(array, batch, *args, **kwargs):
            read_sizes.append(len(batch))
            return original(array, batch, *args, **kwargs)

        monkeypatch.setattr(CrossbarArray, "matmul", spy)
        engine.matmul(inputs)
        # One read of the side-by-side [K+ | K-] codes, positive inputs only.
        assert read_sizes == [8]
        inputs[0, 0] = -0.5
        engine.matmul(inputs)
        # A negative entry stacks the negative inputs into the same read.
        assert read_sizes == [8, 16]


class TestDualCoreScheduler:
    """The chip clock on identical tiles, and the event-driven oracle it is checked against."""

    def make_jobs(self, count=8, programming=100e-9, compute=300e-9):
        return [(programming, compute)] * count

    def test_single_core_makespan_is_sum_of_all_phases(self):
        assert layer_makespan_s(4, 100e-9, 300e-9, 1) == pytest.approx(4 * (100e-9 + 300e-9))

    def test_dual_core_hides_programming_when_compute_dominates(self):
        makespan = layer_makespan_s(8, 100e-9, 400e-9, 2)
        # Only the first programming pass is exposed.
        assert makespan == pytest.approx(100e-9 + 8 * 400e-9)

    def test_dual_core_bound_by_programming_when_it_dominates(self):
        makespan = layer_makespan_s(8, 500e-9, 100e-9, 2)
        single = layer_makespan_s(8, 500e-9, 100e-9, 1)
        assert makespan < single
        # Each core programs every other tile, so programming of consecutive
        # tiles overlaps and the makespan approaches half the programming sum.
        assert makespan >= 8 / 2 * 500e-9

    def test_speedup_between_one_and_two(self):
        speedup = layer_makespan_s(16, 200e-9, 200e-9, 1) / layer_makespan_s(16, 200e-9, 200e-9, 2)
        assert 1.0 <= speedup <= 2.0 + 1e-9

    def test_dual_core_never_slower(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            tiles = int(rng.integers(1, 50))
            programming, compute = (float(t) for t in rng.uniform(0, 1e-6, 2))
            dual = layer_makespan_s(tiles, programming, compute, 2)
            assert dual <= layer_makespan_s(tiles, programming, compute, 1) + 1e-15

    def test_utilisation_higher_for_dual_core_when_programming_matters(self):
        compute = 8 * 300e-9
        single = layer_makespan_s(8, 300e-9, 300e-9, 1)
        dual = layer_makespan_s(8, 300e-9, 300e-9, 2)
        assert compute / dual >= compute / single
        assert single / dual > 1.5

    def test_summary_is_bitwise_that_of_the_timelines(self):
        # The closed form sums T tiles in one multiplication where the
        # timeline adds them one by one: equal up to rounding, bitwise for
        # tiles whose times are exact binary fractions.
        for tiles in (1, 2, 7, 50):
            for programming, compute in ((0.25, 0.5), (0.5, 0.25), (0.375, 0.375)):
                jobs = [(programming, compute)] * tiles
                for cores in (1, 2):
                    expected = schedule_oracle.makespan_s(jobs, cores)
                    assert layer_makespan_s(tiles, programming, compute, cores) == expected

    def test_schedule_entries_are_ordered_and_non_overlapping_per_core(self):
        phases = schedule_oracle.timeline(self.make_jobs(6), 2)
        for core in (0, 1):
            core_phases = [phase for phase in phases if phase[0] == core]
            for earlier, later in zip(core_phases, core_phases[1:]):
                assert later[1] >= earlier[4] - 1e-15

    def test_compute_follows_programming_for_each_job(self):
        for _, _, program_end, compute_start, _ in schedule_oracle.timeline(self.make_jobs(5), 2):
            assert compute_start >= program_end - 1e-15

    def test_validation(self):
        with pytest.raises(SimulationError):
            layer_makespan_s(4, 1.0, 1.0, 3)
        with pytest.raises(SimulationError):
            layer_makespan_s(0, 1.0, 1.0, 2)
        with pytest.raises(SimulationError):
            layer_makespan_s(4, -1.0, 1.0, 2)
