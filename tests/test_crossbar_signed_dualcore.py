"""Unit tests for signed GEMM execution and the dual-core scheduler."""

import numpy as np
import pytest

from repro.crossbar import CrossbarArray, DualCoreCrossbar, ProgrammingJob, SignedCrossbarEngine
from repro.errors import ProgrammingError, SimulationError


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
    def make_jobs(self, count=8, programming=100e-9, compute=300e-9):
        return [
            ProgrammingJob(f"tile{i}", programming_time_s=programming, compute_time_s=compute)
            for i in range(count)
        ]

    def test_single_core_makespan_is_sum_of_all_phases(self):
        jobs = self.make_jobs(4)
        scheduler = DualCoreCrossbar(1)
        assert scheduler.makespan_s(jobs) == pytest.approx(4 * (100e-9 + 300e-9))

    def test_dual_core_hides_programming_when_compute_dominates(self):
        jobs = self.make_jobs(8, programming=100e-9, compute=400e-9)
        makespan = DualCoreCrossbar(2).makespan_s(jobs)
        # Only the first programming pass is exposed.
        assert makespan == pytest.approx(100e-9 + 8 * 400e-9)

    def test_dual_core_bound_by_programming_when_it_dominates(self):
        jobs = self.make_jobs(8, programming=500e-9, compute=100e-9)
        makespan = DualCoreCrossbar(2).makespan_s(jobs)
        single = DualCoreCrossbar(1).makespan_s(jobs)
        assert makespan < single
        # Each core programs every other tile, so programming of consecutive
        # tiles overlaps and the makespan approaches half the programming sum.
        assert makespan >= 8 / 2 * 500e-9

    def test_speedup_between_one_and_two(self):
        jobs = self.make_jobs(16, programming=200e-9, compute=200e-9)
        speedup = DualCoreCrossbar.speedup(jobs)
        assert 1.0 <= speedup <= 2.0 + 1e-9

    def test_dual_core_never_slower(self):
        rng = np.random.default_rng(3)
        jobs = [
            ProgrammingJob(f"t{i}", float(rng.uniform(0, 1e-6)), float(rng.uniform(0, 1e-6)))
            for i in range(20)
        ]
        assert DualCoreCrossbar(2).makespan_s(jobs) <= DualCoreCrossbar(1).makespan_s(jobs) + 1e-15

    def test_utilisation_higher_for_dual_core_when_programming_matters(self):
        jobs = self.make_jobs(8, programming=300e-9, compute=300e-9)
        summary = DualCoreCrossbar.summarize(jobs)
        assert summary["dual_core_utilisation"] >= summary["single_core_utilisation"]
        assert summary["speedup"] > 1.5

    def test_summary_is_bitwise_that_of_the_timelines(self):
        rng = np.random.default_rng(9)
        for count in (1, 2, 7, 50):
            jobs = [
                ProgrammingJob(
                    f"t{i}",
                    float(rng.uniform(0, 1e-6)) if i % 3 else 0.0,
                    float(rng.uniform(0, 1e-6)),
                )
                for i in range(count)
            ]
            expected = {}
            for cores, label in ((1, "single"), (2, "dual")):
                entries = DualCoreCrossbar(cores).schedule(jobs)
                makespan = max(entry.end_s for entry in entries)
                compute = sum(e.duration_s for e in entries if e.kind == "compute")
                expected[f"{label}_core_makespan_s"] = makespan
                expected[f"{label}_core_utilisation"] = min(1.0, compute / makespan)
            expected["speedup"] = (
                expected["single_core_makespan_s"] / expected["dual_core_makespan_s"]
            )
            assert DualCoreCrossbar.summarize(jobs) == expected

    def test_schedule_entries_are_ordered_and_non_overlapping_per_core(self):
        jobs = self.make_jobs(6)
        entries = DualCoreCrossbar(2).schedule(jobs)
        for core in (0, 1):
            core_entries = sorted(
                (e for e in entries if e.core == core), key=lambda e: e.start_s
            )
            for earlier, later in zip(core_entries, core_entries[1:]):
                assert later.start_s >= earlier.end_s - 1e-15

    def test_compute_follows_programming_for_each_job(self):
        jobs = self.make_jobs(5)
        entries = DualCoreCrossbar(2).schedule(jobs)
        by_job = {}
        for entry in entries:
            by_job.setdefault(entry.job_name, {})[entry.kind] = entry
        for phases in by_job.values():
            assert phases["compute"].start_s >= phases["program"].end_s - 1e-15

    def test_validation(self):
        with pytest.raises(SimulationError):
            DualCoreCrossbar(3)
        with pytest.raises(SimulationError):
            DualCoreCrossbar(2).schedule([])
        with pytest.raises(SimulationError):
            ProgrammingJob("bad", -1.0, 1.0)
