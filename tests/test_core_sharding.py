"""Tests for the multi-core accounting of the functional GEMM datapath.

Tiles are accounted round-robin to the chip's crossbar cores; the core count
changes the per-core statistics and the analytical schedule, never an
output.  The ``multicore`` marker groups these tests; the tier-1 run collects
this file by default (``pytest -m multicore`` selects just these tests).
"""

import numpy as np
import pytest

from repro.config import default_sweep_chip, optimal_chip, small_test_chip
from repro.core.accelerator import OpticalCrossbarAccelerator
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.core.sharding import ShardedExecutionEngine, compute_entries_per_core
from repro.crossbar import CrossbarNoiseModel, SignedCrossbarEngine
from repro.crossbar.dual_core import DualCoreCrossbar
from repro.errors import SimulationError
from repro.nn import build_lenet5
from repro.nn.im2col import conv_weights_matrix
from repro.scalesim import CrossbarDataflowSimulator, network_tile_jobs
from repro.serve.batcher import AnalyticalCostModel

pytestmark = pytest.mark.multicore


def dual_core_chip(**overrides):
    """The 8x8 test chip with both crossbar cores enabled."""
    return small_test_chip(num_cores=2, **overrides)


class TestRoundRobinAssignment:
    def test_engine_rejects_invalid_dimensions(self):
        with pytest.raises(SimulationError):
            ShardedExecutionEngine(dual_core_chip()).core_assignment(-1)

    def test_assignment_alternates_like_the_dual_core_schedule(self):
        engine = ShardedExecutionEngine(dual_core_chip())
        assert engine.core_assignment(5) == [0, 1, 0, 1, 0]

    def test_single_core_maps_everything_to_core_zero(self):
        engine = ShardedExecutionEngine(small_test_chip())
        assert engine.core_assignment(4) == [0, 0, 0, 0]

    def test_single_core_chip_dispatches_only_core_zero(self):
        accelerator = OpticalCrossbarAccelerator(small_test_chip())
        rng = np.random.default_rng(0)
        accelerator.linear(rng.normal(size=(20, 11)), rng.uniform(0, 1, (4, 20)))
        stats = accelerator.functional_statistics()
        assert stats["per_core_tile_dispatches"] == (6,)
        assert stats["sharded_dispatches"] == 1


class TestBitwiseEquivalence:
    """Multi-core ("sharded") outputs == single-core ("serial") outputs, bitwise."""

    @pytest.fixture()
    def problem(self):
        rng = np.random.default_rng(1)
        # 20x11 weights -> a 3x2 tile grid on the 8x8 chip.
        return rng.normal(size=(20, 11)), rng.uniform(-1, 1, (7, 20))

    def test_sharded_conv2d_matches_serial(self):
        rng = np.random.default_rng(2)
        fmaps = rng.uniform(0, 1, (3, 6, 6, 2))
        weights = rng.normal(size=(3, 3, 2, 4))
        serial = OpticalCrossbarAccelerator(small_test_chip()).conv2d(
            fmaps, weights, stride=1, padding=1
        )
        sharded = OpticalCrossbarAccelerator(dual_core_chip()).conv2d(
            fmaps, weights, stride=1, padding=1
        )
        assert serial.tobytes() == sharded.tobytes()

    def test_noisy_sharded_execution_matches_serial(self, problem):
        weights, inputs = problem
        noise = CrossbarNoiseModel.pessimistic()
        serial = OpticalCrossbarAccelerator(
            small_test_chip(), noise_model=noise, seed=11
        ).linear(weights, inputs)
        sharded = OpticalCrossbarAccelerator(
            dual_core_chip(), noise_model=noise, seed=11
        ).linear(weights, inputs)
        assert serial.tobytes() == sharded.tobytes()

    def test_noisy_results_do_not_depend_on_plan_build_order(self, problem):
        weights, inputs = problem
        noise = CrossbarNoiseModel.pessimistic()
        rng = np.random.default_rng(3)
        other = rng.normal(size=(9, 9))
        first = OpticalCrossbarAccelerator(dual_core_chip(), noise_model=noise, seed=11)
        first.linear(other, rng.uniform(0, 1, (2, 9)))  # builds an unrelated plan first
        fresh = OpticalCrossbarAccelerator(dual_core_chip(), noise_model=noise, seed=11)
        assert np.array_equal(first.linear(weights, inputs), fresh.linear(weights, inputs))

    def test_sharded_inference_engine_matches_serial(self):
        network = build_lenet5(input_size=12)
        weights = generate_random_weights(network, seed=6, scale=0.3)
        images = np.random.default_rng(7).uniform(0, 1, (4, 12, 12, 1))
        outputs = [
            FunctionalInferenceEngine(
                network, weights, small_test_chip(rows=32, columns=32, num_cores=cores)
            ).run_batch(images)
            for cores in (1, 2)
        ]
        assert outputs[0].tobytes() == outputs[1].tobytes()


class TestLeNetMulticoreScaling:
    """LeNet on the 64x64 dual-core chip at B=8: balanced cores, real speed-up."""

    def test_core_balance_and_dual_core_speedup(self):
        network = build_lenet5()
        weights = generate_random_weights(network, seed=0, scale=0.3)
        images = np.random.default_rng(1).uniform(
            0.0, 1.0, (8,) + network.input_shape.as_tuple()
        )
        engine = FunctionalInferenceEngine(
            network, weights, small_test_chip(rows=64, columns=64, num_cores=2)
        )
        engine.run_batch(images)
        accelerator = engine.accelerator

        # The round-robin split keeps both crossbar cores near-equally busy,
        # which is where the multi-core scaling comes from.
        core_busy = accelerator.functional_statistics()["per_core_busy_time_s"]
        assert len(core_busy) == 2 and min(core_busy) > 0.0
        assert min(core_busy) / max(core_busy) > 0.5

        # The dual-core schedule of the widest layer's tile plan shows real
        # scaling.
        widest = max(weights.values(), key=lambda w: w.reshape(-1, w.shape[-1]).size)
        summary = accelerator.analytical_schedule(
            widest.reshape(-1, widest.shape[-1]), num_vectors=8
        )
        assert summary["speedup"] > 1.3


#: Modelled LeNet cost on the 128x128 chip (ns per image) at B = 1, 8 and 32.
LENET_OPTIMAL_NS_PER_IMAGE = {1: 698.9, 8: 173.9, 32: 117.65}


class TestScheduleCrossCheck:
    """functional_statistics() must agree with DualCoreCrossbar's schedule."""

    @pytest.mark.parametrize("make_config", [optimal_chip, default_sweep_chip])
    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_executed_lenet_plan_runs_on_the_scalesim_clock(self, make_config, batch):
        network = build_lenet5()
        config = make_config().with_updates(batch_size=batch)
        cores = config.num_cores
        runtime = CrossbarDataflowSimulator(config).simulate(network)
        weights = generate_random_weights(network, seed=0, scale=0.3)
        engine = FunctionalInferenceEngine(network, weights, config)
        accelerator = engine.accelerator
        scheduler = DualCoreCrossbar(cores)
        network_jobs = network_tile_jobs(runtime)
        counts, busy = [0] * cores, [0.0] * cores
        seconds, start = 0.0, 0
        for layer in runtime.layers:
            matrix = weights[layer.layer_name]
            matrix = conv_weights_matrix(matrix) if matrix.ndim == 4 else matrix
            jobs = accelerator.programming_jobs(matrix, layer.gemm.m * batch)
            layer_jobs = network_jobs[start : start + len(jobs)]
            start += len(jobs)
            assert [(job.programming_time_s, job.compute_time_s) for job in jobs] == [
                (job.programming_time_s, job.compute_time_s) for job in layer_jobs
            ]
            assert not layer.latency.dram_bound
            makespan = scheduler.makespan_s(jobs)
            assert makespan == pytest.approx(layer.latency.latency_s, rel=1e-12)
            seconds += makespan
            layer_counts, layer_busy = compute_entries_per_core(scheduler.schedule(jobs), cores)
            for core in range(cores):
                counts[core] += layer_counts[core]
                busy[core] += layer_busy[core]
        assert start == len(network_jobs)
        chip_ips = accelerator.evaluate(network).inferences_per_second
        assert seconds / batch == pytest.approx(1.0 / chip_ips, rel=1e-12)
        if make_config is optimal_chip:
            expected_ns = LENET_OPTIMAL_NS_PER_IMAGE[batch]
            assert seconds / batch * 1e9 == pytest.approx(expected_ns, abs=0.05)

        images = np.random.default_rng(1).uniform(
            0.0, 1.0, (batch,) + network.input_shape.as_tuple()
        )
        engine.run_batch(images)
        stats = accelerator.functional_statistics()
        assert stats["per_core_tile_dispatches"] == tuple(counts)
        assert stats["per_core_busy_time_s"] == pytest.approx(tuple(busy), rel=1e-12)

    @pytest.mark.parametrize("make_config", [optimal_chip, default_sweep_chip])
    def test_plan_charges_both_padded_arrays_where_power_charges_real_cells(self, make_config):
        # Two conventions for the same writes, pinned, not reconciled:
        # perf.power charges each real weight cell (k*n) once; the tile plan
        # charges both arrays of every padded rows x columns tile.
        network = build_lenet5()
        config = make_config()
        runtime = CrossbarDataflowSimulator(config).simulate(network)
        weights = generate_random_weights(network, seed=0, scale=0.3)
        accelerator = OpticalCrossbarAccelerator(config)
        cell_energy_j = config.technology.pcm_programming_energy_j
        for layer in runtime.layers:
            matrix = weights[layer.layer_name]
            matrix = conv_weights_matrix(matrix) if matrix.ndim == 4 else matrix
            before = accelerator.functional_statistics()["programming_energy_j"]
            accelerator.linear(matrix, np.zeros((1, matrix.shape[0])))
            plan_j = accelerator.functional_statistics()["programming_energy_j"] - before
            power_j = layer.programmed_cells * cell_energy_j
            tiling = layer.tiling
            assert plan_j / power_j == pytest.approx(
                2 * tiling.allocated_cells / tiling.programmed_cells, rel=1e-12
            )
        metrics = accelerator.evaluate(network)
        power_j = metrics.energy_breakdown.component("pcm_programming")
        assert power_j == runtime.total_programmed_cells * cell_energy_j
        plan_j = accelerator.functional_statistics()["programming_energy_j"]
        if make_config is optimal_chip:
            per_image_uj = power_j / config.batch_size * 1e6
            assert per_image_uj == pytest.approx(0.192, abs=5e-4)
            assert metrics.energy_per_inference_j * 1e6 == pytest.approx(0.995, abs=5e-4)
            assert plan_j / power_j == pytest.approx(4.80, abs=5e-3)

    def test_per_core_tile_counts_match_the_analytical_schedule(self):
        accelerator = OpticalCrossbarAccelerator(dual_core_chip())
        rng = np.random.default_rng(4)
        weights = rng.normal(size=(20, 11))  # 6 tiles -> 3 per core
        inputs = rng.uniform(0, 1, (5, 20))
        accelerator.linear(weights, inputs)

        jobs = accelerator.programming_jobs(weights, inputs.shape[0])
        entries = DualCoreCrossbar(2).schedule(jobs)
        analytical_counts, analytical_busy = compute_entries_per_core(entries, 2)

        stats = accelerator.functional_statistics()
        assert stats["per_core_tile_dispatches"] == analytical_counts == (3, 3)
        assert stats["per_core_busy_time_s"] == pytest.approx(analytical_busy)

    def test_busy_time_accumulates_per_dispatch(self):
        accelerator = OpticalCrossbarAccelerator(dual_core_chip())
        rng = np.random.default_rng(5)
        weights = rng.normal(size=(16, 8))  # 2 tiles, one per core
        inputs = rng.uniform(0, 1, (3, 16))
        accelerator.linear(weights, inputs)
        first = accelerator.functional_statistics()
        accelerator.linear(weights, inputs)
        second = accelerator.functional_statistics()
        assert second["per_core_tile_dispatches"] == (2, 2)
        assert second["sharded_dispatches"] == 2
        for core in range(2):
            assert second["per_core_busy_time_s"][core] == pytest.approx(
                2 * first["per_core_busy_time_s"][core]
            )

    def test_schedule_summary_reports_dual_core_speedup(self):
        accelerator = OpticalCrossbarAccelerator(dual_core_chip())
        rng = np.random.default_rng(6)
        weights = rng.normal(size=(32, 8))  # 4 equal tiles
        summary = accelerator.analytical_schedule(weights, num_vectors=4)
        assert summary["dual_core_makespan_s"] < summary["single_core_makespan_s"]
        assert summary["speedup"] > 1.0

    def test_analytics_queries_leave_the_datapath_untouched(self):
        accelerator = OpticalCrossbarAccelerator(dual_core_chip())
        rng = np.random.default_rng(8)
        layer = accelerator.layer(rng.normal(size=(8, 8)))
        inputs = rng.uniform(0, 1, (2, 8))
        accelerator.linear(layer, inputs)
        before = accelerator.functional_statistics()
        # Analytics on other weights must not count layer reads, accumulate
        # programming stats, or touch the programmed inference layer.
        accelerator.analytical_schedule(rng.normal(size=(16, 16)), num_vectors=3)
        accelerator.programming_jobs(rng.normal(size=(24, 8)), num_vectors=3)
        assert accelerator.functional_statistics() == before
        engine = layer.engine
        accelerator.linear(layer, inputs)  # still programmed: no re-program
        stats = accelerator.functional_statistics()
        assert layer.engine is engine
        assert stats["programming_events"] == before["programming_events"]
        assert stats["tile_cache_hits"] == before["tile_cache_hits"] + 1

    def test_analytics_program_nothing(self, monkeypatch):
        # Schedules are built from shapes alone: no layer engine is constructed.
        engines = []
        original_init = SignedCrossbarEngine.__init__

        def counting_init(engine, *args, **kwargs):
            engines.append(engine)
            original_init(engine, *args, **kwargs)

        monkeypatch.setattr(SignedCrossbarEngine, "__init__", counting_init)
        network = build_lenet5()
        config = optimal_chip()
        accelerator = OpticalCrossbarAccelerator(config)
        matrix = np.ones((400, 120))
        jobs = accelerator.programming_jobs(matrix, 8)
        summary = accelerator.analytical_schedule(matrix, 8)
        assert engines == []
        model = AnalyticalCostModel.from_workload(network, config)
        assert engines == []
        assert len(jobs) == 4 and summary == DualCoreCrossbar.summarize(jobs)
        assert (model.fixed_units, model.per_image_units) == (6e-07, 9.890000000000002e-08)

    def test_programming_jobs_validate_num_vectors(self):
        accelerator = OpticalCrossbarAccelerator(dual_core_chip())
        with pytest.raises(SimulationError):
            accelerator.programming_jobs(np.eye(8), 0)
