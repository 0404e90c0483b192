"""Tests for the extension modules: sensitivity analysis, Pareto frontier,
tile-schedule extraction, roofline model and the MLP workload builder."""

import numpy as np
import pytest
import schedule_oracle

from repro.analysis.sensitivity import (
    DEFAULT_PARAMETERS,
    TechnologySensitivityAnalysis,
    sensitivity_rows,
)
from repro.config import default_sweep_chip, optimal_chip, small_test_chip
from repro.core.accelerator import OpticalCrossbarAccelerator
from repro.core.pareto import frontier_rows, pareto_frontier
from repro.core.simulation import SimulationFramework
from repro.core.sweep import sweep_array_sizes
from repro.errors import SimulationError
from repro.nn import build_lenet5, build_mlp
from repro.perf.roofline import RooflineModel
from repro.scalesim.schedule import tile_job_times
from repro.scalesim.simulator import simulate_network


class TestSensitivityAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self):
        return TechnologySensitivityAnalysis(build_lenet5(), small_test_chip())

    def test_entries_cover_requested_parameters(self, analysis):
        parameters = ("dram_energy_per_bit_j", "adc_power_w", "sram_energy_per_bit_j")
        entries = analysis.analyze(parameters)
        assert {entry.parameter for entry in entries} == set(parameters)

    def test_entries_sorted_by_swing(self, analysis):
        entries = analysis.analyze(("dram_energy_per_bit_j", "adc_power_w", "tia_power_w"))
        swings = [entry.swing for entry in entries]
        assert swings == sorted(swings, reverse=True)

    def test_increasing_dram_energy_reduces_ips_per_watt(self, analysis):
        entry = next(
            e for e in analysis.analyze(("dram_energy_per_bit_j",)) if e.parameter == "dram_energy_per_bit_j"
        )
        assert entry.metric_at_high < entry.baseline_metric < entry.metric_at_low

    def test_rows_helper_and_relative_swing(self):
        rows = sensitivity_rows(
            build_lenet5(), small_test_chip(), parameters=("adc_power_w", "sram_energy_per_bit_j")
        )
        assert len(rows) == 2
        assert all(row["relative_swing"] >= 0 for row in rows)

    def test_default_parameter_list_is_valid(self):
        config = small_test_chip()
        for name in DEFAULT_PARAMETERS:
            assert hasattr(config.technology, name)

    def test_unknown_parameter_and_metric_rejected(self):
        analysis = TechnologySensitivityAnalysis(build_lenet5(), small_test_chip())
        with pytest.raises(SimulationError):
            analysis.analyze(("not_a_parameter",))
        bad_metric = TechnologySensitivityAnalysis(
            build_lenet5(), small_test_chip(), metric="nonsense"
        )
        with pytest.raises(SimulationError):
            bad_metric.analyze(("adc_power_w",))

    def test_most_sensitive_parameter_for_optimal_point_is_memory_related(
        self, resnet50, resnet_framework
    ):
        analysis = TechnologySensitivityAnalysis(
            resnet50, optimal_chip(), framework=resnet_framework
        )
        top = analysis.most_sensitive_parameter(
            ("dram_energy_per_bit_j", "adc_power_w", "tia_power_w", "odac_driver_energy_per_sample_j")
        )
        # DRAM dominates the power budget, so IPS/W is most sensitive to it.
        assert top == "dram_energy_per_bit_j"


class TestParetoFrontier:
    @pytest.fixture(scope="class")
    def sweep(self):
        network = build_lenet5()
        framework = SimulationFramework(network)
        return sweep_array_sizes(
            network,
            small_test_chip(),
            rows_values=(8, 16, 32),
            columns_values=(8, 16, 32),
            framework=framework,
        )

    def test_frontier_is_subset_and_non_dominated(self, sweep):
        frontier = pareto_frontier(sweep, objectives=("ips", "power_w"))
        assert 1 <= len(frontier) <= len(sweep)
        # No frontier point dominates another.
        for a in frontier:
            for b in frontier:
                if a is b:
                    continue
                assert not (
                    a.objectives["ips"] >= b.objectives["ips"]
                    and a.objectives["power_w"] <= b.objectives["power_w"]
                    and (
                        a.objectives["ips"] > b.objectives["ips"]
                        or a.objectives["power_w"] < b.objectives["power_w"]
                    )
                )

    def test_frontier_sorted_by_first_objective(self, sweep):
        frontier = pareto_frontier(sweep, objectives=("ips", "power_w"))
        ips_values = [point.objectives["ips"] for point in frontier]
        assert ips_values == sorted(ips_values, reverse=True)

    def test_best_ips_point_is_always_on_the_frontier(self, sweep):
        frontier = pareto_frontier(sweep, objectives=("ips", "power_w"))
        best_ips = max(result.row()["ips"] for result in sweep)
        assert any(point.objectives["ips"] == pytest.approx(best_ips) for point in frontier)

    def test_three_objective_frontier(self, sweep):
        frontier = pareto_frontier(sweep, objectives=("ips", "power_w", "area_mm2"))
        assert len(frontier) >= len(pareto_frontier(sweep, objectives=("ips", "power_w")))

    def test_frontier_rows_flatten(self, sweep):
        frontier = pareto_frontier(sweep, objectives=("ips", "power_w"))
        rows = frontier_rows(frontier)
        assert rows and {"rows", "columns", "ips", "power_w"} <= set(rows[0])

    def test_validation(self, sweep):
        with pytest.raises(SimulationError):
            pareto_frontier([], objectives=("ips", "power_w"))
        with pytest.raises(SimulationError):
            pareto_frontier(sweep, objectives=("ips",))
        with pytest.raises(SimulationError):
            pareto_frontier(sweep, objectives=("ips", "mac_utilization"))


def _network_jobs(runtime):
    """Every tile of every layer of one batch, in layer order, as (P, C) jobs."""
    config = runtime.config
    return [
        tile_job_times(config, layer.gemm.m * config.batch_size)
        for layer in runtime.layers
        for _ in range(layer.tiling.num_tiles)
    ]


class TestTileSchedule:
    """The per-layer chip clock against one event-driven schedule of the whole network."""

    @pytest.fixture(scope="class")
    def runtime(self):
        return simulate_network(build_lenet5(), small_test_chip(num_cores=2))

    def test_job_count_matches_programming_passes(self, runtime):
        assert len(_network_jobs(runtime)) == runtime.total_programming_passes

    def test_scheduled_latency_close_to_analytical(self, runtime):
        scheduled = schedule_oracle.makespan_s(_network_jobs(runtime), 2)
        analytical = runtime.batch_latency_s
        # The network-wide schedule can only be faster (it overlaps a layer's
        # first programming pass with the previous layer's computes, which
        # the per-layer clock does not) and stays within a modest factor of it.
        assert scheduled <= analytical * (1 + 1e-9)
        assert scheduled > 0.5 * analytical

    def test_schedule_summary_keys(self, runtime):
        accelerator = OpticalCrossbarAccelerator(runtime.config)
        layer = runtime.layers[0]
        summary = accelerator.analytical_schedule(
            np.zeros((layer.gemm.k, layer.gemm.n)), layer.gemm.m * runtime.batch_size
        )
        assert set(summary) == {
            "single_core_makespan_s",
            "dual_core_makespan_s",
            "single_core_utilisation",
            "dual_core_utilisation",
            "speedup",
        }
        assert summary["speedup"] >= 1.0
        assert summary["dual_core_makespan_s"] <= summary["single_core_makespan_s"]
        assert not layer.latency.dram_bound
        assert summary["dual_core_makespan_s"] == layer.latency.latency_s

    def test_single_core_schedule_matches_analytical_exactly(self):
        runtime = simulate_network(build_lenet5(), small_test_chip(num_cores=1))
        scheduled = schedule_oracle.makespan_s(_network_jobs(runtime), 1)
        # For a single core the schedule is strictly serial; the only
        # difference from the analytical sum is the (absent) DRAM bound.
        assert scheduled == pytest.approx(runtime.batch_latency_s, rel=1e-9)


class TestRoofline:
    def test_machine_balance_and_roof(self, optimal_config):
        roofline = RooflineModel(optimal_config)
        balance = roofline.machine_balance_macs_per_bit
        assert balance > 0
        assert roofline.attainable_macs_per_second(balance) == pytest.approx(
            roofline.peak_macs_per_second, rel=1e-9
        )
        assert roofline.attainable_macs_per_second(balance / 10) == pytest.approx(
            roofline.peak_macs_per_second / 10, rel=1e-9
        )

    def test_layer_points_and_summary(self, optimal_runtime, optimal_config):
        roofline = RooflineModel(optimal_config)
        points = roofline.layer_points(optimal_runtime)
        assert len(points) == len(optimal_runtime.layers)
        assert all(p.bound in ("compute", "memory") for p in points)
        summary = roofline.summary(optimal_runtime)
        assert 0.0 <= summary["memory_bound_fraction"] <= 1.0
        assert summary["achieved_macs_per_second"] <= summary["peak_macs_per_second"]

    def test_config_mismatch_rejected(self, optimal_runtime):
        with pytest.raises(SimulationError):
            RooflineModel(default_sweep_chip()).layer_points(optimal_runtime)

    def test_negative_intensity_rejected(self, optimal_config):
        with pytest.raises(SimulationError):
            RooflineModel(optimal_config).attainable_macs_per_second(-1.0)


class TestMlpBuilder:
    def test_structure_and_counts(self):
        network = build_mlp(input_features=784, hidden_features=(512, 256), num_classes=10)
        assert network.output_shape.channels == 10
        # 784*512 + 512 + 512*256 + 256 + 256*10 + 10 parameters.
        assert network.total_weights == 784 * 512 + 512 + 512 * 256 + 256 + 256 * 10 + 10
        assert network.total_macs == 784 * 512 + 512 * 256 + 256 * 10

    def test_all_compute_layers_are_dense(self):
        network = build_mlp()
        assert all(info.layer.__class__.__name__ == "DenseLayer" for info in network.crossbar_layers)

    def test_mlp_simulates_on_the_accelerator(self):
        runtime = simulate_network(build_mlp(hidden_features=(256,), num_classes=100),
                                   small_test_chip(batch_size=4))
        assert runtime.inferences_per_second > 0
        # With no convolutional reuse, programming passes dominate cycles at
        # small batch: there is at least one pass per dense layer.
        assert runtime.total_programming_passes >= 2

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            build_mlp(input_features=0)
