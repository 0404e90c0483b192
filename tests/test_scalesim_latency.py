"""Unit tests for the latency model (single vs dual core, DRAM bound)."""

import pytest
import schedule_oracle

from repro.config import ChipConfig
from repro.errors import SimulationError
from repro.nn.im2col import GemmShape
from repro.scalesim.latency import compute_layer_latency
from repro.scalesim.schedule import tile_job_times
from repro.scalesim.tiling import GemmTiling


def tiling_for(m=1000, k=256, n=256, rows=128, columns=128):
    return GemmTiling(gemm=GemmShape("layer", m=m, k=k, n=n), rows=rows, columns=columns)


class TestCycleAccounting:
    def test_compute_cycles_match_tiling(self):
        config = ChipConfig(rows=128, columns=128, batch_size=4, num_cores=1)
        tiling = tiling_for()
        latency = compute_layer_latency("layer", tiling, config)
        assert latency.compute_cycles == tiling.compute_cycles(4)
        assert latency.programming_passes == tiling.num_tiles

    def test_single_core_latency_is_programming_plus_compute(self):
        config = ChipConfig(rows=128, columns=128, batch_size=4, num_cores=1)
        tiling = tiling_for()
        latency = compute_layer_latency("layer", tiling, config)
        assert latency.latency_s == pytest.approx(
            latency.programming_time_s + latency.compute_time_s
        )

    def test_dual_core_hides_programming_when_compute_is_longer(self):
        # compute per tile (m * batch cycles at 10 GHz) >> 100 ns programming.
        config = ChipConfig(rows=128, columns=128, batch_size=32, num_cores=2)
        tiling = tiling_for(m=4000)
        latency = compute_layer_latency("layer", tiling, config)
        exposed_overhead = latency.latency_s - latency.compute_time_s
        assert exposed_overhead == pytest.approx(config.programming_time_per_array_s, rel=1e-6)

    def test_dual_core_halves_programming_stall_when_compute_is_tiny(self):
        config = ChipConfig(rows=128, columns=128, batch_size=1, num_cores=2)
        tiling = tiling_for(m=10)  # 10 cycles of compute vs 1000 cycles programming
        latency = compute_layer_latency("layer", tiling, config)
        programming = config.programming_time_per_array_s
        compute_tile = 10 * config.mac_cycle_time_s
        tiles = tiling.num_tiles
        expected = ((tiles + 1) // 2) * (programming + compute_tile) + (
            compute_tile if tiles % 2 == 0 else 0.0
        )
        assert latency.latency_s == pytest.approx(expected)
        # The two cores overlap their programming passes, so the layer runs in
        # roughly half the single-core programming time.
        single = compute_layer_latency(
            "layer", tiling, config.with_updates(num_cores=1)
        )
        assert latency.latency_s < 0.6 * single.latency_s

    def test_dual_core_formula_matches_event_driven_scheduler(self):
        for cores in (1, 2):
            config = ChipConfig(rows=128, columns=128, batch_size=2, num_cores=cores)
            for m in (10, 500, 1000, 5000):
                tiling = tiling_for(m=m)
                latency = compute_layer_latency("layer", tiling, config)
                times = tile_job_times(config, tiling.compute_cycles_per_tile(2))
                jobs = [times] * tiling.num_tiles
                scheduled = schedule_oracle.makespan_s(jobs, cores)
                assert latency.latency_s == pytest.approx(scheduled, rel=1e-12)

    def test_dual_core_never_slower_than_single_core(self):
        tiling = tiling_for(m=300)
        for batch in (1, 4, 32):
            single = compute_layer_latency(
                "l", tiling, ChipConfig(rows=128, columns=128, batch_size=batch, num_cores=1)
            )
            dual = compute_layer_latency(
                "l", tiling, ChipConfig(rows=128, columns=128, batch_size=batch, num_cores=2)
            )
            assert dual.latency_s <= single.latency_s + 1e-15


class TestDramBound:
    def test_large_dram_traffic_bounds_latency(self):
        config = ChipConfig(rows=128, columns=128, batch_size=1, num_cores=2)
        tiling = tiling_for(m=10)
        huge_traffic = 1e12  # bits
        latency = compute_layer_latency("layer", tiling, config, dram_bits=huge_traffic)
        assert latency.dram_bound
        assert latency.latency_s == pytest.approx(
            huge_traffic / config.technology.dram_bandwidth_bits_per_s
        )

    def test_no_dram_bound_without_traffic(self):
        config = ChipConfig(rows=128, columns=128, batch_size=1)
        latency = compute_layer_latency("layer", tiling_for(), config, dram_bits=0.0)
        assert not latency.dram_bound

    def test_rejects_negative_dram_bits(self):
        config = ChipConfig()
        with pytest.raises(SimulationError):
            compute_layer_latency("layer", tiling_for(), config, dram_bits=-1.0)

    def test_rejects_bad_bandwidth(self):
        config = ChipConfig()
        with pytest.raises(SimulationError):
            compute_layer_latency(
                "layer", tiling_for(), config, dram_bits=1.0, dram_bandwidth_bits_per_s=0.0
            )
