"""Multi-core accounting benchmarks of the functional GEMM datapath.

These guard the `repro.core.sharding` subsystem on LeNet-scale plans: the
round-robin split must keep the chip's crossbar cores evenly loaded, and the
chip clock (:func:`~repro.scalesim.latency.layer_makespan_s`, read through
``analytical_schedule``) must show the dual core's speed-up.  The crossbar
cores are photonic cores of the modelled chip, so their concurrency is
asserted on the modelled timeline, not on host threads.  The LeNet balance
and speed-up checks run as a deterministic tier-1 test in
``tests/test_core_sharding.py``.
"""

from __future__ import annotations

import numpy as np

from repro.config import small_test_chip
from repro.core.accelerator import OpticalCrossbarAccelerator

#: LeNet-scale scenario: a dual-core 64x64 chip and an 8-image batch.
_CHIP = dict(rows=64, columns=64, num_cores=2)
_BATCH = 8


def test_sharded_gemm_throughput(benchmark):
    """Warm GEMM streaming on a 16-tile plan, accounted to both cores."""
    chip = small_test_chip(**_CHIP)
    rng = np.random.default_rng(2)
    weights = rng.normal(size=(256, 256))  # 4x4 tile grid on the 64x64 chip
    inputs = rng.uniform(0, 1, (512, 256))
    accelerator = OpticalCrossbarAccelerator(chip)
    layer = accelerator.layer(weights)
    accelerator.linear(layer, inputs)  # program once

    result = benchmark(lambda: accelerator.linear(layer, inputs))
    assert result.shape == (512, 256)
    counts = accelerator.functional_statistics()["per_core_tile_dispatches"]
    assert counts[0] == counts[1]  # 16 tiles split 8/8 round-robin


def test_dual_core_schedule_speedup_on_uniform_tiles():
    """An even tile grid approaches the ideal 2x dual-core makespan speedup."""
    accelerator = OpticalCrossbarAccelerator(small_test_chip(**_CHIP))
    rng = np.random.default_rng(3)
    weights = rng.normal(size=(256, 64))  # 4 equal tiles
    summary = accelerator.analytical_schedule(weights, num_vectors=_BATCH)
    assert summary["speedup"] > 1.5
    assert summary["dual_core_utilisation"] >= summary["single_core_utilisation"]
