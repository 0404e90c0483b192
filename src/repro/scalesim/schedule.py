"""The times of one tile job: the inputs of the chip clock.

The chip processes a layer tile by tile: one PCM programming pass per
physical tile, then the whole batch streamed through it, one vector per MAC
cycle.  :func:`tile_job_times` is the only place those two times are
computed.  The chip clock
(:func:`~repro.scalesim.latency.layer_makespan_s`) turns them into a layer
makespan for the dataflow simulator, the accelerator's
:meth:`~repro.core.accelerator.OpticalCrossbarAccelerator.analytical_schedule`
and the serving cost model, and the per-core accounting of
:class:`~repro.core.sharding.ShardedExecutionEngine` charges them to each
dispatched tile.
"""

from __future__ import annotations

from typing import Tuple

from repro.config.chip import ChipConfig
from repro.errors import SimulationError


def tile_job_times(config: ChipConfig, num_vectors: int) -> Tuple[float, float]:
    """``(programming_time_s, compute_time_s)`` of one tile streaming ``num_vectors``.

    One array programming pass (``config.programming_time_per_array_s``),
    then ``num_vectors`` vectors streamed one per MAC cycle (a tile that
    streams none still costs its programming pass).
    """
    if num_vectors < 0:
        raise SimulationError(f"num_vectors must be >= 0, got {num_vectors}")
    return config.programming_time_per_array_s, num_vectors / config.mac_clock_hz
