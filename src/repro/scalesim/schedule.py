"""Per-tile programming/compute jobs: the one job list of the chip clock.

The analytical latency model (:mod:`repro.scalesim.latency`) uses closed
forms; for visualisation, validation and what-if scheduling studies it is
useful to have the explicit list of (programming, compute) jobs — one per
weight tile of every layer — that the chip executes for one batch.  The
resulting jobs plug directly into the event-driven
:class:`~repro.crossbar.dual_core.DualCoreCrossbar` scheduler.

:func:`tile_jobs` is the only place such a list is built, and
:func:`tile_job_times` the only place its job times are computed.  Both need
only a :class:`~repro.scalesim.tiling.GemmTiling` and the chip
configuration, so the functional datapath
(:meth:`~repro.core.accelerator.OpticalCrossbarAccelerator.programming_jobs`
and the per-core accounting of
:class:`~repro.core.sharding.ShardedExecutionEngine`) and the serving cost
model read the same jobs as :func:`network_tile_jobs`, without programming
any weights.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.config.chip import ChipConfig
from repro.crossbar.dual_core import DualCoreCrossbar, ProgrammingJob
from repro.errors import SimulationError
from repro.scalesim.runtime import NetworkRuntime
from repro.scalesim.tiling import GemmTiling


def tile_job_times(config: ChipConfig, num_vectors: int) -> Tuple[float, float]:
    """``(programming_time_s, compute_time_s)`` of every job of :func:`tile_jobs`.

    One array programming pass (``config.programming_time_per_array_s``),
    then ``num_vectors`` vectors streamed one per MAC cycle (a tile that
    streams none still costs its programming pass).  Per-dispatch accounting
    reads these two times directly, so it builds no job objects.
    """
    if num_vectors < 0:
        raise SimulationError(f"num_vectors must be >= 0, got {num_vectors}")
    return config.programming_time_per_array_s, num_vectors / config.mac_clock_hz


def tile_jobs(tiling: GemmTiling, config: ChipConfig, num_vectors: int) -> List[ProgrammingJob]:
    """One :class:`ProgrammingJob` per physical tile of ``tiling``, in plan order.

    Every job has the :func:`tile_job_times` of ``num_vectors``.  Jobs are
    named ``<layer>/tile<i>``, or ``tile<i>`` for an unnamed GEMM.
    """
    programming_time_s, compute_time_s = tile_job_times(config, num_vectors)
    prefix = f"{tiling.gemm.layer_name}/" if tiling.gemm.layer_name else ""
    return [
        ProgrammingJob(f"{prefix}tile{index}", programming_time_s, compute_time_s)
        for index in range(tiling.num_tiles)
    ]


def network_tile_jobs(runtime: NetworkRuntime, config: ChipConfig | None = None) -> List[ProgrammingJob]:
    """The :func:`tile_jobs` of every layer of one batch, in layer order.

    Parameters
    ----------
    runtime:
        Output of the dataflow simulator.
    config:
        Defaults to the runtime's configuration.
    """
    config = config or runtime.config
    jobs: List[ProgrammingJob] = []
    for layer in runtime.layers:
        jobs.extend(tile_jobs(layer.tiling, config, layer.gemm.m * config.batch_size))
    if not jobs:
        raise SimulationError("the runtime contains no tiles to schedule")
    return jobs


def scheduled_batch_latency_s(runtime: NetworkRuntime, num_cores: int | None = None) -> float:
    """Batch latency obtained by event-driven scheduling of every tile.

    This is the cross-check for the closed-form per-layer latency used by the
    simulator: for identical tiles within a layer the two agree exactly; the
    event-driven number can only be lower when consecutive layers' programming
    overlaps across the layer boundary (an optimisation the analytical model
    conservatively ignores).
    """
    config = runtime.config
    cores = num_cores if num_cores is not None else config.num_cores
    scheduler = DualCoreCrossbar(cores)
    return scheduler.makespan_s(network_tile_jobs(runtime, config))


def schedule_summary(runtime: NetworkRuntime) -> Dict[str, float]:
    """Makespans and speed-up for the runtime's tile sequence."""
    jobs = network_tile_jobs(runtime)
    summary = DualCoreCrossbar.summarize(jobs)
    summary["num_tiles"] = float(len(jobs))
    summary["analytical_batch_latency_s"] = runtime.batch_latency_s
    return summary
