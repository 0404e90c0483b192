"""The chip clock: per-layer cycle and latency accounting for one or two cores.

The crossbar processes a layer tile by tile: program the PCM cells of a tile,
stream the whole batch through it, move to the next tile.  Every tile of a
layer has the same :func:`~repro.scalesim.schedule.tile_job_times`: one
programming pass ``P`` and a compute time ``C`` of one MAC cycle per
streamed vector.  :func:`layer_makespan_s` turns ``T`` such tiles into time,
and it is the only function that does: the simulator's layer latencies (and
through them ``evaluate()``, the figures and ``chip_ips``), the accelerator's
:meth:`~repro.core.accelerator.OpticalCrossbarAccelerator.analytical_schedule`
and the serving cost model all read it.

* **Single core** — programming and compute strictly alternate, so the layer
  latency is the sum of every tile's programming time and compute time.
* **Dual core** (the paper's scheme) — while one core computes on tile *t*,
  the other core is programmed with tile *t+1*.  Tiles alternate between the
  two cores, so each core has a full compute-time window *plus* the other
  core's compute window to finish its next programming pass.  When compute
  dominates, only the first programming pass is exposed; when programming
  dominates, the two cores' programming passes overlap and the layer runs at
  roughly half the single-core programming time.

The closed form is exact for identical tiles; the test suite checks it
against an event-driven schedule of the same tiles.  It does not overlap one
layer's programming with the previous layer's compute, as the paper's model
does not.

DRAM transfers are assumed to overlap with compute (double buffering), but a
layer can never run faster than its DRAM traffic allows, so the layer latency
is lower-bounded by the DRAM transfer time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.chip import ChipConfig
from repro.errors import SimulationError
from repro.scalesim.schedule import tile_job_times
from repro.scalesim.tiling import GemmTiling


@dataclass(frozen=True)
class LayerLatency:
    """Cycle/latency summary of one layer for one full batch."""

    layer_name: str
    compute_cycles: float
    programming_passes: int
    programming_time_s: float
    compute_time_s: float
    latency_s: float
    dram_bound: bool

    def __post_init__(self) -> None:
        if self.compute_cycles < 0 or self.programming_passes < 0:
            raise SimulationError("cycle counts must be >= 0")
        if self.latency_s < 0:
            raise SimulationError("latency must be >= 0")


def layer_makespan_s(
    num_tiles: int, programming_time_s: float, compute_time_s: float, num_cores: int
) -> float:
    """Makespan of ``num_tiles`` identical (program, compute) tile jobs: the chip clock.

    Each tile is programmed for ``programming_time_s`` and then computes for
    ``compute_time_s`` (see :func:`~repro.scalesim.schedule.tile_job_times`).

    * one core: every programming pass and every compute in turn,
      ``T·P + T·C``;
    * two cores: tiles alternate between the cores; a core may be
      reprogrammed as soon as its previous compute finishes, and computes run
      one at a time in tile order (they share the input-streaming datapath
      and the accumulator).  When compute ≥ programming only the first
      programming pass is exposed, ``P + T·C``; otherwise each core's
      program+compute cycles dominate and interleave,
      ``ceil(T/2)·(P + C)`` plus the final compute when ``T`` is even.
    """
    if num_cores not in (1, 2):
        raise SimulationError(f"num_cores must be 1 or 2, got {num_cores}")
    if num_tiles < 1:
        raise SimulationError(f"num_tiles must be >= 1, got {num_tiles}")
    if programming_time_s < 0 or compute_time_s < 0:
        raise SimulationError("tile job times must be >= 0")
    if num_cores == 1:
        return num_tiles * programming_time_s + num_tiles * compute_time_s
    if compute_time_s >= programming_time_s:
        return programming_time_s + num_tiles * compute_time_s
    full_core_cycles = (num_tiles + 1) // 2
    tail_compute_s = compute_time_s if num_tiles % 2 == 0 else 0.0
    return full_core_cycles * (programming_time_s + compute_time_s) + tail_compute_s


def compute_layer_latency(
    layer_name: str,
    tiling: GemmTiling,
    config: ChipConfig,
    dram_bits: float = 0.0,
    dram_bandwidth_bits_per_s: float | None = None,
) -> LayerLatency:
    """Latency of one crossbar layer for a full batch.

    Parameters
    ----------
    layer_name:
        Name used in reports.
    tiling:
        The layer's mapping onto the array.
    config:
        Chip configuration (batch size, clock, core count, PCM timing).
    dram_bits:
        Total DRAM traffic of the layer for the batch; used for the
        bandwidth bound.
    dram_bandwidth_bits_per_s:
        Peak DRAM bandwidth; defaults to the technology's HBM bandwidth.
    """
    if dram_bits < 0:
        raise SimulationError(f"dram_bits must be >= 0, got {dram_bits}")

    batch = config.batch_size
    compute_cycles = float(tiling.compute_cycles(batch))
    compute_time = compute_cycles * config.mac_cycle_time_s
    tiles = tiling.num_tiles
    programming_pass_time, compute_per_tile_time = tile_job_times(
        config, tiling.compute_cycles_per_tile(batch)
    )
    programming_time_total = tiles * programming_pass_time
    latency = layer_makespan_s(
        tiles, programming_pass_time, compute_per_tile_time, config.num_cores
    )

    bandwidth = (
        dram_bandwidth_bits_per_s
        if dram_bandwidth_bits_per_s is not None
        else config.technology.dram_bandwidth_bits_per_s
    )
    if bandwidth <= 0:
        raise SimulationError(f"DRAM bandwidth must be > 0, got {bandwidth}")
    dram_time = dram_bits / bandwidth
    dram_bound = dram_time > latency
    latency = max(latency, dram_time)

    return LayerLatency(
        layer_name=layer_name,
        compute_cycles=compute_cycles,
        programming_passes=tiles,
        programming_time_s=programming_time_total,
        compute_time_s=compute_time,
        latency_s=latency,
        dram_bound=dram_bound,
    )
