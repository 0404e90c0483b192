"""Per-core accounting of tiled crossbar GEMMs.

The paper's headline architectural feature (Section IV) is the multi-core
crossbar chip: a dual-core design keeps two copies of the photonic datapath so
one core computes while the other is reprogrammed.  The chip clock
(:func:`~repro.scalesim.latency.layer_makespan_s`) turns that schedule into
time; this module accounts the *functional* datapath's tiles to the same
cores.  :class:`ShardedExecutionEngine` charges the physical tiles of a
programmed layer (see :mod:`repro.core.accelerator`) to the chip's
``num_cores`` crossbar cores with the static round-robin the clock assumes —
tile ``i`` computes on core ``i % num_cores`` — and runs the plan's layer
engine over the input.

Reads
-----
The layer's :class:`~repro.crossbar.signed.SignedCrossbarEngine` reads every
tile itself: one stacked read per layer without field noise, one per physical
tile with it.  The per-core accounting is per physical tile either way.  The
concurrency the cores model is between photonic cores of the simulated chip,
so it shows up in the modelled busy times, not in host threads.

Busy times
----------
Each physical tile of the plan's tiling is charged the
:func:`~repro.scalesim.schedule.tile_job_times` of the dispatch — one
programming pass plus one MAC cycle per streamed vector, the same job times
the chip clock reads — so a core's busy time is the sum of its tiles'
program and compute phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.config.chip import ChipConfig
from repro.scalesim.schedule import tile_job_times
from repro.scalesim.tiling import GemmTiling


@dataclass(frozen=True)
class ShardReport:
    """Per-core accounting of one sharded GEMM dispatch.

    ``core_tile_counts[c]`` is the number of tiles executed on core ``c`` and
    ``core_busy_time_s[c]`` the modelled busy time of that core (the
    programming plus compute time of its tiles).
    """

    core_tile_counts: Tuple[int, ...]
    core_busy_time_s: Tuple[float, ...]


class ShardedExecutionEngine:
    """Runs a tile plan's GEMM and accounts it to the chip's crossbar cores.

    Parameters
    ----------
    config:
        The chip.  Its ``num_cores`` physical crossbar cores take the tiles
        round-robin (tile ``i`` → core ``i % num_cores``), the core
        alternation of the chip clock; its programming time and MAC rate set
        each tile's :func:`~repro.scalesim.schedule.tile_job_times` busy time.
    """

    def __init__(self, config: ChipConfig) -> None:
        self.config = config
        self.num_cores = config.num_cores

    def _report(self, tiling: GemmTiling, num_vectors: int) -> ShardReport:
        """Per-core tile counts and busy times of one dispatch's tile jobs."""
        programming_time_s, compute_time_s = tile_job_times(self.config, num_vectors)
        counts = [0] * self.num_cores
        busy = [0.0] * self.num_cores
        for index in range(tiling.num_tiles):
            core = index % self.num_cores
            counts[core] += 1
            busy[core] += programming_time_s + compute_time_s
        return ShardReport(tuple(counts), tuple(busy))

    # ------------------------------------------------------------------ execute
    def execute(self, plan, inputs: np.ndarray):
        """Read ``inputs`` through ``plan``'s layer engine and account the tiles.

        Parameters
        ----------
        plan:
            A programmed layer
            (:class:`~repro.core.accelerator.ProgrammedLayer`): an object with
            the layer ``engine`` and its physical-tile ``tiling`` (a
            :class:`~repro.scalesim.tiling.GemmTiling`).
        inputs:
            Input matrix of shape (num_vectors, k).

        Returns
        -------
        (numpy.ndarray, ShardReport)
            The (num_vectors, n) result and the per-core accounting of this
            dispatch.
        """
        return plan.engine.matmul(inputs), self._report(plan.tiling, inputs.shape[0])

