"""Per-core accounting of tiled crossbar GEMMs.

The paper's headline architectural feature (Section IV) is the multi-core
crossbar chip: a dual-core design keeps two copies of the photonic datapath so
one core computes while the other is reprogrammed.
:class:`~repro.crossbar.dual_core.DualCoreCrossbar` models that schedule
analytically; this module makes the *functional* datapath follow the same
schedule.  :class:`ShardedExecutionEngine` accounts the physical tiles of a
programmed layer (see :mod:`repro.core.accelerator`) to the chip's
``num_cores`` crossbar cores with the same static round-robin assignment the
analytical scheduler uses — tile ``i`` computes on core ``i % num_cores`` —
and runs the plan's layer engine over the input.

Reads
-----
The layer's :class:`~repro.crossbar.signed.SignedCrossbarEngine` reads every
tile itself: one stacked read per layer without field noise, one per physical
tile with it.  The per-core accounting is per physical tile either way.  The
concurrency the cores model is between photonic cores of the simulated chip,
so it shows up in the modelled busy times, not in host threads.

Cross-checking against the analytical schedule
----------------------------------------------
Each physical tile of the plan's tiling is accounted with the
:func:`~repro.scalesim.schedule.tile_job_times` of the dispatch — the times of
every job in the :class:`~repro.crossbar.dual_core.ProgrammingJob` list that
:func:`~repro.scalesim.schedule.tile_jobs` builds for
:func:`~repro.scalesim.schedule.network_tile_jobs` and
:meth:`~repro.core.accelerator.OpticalCrossbarAccelerator.programming_jobs`
from the layer's :class:`~repro.scalesim.tiling.GemmTiling` — so the
functional per-core tile counts and busy times are, by construction, the
per-core totals of the event-driven schedule of those jobs
(:func:`compute_entries_per_core`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.config.chip import ChipConfig
from repro.errors import SimulationError
from repro.scalesim.schedule import tile_job_times
from repro.scalesim.tiling import GemmTiling


@dataclass(frozen=True)
class ShardReport:
    """Per-core accounting of one sharded GEMM dispatch.

    ``core_tile_counts[c]`` is the number of tiles executed on core ``c`` and
    ``core_busy_time_s[c]`` the modelled busy time of that core (the
    programming plus compute time of its tile jobs), matching the per-core
    program+compute totals of the analytical
    :class:`~repro.crossbar.dual_core.DualCoreCrossbar` schedule.
    """

    core_tile_counts: Tuple[int, ...]
    core_busy_time_s: Tuple[float, ...]


class ShardedExecutionEngine:
    """Runs a tile plan's GEMM and accounts it to the chip's crossbar cores.

    Parameters
    ----------
    config:
        The chip.  Its ``num_cores`` physical crossbar cores take the tiles
        round-robin (tile ``i`` → core ``i % num_cores``), matching the
        core-alternation semantics of
        :class:`~repro.crossbar.dual_core.DualCoreCrossbar`; its programming
        time and MAC rate set each tile's
        :func:`~repro.scalesim.schedule.tile_jobs` busy time.
    """

    def __init__(self, config: ChipConfig) -> None:
        self.config = config
        self.num_cores = config.num_cores

    # ------------------------------------------------------------------ schedule
    def core_assignment(self, num_tiles: int) -> List[int]:
        """Static round-robin core of each tile: tile ``i`` → ``i % num_cores``."""
        if num_tiles < 0:
            raise SimulationError(f"num_tiles must be >= 0, got {num_tiles}")
        return [index % self.num_cores for index in range(num_tiles)]

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


def compute_entries_per_core(
    entries: Sequence, num_cores: int
) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    """Fold a :meth:`DualCoreCrossbar.schedule` timeline into per-core totals.

    Returns ``(tile_counts, busy_time_s)`` per core, where busy time is the
    sum of each core's program and compute phase durations — directly
    comparable with the ``per_core_*`` entries of
    :meth:`repro.core.accelerator.OpticalCrossbarAccelerator.functional_statistics`.
    """
    counts = [0] * num_cores
    busy = [0.0] * num_cores
    for entry in entries:
        if entry.core >= num_cores:
            raise SimulationError(
                f"schedule entry on core {entry.core} exceeds num_cores={num_cores}"
            )
        busy[entry.core] += entry.duration_s
        if entry.kind == "compute":
            counts[entry.core] += 1
    return tuple(counts), tuple(busy)
