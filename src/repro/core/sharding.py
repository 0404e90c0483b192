"""Per-core accounting of tiled crossbar GEMMs.

The paper's headline architectural feature (Section IV) is the multi-core
crossbar chip: a dual-core design keeps two copies of the photonic datapath so
one core computes while the other is reprogrammed.
:class:`~repro.crossbar.dual_core.DualCoreCrossbar` models that schedule
analytically; this module makes the *functional* datapath follow the same
schedule.  :class:`ShardedExecutionEngine` accounts the physical tiles of a
programmed tile plan (see :mod:`repro.core.accelerator`) to the chip's
``num_cores`` crossbar cores with the same static round-robin assignment the
analytical scheduler uses — tile ``i`` computes on core ``i % num_cores`` —
and runs the plan's layer engine over the input.

Reads
-----
The layer's :class:`~repro.crossbar.signed.SignedCrossbarEngine` reads every
tile itself: one stacked read per layer without field noise, one per physical
tile with it.  The per-core accounting is per physical tile either way, from the
programming time each tile record of the plan carries.  The concurrency the
cores model is between photonic cores of the simulated chip, so it shows up
in the modelled busy times, not in host threads.

Cross-checking against the analytical schedule
----------------------------------------------
:meth:`ShardedExecutionEngine.programming_jobs` converts a tile plan into the
:class:`~repro.crossbar.dual_core.ProgrammingJob` sequence the analytical
scheduler consumes, and :meth:`ShardedExecutionEngine.schedule_summary` runs
:meth:`DualCoreCrossbar.summarize` over it, so tests (and
``functional_statistics()`` consumers) can verify that the functional per-core
tile assignment and busy times agree with the event-driven schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.crossbar.dual_core import DualCoreCrossbar, ProgrammingJob
from repro.errors import SimulationError


@dataclass(frozen=True)
class ShardReport:
    """Per-core accounting of one sharded GEMM dispatch.

    ``core_tile_counts[c]`` is the number of tiles executed on core ``c`` and
    ``core_busy_time_s[c]`` the modelled busy time of that core (per-tile PCM
    programming time plus ``num_vectors`` MAC cycles of compute per tile),
    matching the per-core program+compute totals of the analytical
    :class:`~repro.crossbar.dual_core.DualCoreCrossbar` schedule.
    """

    core_tile_counts: Tuple[int, ...]
    core_busy_time_s: Tuple[float, ...]


class ShardedExecutionEngine:
    """Runs a tile plan's GEMM and accounts it to ``num_cores`` crossbar cores.

    Parameters
    ----------
    num_cores:
        Number of physical crossbar cores on the chip.  Tiles are assigned
        round-robin (tile ``i`` → core ``i % num_cores``), matching the
        core-alternation semantics of
        :class:`~repro.crossbar.dual_core.DualCoreCrossbar`.
    mac_clock_hz:
        Optical MAC rate, used for the per-tile compute-time estimate
        (one streamed vector per MAC cycle).
    """

    def __init__(self, num_cores: int, mac_clock_hz: float) -> None:
        if num_cores < 1:
            raise SimulationError(f"num_cores must be >= 1, got {num_cores}")
        if mac_clock_hz <= 0:
            raise SimulationError(f"mac_clock_hz must be > 0, got {mac_clock_hz}")
        self.num_cores = int(num_cores)
        self.mac_clock_hz = float(mac_clock_hz)

    # ------------------------------------------------------------------ schedule
    def core_assignment(self, num_tiles: int) -> List[int]:
        """Static round-robin core of each tile: tile ``i`` → ``i % num_cores``."""
        if num_tiles < 0:
            raise SimulationError(f"num_tiles must be >= 0, got {num_tiles}")
        return [index % self.num_cores for index in range(num_tiles)]

    def programming_jobs(self, plan, num_vectors: int) -> List[ProgrammingJob]:
        """Analytical :class:`ProgrammingJob` sequence for ``plan``.

        Each tile contributes one job: its PCM programming time and
        ``num_vectors`` MAC cycles of compute.  Feeding the result to
        :class:`~repro.crossbar.dual_core.DualCoreCrossbar` reproduces the
        core assignment used by :meth:`execute` (job ``i`` computes on core
        ``i % 2`` in the dual-core schedule).
        """
        if num_vectors < 1:
            raise SimulationError(f"num_vectors must be >= 1, got {num_vectors}")
        compute_time_s = num_vectors / self.mac_clock_hz
        return [
            ProgrammingJob(
                name=f"tile{index}",
                programming_time_s=tile.programming_time_s,
                compute_time_s=compute_time_s,
            )
            for index, tile in enumerate(plan.tiles)
        ]

    def schedule_summary(self, plan, num_vectors: int) -> Dict[str, float]:
        """:meth:`DualCoreCrossbar.summarize` over the plan's tile jobs."""
        return DualCoreCrossbar.summarize(self.programming_jobs(plan, num_vectors))

    def _report(self, plan, num_vectors: int) -> ShardReport:
        """Per-core tile counts and busy-time estimates for one dispatch."""
        counts = [0] * self.num_cores
        busy = [0.0] * self.num_cores
        compute_time_s = num_vectors / self.mac_clock_hz
        for index, tile in enumerate(plan.tiles):
            core = index % self.num_cores
            counts[core] += 1
            busy[core] += tile.programming_time_s + compute_time_s
        return ShardReport(tuple(counts), tuple(busy))

    # ------------------------------------------------------------------ execute
    def execute(self, plan, inputs: np.ndarray):
        """Read ``inputs`` through ``plan``'s layer engine and account the tiles.

        Parameters
        ----------
        plan:
            A programmed tile plan (``repro.core.accelerator._TilePlan``): an
            object with the layer ``engine`` and the physical ``tiles``, each
            with its ``programming_time_s``.
        inputs:
            Input matrix of shape (num_vectors, k).

        Returns
        -------
        (numpy.ndarray, ShardReport)
            The (num_vectors, n) result and the per-core accounting of this
            dispatch.
        """
        return plan.engine.matmul(inputs), self._report(plan, inputs.shape[0])


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
