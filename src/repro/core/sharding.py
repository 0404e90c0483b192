"""Multi-core sharded execution of tiled crossbar GEMMs.

The paper's headline architectural feature (Section IV) is the multi-core
crossbar chip: a dual-core design keeps two copies of the photonic datapath so
one core computes while the other is reprogrammed.
:class:`~repro.crossbar.dual_core.DualCoreCrossbar` models that schedule
analytically; this module makes the *functional* datapath follow the same
schedule.  :class:`ShardedExecutionEngine` accounts the physical tiles of a
programmed tile plan (see :mod:`repro.core.accelerator`) to the chip's
``num_cores`` crossbar cores with the same static round-robin assignment the
analytical scheduler uses — tile ``i`` computes on core ``i % num_cores`` —
and executes the plan's reads, optionally on a thread pool.

Reads
-----
A noiseless plan has one read per row tile: the layer's
:class:`~repro.crossbar.signed.SignedCrossbarEngine` reads every column tile
that shares that slice of the input, trimmed to the real rows and columns.
A noisy plan reads each physical tile on its own engine, which zero-pads its
input slice to the array's rows, so every tile keeps its own noise draws.
The per-core accounting is per physical tile either way, from the
programming time each tile record of the plan carries.

Determinism
-----------
Result assembly is decoupled from read completion order: every read's partial
product is collected into a slot indexed by its position in the plan, and the
final accumulation into the output matrix walks the reads in plan order on
the calling thread, so each output element sums its row-tile partials in row
order.  Together with per-tile noise generators (each noisy physical tile's
:class:`~repro.crossbar.signed.SignedCrossbarEngine` owns an independent
``SeedSequence``-derived generator), this makes sharded execution bitwise
identical to serial execution — with or without a noise model — regardless of
worker count or completion order.

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

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.concurrency import make_lock, thread_shared
from repro.crossbar.dual_core import DualCoreCrossbar, ProgrammingJob
from repro.errors import SimulationError

#: Worker-pool specification: ``"serial"`` (inline execution on the calling
#: thread), ``"thread"`` (one worker thread per crossbar core), or a positive
#: integer worker count.
WorkerSpec = Union[str, int]


def resolve_worker_count(workers: WorkerSpec, num_cores: int) -> int:
    """Normalise a :data:`WorkerSpec` into a thread count (0 = inline serial).

    ``"serial"`` maps to 0 (no pool, run on the calling thread), ``"thread"``
    maps to one worker per crossbar core, and a positive integer is used as
    given.  Anything else raises :class:`SimulationError`.
    """
    if workers == "serial":
        return 0
    if workers == "thread":
        return max(int(num_cores), 1)
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise SimulationError(
            f"workers must be 'serial', 'thread' or a positive integer, got {workers!r}"
        )
    if workers < 1:
        raise SimulationError(f"worker count must be >= 1, got {workers}")
    return workers


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


@thread_shared
class ShardedExecutionEngine:
    """Executes a tile plan's GEMMs across ``num_cores`` crossbar cores.

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
    workers:
        Worker pool specification; see :data:`WorkerSpec` and
        :func:`resolve_worker_count`.
    """

    def __init__(
        self,
        num_cores: int,
        mac_clock_hz: float,
        workers: WorkerSpec = "serial",
    ) -> None:
        if num_cores < 1:
            raise SimulationError(f"num_cores must be >= 1, got {num_cores}")
        if mac_clock_hz <= 0:
            raise SimulationError(f"mac_clock_hz must be > 0, got {mac_clock_hz}")
        self.num_cores = int(num_cores)
        self.mac_clock_hz = float(mac_clock_hz)
        self.workers = workers
        self._worker_count = resolve_worker_count(workers, self.num_cores)
        self._pool: "ThreadPoolExecutor | None" = None
        self._pool_lock = make_lock("ShardedExecutionEngine._pool_lock")

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """Lazily create the worker pool, reused across dispatches.

        Guarded by a lock so two concurrent first dispatches cannot each
        build a pool and leak one of them.
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._worker_count,
                    thread_name_prefix="crossbar-shard",
                )
            return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; a later dispatch re-creates it)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

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
        """Run ``inputs`` through every read of ``plan`` and assemble the result.

        Parameters
        ----------
        plan:
            A programmed tile plan (``repro.core.accelerator._TilePlan``): an
            object with ``n`` (output width), the physical ``tiles`` (each
            with its ``programming_time_s``) and the ``reads`` to execute,
            where each read carries a programmed engine, the ``row_tile`` of
            it to read and its ``k_start``/``k_end``/``n_start``/``n_end``
            spans.
        inputs:
            Input matrix of shape (num_vectors, k).

        Returns
        -------
        (numpy.ndarray, ShardReport)
            The (num_vectors, plan.n) result and the per-core accounting of
            this dispatch.  Partial products are accumulated in plan order on
            the calling thread, so the result is bitwise independent of the
            worker pool and of read completion order.
        """
        num_vectors = inputs.shape[0]
        reads = plan.reads

        def run_read(index: int) -> np.ndarray:
            read = reads[index]
            return read.engine.matmul(inputs[:, read.k_start : read.k_end], read.row_tile)

        if self._worker_count == 0 or len(reads) <= 1:
            partials = [run_read(index) for index in range(len(reads))]
        else:
            partials = list(self._ensure_pool().map(run_read, range(len(reads))))

        result = np.zeros((num_vectors, plan.n))
        for read, partial in zip(reads, partials):
            result[:, read.n_start : read.n_end] += partial
        return result, self._report(plan, num_vectors)


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
