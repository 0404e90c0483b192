"""Dual-core programming-latency hiding (Section IV of the paper).

PCM programming is ~1000× slower than a MAC cycle, so a single-core crossbar
stalls whenever it is reprogrammed.  The paper's dual-core design keeps two
copies of the photonic datapath: while core A computes on the current weight
tile, core B is programmed with the next one, and the roles swap.

:class:`DualCoreCrossbar` is a small event-driven schedule simulator over a
sequence of :class:`ProgrammingJob` items (one per weight tile).  It returns
the timeline for single- and dual-core execution so the latency-hiding effect
can be measured directly and compared with the analytical formula used by
:mod:`repro.scalesim.latency`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import SimulationError


@dataclass(frozen=True)
class ProgrammingJob:
    """One weight tile to process: program the array, then stream vectors."""

    name: str
    programming_time_s: float
    compute_time_s: float

    def __post_init__(self) -> None:
        if self.programming_time_s < 0 or self.compute_time_s < 0:
            raise SimulationError("job times must be >= 0")


@dataclass(frozen=True)
class ScheduleEntry:
    """One scheduled phase of a job on a particular core."""

    job_name: str
    core: int
    kind: str  # "program" or "compute"
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        """Duration of the phase (s)."""
        return self.end_s - self.start_s


class DualCoreCrossbar:
    """Schedules a sequence of tile jobs on one or two crossbar cores."""

    def __init__(self, num_cores: int = 2) -> None:
        if num_cores not in (1, 2):
            raise SimulationError(f"num_cores must be 1 or 2, got {num_cores}")
        self.num_cores = num_cores

    # ------------------------------------------------------------------ schedule
    def schedule(self, jobs: Sequence[ProgrammingJob]) -> List[ScheduleEntry]:
        """Build the execution timeline for ``jobs`` in submission order."""
        if not jobs:
            raise SimulationError("at least one job is required")
        entries: List[ScheduleEntry] = []

        if self.num_cores == 1:
            time = 0.0
            for job in jobs:
                entries.append(
                    ScheduleEntry(job.name, 0, "program", time, time + job.programming_time_s)
                )
                time += job.programming_time_s
                entries.append(
                    ScheduleEntry(job.name, 0, "compute", time, time + job.compute_time_s)
                )
                time += job.compute_time_s
            return entries

        # Dual core: job i computes on core i % 2; programming of job i can
        # start as soon as that core finished computing job i - 2, and compute
        # starts when both the programming is done and the *other* core has
        # finished computing the previous job (outputs are consumed in order).
        core_free_at = [0.0, 0.0]
        previous_compute_end = 0.0
        for index, job in enumerate(jobs):
            core = index % 2
            program_start = core_free_at[core]
            program_end = program_start + job.programming_time_s
            compute_start = max(program_end, previous_compute_end)
            compute_end = compute_start + job.compute_time_s
            entries.append(ScheduleEntry(job.name, core, "program", program_start, program_end))
            entries.append(ScheduleEntry(job.name, core, "compute", compute_start, compute_end))
            core_free_at[core] = compute_end
            previous_compute_end = compute_end
        return entries

    def makespan_s(self, jobs: Sequence[ProgrammingJob]) -> float:
        """Total time to finish all jobs (s)."""
        return _makespan_s(self.schedule(jobs))

    # ------------------------------------------------------------------ report
    def utilisation(self, jobs: Sequence[ProgrammingJob]) -> float:
        """Fraction of the makespan during which at least one core computes."""
        return _utilisation(self.schedule(jobs))

    @staticmethod
    def speedup(jobs: Sequence[ProgrammingJob]) -> float:
        """Dual-core speed-up over single-core for the same job sequence."""
        return _speedup(DualCoreCrossbar(1).makespan_s(jobs), DualCoreCrossbar(2).makespan_s(jobs))

    @staticmethod
    def summarize(jobs: Sequence[ProgrammingJob]) -> Dict[str, float]:
        """Makespan and utilisation for both core counts plus the speed-up.

        Each core count's schedule is built once.
        """
        single = DualCoreCrossbar(1).schedule(jobs)
        dual = DualCoreCrossbar(2).schedule(jobs)
        return {
            "single_core_makespan_s": _makespan_s(single),
            "dual_core_makespan_s": _makespan_s(dual),
            "single_core_utilisation": _utilisation(single),
            "dual_core_utilisation": _utilisation(dual),
            "speedup": _speedup(_makespan_s(single), _makespan_s(dual)),
        }


def _makespan_s(entries: Sequence[ScheduleEntry]) -> float:
    """End of the last phase of a schedule (s)."""
    return max(entry.end_s for entry in entries)


def _utilisation(entries: Sequence[ScheduleEntry]) -> float:
    """Fraction of a schedule's makespan during which at least one core computes."""
    makespan = _makespan_s(entries)
    compute_time = sum(e.duration_s for e in entries if e.kind == "compute")
    if makespan <= 0:
        return 0.0
    return min(1.0, compute_time / makespan)


def _speedup(single_makespan_s: float, dual_makespan_s: float) -> float:
    """Single-core over dual-core makespan."""
    if dual_makespan_s <= 0:
        raise SimulationError("dual-core makespan must be > 0")
    return single_makespan_s / dual_makespan_s
