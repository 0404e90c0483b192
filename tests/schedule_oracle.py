"""Event-driven tile schedule: the test oracle of the chip clock.

``repro.scalesim.latency.layer_makespan_s`` gives the makespan of identical
tiles in closed form.  This module plays any list of ``(P, C)`` tile jobs
(programming time, compute time) phase by phase instead, so tests can check
the closed form, and see what a schedule across layer boundaries would add.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

#: One tile's timeline: ``(core, program_start, program_end, compute_start, compute_end)``.
Phase = Tuple[int, float, float, float, float]


def timeline(jobs: Sequence[Tuple[float, float]], num_cores: int) -> List[Phase]:
    """Play ``jobs`` in order on ``num_cores`` (1 or 2) cores.

    Job ``i`` runs on core ``i % num_cores``.  A core is programmed as soon as
    it finished its previous compute, and computes run one at a time in job
    order, each once its core is programmed.
    """
    assert num_cores in (1, 2) and jobs
    core_free_at = [0.0] * num_cores
    previous_compute_end = 0.0
    phases = []
    for index, (programming_s, compute_s) in enumerate(jobs):
        core = index % num_cores
        program_start = core_free_at[core]
        program_end = program_start + programming_s
        compute_start = max(program_end, previous_compute_end)
        previous_compute_end = core_free_at[core] = compute_start + compute_s
        phases.append((core, program_start, program_end, compute_start, previous_compute_end))
    return phases


def makespan_s(jobs: Sequence[Tuple[float, float]], num_cores: int) -> float:
    """End of the last phase of :func:`timeline`."""
    return max(max(phase[2], phase[4]) for phase in timeline(jobs, num_cores))
