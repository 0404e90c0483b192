"""The paper's primary contribution: the accelerator model and its optimizer.

* :class:`~repro.core.accelerator.OpticalCrossbarAccelerator` — the
  user-facing façade tying the dataflow simulator, power/area models and
  functional crossbar together for one design point; its
  :meth:`~repro.core.accelerator.OpticalCrossbarAccelerator.layer` makes the
  :class:`~repro.core.accelerator.ProgrammedLayer` handles its functional
  path reads.
* :class:`~repro.core.simulation.SimulationFramework` — the two-step flow of
  Fig. 5 (runtime specs → high-level metrics) with caching for sweeps.
* :mod:`repro.core.sweep` — design-space sweep utilities.
* :class:`~repro.core.optimizer.DesignOptimizer` — the Section VI-B
  optimization flow (minimum viable batch → maximum SRAM under the area cap →
  best array size).
* :mod:`repro.core.sharding` — per-core accounting of the functional
  datapath's tiled GEMMs (round-robin core assignment, dual-core schedule).
* :mod:`repro.core.comparison` — comparison against GPU baselines (Table I).
* :mod:`repro.core.report` — plain-text/dict report formatting.
"""

from repro.core.accelerator import OpticalCrossbarAccelerator, ProgrammedLayer
from repro.core.comparison import ComparisonRow, compare_to_gpu
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.core.optimizer import DesignOptimizer, OptimizationResult
from repro.core.pareto import ParetoPoint, frontier_rows, pareto_frontier
from repro.core.report import format_comparison_table, format_metrics_report
from repro.core.sharding import ShardedExecutionEngine, ShardReport
from repro.core.simulation import SimulationFramework
from repro.core.sweep import SweepResult, sweep_array_sizes, sweep_batch_sizes, sweep_input_sram

__all__ = [
    "ComparisonRow",
    "DesignOptimizer",
    "FunctionalInferenceEngine",
    "OpticalCrossbarAccelerator",
    "generate_random_weights",
    "OptimizationResult",
    "ParetoPoint",
    "ProgrammedLayer",
    "ShardReport",
    "ShardedExecutionEngine",
    "SimulationFramework",
    "SweepResult",
    "compare_to_gpu",
    "format_comparison_table",
    "format_metrics_report",
    "frontier_rows",
    "pareto_frontier",
    "sweep_array_sizes",
    "sweep_batch_sizes",
    "sweep_input_sram",
]
