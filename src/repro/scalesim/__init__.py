"""Cycle-accurate dataflow simulator for the crossbar accelerator.

This package is the from-scratch equivalent of the modified SCALE-Sim the
paper uses for step (1) of its framework (Fig. 5): given a CNN workload and a
chip configuration it produces the *runtime specification* —

* MAC compute cycles,
* PCM programming passes and cycles,
* SRAM traffic (input / filter / output / accumulator blocks),
* DRAM traffic as a function of the SRAM capacities and batch size,
* per-layer and per-network latency for the single- and dual-core schemes,
  from one chip clock (:func:`~repro.scalesim.latency.layer_makespan_s`).

The weight-stationary crossbar dataflow is modelled analytically per tile,
which yields exactly the same cycle/traffic counts a per-cycle simulation of
this dataflow would produce, at a fraction of the runtime.
"""

from repro.scalesim.latency import LayerLatency, compute_layer_latency, layer_makespan_s
from repro.scalesim.runtime import LayerRuntime, NetworkRuntime
from repro.scalesim.schedule import tile_job_times
from repro.scalesim.simulator import CrossbarDataflowSimulator
from repro.scalesim.tiling import GemmTiling
from repro.scalesim.traffic import LayerTraffic, compute_layer_traffic

__all__ = [
    "CrossbarDataflowSimulator",
    "GemmTiling",
    "LayerLatency",
    "LayerRuntime",
    "LayerTraffic",
    "NetworkRuntime",
    "compute_layer_latency",
    "compute_layer_traffic",
    "layer_makespan_s",
    "tile_job_times",
]
