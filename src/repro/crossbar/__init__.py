"""Functional model of the coherent PCM crossbar (Eq. (1) of the paper).

While :mod:`repro.scalesim` and :mod:`repro.perf` model *how fast and at what
cost* the crossbar runs, this package models *what it computes*: the
E-field-domain multiply-and-accumulate of an N×M array of PCM unit cells,
including

* input/output directional-coupler coefficient design,
* INT6 quantisation of weights (PCM levels) and inputs (ODAC codes),
* coherent detection at the column outputs,
* optional noise and phase-error injection plus thermal-phase-shifter
  calibration, and
* a signed-arithmetic wrapper (differential weight/input mapping).

How the dual-core chip hides programming time behind compute is modelled by
the chip clock, :func:`repro.scalesim.latency.layer_makespan_s`.

The analytical array model is validated against a device-by-device
composition of couplers, PCM cells and phase shifters in
:class:`~repro.crossbar.unit_cell.UnitCell` (see the unit tests).
"""

from repro.crossbar.array import (
    CrossbarArray,
    design_input_coupling,
    design_output_coupling,
)
from repro.crossbar.calibration import PhaseCalibrator
from repro.crossbar.noise import CrossbarNoiseModel
from repro.crossbar.signed import SignedCrossbarEngine
from repro.crossbar.unit_cell import UnitCell

__all__ = [
    "CrossbarArray",
    "CrossbarNoiseModel",
    "PhaseCalibrator",
    "SignedCrossbarEngine",
    "UnitCell",
    "design_input_coupling",
    "design_output_coupling",
]
