"""Ring-resonator optical DAC (ODAC) model.

The transmitter encodes each input-vector element onto the row E-field with a
ring-resonator-based optical DAC: segmented ring drivers select one of 2^B
amplitude levels directly in the optical domain at 10+ GS/s with roughly
168 fJ per sample of driver energy and 0.72 mW of thermal tuning per ring
(paper Section III-B.1, [15]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import loss_db_to_transmission
from repro.errors import DeviceModelError


@dataclass(frozen=True)
class RingResonatorODAC:
    """A ring-resonator optical DAC producing amplitude (PAM) levels.

    Parameters
    ----------
    bits:
        DAC resolution; the paper assumes 6-bit operation.
    sample_rate_hz:
        Modulation rate (samples per second).
    driver_energy_per_sample_j:
        Electrical driver energy per produced sample (J).
    thermal_tuning_power_w:
        Static thermal tuning power to keep the ring on resonance (W).
    oma_penalty_db:
        Effective optical loss due to the finite optical modulation amplitude
        (the highest code does not reach full transmission).
    area_mm2:
        Driver + ring area (mm²).
    """

    bits: int = 6
    sample_rate_hz: float = 10e9
    driver_energy_per_sample_j: float = 168e-15
    thermal_tuning_power_w: float = 0.72e-3
    oma_penalty_db: float = 4.0
    area_mm2: float = 0.0012

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise DeviceModelError(f"bits must be >= 1, got {self.bits}")
        if self.sample_rate_hz <= 0:
            raise DeviceModelError(
                f"sample_rate_hz must be > 0, got {self.sample_rate_hz}"
            )
        if self.driver_energy_per_sample_j < 0 or self.thermal_tuning_power_w < 0:
            raise DeviceModelError("driver energy and tuning power must be >= 0")
        if self.oma_penalty_db < 0:
            raise DeviceModelError(
                f"oma_penalty_db must be >= 0, got {self.oma_penalty_db}"
            )

    # ------------------------------------------------------------------ codes
    @property
    def num_levels(self) -> int:
        """Number of distinct output amplitude levels (2**bits)."""
        return 1 << self.bits

    @property
    def max_field_transmission(self) -> float:
        """Field transmission of the full-scale code, limited by the OMA penalty."""
        return float(np.sqrt(loss_db_to_transmission(self.oma_penalty_db)))

    def code_to_field(self, code: int) -> float:
        """E-field transmission produced by an integer DAC code."""
        if not 0 <= code < self.num_levels:
            raise DeviceModelError(
                f"code must be in [0, {self.num_levels - 1}], got {code}"
            )
        return self.max_field_transmission * code / (self.num_levels - 1)

    def value_to_code(self, value: float) -> int:
        """Quantise a normalised value in [0, 1] to the nearest DAC code."""
        if not 0.0 <= value <= 1.0:
            raise DeviceModelError(f"value must be in [0, 1], got {value}")
        return int(round(value * (self.num_levels - 1)))

    def modulate(
        self, values: np.ndarray, out: Optional[np.ndarray] = None, in_range: bool = False
    ) -> np.ndarray:
        """Quantise-and-modulate an array of normalised values to E-field amplitudes.

        Each value's integer drive code is ``round(clip(v, 0, 1)·L)`` with
        ``L = num_levels - 1``, and its field is ``T·code/L`` with ``T`` the
        :attr:`max_field_transmission`.  Given ``out``, the codes themselves
        are written there (in its dtype) and returned instead of the fields;
        ``values`` then serves as the float64 scratch space and is
        overwritten when it is already a float64 array.

        Values outside [0, 1] (NaN and infinities included) raise
        :class:`~repro.errors.DeviceModelError`.  ``in_range=True`` is for
        values in [0, 1] by construction: each a finite non-negative input
        divided by a finite scale no smaller than it, which a correctly
        rounded divide keeps at most 1.  The range check and the clip, which
        would leave such values unchanged, are then skipped, so the codes
        are ``round(v·L)`` in two passes.
        """
        values = np.asarray(values, dtype=float)
        levels = self.num_levels - 1
        scratch = None if out is None else values
        if in_range:
            codes = np.multiply(values, levels, out=scratch)
        else:
            # Written as "not inside" so a NaN extreme (every comparison
            # false) fails the check too.
            if values.size and not (values.min() >= -1e-12 and values.max() <= 1.0 + 1e-12):
                raise DeviceModelError(
                    f"values must be in [0, 1], got range [{values.min()}, {values.max()}]"
                )
            codes = np.clip(values, 0.0, 1.0, out=scratch)
            codes *= levels
        if out is not None:
            # Rounded in float64; the integer codes are exact in any float dtype.
            return np.rint(codes, out=out)
        np.round(codes, out=codes)
        codes *= self.max_field_transmission
        codes /= levels
        return codes

    # ------------------------------------------------------------------ costs
    @property
    def dynamic_power_w(self) -> float:
        """Driver dynamic power at the configured sample rate (W)."""
        return self.driver_energy_per_sample_j * self.sample_rate_hz

    @property
    def total_power_w(self) -> float:
        """Driver dynamic power plus thermal tuning power (W)."""
        return self.dynamic_power_w + self.thermal_tuning_power_w

    def energy_for_samples(self, num_samples: float) -> float:
        """Driver energy to emit ``num_samples`` samples (J), excluding tuning."""
        if num_samples < 0:
            raise DeviceModelError(f"num_samples must be >= 0, got {num_samples}")
        return self.driver_energy_per_sample_j * num_samples
