"""Phase-change-material (PCM) cell model.

Each crossbar unit cell contains a µm-long waveguide section covered with PCM
(e.g. GST).  Electrically programming the PCM between its amorphous and
crystalline states — or intermediate partial-crystallisation levels — changes
the optical absorption and therefore the E-field transmission of the cell.
Because the material only absorbs, weights are restricted to [0, 1] and are
quantised to 64 levels (6 bits) in the paper.

Programming costs ~100 pJ and ~100 ns per cell and is non-volatile, so the
stored weights consume no static power (paper Sections III-A.1 and IV).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


import numpy as np

from repro.errors import ProgrammingError


class PCMState(enum.Enum):
    """Discrete extremes of the PCM phase configuration."""

    AMORPHOUS = "amorphous"
    CRYSTALLINE = "crystalline"
    INTERMEDIATE = "intermediate"


@dataclass
class PCMCell:
    """A single programmable PCM absorption cell.

    The cell stores a *field transmission* ``w`` in
    ``[min_transmission, max_transmission]`` quantised to ``levels`` values.
    The amorphous state is the most transparent (w = max) and the fully
    crystalline state the most absorbing (w = min).

    Parameters
    ----------
    levels:
        Number of programmable levels (paper: 64, i.e. 6 bits).
    min_transmission, max_transmission:
        E-field transmission range achievable by programming.
    programming_energy_j:
        Energy of one programming operation (J).
    programming_time_s:
        Duration of one programming operation (s).
    insertion_loss_db:
        Residual insertion loss of the PCM section even in the amorphous
        state (dB) — accounted in the optical link budget, not in ``w``.
    """

    levels: int = 64
    min_transmission: float = 0.0
    max_transmission: float = 1.0
    programming_energy_j: float = 100e-12
    programming_time_s: float = 100e-9
    insertion_loss_db: float = 0.1
    _level: int = field(default=0, repr=False)
    _write_count: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ProgrammingError(f"levels must be >= 2, got {self.levels}")
        if not 0.0 <= self.min_transmission < self.max_transmission <= 1.0:
            raise ProgrammingError(
                "transmission range must satisfy 0 <= min < max <= 1, got "
                f"[{self.min_transmission}, {self.max_transmission}]"
            )
        if self.programming_energy_j < 0 or self.programming_time_s < 0:
            raise ProgrammingError("programming energy and time must be >= 0")

    # ------------------------------------------------------------------ state
    @property
    def level(self) -> int:
        """Currently programmed level index, 0 .. levels - 1."""
        return self._level

    @property
    def transmission(self) -> float:
        """E-field transmission corresponding to the current level."""
        return self.level_to_transmission(self._level)

    @property
    def write_count(self) -> int:
        """Number of programming operations performed on this cell."""
        return self._write_count

    @property
    def state(self) -> PCMState:
        """Discrete phase classification of the current level."""
        if self._level == self.levels - 1:
            return PCMState.AMORPHOUS
        if self._level == 0:
            return PCMState.CRYSTALLINE
        return PCMState.INTERMEDIATE

    # ------------------------------------------------------------------ mapping
    def level_to_transmission(self, level: int) -> float:
        """Map a level index to its E-field transmission."""
        if not 0 <= level < self.levels:
            raise ProgrammingError(
                f"level must be in [0, {self.levels - 1}], got {level}"
            )
        span = self.max_transmission - self.min_transmission
        return self.min_transmission + span * level / (self.levels - 1)

    def transmission_to_level(self, transmission: float) -> int:
        """Quantise a target E-field transmission to the nearest level index."""
        if not self.min_transmission <= transmission <= self.max_transmission:
            raise ProgrammingError(
                f"target transmission {transmission} outside programmable range "
                f"[{self.min_transmission}, {self.max_transmission}]"
            )
        span = self.max_transmission - self.min_transmission
        fraction = (transmission - self.min_transmission) / span
        return int(round(fraction * (self.levels - 1)))

    # ------------------------------------------------------------------ actions
    def program(self, target_transmission: float) -> dict:
        """Program the cell to the level nearest ``target_transmission``.

        Returns a dictionary with the energy and time spent and the realised
        (quantised) transmission, so callers can account programming costs.
        """
        level = self.transmission_to_level(target_transmission)
        return self.program_level(level)

    def program_level(self, level: int) -> dict:
        """Program the cell to an explicit level index."""
        realised = self.level_to_transmission(level)
        self._level = level
        self._write_count += 1
        return {
            "level": level,
            "transmission": realised,
            "energy_j": self.programming_energy_j,
            "time_s": self.programming_time_s,
        }

    def apply(self, field_in: complex) -> complex:
        """Apply the programmed absorption to an incident E-field amplitude."""
        return field_in * self.transmission

    def quantization_error(self, target_transmission: float) -> float:
        """Absolute error between a target transmission and its quantised value."""
        level = self.transmission_to_level(target_transmission)
        return abs(self.level_to_transmission(level) - target_transmission)


def check_weight_range(low: float, high: float) -> None:
    """Raise :class:`ProgrammingError` unless [low, high] lies in [0, 1] (to 1e-12).

    A NaN bound (a NaN weight) is out of range too.
    """
    if not (low >= -1e-12 and high <= 1.0 + 1e-12):
        raise ProgrammingError(
            "PCM weights must be in [0, 1]; normalise/shift the matrix first "
            f"(got range [{low}, {high}])"
        )


def quantize_weight_codes(
    weights: np.ndarray, levels: int = 64, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Nearest PCM level index (0 .. ``levels - 1``) of each normalised weight.

    ``weights`` must already be normalised to [0, 1] (the PCM can only
    absorb).  Values outside [0, 1] raise :class:`ProgrammingError`.  The
    indices are returned as integer-valued floats, in ``out`` when given
    (which may be ``weights`` itself).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.size:
        check_weight_range(weights.min(), weights.max())
    codes = np.clip(weights, 0.0, 1.0, out=out)
    codes *= levels - 1
    return np.round(codes, out=codes)


def levels_to_transmission(
    level_indices: np.ndarray,
    levels: int = 64,
    min_transmission: float = 0.0,
    max_transmission: float = 1.0,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """E-field transmission of each PCM level index (elementwise).

    ``t = span·c/(L-1) + t_min``, in three passes in that order, written into
    ``out`` when given (which may be ``level_indices`` itself).  Adding
    ``t_min = 0`` turns a ``-0`` code's transmission into ``+0``, so no step
    is skipped here; :func:`~repro.crossbar.array.tile_scales`, which only
    sums transmissions, makes them with one divide for ``t_min = 0``,
    ``t_max = 1``.
    """
    span = max_transmission - min_transmission
    if span <= 0:
        raise ProgrammingError("max_transmission must exceed min_transmission")
    transmission = np.multiply(span, np.asarray(level_indices, dtype=float), out=out)
    transmission /= levels - 1
    transmission += min_transmission
    return transmission


def quantize_weight_matrix(
    weights: np.ndarray,
    levels: int = 64,
    min_transmission: float = 0.0,
    max_transmission: float = 1.0,
) -> np.ndarray:
    """Quantise a weight matrix to the PCM's programmable levels.

    ``weights`` must already be normalised to [0, 1] (the PCM can only
    absorb).  Values outside [0, 1] raise :class:`ProgrammingError`.
    """
    return levels_to_transmission(
        quantize_weight_codes(weights, levels), levels, min_transmission, max_transmission
    )
