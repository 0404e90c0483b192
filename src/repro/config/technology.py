"""Technology constants of the 45 nm monolithic silicon-photonic platform.

Every scalar that the paper quotes for a device (loss, energy per operation,
static power, area, programming time, ...) lives here as a field of
:class:`TechnologyConfig` with the paper's value as the default.  Device and
performance models take a ``TechnologyConfig`` instead of hard-coding numbers,
which is what makes the ablation benchmarks (HBM vs PCIe DRAM, loss budgets,
precision) one-line configuration changes.

Paper sources for the defaults
------------------------------
* grating coupler 2 dB, waveguide 3 dB/cm ........................ Sec. III-A / [10], [12]
* splitter tree 0.8 dB ........................................... [13]
* MMI crossing 1.8 dB/junction (as printed; see note below) ...... [14]
* ODAC OMA penalty 4 dB, ODAC driver 168 fJ @ 10 GS/s,
  ring thermal tuning 0.72 mW ................................... [15]
* laser wall-plug efficiency 15 % ................................ Sec. III-A
* TIA 2.25 mW .................................................... [17]
* ADC 25 mW, 0.0475 mm^2 @ 10 GS/s ............................... [18]
* SerDes 100 fJ/bit, clocking 200 fJ + 0.005 mm^2 per row/column . [15]
* SRAM 50 fJ/bit, 0.45 mm^2/MB ................................... [20]
* HBM DRAM 3.9 pJ/bit, conventional DRAM 15 pJ/bit ............... [21]
* PCM programming ~100 pJ, ~100 ns ............................... [7], [8]

Note on the MMI crossing loss
-----------------------------
The paper prints "1.8 dB/junction" citing [14], but [14] reports an
*ultra-low-loss* crossing (~0.02 dB) and a literal 1.8 dB/junction would add
hundreds of dB of loss to a 128-column row, contradicting the paper's own
optimum at 128–256 rows.  We therefore default the *effective* per-crossing
loss to 0.018 dB (the cited device) while keeping the printed value available
as :data:`MMI_CROSSING_LOSS_DB_AS_PRINTED` for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.errors import ConfigurationError

#: The MMI crossing loss exactly as printed in the paper (dB / junction).
MMI_CROSSING_LOSS_DB_AS_PRINTED = 1.8

#: The per-junction loss of the crossing device cited by the paper ([14]).
MMI_CROSSING_LOSS_DB_CITED_DEVICE = 0.018

#: SRAM area density exactly as printed in the paper ("0.45 mm^2 per 1 MB").
SRAM_AREA_MM2_PER_MB_AS_PRINTED = 0.45

#: SRAM area density that makes the paper's own Section VII numbers
#: self-consistent (121 mm^2 total, "area mainly dominated by the SRAM
#: blocks"): 0.45 mm^2 per *Mb*, i.e. 3.6 mm^2 per MB.  With the printed
#: per-MB figure the 28.55 MB of SRAM would occupy only ~13 mm^2 of a
#: 121 mm^2 chip and could not dominate its area.  We default to the
#: self-consistent value and keep the printed one for sensitivity studies.
SRAM_AREA_MM2_PER_MB_SELF_CONSISTENT = 3.6


@dataclass(frozen=True)
class TechnologyConfig:
    """Device-level constants of the modelled silicon-photonic process.

    All energies are in joules, powers in watts, areas in mm², times in
    seconds, losses in dB, and lengths in metres unless stated otherwise.
    """

    # -- optical losses (dB) -------------------------------------------------
    grating_coupler_loss_db: float = 2.0
    splitter_tree_loss_db: float = 0.8
    mmi_crossing_loss_db: float = MMI_CROSSING_LOSS_DB_CITED_DEVICE
    waveguide_loss_db_per_cm: float = 3.0
    odac_oma_penalty_db: float = 4.0
    directional_coupler_excess_loss_db: float = 0.02
    phase_shifter_insertion_loss_db: float = 0.05
    pcm_insertion_loss_db: float = 0.1

    # -- laser ---------------------------------------------------------------
    laser_wall_plug_efficiency: float = 0.15
    laser_wavelength_m: float = 1.31e-6
    #: Minimum average optical power required at each balanced photodiode to
    #: resolve the target precision at the MAC clock rate (W).  -30 dBm is the
    #: sensitivity class of the 45 nm coherent receiver in [17].
    receiver_sensitivity_w: float = 1e-6
    #: Smallest laser power that can be requested, regardless of array size (W).
    laser_min_output_power_w: float = 1e-3
    #: Largest practical on-package laser output power (W).
    laser_max_output_power_w: float = 10.0

    # -- PCM cell ------------------------------------------------------------
    pcm_programming_energy_j: float = 100e-12
    pcm_programming_time_s: float = 100e-9
    #: How many PCM cells can be (re)programmed concurrently:
    #: "array" — the whole array is rewritten in one ``pcm_programming_time_s``
    #: (the paper's working assumption: a 100 ns programming pass is "1000x
    #: slower than the 10 GHz MAC" and can be hidden by the dual core);
    #: "row" — one row at a time; "cell" — strictly sequential cell writes.
    pcm_program_parallelism: str = "array"
    pcm_levels: int = 64
    pcm_min_transmission: float = 0.0
    pcm_max_transmission: float = 1.0
    pcm_endurance_cycles: float = 1e12

    # -- unit-cell geometry --------------------------------------------------
    #: Pitch of one crossbar unit cell (m).  Sets waveguide propagation length
    #: and the photonic footprint of the array.
    unit_cell_pitch_m: float = 30e-6
    #: Average thermal phase-shifter trimming power per unit cell (W).  The
    #: per-cell shifters only trim small fabrication-induced phase errors, so
    #: the average heater power is a small fraction of a full-pi drive.
    phase_shifter_power_w: float = 0.01e-3
    #: Area of one thermal phase shifter (mm^2).
    phase_shifter_area_mm2: float = 0.0001

    # -- transmitter (RAMZI / ODAC) ------------------------------------------
    odac_driver_energy_per_sample_j: float = 168e-15
    odac_driver_area_mm2: float = 0.0012
    ring_thermal_tuning_power_w: float = 0.72e-3
    rings_per_transmitter: int = 2

    # -- receiver -------------------------------------------------------------
    tia_power_w: float = 2.25e-3
    tia_area_mm2: float = 0.0005
    adc_power_w: float = 25e-3
    adc_area_mm2: float = 0.0475
    adc_sample_rate_hz: float = 10e9
    photodiode_responsivity_a_per_w: float = 1.0

    # -- SerDes and clocking --------------------------------------------------
    serdes_energy_per_bit_j: float = 100e-15
    serdes_area_mm2: float = 0.002
    clock_energy_per_cycle_j: float = 200e-15
    clock_area_per_lane_mm2: float = 0.005
    backend_clock_hz: float = 1e9

    # -- digital logic --------------------------------------------------------
    accumulator_energy_per_op_j: float = 50e-15
    accumulator_area_per_lane_mm2: float = 0.001
    activation_energy_per_op_j: float = 30e-15
    activation_area_mm2: float = 0.05
    control_logic_power_w: float = 50e-3
    control_logic_area_mm2: float = 1.0

    # -- memory ---------------------------------------------------------------
    sram_energy_per_bit_j: float = 50e-15
    sram_area_mm2_per_mb: float = SRAM_AREA_MM2_PER_MB_SELF_CONSISTENT
    sram_leakage_w_per_mb: float = 1e-3
    dram_energy_per_bit_j: float = 3.9e-12
    dram_pcie_energy_per_bit_j: float = 15e-12
    # Co-packaged HBM bandwidth (~1 TB/s, i.e. a couple of HBM2E stacks as in
    # contemporary AI accelerators).
    dram_bandwidth_bits_per_s: float = 8.0e12

    # -- precision -------------------------------------------------------------
    weight_bits: int = 6
    activation_bits: int = 6
    output_bits: int = 6
    accumulator_bits: int = 24

    def __post_init__(self) -> None:
        self._validate()

    # -- derived quantities ----------------------------------------------------
    @property
    def weight_levels(self) -> int:
        """Number of distinct programmable weight levels (2**weight_bits)."""
        return 1 << self.weight_bits

    @property
    def unit_cell_area_mm2(self) -> float:
        """Photonic footprint of a single crossbar unit cell (mm²)."""
        pitch_mm = self.unit_cell_pitch_m * 1e3
        return pitch_mm * pitch_mm

    @property
    def odac_driver_power_w_at(self) -> float:
        """ODAC driver dynamic power at the reference 10 GS/s rate (W)."""
        return self.odac_driver_energy_per_sample_j * 10e9

    def programming_pass_time_s(self, rows: int, columns: int) -> float:
        """Time to reprogram every cell of one ``rows`` × ``columns`` array (s).

        One ``pcm_programming_time_s`` write for the whole array, per row or
        per cell, as :attr:`pcm_program_parallelism` says.
        """
        write_time = self.pcm_programming_time_s
        if self.pcm_program_parallelism == "array":
            return write_time
        if self.pcm_program_parallelism == "row":
            return rows * write_time
        return rows * columns * write_time

    def with_updates(self, **overrides: float) -> "TechnologyConfig":
        """Return a copy of this configuration with ``overrides`` applied.

        Unknown field names raise :class:`ConfigurationError`.
        """
        valid = {f.name for f in fields(self)}
        unknown = set(overrides) - valid
        if unknown:
            raise ConfigurationError(
                f"unknown TechnologyConfig fields: {sorted(unknown)}"
            )
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(overrides)
        return TechnologyConfig(**current)

    # -- validation -------------------------------------------------------------
    def _validate(self) -> None:
        positive_fields = [
            "laser_wall_plug_efficiency",
            "laser_wavelength_m",
            "receiver_sensitivity_w",
            "pcm_programming_energy_j",
            "pcm_programming_time_s",
            "unit_cell_pitch_m",
            "adc_sample_rate_hz",
            "backend_clock_hz",
            "sram_area_mm2_per_mb",
            "dram_bandwidth_bits_per_s",
        ]
        for name in positive_fields:
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")

        non_negative_fields = [
            "grating_coupler_loss_db",
            "splitter_tree_loss_db",
            "mmi_crossing_loss_db",
            "waveguide_loss_db_per_cm",
            "odac_oma_penalty_db",
            "directional_coupler_excess_loss_db",
            "phase_shifter_insertion_loss_db",
            "pcm_insertion_loss_db",
            "odac_driver_energy_per_sample_j",
            "ring_thermal_tuning_power_w",
            "tia_power_w",
            "adc_power_w",
            "serdes_energy_per_bit_j",
            "clock_energy_per_cycle_j",
            "sram_energy_per_bit_j",
            "dram_energy_per_bit_j",
            "dram_pcie_energy_per_bit_j",
        ]
        for name in non_negative_fields:
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")

        if not 0.0 < self.laser_wall_plug_efficiency <= 1.0:
            raise ConfigurationError(
                "laser_wall_plug_efficiency must be in (0, 1], got "
                f"{self.laser_wall_plug_efficiency}"
            )
        if self.pcm_levels < 2:
            raise ConfigurationError(
                f"pcm_levels must be >= 2, got {self.pcm_levels}"
            )
        if not 0.0 <= self.pcm_min_transmission < self.pcm_max_transmission <= 1.0:
            raise ConfigurationError(
                "PCM transmission range must satisfy 0 <= min < max <= 1, got "
                f"[{self.pcm_min_transmission}, {self.pcm_max_transmission}]"
            )
        for name in ("weight_bits", "activation_bits", "output_bits", "accumulator_bits"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {value}")
        if self.accumulator_bits < self.output_bits:
            raise ConfigurationError(
                "accumulator_bits must be at least output_bits "
                f"({self.accumulator_bits} < {self.output_bits})"
            )
        if self.laser_min_output_power_w > self.laser_max_output_power_w:
            raise ConfigurationError(
                "laser_min_output_power_w must not exceed laser_max_output_power_w"
            )
        if self.rings_per_transmitter < 1:
            raise ConfigurationError(
                f"rings_per_transmitter must be >= 1, got {self.rings_per_transmitter}"
            )
        if self.pcm_program_parallelism not in ("array", "row", "cell"):
            raise ConfigurationError(
                "pcm_program_parallelism must be 'array', 'row' or 'cell', got "
                f"{self.pcm_program_parallelism!r}"
            )


# A module-level default instance used when callers do not care about
# customising the technology.  TechnologyConfig is frozen, so sharing is safe.
DEFAULT_TECHNOLOGY = TechnologyConfig()
