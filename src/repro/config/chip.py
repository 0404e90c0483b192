"""Architectural configuration of an optical crossbar accelerator chip.

:class:`ChipConfig` captures exactly the knobs that the paper's design-space
exploration sweeps (Section VI): crossbar array dimensions, SRAM block sizes,
batch size, number of crossbar cores (single vs. dual), and the MAC clock
rate.  A :class:`ChipConfig` together with a
:class:`~repro.config.technology.TechnologyConfig` fully defines a design
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.constants import mb_to_bits
from repro.errors import ConfigurationError
from repro.config.technology import DEFAULT_TECHNOLOGY, TechnologyConfig


@dataclass(frozen=True)
class SramConfig:
    """Capacities of the four on-chip SRAM blocks, in mebibytes.

    The paper's default sizing is 26.3 MB for the input buffer and 0.75 MB
    for each of the filter, output and accumulator buffers.
    """

    input_mb: float = 26.3
    filter_mb: float = 0.75
    output_mb: float = 0.75
    accumulator_mb: float = 0.75

    def __post_init__(self) -> None:
        for name in ("input_mb", "filter_mb", "output_mb", "accumulator_mb"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"SRAM size {name} must be > 0 MB, got {value}")

    @property
    def total_mb(self) -> float:
        """Total on-chip SRAM capacity (MB)."""
        return self.input_mb + self.filter_mb + self.output_mb + self.accumulator_mb

    @property
    def input_bits(self) -> float:
        """Input SRAM capacity in bits."""
        return mb_to_bits(self.input_mb)

    @property
    def filter_bits(self) -> float:
        """Filter SRAM capacity in bits."""
        return mb_to_bits(self.filter_mb)

    @property
    def output_bits(self) -> float:
        """Output SRAM capacity in bits."""
        return mb_to_bits(self.output_mb)

    @property
    def accumulator_bits(self) -> float:
        """Accumulator SRAM capacity in bits."""
        return mb_to_bits(self.accumulator_mb)

    def scaled_input(self, input_mb: float) -> "SramConfig":
        """Return a copy with a different input-SRAM capacity."""
        return replace(self, input_mb=input_mb)


@dataclass(frozen=True)
class ChipConfig:
    """A single point in the accelerator design space.

    Parameters
    ----------
    rows, columns:
        Crossbar array dimensions N × M.  Rows receive input-vector elements,
        columns produce dot-product outputs.
    num_cores:
        Number of photonic crossbar cores.  ``2`` enables the paper's
        dual-core scheme in which one core computes while the other is being
        programmed.
    batch_size:
        Inference batch size processed per programming pass.
    mac_clock_hz:
        Optical MAC rate; the paper holds this at 10 GHz.
    sram:
        On-chip SRAM block sizes.
    technology:
        Device-level constants of the platform.
    dram_kind:
        ``"hbm"`` for co-packaged HBM (3.9 pJ/bit) or ``"pcie"`` for DRAM
        reached through a PCIe switch (15 pJ/bit), the alternative the paper
        argues against.
    """

    rows: int = 32
    columns: int = 32
    num_cores: int = 2
    batch_size: int = 32
    mac_clock_hz: float = 10e9
    sram: SramConfig = field(default_factory=SramConfig)
    technology: TechnologyConfig = field(default_factory=lambda: DEFAULT_TECHNOLOGY)
    dram_kind: str = "hbm"

    VALID_DRAM_KINDS = ("hbm", "pcie")

    def __post_init__(self) -> None:
        if self.rows < 1 or self.columns < 1:
            raise ConfigurationError(
                f"array dimensions must be >= 1, got {self.rows}x{self.columns}"
            )
        if self.num_cores not in (1, 2):
            raise ConfigurationError(
                f"num_cores must be 1 (single-core) or 2 (dual-core), got {self.num_cores}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.mac_clock_hz <= 0:
            raise ConfigurationError(f"mac_clock_hz must be > 0, got {self.mac_clock_hz}")
        if self.dram_kind not in self.VALID_DRAM_KINDS:
            raise ConfigurationError(
                f"dram_kind must be one of {self.VALID_DRAM_KINDS}, got {self.dram_kind!r}"
            )
        if not isinstance(self.rows, int) or not isinstance(self.columns, int):
            raise ConfigurationError("rows and columns must be integers")

    # ------------------------------------------------------------------ derived
    @property
    def array_size(self) -> int:
        """Number of unit cells per core (rows × columns)."""
        return self.rows * self.columns

    @property
    def macs_per_cycle(self) -> int:
        """MAC operations completed by one core in one MAC clock cycle."""
        return self.array_size

    @property
    def is_dual_core(self) -> bool:
        """True when the dual-core programming-hiding scheme is enabled."""
        return self.num_cores == 2

    @property
    def mac_cycle_time_s(self) -> float:
        """Duration of one MAC clock cycle (s)."""
        return 1.0 / self.mac_clock_hz

    @property
    def serialization_ratio(self) -> int:
        """SerDes serialization ratio between the MAC clock and the backend clock."""
        ratio = self.mac_clock_hz / self.technology.backend_clock_hz
        return max(1, int(round(ratio)))

    @property
    def dram_energy_per_bit_j(self) -> float:
        """DRAM access energy implied by :attr:`dram_kind` (J/bit)."""
        if self.dram_kind == "hbm":
            return self.technology.dram_energy_per_bit_j
        return self.technology.dram_pcie_energy_per_bit_j

    @property
    def programming_time_per_array_s(self) -> float:
        """Time to reprogram every PCM cell of one core (s).

        The paper treats one reprogramming pass as a ~100 ns event ("1000×
        slower than the 10 GHz MAC"), i.e. all cells are written concurrently
        by per-cell drivers; this is the default ("array" parallelism).  The
        "row" and "cell" settings model driver-sharing schemes where writes
        are serialised row-by-row or cell-by-cell (see
        :meth:`TechnologyConfig.programming_pass_time_s`).
        """
        return self.technology.programming_pass_time_s(self.rows, self.columns)

    @property
    def programming_cycles_per_array(self) -> float:
        """Array reprogramming time expressed in MAC clock cycles."""
        return self.programming_time_per_array_s * self.mac_clock_hz

    @property
    def peak_macs_per_second(self) -> float:
        """Peak MAC throughput of the chip (only compute cores count)."""
        return self.array_size * self.mac_clock_hz

    @property
    def peak_tops(self) -> float:
        """Peak throughput in tera-operations per second (2 ops per MAC)."""
        return 2.0 * self.peak_macs_per_second / 1e12

    # ------------------------------------------------------------------ utils
    def with_updates(self, **overrides) -> "ChipConfig":
        """Return a copy of this configuration with ``overrides`` applied."""
        valid = {f.name for f in fields(self)}
        unknown = set(overrides) - valid
        if unknown:
            raise ConfigurationError(f"unknown ChipConfig fields: {sorted(unknown)}")
        return replace(self, **overrides)

    def describe(self) -> str:
        """One-line human-readable summary of the design point."""
        cores = "dual-core" if self.is_dual_core else "single-core"
        return (
            f"{self.rows}x{self.columns} {cores} crossbar @ "
            f"{self.mac_clock_hz / 1e9:.0f} GHz, batch {self.batch_size}, "
            f"SRAM {self.sram.total_mb:.2f} MB ({self.dram_kind.upper()} DRAM)"
        )
