"""Analytical functional model of the N×M coherent crossbar array.

The array implements Eq. (1) of the paper:

    E_c[j] = (E_laser / (N * sqrt(M))) * sum_i |v_in[i]| * w[i, j]

The input splitter tree delivers ``E_laser / sqrt(N)`` to each row, the
column-dependent input couplers ``k_in[j]`` spread each row's field equally
over the M columns, the PCM cell multiplies by the programmed weight, and the
row-dependent output couplers ``k_out[i]`` combine the column contributions
so that every unit cell's product is represented with equal strength —
costing an additional field factor of ``1/sqrt(N)``, which is the price of
single-wavelength operation.

``CrossbarArray`` works with field *magnitudes* (the calibrated, phase-matched
array); phase errors and their calibration are modelled separately in
:mod:`repro.crossbar.noise` and :mod:`repro.crossbar.calibration`.

Exact integer-code read
-----------------------
Both quantisers on the read path are affine in integer codes.  The ODAC
drives row ``i`` with the field ``T·c[i]/L_a``, where ``c[i]`` is an integer
in ``0..L_a``, ``L_a = 2**activation_bits - 1`` and ``T`` is the ODAC's
full-scale transmission (1 inside the array).  A PCM cell at level ``k``
transmits ``t_min + (t_max - t_min)·k/L_w`` with ``L_w = pcm_levels - 1``.
:meth:`CrossbarArray.program_weights` keeps the integer level codes ``k``
(the quantised transmissions follow from them), so a read
(:meth:`CrossbarArray.matmul`) is one GEMM of integer codes, ``c @ k``.
Every partial sum is an integer no larger than ``L_a·L_w·rows``: the GEMM
runs in float32 while that bound is below 2**24 and in float64 above it, and
is exact either way.  The dtype is chosen, and the float64 bound checked,
when the weights are programmed.  No result depends on BLAS, the platform or
how the vectors are batched.

The TIA gain is calibrated per tile so that the largest dot product the tile
can produce maps to the ADC's full scale.  With ``t_min = 0`` the ADC code of
column ``j`` is therefore

    round_half_even(L_o · (c @ k)[j] / (L_a · S))

where ``L_o = 2**output_bits - 1`` and ``S`` is the tile's largest integer
column code sum (the whole physical tile, padding included).  The quotient is
a correctly rounded float64 division of two exact integers, which lands on
``m + 0.5`` only when the exact value does, so ``np.round`` applies the
round-half-even rule to the exact value.  This is the datapath's one tie
rule.  The output value is ``code / L_o · adc_full_scale``, with the float
full scale that programming sets.

With a non-zero ``t_min`` (no preset sets one) the affine term ``t_min·Σc``
is added elementwise in float64 to the exact integer sums and the code is
rounded from that float value.  This is deterministic, but a tie is no longer
decided on the exact value.  A noise model with field impairments perturbs
the analog column fields the same way before the ADC.

Many tiles are programmed at once (:func:`program_tiles`): a layer's PCM
tiles are quantised in one pass, and each tile's ADC full scale and ``L_a·S``
come from one column-sum reduction over the stack.  An array can also be made
from codes programmed that way (:meth:`CrossbarArray.from_codes`), with its
own full scale and denominator per column.  The signed engine reads a row
tile's ``[K+ | K-]`` codes of every column tile as one such array.  A read
may also carry per-vector input scales, which the digital front end divides
out just before the ODAC.  The exact read walks the batch one block of
vectors at a time (:func:`vector_blocks`), so its temporaries stay
cache-sized at any batch.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.config.technology import TechnologyConfig
from repro.errors import ProgrammingError, SimulationError
from repro.photonics.pcm import levels_to_transmission, quantize_weight_codes
from repro.photonics.ring import RingResonatorODAC

#: Elements of one block of input vectors in the exact read (see
#: :func:`vector_blocks`).
_BLOCK_ELEMENTS = 1 << 17


def vector_blocks(num_vectors: int, rows: int):
    """Consecutive slices of at most ``_BLOCK_ELEMENTS // rows`` vectors.

    The exact read and the signed engine's per-vector scales work one block
    of vectors at a time, so their temporaries stay small and are reused
    instead of being allocated (and page-faulted) at batch size.
    """
    step = max(1, _BLOCK_ELEMENTS // rows)
    return [slice(start, start + step) for start in range(0, num_vectors, step)]


def design_input_coupling(columns: int) -> np.ndarray:
    """Power cross-coupling ratios ``k_in[j]`` for the input (row) couplers.

    Column ``j`` (0-indexed, left to right) must tap off ``1/(M - j)`` of the
    *remaining* row power so that every column receives the same ``1/M`` share
    of the row input:  ``k_in[0] = 1/M``, ..., ``k_in[M-1] = 1``.
    """
    if columns < 1:
        raise SimulationError(f"columns must be >= 1, got {columns}")
    return 1.0 / np.arange(columns, 0, -1, dtype=float)


def design_output_coupling(rows: int) -> np.ndarray:
    """Power cross-coupling ratios ``k_out[i]`` for the output (column) couplers.

    Row ``i``'s product joins a column waveguide that already carries the
    combined products of rows 0..i-1.  For every row's contribution to reach
    the detector with equal weight ``1/sqrt(N)`` (in field), row ``i`` must
    inject with ``k_out[i] = 1/(i + 1) / (remaining transmission)``; solving
    the recursion gives ``k_out[i] = 1/(i + 1)`` when counted from the top of
    the column.
    """
    if rows < 1:
        raise SimulationError(f"rows must be >= 1, got {rows}")
    return 1.0 / np.arange(1, rows + 1, dtype=float)


def _gemm_dtype(technology: TechnologyConfig, rows: int) -> type:
    """Smallest float dtype in which a ``rows``-deep code GEMM is exact."""
    output_max = (1 << technology.output_bits) - 1
    bound = ((1 << technology.activation_bits) - 1) * (technology.pcm_levels - 1) * rows
    # The ADC quotient L_o·sum / (L_a·S) decides ties exactly only while
    # 2·L_o·bound stays below float64's 2**53 integer range.
    if 2 * output_max * bound >= 2**53:
        raise ProgrammingError(
            f"a {rows}-row array at these precisions exceeds float64's exact range"
        )
    return np.float32 if bound < 2**24 else np.float64


def programming_pass_time_s(technology: TechnologyConfig, rows: int, columns: int) -> float:
    """Wall-clock time of one programming pass under the configured parallelism."""
    write = technology.pcm_programming_time_s
    parallelism = technology.pcm_program_parallelism
    if parallelism == "array":
        return write
    if parallelism == "row":
        return rows * write
    return rows * columns * write


def program_tiles(weights: np.ndarray, technology: TechnologyConfig):
    """Quantise a stack of PCM tiles in one pass.

    ``weights`` has shape (R, rows, P, cols): ``R·P`` tiles of rows × cols,
    with entries in [0, 1]; it is overwritten (the pass works in place).
    Returns the integer level codes in the GEMM dtype (same shape) and, per
    tile, shape (R, P), the ADC full scale (the largest column sum of the
    quantised transmissions) and the exact-code denominator ``L_a·S``.  Both
    are computed over the whole tile, and each tile's values are bitwise
    those of programming it alone.
    """
    levels = technology.pcm_levels
    codes = quantize_weight_codes(weights, levels, out=weights)
    # An all-dark tile (S = 0) reads exact zeros; any denominator will do.
    code_scale = ((1 << technology.activation_bits) - 1) * np.maximum(
        codes.sum(axis=1).max(axis=2), 1.0
    )
    gemm_codes = codes.astype(_gemm_dtype(technology, weights.shape[1]))
    transmissions = levels_to_transmission(
        codes,
        levels,
        technology.pcm_min_transmission,
        technology.pcm_max_transmission,
        out=codes,
    )
    # numpy adds a tile's columns row after row, but a one-column tile
    # pairwise; sum each tile here the way it is summed alone.
    if weights.shape[3] == 1:
        column_sums = np.ascontiguousarray(np.moveaxis(transmissions, 1, 3)).sum(axis=3)
    else:
        column_sums = transmissions.sum(axis=1)
    full_scale = np.maximum(column_sums.max(axis=2), 1e-9)
    return gemm_codes, full_scale, code_scale


class CrossbarArray:
    """Functional N×M coherent PCM crossbar core.

    Parameters
    ----------
    rows, columns:
        Array dimensions (N × M).
    technology:
        Supplies the PCM level count, ODAC resolution/OMA and ADC resolution.
    laser_field:
        Magnitude of the laser E-field entering the splitter tree (arbitrary
        units; results are normalised before being returned).
    noise_model:
        Optional :class:`~repro.crossbar.noise.CrossbarNoiseModel` applied to
        the column outputs.
    rng:
        Random generator used by the noise model.
    """

    def __init__(
        self,
        rows: int,
        columns: int,
        technology: Optional[TechnologyConfig] = None,
        laser_field: float = 1.0,
        noise_model=None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if rows < 1 or columns < 1:
            raise SimulationError(f"array dimensions must be >= 1, got {rows}x{columns}")
        if laser_field <= 0:
            raise SimulationError(f"laser_field must be > 0, got {laser_field}")
        self.rows = rows
        self.columns = columns
        self.technology = technology or TechnologyConfig()
        self._laser_field = float(laser_field)
        self._field_scale: Optional[float] = None
        self.noise_model = noise_model
        self.rng = rng if rng is not None else np.random.default_rng(0)

        self.input_coupling = design_input_coupling(columns)
        self.output_coupling = design_output_coupling(rows)
        self.odac = RingResonatorODAC(
            bits=self.technology.activation_bits,
            oma_penalty_db=0.0,  # The OMA penalty is carried by the link budget.
        )
        self._activation_max = self.odac.num_levels - 1
        self._output_max = (1 << self.technology.output_bits) - 1

        self._programmed = False
        self._programming_events = 0
        self._programming_energy_j = 0.0
        self._programming_time_s = 0.0
        self._adc_full_scale = float(rows)
        # Read state, set by program_weights (or from_codes): the integer PCM
        # level codes in the GEMM dtype, and per column the ADC full scale and
        # the exact-code denominator L_a·S.
        self._codes: Optional[np.ndarray] = None
        self._column_full_scale: Optional[np.ndarray] = None
        self._column_code_scale: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ laser
    @property
    def laser_field(self) -> float:
        """Magnitude of the laser E-field entering the splitter tree."""
        return self._laser_field

    @laser_field.setter
    def laser_field(self, value: float) -> None:
        if value <= 0:
            raise SimulationError(f"laser_field must be > 0, got {value}")
        self._laser_field = float(value)
        self._field_scale = None

    @property
    def field_scale(self) -> float:
        """Architectural field scale ``E_laser / (N * sqrt(M))`` of Eq. (1).

        Cached; invalidated when :attr:`laser_field` is reassigned.
        """
        if self._field_scale is None:
            self._field_scale = self._laser_field / (self.rows * math.sqrt(self.columns))
        return self._field_scale

    # ------------------------------------------------------------------ weights
    @property
    def weights(self) -> np.ndarray:
        """The currently programmed (quantised) weight matrix, shape (N, M)."""
        if self._codes is None:
            return np.zeros((self.rows, self.columns))
        technology = self.technology
        return levels_to_transmission(
            self._codes.astype(np.float64),
            technology.pcm_levels,
            technology.pcm_min_transmission,
            technology.pcm_max_transmission,
        )

    @property
    def is_programmed(self) -> bool:
        """True once :meth:`program_weights` has been called."""
        return self._programmed

    @property
    def is_deterministic(self) -> bool:
        """True when a read draws no noise: no noise model, or no field impairments."""
        return self.noise_model is None or self.noise_model.is_field_deterministic

    @property
    def adc_full_scale(self) -> float:
        """Dot-product value mapped to the ADC's full-scale code.

        For an array made :meth:`from_codes`, the largest of its columns' values.
        """
        return self._adc_full_scale

    @property
    def programming_events(self) -> int:
        """Number of full-array programming passes performed so far."""
        return self._programming_events

    @property
    def programming_energy_j(self) -> float:
        """Total PCM programming energy spent so far (J)."""
        return self._programming_energy_j

    @property
    def programming_time_s(self) -> float:
        """Total PCM programming time spent so far (s)."""
        return self._programming_time_s

    def program_weights(self, weights: np.ndarray) -> np.ndarray:
        """Quantise ``weights`` to the PCM levels and store them in the array.

        ``weights`` must have shape (rows, columns) with entries in [0, 1]
        (the PCM can only absorb).  Returns the quantised matrix actually
        stored; the integer level codes are kept for the exact read.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.rows, self.columns):
            raise ProgrammingError(
                f"weight matrix must have shape ({self.rows}, {self.columns}), "
                f"got {weights.shape}"
            )
        # The receiver's programmable TIA gain is recalibrated per weight tile
        # so that the ADC full scale matches the largest dot product the tile
        # can produce (all inputs at full scale), instead of the worst-case
        # value N.  This keeps the 6-bit ADC's quantisation step proportional
        # to the tile's actual signal range.
        codes, full_scale, code_scale = program_tiles(
            weights.reshape(1, self.rows, 1, self.columns).copy(), self.technology
        )
        self._set_codes(codes.reshape(self.rows, self.columns), full_scale[0, 0], code_scale[0, 0])
        self._programming_events += 1
        cells = self.rows * self.columns
        self._programming_energy_j += cells * self.technology.pcm_programming_energy_j
        self._programming_time_s += programming_pass_time_s(
            self.technology, self.rows, self.columns
        )
        return self.weights

    @classmethod
    def from_codes(
        cls,
        codes: np.ndarray,
        full_scale,
        code_scale,
        technology: Optional[TechnologyConfig] = None,
        noise_model=None,
        rng: Optional[np.random.Generator] = None,
    ) -> "CrossbarArray":
        """A programmed array holding integer level codes from :func:`program_tiles`.

        ``codes`` has shape (rows, columns) in the GEMM dtype; ``full_scale``
        and ``code_scale`` are each column's ADC full scale and ``L_a·S``
        (scalars apply to every column).  Nothing is quantised and no
        programming pass is counted: the codes were programmed elsewhere,
        such as one row tile's ``[K+ | K-]`` codes of a whole layer.
        """
        rows, columns = codes.shape
        array = cls(rows, columns, technology, noise_model=noise_model, rng=rng)
        array._set_codes(codes, full_scale, code_scale)
        return array

    def _set_codes(self, codes: np.ndarray, full_scale, code_scale) -> None:
        self._codes = codes
        self._column_full_scale = np.full(self.columns, full_scale)
        self._column_code_scale = np.full(self.columns, code_scale)
        self._adc_full_scale = float(self._column_full_scale.max())
        self._programmed = True

    # ------------------------------------------------------------------ compute
    def _check_batch(self, inputs: np.ndarray) -> np.ndarray:
        """``inputs`` as a float (num_vectors, rows) batch of a programmed array."""
        if not self._programmed:
            raise SimulationError("the array must be programmed before computing")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.rows:
            raise SimulationError(
                f"inputs must have shape (num_vectors, {self.rows}), got {inputs.shape}"
            )
        return inputs

    def _code_sums(self, inputs: np.ndarray):
        """ODAC drive codes ``c`` of a checked batch and ``c @ k``.

        Both are integer-valued: the ODAC emits fields ``T·c/L_a``, so scaling
        by ``L_a/T`` and rounding recovers ``c`` exactly, and the code GEMM is
        exact in its dtype (see module docstring).
        """
        drive = self.odac.modulate(inputs)
        drive *= self._activation_max / self.odac.max_field_transmission
        np.rint(drive, out=drive)
        return drive, drive.astype(self._codes.dtype, copy=False) @ self._codes

    def _analog(self, drive: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """``sum_i v[i] * w[i, j]`` in float64 from the exact integer sums."""
        technology = self.technology
        span = technology.pcm_max_transmission - technology.pcm_min_transmission
        analog = np.multiply(sums, span / (technology.pcm_levels - 1), dtype=np.float64)
        if technology.pcm_min_transmission:
            analog += technology.pcm_min_transmission * drive.sum(axis=1, keepdims=True)
        return analog * (self.odac.max_field_transmission / self._activation_max)

    def column_fields(self, inputs: np.ndarray) -> np.ndarray:
        """Column output E-fields for normalised ``inputs`` (Eq. (1)).

        ``inputs`` may be a single vector of length ``rows`` or a batch of
        shape (num_vectors, rows), with entries in [0, 1]; each element is
        quantised by the ODAC before modulation.
        """
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim == 1:
            if inputs.shape != (self.rows,):
                raise SimulationError(
                    f"input vector must have shape ({self.rows},), got {inputs.shape}"
                )
            return self.column_fields(inputs[None, :])[0]
        fields = self.field_scale * self._analog(*self._code_sums(self._check_batch(inputs)))
        if not self.is_deterministic:
            fields = self.noise_model.apply_to_fields(fields, self.rng)
        return fields

    def matvec(self, inputs: np.ndarray, quantize_output: bool = True) -> np.ndarray:
        """Compute ``weights.T @ inputs`` optically for one input vector.

        Thin wrapper around :meth:`matmul` with a single-row batch.

        Parameters
        ----------
        inputs:
            Normalised input vector in [0, 1] of length ``rows``.
        quantize_output:
            Apply the ADC quantisation (default).  Disable to inspect the
            analog result.
        """
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape != (self.rows,):
            if not self._programmed:
                raise SimulationError("the array must be programmed before computing")
            raise SimulationError(
                f"input vector must have shape ({self.rows},), got {inputs.shape}"
            )
        return self.matmul(inputs[None, :], quantize_output=quantize_output)[0]

    def matmul(
        self,
        inputs: np.ndarray,
        quantize_output: bool = True,
        scales: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Read a batch of input vectors through the array as a code GEMM.

        Parameters
        ----------
        inputs:
            Input vectors, shape (num_vectors, rows), with entries in [0, 1]
            or, when ``scales`` is given, in [0, scales[v]].
        quantize_output:
            Apply the ADC quantisation (default).  Disable to inspect the
            analog result ``sum_i v[i] * w[i, j]``.
        scales:
            Optional positive per-vector scales, shape (num_vectors,).  The
            digital front end then divides vector ``v`` by ``scales[v]``
            before the ODAC.

        Without noise and with ``t_min = 0`` each ADC code is the exact
        round-half-even code of the module docstring, computed one block of
        vectors at a time; every vector's output is independent of the rest
        of the batch.
        """
        inputs = self._check_batch(inputs)
        levels = self._output_max
        full_scale = self._column_full_scale
        if quantize_output and self.is_deterministic and not self.technology.pcm_min_transmission:
            output = np.empty((inputs.shape[0], self.columns))
            for block in vector_blocks(inputs.shape[0], self.rows):
                normalised = inputs[block] if scales is None else inputs[block] / scales[block, None]
                codes = np.multiply(
                    self._code_sums(normalised)[1], levels, out=output[block], dtype=np.float64
                )
                codes /= self._column_code_scale
                np.round(codes, out=codes)
                codes /= levels
                codes *= full_scale
            return output
        if scales is not None:
            inputs = inputs / scales[:, None]
        analog = self._analog(*self._code_sums(inputs))
        if not self.is_deterministic:
            fields = self.noise_model.apply_to_fields(self.field_scale * analog, self.rng)
            analog = fields / self.field_scale
        if not quantize_output:
            return analog
        codes = np.clip(np.round(analog / full_scale * levels), 0, levels)
        return codes / levels * full_scale

    # ------------------------------------------------------------------ report
    def statistics(self) -> Dict[str, float]:
        """Programming statistics of the array."""
        return {
            "rows": self.rows,
            "columns": self.columns,
            "programming_events": self._programming_events,
            "programming_energy_j": self._programming_energy_j,
            "programming_time_s": self._programming_time_s,
        }
