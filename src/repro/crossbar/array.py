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

The drive codes are made in one step per block of vectors, and no field is
formed on the way.  The inputs (each divided by its scale, when the caller
gives one) go into a float64 scratch block, and the ODAC's
:meth:`~repro.photonics.ring.RingResonatorODAC.modulate` range-checks them
and writes ``c = round(clip(x, 0, 1)·L_a)`` straight into a buffer in the
GEMM dtype, which the GEMM reads.

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
own full scale and denominator per column.  A *stack* of ``R`` row tiles'
codes reads them all in one call (row tile ``r`` from input row ``r·rows``)
and returns one ADC output per row tile; a single array is the ``R = 1``
case.  The signed engine reads a whole layer's codes so, each column's
``K+`` and ``K-`` side by side, with an input scale per (vector, row tile)
divided out before the ODAC.  A block of vectors at a time
(:func:`vector_blocks`), each row tile's sums are one GEMM of the drive codes
of its input rows (the short last tile reads only its real rows), and one
ADC pass covers them all.
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
_BLOCK_ELEMENTS = 1 << 16


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
        self.input_rows = rows
        # Read state, set by program_weights (or from_codes): the integer PCM
        # level codes in the GEMM dtype, as given and as an (R, rows, columns)
        # stack, and per row tile and column the ADC full scale and L_a·S.
        self._codes: Optional[np.ndarray] = None
        self._stack: Optional[np.ndarray] = None
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
        self._programming_time_s += self.technology.programming_pass_time_s(self.rows, self.columns)
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
        input_rows: Optional[int] = None,
    ) -> "CrossbarArray":
        """A programmed array holding integer level codes from :func:`program_tiles`.

        ``codes`` has shape (rows, columns), or (R, rows, columns) for a
        stack reading ``input_rows`` rows (default ``R·rows``), in the GEMM
        dtype; ``full_scale`` and ``code_scale`` are each (row tile and)
        column's ADC full scale and ``L_a·S`` (scalars apply to every
        column).  Nothing is quantised and no programming pass is counted.
        """
        array = cls(*codes.shape[-2:], technology, noise_model=noise_model, rng=rng)
        array._set_codes(codes, full_scale, code_scale, input_rows)
        return array

    def _set_codes(self, codes: np.ndarray, full_scale, code_scale, input_rows=None) -> None:
        self._codes = codes
        self._stack = codes.reshape(-1, self.rows, self.columns)
        tiles = len(self._stack)
        self.input_rows = input_rows or tiles * self.rows
        # Input rows each row tile reads (the last may be short).
        starts = range(0, self.input_rows, self.rows)
        self._tile_widths = [min(self.rows, self.input_rows - start) for start in starts]
        self._column_full_scale = np.full((tiles, self.columns), full_scale)[:, None]
        self._column_code_scale = np.full((tiles, self.columns), code_scale)[:, None]
        self._adc_full_scale = float(self._column_full_scale.max())
        self._programmed = True

    # ------------------------------------------------------------------ compute
    def _check_batch(self, inputs: np.ndarray) -> np.ndarray:
        """``inputs`` as a float (num_vectors, input_rows) batch of a programmed array."""
        if not self._programmed:
            raise SimulationError("the array must be programmed before computing")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.input_rows:
            raise SimulationError(
                f"inputs must have shape (num_vectors, {self.input_rows}), got {inputs.shape}"
            )
        return inputs

    def _read_blocks(self, inputs: np.ndarray, scales: Optional[np.ndarray]):
        """``(block, drive codes, code sums)`` of each block of checked inputs.

        A block's inputs, row tile ``r`` of each vector divided by its scale
        when ``scales`` is given, go into a float64 scratch buffer in one pass;
        the ODAC quantises them, with the scratch as its working space, into
        drive codes ``c`` (v, input_rows) in the GEMM dtype.  Each row tile's
        sums are then one GEMM of its drive codes with its level codes (the
        short last tile's padding rows left out).  The buffers are made once
        per call and reused by every block.
        """
        blocks = vector_blocks(len(inputs), self.input_rows)
        size = min(len(inputs), blocks[0].stop if blocks else 0)
        scratch = np.empty((size, self.input_rows))
        codes = np.empty_like(scratch, dtype=self._stack.dtype)
        sums = np.empty((len(self._stack), size, self.columns), self._stack.dtype)
        for block in blocks:
            batch = inputs[block]
            count = len(batch)
            if scales is None:
                np.copyto(scratch[:count], batch)
            elif len(self._tile_widths) == 1:
                np.divide(batch, scales[block], out=scratch[:count])
            else:  # each scale spread over its tile's rows: one contiguous divide
                tile_scales = np.repeat(scales[block], self._tile_widths, axis=1)
                np.divide(batch, tile_scales, out=scratch[:count])
            drive = self.odac.modulate(scratch[:count], out=codes[:count])
            start = 0
            for tile, width in enumerate(self._tile_widths):
                levels = self._stack[tile, :width]
                np.matmul(drive[:, start : start + width], levels, out=sums[tile, :count])
                start += width
            yield block, drive, sums[:, :count]

    def _analog(self, drive: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """``sum_i v[i] * w[i, j]`` in float64 from the exact integer sums."""
        technology = self.technology
        span = technology.pcm_max_transmission - technology.pcm_min_transmission
        analog = np.multiply(sums, span / (technology.pcm_levels - 1), dtype=np.float64)
        if technology.pcm_min_transmission:
            starts = np.arange(0, self.input_rows, self.rows)  # per row tile
            drive_sums = np.add.reduceat(drive, starts, axis=1, dtype=np.float64)
            analog += technology.pcm_min_transmission * drive_sums.T[:, :, None]
        return analog * (self.odac.max_field_transmission / self._activation_max)

    def column_fields(self, inputs: np.ndarray) -> np.ndarray:
        """Column output E-fields for normalised ``inputs`` (Eq. (1)).

        ``inputs`` may be a single vector of length ``rows`` or a batch of
        shape (num_vectors, rows), with entries in [0, 1]; each element is
        quantised by the ODAC before modulation.
        """
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim == 1:
            return self.column_fields(inputs[None])[..., 0, :]
        inputs = self._check_batch(inputs)
        fields = np.empty((len(self._stack), len(inputs), self.columns))
        for block, drive, sums in self._read_blocks(inputs, None):
            fields[:, block] = self._analog(drive, sums)
        fields *= self.field_scale
        if not self.is_deterministic:
            for tile in fields:  # each row tile draws as a single array does
                tile[...] = self.noise_model.apply_to_fields(tile, self.rng)
        return fields if self._codes.ndim == 3 else fields[0]

    def matvec(self, inputs: np.ndarray, quantize_output: bool = True) -> np.ndarray:
        """Compute ``weights.T @ inputs`` optically for one input vector.

        Thin wrapper around :meth:`matmul` with a single-row batch.

        Parameters
        ----------
        inputs:
            Normalised input vector in [0, 1] of length ``input_rows``.
        quantize_output:
            Apply the ADC quantisation (default).  Disable to inspect the
            analog result.
        """
        batch = np.asarray(inputs, dtype=float)[None]
        return self.matmul(batch, quantize_output=quantize_output)[..., 0, :]

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
            Input vectors, shape (num_vectors, input_rows), with entries in
            [0, 1] or, when ``scales`` is given, in [0, scales[v, r]] on row
            tile ``r``.
        quantize_output:
            Apply the ADC quantisation (default).  Disable to inspect the
            analog result ``sum_i v[i] * w[i, j]``.
        scales:
            Optional positive scales, shape (num_vectors, R).  The front end
            divides row tile ``r`` of vector ``v`` by ``scales[v, r]``.

        Returns (num_vectors, columns), or (R, num_vectors, columns) for a
        stack.  Without noise and with ``t_min = 0`` each ADC code is the
        exact round-half-even code of the module docstring; every vector's
        output is independent of the rest of the batch.
        """
        inputs = self._check_batch(inputs)
        levels = self._output_max
        full_scale = self._column_full_scale
        exact = quantize_output and self.is_deterministic
        exact = exact and not self.technology.pcm_min_transmission
        output = np.empty((len(self._stack), len(inputs), self.columns))
        for block, drive, sums in self._read_blocks(inputs, scales):
            if not exact:
                output[:, block] = self._analog(drive, sums)
                continue
            codes = np.multiply(sums, levels, out=output[:, block], dtype=np.float64)
            codes /= self._column_code_scale
            np.round(codes, out=codes)
            codes /= levels
            codes *= full_scale
        if not exact and not self.is_deterministic:
            output *= self.field_scale
            for tile in output:  # each row tile draws as a single array does
                tile[...] = self.noise_model.apply_to_fields(tile, self.rng)
            output /= self.field_scale
        if not exact and quantize_output:
            output = np.clip(np.round(output / full_scale * levels), 0, levels)
            output = output / levels * full_scale
        return output if self._codes.ndim == 3 else output[0]

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
