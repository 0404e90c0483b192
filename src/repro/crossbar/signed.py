"""Signed matrix-matrix multiplication on the absorption-only crossbar.

PCM cells can only attenuate, so crossbar weights are restricted to [0, 1]
(the paper maps all weights to 64 levels between 0 and 1).  Real CNN layers
have signed weights and, after the first layer, non-negative (ReLU)
activations.  :class:`SignedCrossbarEngine` handles the general signed case
with the standard differential decomposition:

* weights:  ``W = W+ - W-`` with both parts in [0, 1] after scaling;
* inputs:   ``x = x+ - x-`` with both parts in [0, 1] after scaling;

so a signed GEMM becomes at most four non-negative crossbar passes whose
results are combined digitally.  For ReLU networks the input decomposition
collapses to a single differential pass.

Programming a tile grid
-----------------------
An engine holds one signed weight matrix on a grid of physical arrays of
``tile_shape`` (by default one array the size of the matrix).
:meth:`SignedCrossbarEngine.program` programs a block of row tiles at a
time (at most about :func:`~repro.crossbar.array.vector_blocks`' element
count), straight into the layout the read uses: level codes of shape
(R, tile rows, 2·columns) in the GEMM dtype, over the matrix's real columns
only, each column's ``K+`` and ``K-`` side by side (a short last row tile
keeps its padding rows, at code 0).  Within a block the rows are
zero-padded to whole tiles in one scratch buffer; each tile's weight scale
is its largest magnitude, taken with contiguous reductions; the block is
range-checked, divided by its tiles' scales once and rounded once to signed
codes ``k = round(q·L)`` of the normalised weights ``q``.  Since
``|q| ≤ 1``, ``K+ = max(k, 0)`` and ``K- = max(-k, 0)`` are the codes of
the positive and negative parts of ``q``; each is written into the layout
(every zero code as +0) and gives its tiles' ADC full scale and ``L_a·S``
over the whole padded tile (:func:`~repro.crossbar.array.tile_scales`).  The
two scratch buffers are views of one float64 array per thread, kept across
layers and engines and grown to the largest block the thread has
programmed, at most ``_BLOCK_ELEMENTS`` (512 KB), so that reprogramming
faults in no fresh pages for them; a single row-tile pair wider than that
gets its own buffers for the call.  Every other temporary lives for one
block, and the layout is the only copy of the codes the engine keeps.  Each
tile's values are bitwise those of a one-tile engine programmed with it.
Every tile costs two programming passes, one per array
(:meth:`SignedCrossbarEngine.tile_programming_cost`).

Read model
----------
:meth:`SignedCrossbarEngine.matmul` reads the whole (num_vectors, rows)
input and sums the row tiles' partial products into a zero result in plan
order.  Without noise it makes one stacked read of the whole layer
(:meth:`~repro.crossbar.array.CrossbarArray.matmul`) over every tile's
``K+`` and ``K-`` codes, each column's pair side by side, trimmed to the
matrix's real columns (one row tile also to its real rows), with each
column's own tile full scale and weight scale.  One test says whether the
layer's inputs have a negative entry anywhere, and one reduction gives each
vector's input scale per row tile (its largest magnitude there), which the
read divides out just before the ODAC.  When there is a negative entry, the
negative parts are stacked under the positive ones in the same read; a row
tile without any reads exact zeros for them, which leaves its partial
bitwise unchanged.  Otherwise (the common case after ReLU) they are left
out, and the inputs are their own magnitudes.  The four differential
products are combined digitally in a fixed order.  Each ADC
code depends on its own vector only (see :mod:`repro.crossbar.array`), so a
vector's output is independent of the batch it came in.

A noise model with field impairments draws per array read.  A noisy grid
therefore reads one physical tile at a time, in row-major order, each on
the one-array engine :meth:`SignedCrossbarEngine.tile` builds with its own
child of the engine's generator, and with its inputs zero-padded to the
array's rows; the tile's codes are sliced from the layout and zero-padded
to the physical tile, since padding cells hold code 0.  A one-array engine
builds its two arrays (:attr:`SignedCrossbarEngine.positive_array` and
:attr:`~SignedCrossbarEngine.negative_array`) on first use, both drawing
from the engine's generator.  It reads its positive array before its
negative one and positive inputs before negative, so every draw keeps its
shape and order.  :meth:`matvec` is a thin single-row wrapper.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config.technology import TechnologyConfig
from repro.crossbar.array import (
    _BLOCK_ELEMENTS,
    CrossbarArray,
    _gemm_dtype,
    tile_scales,
    vector_blocks,
)
from repro.errors import SimulationError
from repro.photonics.pcm import check_weight_range


#: Per-thread programming scratch: ``block``, the float64 array
#: :func:`_block_buffers` keeps for the calling thread.
_SCRATCH = threading.local()


def _block_buffers(shape: Tuple[int, ...]) -> np.ndarray:
    """Float64 buffers of ``shape`` for one programming block, not zeroed.

    A block of at most ``_BLOCK_ELEMENTS`` is a view of one array the
    calling thread keeps across layers and engines, grown to the largest
    such block it has programmed, so reprogramming faults in no fresh pages
    for it.  A larger one (a single row-tile pair wider than that) is
    allocated for the call alone.
    """
    size = math.prod(shape)
    if size > _BLOCK_ELEMENTS:
        return np.empty(shape)
    kept = getattr(_SCRATCH, "block", None)
    if kept is None or kept.size < size:
        kept = _SCRATCH.block = np.empty(size)
    return kept[:size].reshape(shape)


def _program_layout(
    weights: np.ndarray, tile_shape: Tuple[int, int], technology: TechnologyConfig
):
    """Program signed ``weights`` on a grid of ``tile_shape`` tiles, block by block.

    Returns each tile's weight scale (R, C), the read layout's level codes
    (R, tile rows, 2·columns) in the GEMM dtype, and each tile part's ADC
    full scale and ``L_a·S`` (R, C, 2); see the module docstring.  The two
    float64 block buffers hold at most :func:`vector_blocks`' element count
    between them and are views of the calling thread's kept block
    (:func:`_block_buffers`); every value they hold is written here before
    it is read, the padding included.
    """
    rows, width = weights.shape
    tile_rows, tile_columns = tile_shape
    grid_rows, grid_columns = -(-rows // tile_rows), -(-width // tile_columns)
    padded_width = grid_columns * tile_columns
    levels = technology.pcm_levels - 1
    codes = np.empty((grid_rows, tile_rows, 2 * width), _gemm_dtype(technology, tile_rows))
    scales = np.empty((grid_rows, grid_columns))
    full_scale = np.empty((grid_rows, grid_columns, 2))
    code_scale = np.empty_like(full_scale)
    # Two float64 buffers of whole tiles, the signed codes and one part, in
    # one block of at most _BLOCK_ELEMENTS.
    blocks = vector_blocks(grid_rows, 2 * tile_rows * padded_width)
    signed, part = _block_buffers((2, min(blocks[0].stop, grid_rows), tile_rows, padded_width))
    signed[:, :, width:] = 0.0  # padding columns stay 0 through every step
    for block in blocks:
        count = len(range(grid_rows)[block])
        k, k_part = signed[:count], part[:count]
        real = weights[block.start * tile_rows : block.stop * tile_rows]
        flat = k.reshape(-1, padded_width)
        flat[: len(real), :width] = real
        flat[len(real) :] = 0.0  # the padding rows of the last row tile
        # Each tile's largest magnitude: over its rows, then its columns.
        largest = np.abs(k, out=k_part).max(axis=1)
        largest = largest.reshape(count, grid_columns, tile_columns).max(axis=2)
        scale = np.where(largest > 0, largest, 1.0)
        # Dividing by a positive scale is monotonic, so a tile's largest
        # normalised magnitude is its largest magnitude over its scale (NaN,
        # and out of range, for a tile with a NaN or infinite weight).
        with np.errstate(invalid="ignore"):
            check_weight_range(0.0, (largest / scale).max())
        scales[block] = scale
        k /= np.repeat(scale, tile_columns, axis=1)[:, None]
        k *= levels
        np.round(k, out=k)
        k += 0.0  # rounding leaves -0 for small negatives; make every zero +0
        for index in (0, 1):
            if index:  # K- = max(-k, 0); 0 - k keeps zeros +0
                np.subtract(0.0, k, out=k_part)
                np.maximum(k_part, 0.0, out=k_part)
            else:  # K+ = max(k, 0)
                np.maximum(k, 0.0, out=k_part)
            np.copyto(codes[block, :, index::2], k_part[:, :, :width], casting="same_kind")
            full, denominator = tile_scales(k_part, tile_columns, technology)
            full_scale[block, :, index] = full
            code_scale[block, :, index] = denominator
    return scales, codes, full_scale, code_scale


class SignedCrossbarEngine:
    """Runs signed GEMMs on a grid of functional crossbar arrays.

    Parameters
    ----------
    rows, columns:
        Shape of the signed weight matrix the engine holds.
    technology:
        Device constants (precisions, PCM levels).
    noise_model:
        Optional impairment model forwarded to the underlying arrays.
    rng:
        Random generator the noise model draws from.  A grid (an engine
        given a ``tile_shape``) splits it with ``rng.spawn``, one child per
        tile in row-major order, so each tile draws its own field noise.
    tile_shape:
        (rows, columns) of the physical arrays the matrix is cut into, row
        tile by row tile; by default one array the size of the matrix.
    """

    def __init__(
        self,
        rows: int,
        columns: int,
        technology: Optional[TechnologyConfig] = None,
        noise_model=None,
        rng: Optional[np.random.Generator] = None,
        tile_shape: Optional[Tuple[int, int]] = None,
    ) -> None:
        tile_rows, tile_columns = (rows, columns) if tile_shape is None else tile_shape
        if min(rows, columns, tile_rows, tile_columns) < 1:
            raise SimulationError(
                f"engine dimensions must be >= 1, got {rows}x{columns} "
                f"on {tile_rows}x{tile_columns} tiles"
            )
        self.rows = rows
        self.columns = columns
        self.technology = technology or TechnologyConfig()
        self.noise_model = noise_model
        self._rng = rng
        self.tile_shape = (tile_rows, tile_columns)
        self.grid = (-(-rows // tile_rows), -(-columns // tile_columns))
        self._weight_scale = np.ones(self.grid)
        # Programmed state (_set_layout): the read layout's level codes and,
        # per (row tile, tile column, part), the ADC full scale and L_a·S.
        self._layout = None
        self._is_grid = tile_shape is not None
        self._reader = None
        self._arrays = None
        self._tile_engines = []
        self._programmed = False
        self._programming_events = 0
        self._programming_energy_j = 0.0
        self._programming_time_s = 0.0

    @property
    def rng(self) -> np.random.Generator:
        """Generator the noise model draws from: the one given, else ``default_rng(0)``."""
        if self._rng is None:
            self._rng = np.random.default_rng(0)
        return self._rng

    # ------------------------------------------------------------------ weights
    def program(self, weights: np.ndarray) -> None:
        """Program a signed weight matrix of shape (rows, columns), block by block."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.rows, self.columns):
            raise SimulationError(
                f"weights must have shape ({self.rows}, {self.columns}), got {weights.shape}"
            )
        layout = _program_layout(weights, self.tile_shape, self.technology)
        self._set_layout(*layout)
        energy_j, time_s = self.tile_programming_cost()
        count = self.grid[0] * self.grid[1]
        self._programming_events += 2 * count
        self._programming_energy_j += count * energy_j
        self._programming_time_s += count * time_s

    def _set_layout(self, scales, codes, full_scale, code_scale) -> None:
        """Take programmed state: per-tile weight scales (R, C), the read
        layout's level codes (R, tile rows, 2·columns) and per-(tile, part)
        full scales and ``L_a·S`` (R, C, 2).
        """
        self._weight_scale = scales
        self._layout = (codes, full_scale, code_scale)
        self._programmed = True
        self._arrays = None
        self._reader = None
        self._tile_engines = []
        grid_rows, grid_columns = self.grid
        if not self.is_deterministic:
            if self._is_grid:
                self._tile_engines = [
                    self.tile(*divmod(index, grid_columns), rng=rng)
                    for index, rng in enumerate(self.rng.spawn(grid_rows * grid_columns))
                ]
            return
        # Per-tile values spread over each tile's real read columns.
        tile_columns, width = self.tile_shape[1], self.columns

        def per_column(values):
            return np.repeat(values, tile_columns, axis=1)[:, :width].reshape(grid_rows, -1)

        reader = CrossbarArray.from_codes(
            codes,
            per_column(full_scale),
            per_column(code_scale),
            self.technology,
            self.noise_model,
            self._rng,
            input_rows=self.rows,
        )
        self._reader = (reader, per_column(scales[..., None])[:, None])

    def _tile_codes(self, row: int, column: int) -> np.ndarray:
        """Tile (``row``, ``column``)'s read-layout codes, zero-padded to the physical tile."""
        codes = self._layout[0]
        tile_rows, tile_columns = self.tile_shape
        start = column * tile_columns
        stop = min(start + tile_columns, self.columns)
        tile = np.zeros((tile_rows, 2 * tile_columns), codes.dtype)
        tile[:, : 2 * (stop - start)] = codes[row, :, 2 * start : 2 * stop]
        return tile

    def tile(
        self, row: int, column: int, rng: Optional[np.random.Generator] = None
    ) -> "SignedCrossbarEngine":
        """Physical tile (``row``, ``column``) of the grid as a one-array engine.

        The tile has the physical ``tile_shape``, with zero weights past the
        matrix's edge.  It keeps this engine's codes and scales (it is not
        programmed again, and has no programming history) and draws any
        noise from ``rng``.
        """
        if not self._programmed:
            raise SimulationError("program() must be called before tile()")
        if not (0 <= row < self.grid[0] and 0 <= column < self.grid[1]):
            raise SimulationError(f"tile ({row}, {column}) is outside the {self.grid} grid")
        engine = SignedCrossbarEngine(*self.tile_shape, self.technology, self.noise_model, rng)
        _, full_scale, code_scale = self._layout
        here = (slice(row, row + 1), slice(column, column + 1))
        engine._set_layout(
            self._weight_scale[here],
            self._tile_codes(row, column)[None],
            full_scale[here],
            code_scale[here],
        )
        return engine

    @property
    def positive_array(self) -> Optional[CrossbarArray]:
        """The ``W+`` array of a programmed one-tile engine (built on first use), else None."""
        return self._array(0)

    @property
    def negative_array(self) -> Optional[CrossbarArray]:
        """The ``W-`` array of a programmed one-tile engine (built on first use), else None."""
        return self._array(1)

    def _array(self, part: int) -> Optional[CrossbarArray]:
        if self.grid != (1, 1) or not self._programmed:
            return None
        if self._arrays is None:
            codes = self._tile_codes(0, 0)
            _, full_scale, code_scale = self._layout
            self._arrays = [
                CrossbarArray.from_codes(
                    np.ascontiguousarray(codes[:, index::2]),
                    full_scale[0, 0, index],
                    code_scale[0, 0, index],
                    self.technology,
                    self.noise_model,
                    self.rng,
                )
                for index in (0, 1)
            ]
        return self._arrays[part]

    def tile_programming_cost(self) -> Tuple[float, float]:
        """Energy (J) and time (s) of programming one physical tile.

        Both arrays of a tile are written, in parallel: twice one array's
        ``cells × pcm_programming_energy_j``, and one pass of time.
        """
        tile_rows, tile_columns = self.tile_shape
        energy_j = tile_rows * tile_columns * self.technology.pcm_programming_energy_j
        return 2 * energy_j, self.technology.programming_pass_time_s(tile_rows, tile_columns)

    @property
    def weight_scale(self):
        """Scale factor by which each tile's weights were normalised.

        A float for a one-tile engine, else one value per tile, shape ``grid``.
        """
        if self.grid == (1, 1):
            return float(self._weight_scale[0, 0])
        return self._weight_scale

    @property
    def is_programmed(self) -> bool:
        """True once :meth:`program` has been called."""
        return self._programmed

    @property
    def is_deterministic(self) -> bool:
        """True when a read draws no noise: no noise model, or no field impairments."""
        return self.noise_model is None or self.noise_model.is_field_deterministic

    # ------------------------------------------------------------------ compute
    def matvec(self, inputs: np.ndarray) -> np.ndarray:
        """Signed ``weights.T @ inputs`` for one vector (wraps :meth:`matmul`)."""
        return self.matmul(np.asarray(inputs, dtype=float)[None])[0]

    def matmul(self, inputs: np.ndarray) -> np.ndarray:
        """Signed GEMM ``inputs @ weights`` for a batch of input vectors.

        ``inputs`` has shape (num_vectors, rows) and the result
        (num_vectors, columns).  Every tile is read as described in the
        module docstring, and the partial products are summed into a zero
        result in plan order: row tile by row tile, or, under field noise,
        tile by tile in row-major order.
        """
        if not self._programmed:
            raise SimulationError("program() must be called before matmul()")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.rows:
            raise SimulationError(
                f"inputs must have shape (num_vectors, {self.rows}), got {inputs.shape}"
            )
        if self._tile_engines:
            tile_rows, tile_columns = self.tile_shape
            padded = np.zeros((inputs.shape[0], self.grid[0] * tile_rows))
            padded[:, : self.rows] = inputs
            partials = []
            for index, engine in enumerate(self._tile_engines):
                row, column = divmod(index, self.grid[1])
                start = column * tile_columns
                partial = engine.matmul(padded[:, row * tile_rows : (row + 1) * tile_rows])
                partials.append((start, partial[:, : self.columns - start]))
        else:
            partials = [(0, partial) for partial in self._row_tile_partials(inputs)]
        # Allocated after the reads, so it adds nothing to their peak memory.
        result = np.zeros((inputs.shape[0], self.columns))
        for start, partial in partials:
            result[:, start : start + partial.shape[1]] += partial
        return result

    def _row_tile_partials(self, inputs: np.ndarray):
        """Partial products (R, num_vectors, columns) of the row tiles (module
        docstring); a noisy one-array engine reads its own two arrays.
        """
        count = inputs.shape[0]
        starts = np.arange(0, self.rows, self.tile_shape[0])
        negative = inputs.size > 0 and inputs.min() < 0.0
        input_scales = np.empty((count, len(starts)))
        for block in vector_blocks(count, self.rows):
            magnitudes = np.abs(inputs[block]) if negative else inputs[block]
            np.maximum.reduceat(magnitudes, starts, axis=1, out=input_scales[block])
        if not np.any(input_scales > 0.0):
            return []
        # Zero vectors keep a unit scale so the division is well-defined; their
        # normalised rows are all-zero and produce exact zero outputs.
        safe_scales = np.where(input_scales > 0.0, input_scales, 1.0)

        if self._reader is not None:
            reader, weight_scale = self._reader
            batch, scales = inputs, safe_scales
            if negative:
                batch = np.concatenate((np.maximum(inputs, 0.0), np.maximum(-inputs, 0.0)))
                scales = np.concatenate((safe_scales, safe_scales))
            products = reader.matmul(batch, scales=scales)
            partials = products[..., 0::2] - products[..., 1::2]
            if len(batch) > count:  # less that of the negative inputs
                partials = partials[:, :count] - partials[:, count:]
        else:
            normalised = inputs / safe_scales
            positive_in = np.clip(normalised, 0.0, None)
            negative_in = np.clip(-normalised, 0.0, None)
            positive, negative = self.positive_array, self.negative_array
            partials = positive.matmul(positive_in) - negative.matmul(positive_in)
            if np.any(negative_in > 0):
                partials -= positive.matmul(negative_in) - negative.matmul(negative_in)
            partials, weight_scale = partials[None], self.weight_scale
        partials *= weight_scale
        partials *= input_scales.T[:, :, None]
        return partials

    # ------------------------------------------------------------------ report
    def statistics(self) -> Dict[str, float]:
        """Programming statistics: two passes per tile each time it is programmed."""
        return {
            "programming_events": self._programming_events,
            "programming_energy_j": self._programming_energy_j,
            "programming_time_s": self._programming_time_s,
        }
