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
:meth:`SignedCrossbarEngine.program` programs every tile in one pass: it pads
the matrix to the grid, takes each tile's weight scale with one reduction,
splits all tiles into ``[W+ | W-]`` and quantises them with one
:func:`~repro.crossbar.array.program_tiles` call, which also sets each
tile's ADC full scale and code denominator over the whole padded tile.  Each
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
array's rows.  A one-array engine reads its positive array before its
negative one and positive inputs before negative, so every draw keeps its
shape and order.  :meth:`matvec` is a thin single-row wrapper.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.config.technology import TechnologyConfig
from repro.crossbar.array import (
    CrossbarArray,
    program_tiles,
    vector_blocks,
)
from repro.errors import SimulationError


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
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.tile_shape = (tile_rows, tile_columns)
        self.grid = (-(-rows // tile_rows), -(-columns // tile_columns))
        #: The two physical arrays of a one-tile engine, set by programming.
        self.positive_array: Optional[CrossbarArray] = None
        self.negative_array: Optional[CrossbarArray] = None
        self._weight_scale = np.ones(self.grid)
        self._tiles = None
        self._is_grid = tile_shape is not None
        self._reader = None
        self._tile_engines = []
        self._programmed = False
        self._programming_events = 0
        self._programming_energy_j = 0.0
        self._programming_time_s = 0.0

    # ------------------------------------------------------------------ weights
    def program(self, weights: np.ndarray) -> None:
        """Program a signed weight matrix of shape (rows, columns), every tile at once."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.rows, self.columns):
            raise SimulationError(
                f"weights must have shape ({self.rows}, {self.columns}), got {weights.shape}"
            )
        grid_rows, grid_columns = self.grid
        tile_rows, tile_columns = self.tile_shape
        padded = np.zeros((grid_rows * tile_rows, grid_columns * tile_columns))
        padded[: self.rows, : self.columns] = weights
        tiles = padded.reshape(grid_rows, tile_rows, grid_columns, tile_columns)
        scales = np.maximum(tiles.max(axis=(1, 3)), -tiles.min(axis=(1, 3)))  # max |W|
        scales = np.where(scales > 0, scales, 1.0)
        # [W+ | W-] of every tile: the positive and negative parts of W / scale.
        parts = np.empty((grid_rows, tile_rows, 2, grid_columns, tile_columns))
        np.divide(tiles, scales[:, None, :, None], out=parts[:, :, 0])
        np.negative(parts[:, :, 0], out=parts[:, :, 1])
        np.clip(parts, 0.0, None, out=parts)
        codes, full_scale, code_scale = program_tiles(
            parts.reshape(grid_rows, tile_rows, 2 * grid_columns, tile_columns),
            self.technology,
        )
        self._load(scales, codes, full_scale, code_scale)
        energy_j, time_s = self.tile_programming_cost()
        count = grid_rows * grid_columns
        self._programming_events += 2 * count
        self._programming_energy_j += count * energy_j
        self._programming_time_s += count * time_s

    def _load(self, scales, codes, full_scale, code_scale) -> None:
        """Take programmed tile state: per-tile weight scales (R, C), level
        codes (R, rows, 2C, cols) and per-array full scales and ``L_a·S`` (R, 2C).
        """
        self._weight_scale = scales
        self._tiles = (codes, full_scale, code_scale)
        self._programmed = True
        arrays = (self.technology, self.noise_model, self.rng)
        grid_rows, grid_columns = self.grid
        if self.grid == (1, 1):
            self.positive_array, self.negative_array = (
                CrossbarArray.from_codes(
                    codes[0, :, part], full_scale[0, part], code_scale[0, part], *arrays
                )
                for part in (0, 1)
            )
        self._reader = None
        self._tile_engines = []
        if not self.is_deterministic:
            if self._is_grid:
                self._tile_engines = [
                    self.tile(*divmod(index, grid_columns), rng=rng)
                    for index, rng in enumerate(self.rng.spawn(grid_rows * grid_columns))
                ]
            return
        # One stack of the row tiles' read columns, trimmed to the real width (one
        # row tile to the real rows), with each column's K+ and K- side by side;
        # scales per row tile and column.
        tile_rows, tile_columns = self.tile_shape
        width = self.columns

        def per_column(values, parts):
            columns = np.repeat(values, tile_columns, axis=1)
            columns = columns.reshape(grid_rows, parts, -1)[:, :, :width]
            return columns.transpose(0, 2, 1).reshape(grid_rows, -1)

        halves = codes.reshape(grid_rows, tile_rows, 2, -1)[..., :width]
        if grid_rows == 1:
            halves = halves[:, : self.rows]
        read_codes = np.stack((halves[:, :, 0], halves[:, :, 1]), axis=-1)
        read_codes = read_codes.reshape(grid_rows, halves.shape[1], 2 * width)
        full_scale, code_scale = per_column(full_scale, 2), per_column(code_scale, 2)
        reader = CrossbarArray.from_codes(
            read_codes, full_scale, code_scale, *arrays, input_rows=self.rows
        )
        self._reader = (reader, per_column(scales, 1)[:, None])

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
        codes, full_scale, code_scale = self._tiles
        parts = [column, self.grid[1] + column]
        engine._load(
            self._weight_scale[row : row + 1, column : column + 1],
            codes[row : row + 1, :, parts],
            full_scale[row : row + 1, parts],
            code_scale[row : row + 1, parts],
        )
        return engine

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
