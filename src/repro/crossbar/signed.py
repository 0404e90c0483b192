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
:meth:`SignedCrossbarEngine.matmul` reads one row tile.  It computes each
vector's input scale (its largest magnitude) once for the whole
(num_vectors, rows) batch.  Without noise it then makes one array read
(:meth:`~repro.crossbar.array.CrossbarArray.matmul`) over the ``[K+ | K-]``
codes of every column tile of that row tile, trimmed to the matrix's real
rows and columns, with each column's own tile full scale and weight scale,
and hands the scales to that read, which normalises each vector just before
the ODAC.  When the batch has a negative entry anywhere, the negative parts
are stacked under the positive ones in the same read; otherwise (the common
case after ReLU) they are left out.  The four differential products are
combined digitally in a fixed order.  Each ADC code depends on its own
vector only (see :mod:`repro.crossbar.array`), so a vector's output is
independent of the batch it came in.

A noise model with field impairments draws per array read.  A noisy engine
therefore reads one physical tile at a time (:meth:`SignedCrossbarEngine.tile`
splits a grid), with its inputs zero-padded to the array's rows, its
positive array before its negative one and positive inputs before negative,
and keeps the shape and order of every draw.  :meth:`matvec` is a thin
single-row wrapper.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.config.technology import TechnologyConfig
from repro.crossbar.array import (
    CrossbarArray,
    program_tiles,
    programming_pass_time_s,
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
        Random generator the noise model draws from.
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
        self._reads = []
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
        if self.grid == (1, 1):
            self.positive_array, self.negative_array = (
                CrossbarArray.from_codes(
                    codes[0, :, part], full_scale[0, part], code_scale[0, part], *arrays
                )
                for part in (0, 1)
            )
        if not self.is_deterministic:
            self._reads = []
            return
        # Each row tile's [K+ | K-] read columns, trimmed to the real width,
        # with one full scale, L_a·S and weight scale per column.
        grid_rows = self.grid[0]
        width = self.columns

        def per_column(values, parts):
            columns = np.repeat(values, self.tile_shape[1], axis=1)
            return columns.reshape(grid_rows, parts, -1)[:, :, :width].reshape(grid_rows, -1)

        read_codes = codes.reshape(grid_rows, self.tile_shape[0], 2, -1)[..., :width]
        read_codes = read_codes.reshape(grid_rows, self.tile_shape[0], 2 * width)
        full_scale, code_scale = per_column(full_scale, 2), per_column(code_scale, 2)
        weight_scale = per_column(scales, 1)
        self._reads = []
        for row_tile in range(grid_rows):
            reader = CrossbarArray.from_codes(
                read_codes[row_tile, : self._row_tile_rows(row_tile)],
                full_scale[row_tile],
                code_scale[row_tile],
                *arrays,
            )
            self._reads.append((reader, weight_scale[row_tile]))

    def tile(
        self, row_tile: int, column_tile: int, rng: Optional[np.random.Generator] = None
    ) -> "SignedCrossbarEngine":
        """Physical tile (``row_tile``, ``column_tile``) as a one-tile engine.

        The tile keeps this engine's codes and scales (it is not programmed
        again, and has no programming history), its real extent and the
        physical ``tile_shape``, and draws any noise from ``rng``.
        """
        if not self._programmed:
            raise SimulationError("program() must be called before tile()")
        tile_rows, tile_columns = self.tile_shape
        engine = SignedCrossbarEngine(
            self._row_tile_rows(row_tile),
            min(tile_columns, self.columns - column_tile * tile_columns),
            self.technology,
            self.noise_model,
            rng,
            self.tile_shape,
        )
        codes, full_scale, code_scale = self._tiles
        parts = [column_tile, self.grid[1] + column_tile]
        engine._load(
            self._weight_scale[row_tile : row_tile + 1, column_tile : column_tile + 1],
            codes[row_tile : row_tile + 1, :, parts],
            full_scale[row_tile : row_tile + 1, parts],
            code_scale[row_tile : row_tile + 1, parts],
        )
        return engine

    def tile_programming_cost(self) -> Tuple[float, float]:
        """Energy (J) and time (s) of programming one physical tile.

        Both arrays of a tile are written, in parallel: twice one array's
        ``cells × pcm_programming_energy_j``, and one pass of time.
        """
        tile_rows, tile_columns = self.tile_shape
        energy_j = tile_rows * tile_columns * self.technology.pcm_programming_energy_j
        return 2 * energy_j, programming_pass_time_s(self.technology, tile_rows, tile_columns)

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

    def _row_tile_rows(self, row_tile: int) -> int:
        """Real matrix rows in row tile ``row_tile``."""
        if not 0 <= row_tile < self.grid[0]:
            raise SimulationError(f"row tile {row_tile} is outside 0..{self.grid[0] - 1}")
        tile_rows = self.tile_shape[0]
        return min(tile_rows, self.rows - row_tile * tile_rows)

    # ------------------------------------------------------------------ compute
    def matvec(self, inputs: np.ndarray) -> np.ndarray:
        """Signed ``weights.T @ inputs`` for one vector (wraps :meth:`matmul`)."""
        if not self._programmed:
            raise SimulationError("program() must be called before matvec()")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape != (self.rows,):
            raise SimulationError(
                f"inputs must have shape ({self.rows},), got {inputs.shape}"
            )
        return self.matmul(inputs[None, :])[0]

    def matmul(self, inputs: np.ndarray, row_tile: Optional[int] = None) -> np.ndarray:
        """Signed GEMM for a batch of input vectors.

        ``inputs`` has shape (num_vectors, rows of ``row_tile``) and the
        result (num_vectors, columns): that row tile's partial product.
        ``row_tile`` may be left out when there is only one.  Each vector is
        normalised by its own max-magnitude scale, split into non-negative
        positive/negative parts, and read as described in the module
        docstring.  The negative-input products are skipped when the entire
        batch is non-negative (the common ReLU case).
        """
        if not self._programmed:
            raise SimulationError("program() must be called before matmul()")
        if row_tile is None:
            if self.grid[0] > 1:
                raise SimulationError("an engine with several row tiles reads one at a time")
            row_tile = 0
        inputs = np.asarray(inputs, dtype=float)
        rows = self._row_tile_rows(row_tile)
        if inputs.ndim != 2 or inputs.shape[1] != rows:
            raise SimulationError(
                f"inputs must have shape (num_vectors, {rows}), got {inputs.shape}"
            )

        count = inputs.shape[0]
        input_scales = np.empty(count)
        for block in vector_blocks(count, rows):
            np.max(np.abs(inputs[block]), axis=1, out=input_scales[block])
        if not np.any(input_scales > 0.0):
            return np.zeros((count, self.columns))
        # Zero vectors keep a unit scale so the division is well-defined; their
        # normalised rows are all-zero and produce exact zero outputs.
        safe_scales = np.where(input_scales > 0.0, input_scales, 1.0)

        if self._reads:
            reader, weight_scale = self._reads[row_tile]
            width = self.columns
            if inputs.min() < 0.0:
                batch = np.concatenate((np.maximum(inputs, 0.0), np.maximum(-inputs, 0.0)))
                products = reader.matmul(batch, scales=np.tile(safe_scales, 2))
                result = products[:count, :width] - products[:count, width:]
                result -= products[count:, :width] - products[count:, width:]
            else:
                products = reader.matmul(inputs, scales=safe_scales)
                result = products[:, :width] - products[:, width:]
        else:
            if self.grid != (1, 1):
                raise SimulationError("a noisy engine reads one tile at a time; see tile()")
            tile_rows = self.tile_shape[0]
            if rows < tile_rows:
                padded = np.zeros((count, tile_rows))
                padded[:, :rows] = inputs
                inputs = padded
            normalised = inputs / safe_scales[:, None]
            positive_in = np.clip(normalised, 0.0, None)
            negative_in = np.clip(-normalised, 0.0, None)
            positive, negative = self.positive_array, self.negative_array
            result = positive.matmul(positive_in) - negative.matmul(positive_in)
            if np.any(negative_in > 0):
                result -= positive.matmul(negative_in) - negative.matmul(negative_in)
            result = result[:, : self.columns]
            weight_scale = self.weight_scale
        result *= weight_scale
        result *= input_scales[:, None]
        return result

    # ------------------------------------------------------------------ report
    def statistics(self) -> Dict[str, float]:
        """Programming statistics: two passes per tile each time it is programmed."""
        return {
            "programming_events": self._programming_events,
            "programming_energy_j": self._programming_energy_j,
            "programming_time_s": self._programming_time_s,
        }
