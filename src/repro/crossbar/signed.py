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

Read model
----------
:meth:`SignedCrossbarEngine.matmul` is the primitive.  It computes each
vector's input scale (its largest magnitude) once for the whole
(num_vectors, rows) batch.  Without noise it then makes one array read
(:meth:`~repro.crossbar.array.CrossbarArray.matmul`) over the side-by-side
``[K+ | K-]`` codes of its two arrays and hands the scales to that read, which
normalises each vector just before the ODAC.  When the batch has a negative
entry anywhere, the negative parts are stacked under the positive ones in
the same read; otherwise (the common case after ReLU) they are left out.
The four differential products are combined digitally in a fixed order.
Each ADC code depends on its own vector only (see :mod:`repro.crossbar.array`),
so a vector's output is independent of the batch it came in.

:meth:`SignedCrossbarEngine.side_by_side` builds one engine over several
programmed engines that share an input slice, trimmed to their real rows and
columns.  Each column keeps its own tile's full scale and weight scale, so
one read of it equals reading every tile alone.

A noise model with field impairments draws per array read.  A noisy engine
therefore reads its arrays one by one, positive array before negative,
positive inputs before negative, and keeps the shape and order of every
draw.  :meth:`matvec` is a thin single-row wrapper.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.config.technology import TechnologyConfig
from repro.crossbar.array import CrossbarArray, vector_blocks
from repro.errors import SimulationError
from repro.nn.quant import split_signed_matrix


class SignedCrossbarEngine:
    """Runs signed GEMMs on one or two functional crossbar arrays.

    Parameters
    ----------
    rows, columns:
        Physical array dimensions.
    technology:
        Device constants (precisions, PCM levels).
    noise_model:
        Optional impairment model forwarded to the underlying arrays.
    """

    def __init__(
        self,
        rows: int,
        columns: int,
        technology: Optional[TechnologyConfig] = None,
        noise_model=None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.rows = rows
        self.columns = columns
        self.technology = technology or TechnologyConfig()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.positive_array = CrossbarArray(
            rows, columns, self.technology, noise_model=noise_model, rng=rng
        )
        self.negative_array = CrossbarArray(
            rows, columns, self.technology, noise_model=noise_model, rng=rng
        )
        self._weight_scale = 1.0
        self._programmed = False
        self._read_array: Optional[CrossbarArray] = None

    # ------------------------------------------------------------------ weights
    def program(self, weights: np.ndarray) -> None:
        """Program a signed weight matrix of shape (rows, columns)."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.rows, self.columns):
            raise SimulationError(
                f"weights must have shape ({self.rows}, {self.columns}), got {weights.shape}"
            )
        scale = float(np.max(np.abs(weights)))
        self._weight_scale = scale if scale > 0 else 1.0
        positive, negative = split_signed_matrix(weights / self._weight_scale)
        self.positive_array.program_weights(positive)
        self.negative_array.program_weights(negative)
        self._read_array = None
        self._programmed = True

    @classmethod
    def side_by_side(
        cls,
        engines: Sequence["SignedCrossbarEngine"],
        rows: int,
        columns: Sequence[int],
    ) -> "SignedCrossbarEngine":
        """One noiseless engine reading ``engines`` with a shared input slice.

        ``rows`` keeps the engines' leading rows and ``columns[i]`` the
        leading columns of ``engines[i]`` (the real extent of a padded tile).
        Each output column keeps its engine's ADC full scales and weight
        scale, so a read equals reading every engine alone and concatenating
        the results.  The new engine's own arrays stay unprogrammed: the
        programming history stays with the source engines, and every read
        goes through one side-by-side array of all their ``K+`` and then all
        their ``K-`` columns.
        """
        first = engines[0]
        if not all(engine.is_programmed for engine in engines):
            raise SimulationError("every engine must be programmed before it is read")
        combined = cls(rows, sum(columns), first.technology, rng=first.positive_array.rng)
        combined._read_array = CrossbarArray.side_by_side(
            [engine.positive_array for engine in engines]
            + [engine.negative_array for engine in engines],
            rows,
            list(columns) * 2,
        )
        combined._weight_scale = np.repeat(
            [engine.weight_scale for engine in engines], columns
        )
        combined._programmed = True
        return combined

    @property
    def weight_scale(self):
        """Scale factor by which the programmed weights were normalised.

        A float, or one value per output column for a :meth:`side_by_side`
        engine.
        """
        return self._weight_scale

    @property
    def is_programmed(self) -> bool:
        """True once :meth:`program` has been called."""
        return self._programmed

    def _reader(self) -> CrossbarArray:
        """The side-by-side ``[K+ | K-]`` array, assembled on the first read."""
        if self._read_array is None:
            self._read_array = CrossbarArray.side_by_side(
                [self.positive_array, self.negative_array]
            )
        return self._read_array

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

    def matmul(self, inputs: np.ndarray) -> np.ndarray:
        """Signed GEMM for a batch of input vectors, shape (num_vectors, rows).

        Each vector is normalised by its own max-magnitude scale, split into
        non-negative positive/negative parts, and read as described in the
        module docstring.  The negative-input products are skipped when the
        entire batch is non-negative (the common ReLU case).
        """
        if not self._programmed:
            raise SimulationError("program() must be called before matmul()")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.rows:
            raise SimulationError(
                f"inputs must have shape (num_vectors, {self.rows}), got {inputs.shape}"
            )

        count = inputs.shape[0]
        input_scales = np.empty(count)
        for block in vector_blocks(count, self.rows):
            np.max(np.abs(inputs[block]), axis=1, out=input_scales[block])
        if not np.any(input_scales > 0.0):
            return np.zeros((count, self.columns))
        # Zero vectors keep a unit scale so the division is well-defined; their
        # normalised rows are all-zero and produce exact zero outputs.
        safe_scales = np.where(input_scales > 0.0, input_scales, 1.0)

        if self.positive_array.is_deterministic:
            width = self.columns
            if inputs.min() < 0.0:
                batch = np.concatenate((np.maximum(inputs, 0.0), np.maximum(-inputs, 0.0)))
                products = self._reader().matmul(batch, scales=np.tile(safe_scales, 2))
                result = products[:count, :width] - products[:count, width:]
                result -= products[count:, :width] - products[count:, width:]
            else:
                products = self._reader().matmul(inputs, scales=safe_scales)
                result = products[:, :width] - products[:, width:]
        else:
            normalised = inputs / safe_scales[:, None]
            positive_in = np.clip(normalised, 0.0, None)
            negative_in = np.clip(-normalised, 0.0, None)
            positive, negative = self.positive_array, self.negative_array
            result = positive.matmul(positive_in) - negative.matmul(positive_in)
            if np.any(negative_in > 0):
                result -= positive.matmul(negative_in) - negative.matmul(negative_in)
        result *= self._weight_scale
        result *= input_scales[:, None]
        return result

    # ------------------------------------------------------------------ report
    def statistics(self) -> Dict[str, float]:
        """Programming statistics of both underlying arrays."""
        positive = self.positive_array.statistics()
        negative = self.negative_array.statistics()
        return {
            "programming_events": positive["programming_events"]
            + negative["programming_events"],
            "programming_energy_j": positive["programming_energy_j"]
            + negative["programming_energy_j"],
            "programming_time_s": max(
                positive["programming_time_s"], negative["programming_time_s"]
            ),
        }
