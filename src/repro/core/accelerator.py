"""User-facing façade: :class:`OpticalCrossbarAccelerator`.

An ``OpticalCrossbarAccelerator`` ties together, for one chip design point:

* the performance path — dataflow simulation plus power/area models
  (:meth:`evaluate`, :meth:`runtime_specs`), and
* the functional path — signed GEMMs executed on the INT6 functional crossbar
  (:meth:`linear`, :meth:`conv2d`), which is what the example applications use
  to demonstrate that the architecture computes correct results.

Programmed layers
-----------------
PCM programming is the expensive, non-volatile step of the functional path:
each weight tile costs a quantisation pass plus per-cell programming energy
and time, and after that the tile is only read.  A weight layer is therefore
a :class:`ProgrammedLayer` handle, made by :meth:`~OpticalCrossbarAccelerator.layer`
and held by its caller (:class:`~repro.core.inference.FunctionalInferenceEngine`
holds one per crossbar layer).  It keeps a read-only float64 copy of the
weights and its tile grid.  Its first read by :meth:`linear` or
:meth:`conv2d` programs it, under the accelerator's lock, with one
:class:`~repro.crossbar.signed.SignedCrossbarEngine` for the whole layer,
whose :meth:`~repro.crossbar.signed.SignedCrossbarEngine.program` scales,
splits and quantises a block of row tiles at a time straight into the code
layout the layer's read uses, and sets each tile's ADC full scale from
column sums over the whole padded tile.  That read counts one
``tile_cache_misses``; every later read of the handle counts one
``tile_cache_hits`` and touches neither the PCM nor the weights.  A plain
array passed to :meth:`linear` or :meth:`conv2d` gets a fresh handle for
that one call, so it is programmed (and counted a miss) on every call.
Programming is accounted per physical tile, in plan order: two
programming events, both arrays' ``cells × pcm_programming_energy_j`` and
one pass of programming time each.  A tile's cells are the full padded
``rows × columns`` array, so the plan charges ``2·rows·columns`` cells per
tile where :mod:`repro.perf.power` charges the layer's ``k·n`` real cells
once; for LeNet on the 128×128 chip the plan's figure is 4.80× the power
model's (``docs/architecture.md`` explains both).  These statistics outlive
the handles and are reported by :meth:`functional_statistics`.

Layer reads
-----------
A plan's layer engine reads every tile itself
(:meth:`~repro.crossbar.signed.SignedCrossbarEngine.matmul` of the whole
input).  Without field noise that is one stacked read of the whole layer:
one exact code GEMM per row tile over the ``K+`` and ``K-`` codes of all its
column tiles, so a batch's inputs are normalised and ODAC-quantised once
per layer whatever its width or depth.  Every ADC code is the exact
round-half-even code of :mod:`repro.crossbar.array`, so the output does not
depend on the batch, BLAS or the platform.  With field noise the engine
reads one physical tile at a time, with its inputs padded, so its noise
draws keep their shapes and order.

Per-core accounting and the chip clock
--------------------------------------
A plan keeps its :class:`~repro.scalesim.tiling.GemmTiling`, the same tiling
the dataflow simulator computes for the layer.  Each dispatch is accounted by
a :class:`~repro.core.sharding.ShardedExecutionEngine` with the
:func:`~repro.scalesim.schedule.tile_job_times` of every
:func:`~repro.scalesim.schedule.tile_jobs` job: physical tile ``i`` goes to
crossbar core ``i % num_cores`` (the same static round-robin the analytical
:class:`~repro.crossbar.dual_core.DualCoreCrossbar` schedule uses), and
per-core tile counts and busy times are accumulated into
:meth:`functional_statistics`.  :meth:`programming_jobs` and
:meth:`analytical_schedule` build the same jobs from the weight matrix's
shape alone, so they program nothing; they are the jobs
:func:`~repro.scalesim.schedule.network_tile_jobs` lists for the layer.
Under field noise the layer engine is
given one generator keyed by the accelerator seed and the weight content,
which it splits into one child per tile (a noiseless plan gets none), so
noisy outputs do not depend on the order in which layers were programmed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.concurrency import make_rlock, thread_shared
from repro.config.chip import ChipConfig
from repro.config.presets import optimal_chip
from repro.core.sharding import ShardedExecutionEngine
from repro.crossbar.dual_core import DualCoreCrossbar, ProgrammingJob
from repro.crossbar.noise import CrossbarNoiseModel
from repro.crossbar.signed import SignedCrossbarEngine
from repro.errors import SimulationError
from repro.nn.im2col import GemmShape, im2col_matrix
from repro.nn.network import Network
from repro.perf.metrics import PerformanceMetrics, evaluate_runtime
from repro.scalesim.runtime import NetworkRuntime
from repro.scalesim.schedule import tile_jobs
from repro.scalesim.simulator import CrossbarDataflowSimulator
from repro.scalesim.tiling import GemmTiling


class ProgrammedLayer:
    """One weight layer of an accelerator: programmed on its first read, then only read.

    Made by :meth:`OpticalCrossbarAccelerator.layer`.  ``weights`` is a
    read-only float64 copy of the (k, n) matrix or the (k, k, C_in, C_out)
    filters, ``tiling`` the layer's grid of physical tiles on the chip, and
    ``engine`` the programmed layer engine, ``None`` until the first read.
    """

    __slots__ = ("accelerator", "weights", "tiling", "engine")

    def __init__(
        self, accelerator: OpticalCrossbarAccelerator, weights: np.ndarray, tiling: GemmTiling
    ) -> None:
        self.accelerator = accelerator
        self.weights = weights
        self.tiling = tiling
        self.engine: Optional[SignedCrossbarEngine] = None

    @property
    def matrix(self) -> np.ndarray:
        """The (k, n) GEMM matrix: ``weights``, with filters flattened as by im2col."""
        return self.weights.reshape(self.tiling.gemm.k, self.tiling.gemm.n)


#: (statistics key, metric name, help) of the scalar accelerator counters.
_SCALAR_METRICS = (
    (
        "programming_events",
        "repro_accelerator_programming_events_total",
        "Full-array PCM programming passes.",
    ),
    (
        "programming_energy_j",
        "repro_accelerator_programming_energy_joules_total",
        "Modelled PCM programming energy (J).",
    ),
    (
        "programming_time_s",
        "repro_accelerator_programming_seconds_total",
        "Modelled PCM programming time (s).",
    ),
    (
        "sharded_dispatches",
        "repro_accelerator_sharded_dispatches_total",
        "Multi-core sharded GEMM dispatches.",
    ),
)

#: (statistics key, metric name, help) of the per-core accelerator counters.
_PER_CORE_METRICS = (
    (
        "per_core_tile_dispatches",
        "repro_accelerator_core_tile_dispatches_total",
        "Tile GEMMs dispatched per crossbar core.",
    ),
    (
        "per_core_busy_time_s",
        "repro_accelerator_core_busy_seconds_total",
        "Modelled busy time per crossbar core (s).",
    ),
)


def accelerator_metric_families(
    stats: Mapping[str, object], labels: Optional[Mapping[str, str]] = None
) -> List[Dict[str, object]]:
    """The ``repro_accelerator_*`` metric families of a functional-statistics dict.

    ``stats`` is :meth:`OpticalCrossbarAccelerator.functional_statistics` or a
    merge of several replicas' (see
    :func:`~repro.serve.workers.merge_functional_statistics`).  Absent keys
    are skipped, so an empty dict — a process pool that has served nothing —
    yields no families.  Both the standalone accelerator and the serving
    worker pool export through this one mapping.
    """
    base = dict(labels or {})
    families: List[Dict[str, object]] = [
        {
            "name": name,
            "type": "counter",
            "help": help_text,
            "samples": [(base, float(stats[key]))],
        }
        for key, name, help_text in _SCALAR_METRICS
        if key in stats
    ]
    cache_samples = [
        ({**base, "event": event}, float(stats[key]))
        for key, event in (
            ("tile_cache_hits", "hit"),
            ("tile_cache_misses", "miss"),
        )
        if key in stats
    ]
    if cache_samples:
        families.append(
            {
                "name": "repro_accelerator_tile_cache_total",
                "type": "counter",
                "help": "Programmed-layer reads by kind (miss: the read programmed it).",
                "samples": cache_samples,
            }
        )
    for key, name, help_text in _PER_CORE_METRICS:
        values = stats.get(key)
        if values:
            families.append(
                {
                    "name": name,
                    "type": "counter",
                    "help": help_text,
                    "samples": [
                        ({**base, "core": str(core)}, float(value))
                        for core, value in enumerate(values)
                    ],
                }
            )
    return families


@thread_shared
class OpticalCrossbarAccelerator:
    """A single optical crossbar accelerator chip.

    Parameters
    ----------
    config:
        Chip design point; defaults to the paper's optimised 128×128
        dual-core configuration.
    noise_model:
        Optional impairment model for the functional datapath.
    seed:
        Random seed for the functional datapath's noise injection.
    """

    def __init__(
        self,
        config: Optional[ChipConfig] = None,
        noise_model: Optional[CrossbarNoiseModel] = None,
        seed: int = 0,
    ) -> None:
        self.config = config or optimal_chip()
        self.noise_model = noise_model
        self._seed_sequence = np.random.SeedSequence(seed)
        self.sharding = ShardedExecutionEngine(self.config)
        self._simulator = CrossbarDataflowSimulator(self.config)
        # Serialises layer programming and statistics accumulation so
        # concurrent `linear` calls (thread-pool serving) cannot lose counter
        # increments or program one layer twice.  GEMM execution itself
        # happens outside the lock.  Scope: with a noise model, concurrent `linear`
        # calls on one accelerator interleave the per-tile generator state in
        # arrival order, so noisy outputs are not reproducible across such
        # runs (counters stay exact); callers that need reproducible noise
        # must not share one accelerator across threads — the serving pool's
        # replicas are checked out exclusively for this reason.
        self._stats_lock = make_rlock("OpticalCrossbarAccelerator._stats_lock")
        self._functional_stats = {
            "programming_events": 0,
            "programming_energy_j": 0.0,
            "programming_time_s": 0.0,
            "tile_cache_hits": 0,
            "tile_cache_misses": 0,
            "sharded_dispatches": 0,
        }
        self._per_core_tile_dispatches = [0] * self.config.num_cores
        self._per_core_busy_time_s = [0.0] * self.config.num_cores

    # ------------------------------------------------------------------ performance
    def runtime_specs(self, network: Network) -> NetworkRuntime:
        """Step-1 runtime specification of ``network`` on this chip."""
        return self._simulator.simulate(network)

    def evaluate(self, network: Network) -> PerformanceMetrics:
        """Full performance evaluation (IPS, IPS/W, power, area) of ``network``."""
        return evaluate_runtime(self.runtime_specs(network))

    def peak_tops(self) -> float:
        """Peak throughput of the chip in TOPS."""
        return self.config.peak_tops

    # ------------------------------------------------------------------ functional
    def layer(self, weights: np.ndarray) -> ProgrammedLayer:
        """A handle on ``weights`` for :meth:`linear` and :meth:`conv2d` to read.

        ``weights`` is a (k, n) matrix or (k, k, C_in, C_out) square filters.
        The handle keeps a read-only copy, so later changes to the caller's
        array do not reach it.  Nothing is programmed until its first read
        (see "Programmed layers" in the module docstring).
        """
        weights = np.array(weights, dtype=float, order="C")
        if weights.ndim == 4 and weights.shape[0] == weights.shape[1]:
            shape = (weights.shape[0] * weights.shape[1] * weights.shape[2], weights.shape[3])
        elif weights.ndim == 2:
            shape = weights.shape
        else:
            raise SimulationError(
                f"weights must be a (k, n) matrix or (k, k, C_in, C_out) square "
                f"filters, got shape {weights.shape}"
            )
        weights.setflags(write=False)
        return ProgrammedLayer(self, weights, self._tiling(shape))

    def _noise_rng(self, matrix: np.ndarray) -> np.random.Generator:
        """The generator the field noise of a layer programmed with ``matrix`` draws from.

        It is seeded from a sequence keyed by the accelerator seed, the
        matrix's shape and a SHA-1 digest of its (C-order) bytes, so the
        layer engine's per-tile children depend only on (seed, weights, tile
        index), not on how many layers were programmed before.
        """
        digest = hashlib.sha1(matrix).digest()
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=self._seed_sequence.entropy,
                spawn_key=tuple(int(dim) for dim in matrix.shape) + tuple(digest),
            )
        )

    def _program_once(self, layer: ProgrammedLayer) -> None:
        """Count a read of ``layer``, programming it onto the tile grid on the first."""
        if layer.accelerator is not self:
            raise SimulationError("the layer belongs to another accelerator")
        with self._stats_lock:
            stats = self._functional_stats
            if layer.engine is not None:
                stats["tile_cache_hits"] += 1
                return
            stats["tile_cache_misses"] += 1
            matrix = layer.matrix
            k, n = matrix.shape
            noise = self.noise_model
            field_noise = noise is not None and not noise.is_field_deterministic
            engine = SignedCrossbarEngine(
                k,
                n,
                technology=self.config.technology,
                noise_model=noise,
                rng=self._noise_rng(matrix) if field_noise else None,
                tile_shape=(self.config.rows, self.config.columns),
            )
            engine.program(matrix)
            energy_j, time_s = engine.tile_programming_cost()
            for _ in range(layer.tiling.num_tiles):
                stats["programming_events"] += 2
                stats["programming_energy_j"] += energy_j
                stats["programming_time_s"] += time_s
            layer.engine = engine

    def _tiling(self, shape: Tuple[int, int]) -> GemmTiling:
        """The physical tiles of a (k, n) weight matrix on this chip."""
        k, n = shape
        return GemmTiling(GemmShape("", 1, k, n), self.config.rows, self.config.columns)

    def functional_statistics(self) -> Dict[str, object]:
        """Aggregate PCM programming, tile-cache and sharding statistics.

        ``programming_events`` counts full-array programming passes, two per
        physical tile of every layer ever programmed, so repeated inference
        through the same :class:`ProgrammedLayer` leaves the count unchanged;
        ``tile_cache_misses`` counts the reads that programmed a layer and
        ``tile_cache_hits`` every later read.  ``per_core_tile_dispatches`` and
        ``per_core_busy_time_s`` accumulate, per crossbar core, the number of
        tile GEMMs dispatched and the modelled program+compute busy time —
        consistent with the analytical
        :class:`~repro.crossbar.dual_core.DualCoreCrossbar` schedule (see
        :meth:`analytical_schedule`).
        """
        with self._stats_lock:
            stats: Dict[str, object] = dict(self._functional_stats)
            stats["per_core_tile_dispatches"] = tuple(self._per_core_tile_dispatches)
            stats["per_core_busy_time_s"] = tuple(self._per_core_busy_time_s)
            return stats

    def register_metrics(self, registry, labels: Optional[Dict[str, str]] = None) -> None:
        """Export :meth:`functional_statistics` into a metrics registry.

        The families come from :func:`accelerator_metric_families`, the same
        mapping the serving worker pool exports through; the registry merges
        same-named families, so a standalone accelerator and a serving fleet
        land in the same time series.
        """
        label_set = dict(labels or {})
        registry.register_collector(
            lambda: accelerator_metric_families(self.functional_statistics(), label_set)
        )

    def programming_jobs(self, weights: np.ndarray, num_vectors: int) -> List[ProgrammingJob]:
        """Analytical per-tile job sequence for ``weights`` streaming ``num_vectors``.

        The :func:`~repro.scalesim.schedule.tile_jobs` of the matrix's tiling
        on this chip, the jobs :meth:`linear` accounts per core and
        :class:`~repro.crossbar.dual_core.DualCoreCrossbar` schedules.  Only
        ``weights.shape`` is read: nothing is programmed, and the functional
        statistics are untouched.
        """
        if num_vectors < 1:
            raise SimulationError(f"num_vectors must be >= 1, got {num_vectors}")
        return tile_jobs(self._tiling(np.shape(weights)), self.config, num_vectors)

    def analytical_schedule(self, weights: np.ndarray, num_vectors: int) -> Dict[str, float]:
        """:meth:`DualCoreCrossbar.summarize` of :meth:`programming_jobs`."""
        return DualCoreCrossbar.summarize(self.programming_jobs(weights, num_vectors))

    def linear(self, weights: Union[ProgrammedLayer, np.ndarray], inputs: np.ndarray) -> np.ndarray:
        """Compute ``inputs @ weights`` on the functional crossbar, tile by tile.

        Parameters
        ----------
        weights:
            A :class:`ProgrammedLayer` of this accelerator (its (k, n)
            :attr:`~ProgrammedLayer.matrix` is read), or a signed weight
            matrix of shape (k, n), which gets a fresh layer for this call.
        inputs:
            Input matrix of shape (num_vectors, k) or vector of shape (k,).

        Returns
        -------
        numpy.ndarray
            Result of shape (num_vectors, n) (or (n,) for a single vector),
            computed with INT6 quantisation of weights, inputs and outputs.

        The layer is programmed on its first read only (see module
        docstring); the layer engine then reads the whole input batch, one
        stacked exact code GEMM over all its row tiles without noise.
        """
        if isinstance(weights, ProgrammedLayer):
            layer = weights
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.ndim != 2:
                raise SimulationError(f"weights must be 2-D, got shape {weights.shape}")
            layer = self.layer(weights)
        inputs = np.asarray(inputs, dtype=float)
        single_vector = inputs.ndim == 1
        if single_vector:
            inputs = inputs[None, :]
        k, n = layer.tiling.gemm.k, layer.tiling.gemm.n
        if inputs.ndim != 2 or inputs.shape[1] != k:
            raise SimulationError(
                f"inputs of shape {inputs.shape} are incompatible with weights of "
                f"shape {(k, n)}"
            )

        self._program_once(layer)
        result, report = self.sharding.execute(layer, inputs)
        with self._stats_lock:
            self._functional_stats["sharded_dispatches"] += 1
            for core in range(self.config.num_cores):
                self._per_core_tile_dispatches[core] += report.core_tile_counts[core]
                self._per_core_busy_time_s[core] += report.core_busy_time_s[core]
        return result[0] if single_vector else result

    def conv2d(
        self,
        feature_map: np.ndarray,
        weights: Union[ProgrammedLayer, np.ndarray],
        stride: int = 1,
        padding: int = 0,
    ) -> np.ndarray:
        """Run a 2-D convolution on the functional crossbar via im2col.

        Parameters
        ----------
        feature_map:
            Input of shape (H, W, C_in), or a batch of shape (B, H, W, C_in).
        weights:
            A :class:`ProgrammedLayer` of filters, or filters of shape
            (k, k, C_in, C_out), which get a fresh layer for this call.

        A batched input unrolls every image's receptive fields into one
        im2col matrix and runs them through :meth:`linear` in a single pass,
        programming the filter tiles at most once for the whole batch.
        """
        feature_map = np.asarray(feature_map, dtype=float)
        is_layer = isinstance(weights, ProgrammedLayer)
        filters = weights.weights if is_layer else np.asarray(weights, dtype=float)
        if filters.ndim != 4:
            raise SimulationError(
                f"conv2d weights must have shape (k, k, C_in, C_out), "
                f"got shape {filters.shape}"
            )
        if filters.shape[0] != filters.shape[1]:
            raise SimulationError(
                f"conv2d supports square kernels only, "
                f"got {filters.shape[0]}x{filters.shape[1]}"
            )
        if feature_map.ndim not in (3, 4):
            raise SimulationError(
                f"conv2d feature_map must have shape (H, W, C_in) or "
                f"(B, H, W, C_in), got shape {feature_map.shape}"
            )
        if feature_map.shape[-1] != filters.shape[2]:
            raise SimulationError(
                f"conv2d feature_map has {feature_map.shape[-1]} channels but "
                f"weights expect {filters.shape[2]}"
            )
        layer = weights if is_layer else self.layer(filters)
        kernel, out_channels = filters.shape[0], filters.shape[3]
        unrolled = im2col_matrix(feature_map, kernel, stride, padding)
        batched = feature_map.ndim == 4
        height, width = feature_map.shape[1:3] if batched else feature_map.shape[:2]
        out_h = (height + 2 * padding - kernel) // stride + 1
        out_w = (width + 2 * padding - kernel) // stride + 1
        if batched:
            num_images, patches, patch_len = unrolled.shape
            product = self.linear(layer, unrolled.reshape(num_images * patches, patch_len))
            return product.reshape(num_images, out_h, out_w, out_channels)
        product = self.linear(layer, unrolled)
        return product.reshape(out_h, out_w, out_channels)

    # ------------------------------------------------------------------ report
    def describe(self) -> Dict[str, float]:
        """Key structural parameters of the chip."""
        return {
            "rows": self.config.rows,
            "columns": self.config.columns,
            "num_cores": self.config.num_cores,
            "batch_size": self.config.batch_size,
            "mac_clock_hz": self.config.mac_clock_hz,
            "sram_total_mb": self.config.sram.total_mb,
            "peak_tops": self.peak_tops(),
        }
