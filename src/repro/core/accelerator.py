"""User-facing façade: :class:`OpticalCrossbarAccelerator`.

An ``OpticalCrossbarAccelerator`` ties together, for one chip design point:

* the performance path — dataflow simulation plus power/area models
  (:meth:`evaluate`, :meth:`runtime_specs`), and
* the functional path — signed GEMMs executed on the INT6 functional crossbar
  (:meth:`linear`, :meth:`conv2d`), which is what the example applications use
  to demonstrate that the architecture computes correct results.

Programmed-tile caching
-----------------------
PCM programming is the expensive, non-volatile step of the functional path:
each weight tile costs a quantisation pass plus per-cell programming energy
and time.  ``linear`` therefore keeps an LRU cache of *programmed tile
plans*, keyed by the weight matrix's shape and a copy of its bytes (hashed
by their ends, compared in full: a lookup is a copy and a memcmp).  The
first call with a given weight matrix programs it onto the tile grid with one
:class:`~repro.crossbar.signed.SignedCrossbarEngine` for the whole layer,
whose :meth:`~repro.crossbar.signed.SignedCrossbarEngine.program` pads the
matrix once, scales, splits and quantises every tile in one vectorised
pass, and sets each tile's ADC full scale from one column-sum reduction.
Every later call with the same weights — every image of a batch, every
repeated inference — reuses the programmed plan without touching the PCM
again.  Programming is accounted per physical tile, in plan order: two
programming events, both arrays' ``cells × pcm_programming_energy_j`` and
one pass of programming time each.  A tile's cells are the full padded
``rows × columns`` array, so the plan charges ``2·rows·columns`` cells per
tile where :mod:`repro.perf.power` charges the layer's ``k·n`` real cells
once; for LeNet on the 128×128 chip the plan's figure is 4.80× the power
model's (``docs/architecture.md`` explains both).  These statistics survive
cache eviction and are reported by :meth:`functional_statistics`.

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
noisy outputs do not depend on the order in which tile plans were built.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.concurrency import make_rlock, thread_shared
from repro.config.chip import ChipConfig
from repro.config.presets import optimal_chip
from repro.core.sharding import ShardedExecutionEngine
from repro.crossbar.dual_core import DualCoreCrossbar, ProgrammingJob
from repro.crossbar.noise import CrossbarNoiseModel
from repro.crossbar.signed import SignedCrossbarEngine
from repro.errors import SimulationError
from repro.nn.im2col import GemmShape, conv_weights_matrix, im2col_matrix
from repro.nn.network import Network
from repro.perf.metrics import PerformanceMetrics, evaluate_runtime
from repro.scalesim.runtime import NetworkRuntime
from repro.scalesim.schedule import tile_jobs
from repro.scalesim.simulator import CrossbarDataflowSimulator
from repro.scalesim.tiling import GemmTiling


class _MatrixBytes(bytes):
    """Bytes hashed by their length and ends; equality is still a full memcmp."""

    def __hash__(self) -> int:
        return hash((len(self), self[:64], self[-64:]))


@dataclass
class _TilePlan:
    """The full programmed tiling of one weight matrix.

    ``engine`` holds and reads the programmed layer; ``tiling`` is its grid
    of physical tiles.
    """

    engine: SignedCrossbarEngine
    tiling: GemmTiling


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
            ("tile_cache_evictions", "eviction"),
        )
        if key in stats
    ]
    if cache_samples:
        families.append(
            {
                "name": "repro_accelerator_tile_cache_total",
                "type": "counter",
                "help": "Programmed tile-plan cache events by kind.",
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
    max_cached_weight_plans:
        Upper bound on the number of distinct weight matrices whose
        programmed tile plans are kept alive (LRU eviction beyond it).
    """

    def __init__(
        self,
        config: Optional[ChipConfig] = None,
        noise_model: Optional[CrossbarNoiseModel] = None,
        seed: int = 0,
        max_cached_weight_plans: int = 64,
    ) -> None:
        self.config = config or optimal_chip()
        self.noise_model = noise_model
        self._seed_sequence = np.random.SeedSequence(seed)
        self.sharding = ShardedExecutionEngine(self.config)
        self._simulator = CrossbarDataflowSimulator(self.config)
        if max_cached_weight_plans < 1:
            raise SimulationError(
                f"max_cached_weight_plans must be >= 1, got {max_cached_weight_plans}"
            )
        self._max_cached_weight_plans = max_cached_weight_plans
        # Serialises tile-plan cache mutation and statistics accumulation so
        # concurrent `linear` calls (thread-pool serving) cannot lose counter
        # increments or corrupt the LRU order.  GEMM execution itself happens
        # outside the lock.  Scope: with a noise model, concurrent `linear`
        # calls on one accelerator interleave the per-tile generator state in
        # arrival order, so noisy outputs are not reproducible across such
        # runs (counters stay exact); callers that need reproducible noise
        # must not share one accelerator across threads — the serving pool's
        # replicas are checked out exclusively for this reason.
        self._stats_lock = make_rlock("OpticalCrossbarAccelerator._stats_lock")
        self._tile_plans: "OrderedDict[Tuple, _TilePlan]" = OrderedDict()
        self._functional_stats = {
            "programming_events": 0,
            "programming_energy_j": 0.0,
            "programming_time_s": 0.0,
            "tile_cache_hits": 0,
            "tile_cache_misses": 0,
            "tile_cache_evictions": 0,
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
    def _weight_key(self, weights: np.ndarray) -> Tuple:
        """Content-identity key of a weight matrix (shape + a copy of its bytes)."""
        return (weights.shape, _MatrixBytes(np.ascontiguousarray(weights)))

    def _noise_rng(self, key: Tuple) -> np.random.Generator:
        """The generator the field noise of the plan identified by ``key`` draws from.

        It is seeded from a sequence keyed by the accelerator seed, the
        matrix's shape and a SHA-1 digest of its bytes, so the layer
        engine's per-tile children depend only on (seed, weights, tile
        index), not on how many plans were built before.
        """
        shape, data = key
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=self._seed_sequence.entropy,
                spawn_key=tuple(int(dim) for dim in shape) + tuple(hashlib.sha1(data).digest()),
            )
        )

    def _build_tile_plan_locked(self, weights: np.ndarray, key: Tuple) -> _TilePlan:
        """Program ``weights`` onto the tile grid in one pass."""
        k, n = weights.shape
        rows, columns = self.config.rows, self.config.columns
        noise = self.noise_model
        field_noise = noise is not None and not noise.is_field_deterministic
        engine = SignedCrossbarEngine(
            k,
            n,
            technology=self.config.technology,
            noise_model=noise,
            rng=self._noise_rng(key) if field_noise else None,
            tile_shape=(rows, columns),
        )
        engine.program(weights)
        energy_j, time_s = engine.tile_programming_cost()
        tiling = self._tiling(weights.shape)
        stats = self._functional_stats
        for _ in range(tiling.num_tiles):
            stats["programming_events"] += 2
            stats["programming_energy_j"] += energy_j
            stats["programming_time_s"] += time_s
        return _TilePlan(engine=engine, tiling=tiling)

    def _tiling(self, shape: Tuple[int, int]) -> GemmTiling:
        """The physical tiles of a (k, n) weight matrix on this chip."""
        k, n = shape
        return GemmTiling(GemmShape("", 1, k, n), self.config.rows, self.config.columns)

    def _programmed_tile_plan(self, weights: np.ndarray) -> _TilePlan:
        """Fetch (or build and cache) the programmed tile plan for ``weights``."""
        key = self._weight_key(weights)
        with self._stats_lock:
            plan = self._tile_plans.get(key)
            if plan is not None:
                self._tile_plans.move_to_end(key)
                self._functional_stats["tile_cache_hits"] += 1
                return plan
            self._functional_stats["tile_cache_misses"] += 1
            plan = self._build_tile_plan_locked(weights, key)
            self._tile_plans[key] = plan
            while len(self._tile_plans) > self._max_cached_weight_plans:
                self._tile_plans.popitem(last=False)
                self._functional_stats["tile_cache_evictions"] += 1
            return plan

    def clear_functional_cache(self) -> None:
        """Drop every cached programmed tile plan (statistics are kept)."""
        with self._stats_lock:
            self._tile_plans.clear()

    def functional_statistics(self) -> Dict[str, object]:
        """Aggregate PCM programming, tile-cache and sharding statistics.

        ``programming_events`` counts full-array programming passes, two per
        physical tile of every plan ever built by :meth:`linear` (eviction
        does not erase history), so repeated inference with the same weights
        leaves the count unchanged.  ``per_core_tile_dispatches`` and
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
        ``weights.shape`` is read: nothing is programmed, and the tile cache
        and functional statistics are untouched.
        """
        if num_vectors < 1:
            raise SimulationError(f"num_vectors must be >= 1, got {num_vectors}")
        return tile_jobs(self._tiling(np.shape(weights)), self.config, num_vectors)

    def analytical_schedule(self, weights: np.ndarray, num_vectors: int) -> Dict[str, float]:
        """:meth:`DualCoreCrossbar.summarize` of :meth:`programming_jobs`."""
        return DualCoreCrossbar.summarize(self.programming_jobs(weights, num_vectors))

    def linear(self, weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Compute ``inputs @ weights`` on the functional crossbar, tile by tile.

        Parameters
        ----------
        weights:
            Signed weight matrix of shape (k, n).
        inputs:
            Input matrix of shape (num_vectors, k) or vector of shape (k,).

        Returns
        -------
        numpy.ndarray
            Result of shape (num_vectors, n) (or (n,) for a single vector),
            computed with INT6 quantisation of weights, inputs and outputs.

        The weight matrix is programmed at most once (see module docstring);
        the layer engine then reads the whole input batch, one stacked exact
        code GEMM over all its row tiles without noise.
        """
        weights = np.asarray(weights, dtype=float)
        inputs = np.asarray(inputs, dtype=float)
        if weights.ndim != 2:
            raise SimulationError(f"weights must be 2-D, got shape {weights.shape}")
        single_vector = inputs.ndim == 1
        if single_vector:
            inputs = inputs[None, :]
        if inputs.ndim != 2 or inputs.shape[1] != weights.shape[0]:
            raise SimulationError(
                f"inputs of shape {inputs.shape} are incompatible with weights of "
                f"shape {weights.shape}"
            )

        plan = self._programmed_tile_plan(weights)
        result, report = self.sharding.execute(plan, inputs)
        with self._stats_lock:
            self._functional_stats["sharded_dispatches"] += 1
            for core in range(self.config.num_cores):
                self._per_core_tile_dispatches[core] += report.core_tile_counts[core]
                self._per_core_busy_time_s[core] += report.core_busy_time_s[core]
        return result[0] if single_vector else result

    def conv2d(
        self,
        feature_map: np.ndarray,
        weights: np.ndarray,
        stride: int = 1,
        padding: int = 0,
    ) -> np.ndarray:
        """Run a 2-D convolution on the functional crossbar via im2col.

        Parameters
        ----------
        feature_map:
            Input of shape (H, W, C_in), or a batch of shape (B, H, W, C_in).
        weights:
            Filters of shape (k, k, C_in, C_out).

        A batched input unrolls every image's receptive fields into one
        im2col matrix and runs them through :meth:`linear` in a single pass,
        programming the filter tiles exactly once for the whole batch.
        """
        feature_map = np.asarray(feature_map, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 4:
            raise SimulationError(
                f"conv2d weights must have shape (k, k, C_in, C_out), "
                f"got shape {weights.shape}"
            )
        if weights.shape[0] != weights.shape[1]:
            raise SimulationError(
                f"conv2d supports square kernels only, "
                f"got {weights.shape[0]}x{weights.shape[1]}"
            )
        if feature_map.ndim not in (3, 4):
            raise SimulationError(
                f"conv2d feature_map must have shape (H, W, C_in) or "
                f"(B, H, W, C_in), got shape {feature_map.shape}"
            )
        if feature_map.shape[-1] != weights.shape[2]:
            raise SimulationError(
                f"conv2d feature_map has {feature_map.shape[-1]} channels but "
                f"weights expect {weights.shape[2]}"
            )
        kernel = weights.shape[0]
        unrolled = im2col_matrix(feature_map, kernel, stride, padding)
        flat_weights = conv_weights_matrix(weights)
        batched = feature_map.ndim == 4
        height, width = feature_map.shape[1:3] if batched else feature_map.shape[:2]
        out_h = (height + 2 * padding - kernel) // stride + 1
        out_w = (width + 2 * padding - kernel) // stride + 1
        if batched:
            num_images, patches, patch_len = unrolled.shape
            product = self.linear(
                flat_weights, unrolled.reshape(num_images * patches, patch_len)
            )
            return product.reshape(num_images, out_h, out_w, flat_weights.shape[1])
        product = self.linear(flat_weights, unrolled)
        return product.reshape(out_h, out_w, flat_weights.shape[1])

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
