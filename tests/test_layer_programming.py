"""Layer-wise PCM programming: oracles against one-tile programming.

A tile plan programs a whole weight matrix block by block, straight into
the layout its read uses.  These tests pin that pass to programming every
physical tile on its own: each tile's weight scale, level codes, ADC full
scale and code denominator must equal those of a one-tile
:class:`SignedCrossbarEngine` (and of the numpy per-tile computation it
replaced), ``linear`` must equal reading one-tile engines tile by tile, and
the noisy path must draw exactly what per-tile engines seeded from the same
content-keyed ``SeedSequence`` children draw.
The accounting is checked by counting, not by timing, and the memory
programming keeps and passes through by ``tracemalloc``.  The transmission
pass behind each full scale is pinned to its three-step formula and its
row-by-row summation order, and threads programming at once to serial
programming.
"""

import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
import schedule_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TechnologyConfig, default_sweep_chip, optimal_chip, small_test_chip
from repro.core.accelerator import OpticalCrossbarAccelerator
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.crossbar import CrossbarArray, CrossbarNoiseModel, SignedCrossbarEngine
from repro.crossbar.array import _BLOCK_ELEMENTS, _SCRATCH, tile_scales
from repro.nn import build_lenet5
from repro.nn.im2col import conv_weights_matrix
from repro.nn.quant import split_signed_matrix
from repro.photonics.pcm import levels_to_transmission

TECHNOLOGIES = {
    "ideal": TechnologyConfig(),
    "dark floor": TechnologyConfig(pcm_min_transmission=0.05),
}


def _spans(k, n, rows, columns):
    """Physical tiles of a (k, n) matrix in plan order."""
    return [
        (k_start, min(k_start + rows, k), n_start, min(n_start + columns, n))
        for k_start in range(0, k, rows)
        for n_start in range(0, n, columns)
    ]


def _padded_tile(weights, span, rows, columns):
    k_start, k_end, n_start, n_end = span
    tile = np.zeros((rows, columns))
    tile[: k_end - k_start, : n_end - n_start] = weights[k_start:k_end, n_start:n_end]
    return tile


def _padded_inputs(inputs, span, rows):
    k_start, k_end = span[:2]
    padded = np.zeros((inputs.shape[0], rows))
    padded[:, : k_end - k_start] = inputs[:, k_start:k_end]
    return padded


def numpy_tile(tile, technology):
    """One tile programmed array by array with plain numpy, as one tile alone is.

    Returns the weight scale and, for ``W+`` then ``W-``, the level codes,
    the ADC full scale and the code denominator ``L_a·S``.
    """
    scale = float(np.max(np.abs(tile)))
    scale = scale if scale > 0 else 1.0
    activation_max = (1 << technology.activation_bits) - 1
    arrays = []
    weight_max = technology.pcm_levels - 1
    span = technology.pcm_max_transmission - technology.pcm_min_transmission
    for part in split_signed_matrix(tile / scale):
        codes = np.round(np.clip(part, 0.0, 1.0) * weight_max)
        quantised = technology.pcm_min_transmission + span * codes / weight_max
        full_scale = max(float(quantised.sum(axis=0).max()), 1e-9)
        code_scale = activation_max * max(float(codes.sum(axis=0).max()), 1.0)
        arrays.append((codes, full_scale, code_scale))
    return scale, arrays


def per_tile_linear(config, weights, inputs, noise_model=None, seeds=None):
    """``inputs @ weights`` read one physical tile at a time, summed in plan order."""
    rows, columns = config.rows, config.columns
    result = np.zeros((inputs.shape[0], weights.shape[1]))
    for index, span in enumerate(_spans(*weights.shape, rows, columns)):
        rng = None if seeds is None else np.random.default_rng(seeds[index])
        engine = SignedCrossbarEngine(
            rows, columns, technology=config.technology, noise_model=noise_model, rng=rng
        )
        engine.program(_padded_tile(weights, span, rows, columns))
        partial = engine.matmul(_padded_inputs(inputs, span, rows))
        result[:, span[2] : span[3]] += partial[:, : span[3] - span[2]]
    return result


def content_sequence(seed, weights):
    """The ``SeedSequence`` keyed by ``seed`` and the weight content."""
    weights = np.ascontiguousarray(weights)
    digest = hashlib.sha1(weights.tobytes()).digest()
    return np.random.SeedSequence(
        entropy=np.random.SeedSequence(seed).entropy,
        spawn_key=tuple(int(dim) for dim in weights.shape) + tuple(digest),
    )


def content_seeds(seed, weights, count):
    """The content-keyed per-tile ``SeedSequence`` children of a plan."""
    return content_sequence(seed, weights).spawn(count)


def _plan(accelerator, weights):
    """A layer of ``weights``, programmed by one read of a zero vector."""
    layer = accelerator.layer(weights)
    accelerator.linear(layer, np.zeros(layer.tiling.gemm.k))
    return layer


@st.composite
def layer_cases(draw):
    rows = draw(st.integers(1, 12))
    columns = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3 * rows))
    n = draw(st.integers(1, 3 * columns))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.sampled_from([-2.0, 0.0]))  # mixed signs, or non-negative
    weights = rng.uniform(low, 2.0, (k, n)) * draw(st.sampled_from([1.0, -1.0]))
    # Now and then a whole tile is all-dark (+0 or -0 weights) or all-negative.
    for span in _spans(k, n, rows, columns):
        tile = weights[span[0] : span[1], span[2] : span[3]]
        kind = draw(st.integers(0, 5))
        if kind < 2:
            tile[...] = (0.0, -0.0)[kind]
        elif kind == 2:
            tile[...] = -np.abs(tile)
    # Scattered -0 weights, and weights that round to a zero code.
    weights[rng.uniform(size=(k, n)) < 0.1] = -0.0
    weights[rng.uniform(size=(k, n)) < 0.1] *= 1e-4
    inputs = rng.uniform(-1.0, 1.0, (3, k))
    inputs[0] = np.abs(inputs[0])
    inputs[1] = 0.0
    technology = TECHNOLOGIES[draw(st.sampled_from(sorted(TECHNOLOGIES)))]
    return small_test_chip(rows=rows, columns=columns, technology=technology), weights, inputs


class TestLayerProgrammingOracle:
    @given(layer_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_tile_equals_one_tile_programming(self, case):
        config, weights, inputs = case
        rows, columns = config.rows, config.columns
        technology = config.technology
        accelerator = OpticalCrossbarAccelerator(config)
        plan = _plan(accelerator, weights)
        grid_columns = -(-weights.shape[1] // columns)
        for index, span in enumerate(_spans(*weights.shape, rows, columns)):
            tile = _padded_tile(weights, span, rows, columns)
            alone = SignedCrossbarEngine(rows, columns, technology=technology)
            alone.program(tile)
            planned = plan.engine.tile(*divmod(index, grid_columns))
            scale, reference = numpy_tile(tile, technology)
            assert planned.weight_scale == alone.weight_scale == scale
            for planned_array, alone_array, (codes, full_scale, code_scale) in zip(
                (planned.positive_array, planned.negative_array),
                (alone.positive_array, alone.negative_array),
                reference,
            ):
                assert np.array_equal(planned_array._codes, alone_array._codes)
                assert np.array_equal(planned_array._codes, codes)
                assert not np.signbit(planned_array._codes).any()  # every zero code is +0
                assert planned_array.adc_full_scale == alone_array.adc_full_scale == full_scale
                assert np.array_equal(
                    planned_array._column_code_scale, alone_array._column_code_scale
                )
                assert np.all(planned_array._column_code_scale == code_scale)

    @given(layer_cases())
    @settings(max_examples=60, deadline=None)
    def test_linear_equals_reading_tile_by_tile(self, case):
        config, weights, inputs = case
        accelerator = OpticalCrossbarAccelerator(config)
        expected = per_tile_linear(config, weights, inputs)
        layer = accelerator.layer(weights)
        assert accelerator.linear(layer, inputs).tobytes() == expected.tobytes()
        # The programmed layer reads the same.
        assert accelerator.linear(layer, inputs).tobytes() == expected.tobytes()


class TestNoisyLayerProgramming:
    @pytest.mark.parametrize("shape", [(7, 5), (30, 17), (9, 4)])
    def test_noisy_linear_draws_like_seeded_per_tile_engines(self, shape):
        config = small_test_chip()
        noise = CrossbarNoiseModel(relative_amplitude_noise=0.05, additive_noise_floor=0.01)
        rng = np.random.default_rng(sum(shape))
        weights = rng.normal(size=shape)
        inputs = rng.uniform(-1.0, 1.0, (4, shape[0]))
        accelerator = OpticalCrossbarAccelerator(config, noise_model=noise, seed=11)
        seeds = content_seeds(11, weights, len(_spans(*shape, config.rows, config.columns)))
        expected = per_tile_linear(config, weights, inputs, noise, seeds)
        assert accelerator.linear(weights, inputs).tobytes() == expected.tobytes()

    def test_noisy_plan_reads_one_engine_per_physical_tile(self):
        config = small_test_chip()
        noise = CrossbarNoiseModel(relative_amplitude_noise=0.05)
        accelerator = OpticalCrossbarAccelerator(config, noise_model=noise)
        plan = _plan(accelerator, np.ones((20, 10)))
        tile_engines = plan.engine._tile_engines
        assert len(tile_engines) == plan.tiling.num_tiles == 6
        assert len({id(engine) for engine in tile_engines}) == 6

    def test_noisy_layer_read_equals_seeded_per_tile_engines(self):
        config = small_test_chip()
        noise = CrossbarNoiseModel.pessimistic()
        rng = np.random.default_rng(5)
        weights = rng.normal(size=(20, 11))  # a ragged 3x2 grid of 8x8 tiles
        inputs = rng.uniform(-1.0, 1.0, (4, 20))
        inputs[1] = 0.0
        inputs[2, :8] = 0.0  # one vector with an all-zero row tile
        engine = SignedCrossbarEngine(
            20,
            11,
            technology=config.technology,
            noise_model=noise,
            rng=np.random.default_rng(content_sequence(11, weights)),
            tile_shape=(config.rows, config.columns),
        )
        engine.program(weights)
        seeds = content_seeds(11, weights, 6)
        tiles = [
            SignedCrossbarEngine(
                config.rows,
                config.columns,
                technology=config.technology,
                noise_model=noise,
                rng=np.random.default_rng(seed),
            )
            for seed in seeds
        ]
        for tile, span in zip(tiles, _spans(20, 11, config.rows, config.columns)):
            tile.program(_padded_tile(weights, span, config.rows, config.columns))
        # Each tile's stream carries on from one read to the next.
        for _ in range(2):
            expected = np.zeros((4, 11))
            for tile, span in zip(tiles, _spans(20, 11, config.rows, config.columns)):
                partial = tile.matmul(_padded_inputs(inputs, span, config.rows))
                expected[:, span[2] : span[3]] += partial[:, : span[3] - span[2]]
            assert engine.matmul(inputs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "noise", [None, CrossbarNoiseModel.pessimistic()], ids=["noiseless", "pessimistic"]
    )
    def test_multi_row_tile_engine_reads_like_linear(self, noise):
        config = small_test_chip()
        rng = np.random.default_rng(6)
        weights = rng.normal(size=(20, 11))  # a 3x2 grid of 8x8 tiles
        inputs = rng.uniform(-1.0, 1.0, (5, 20))

        def layer_engine():
            engine = SignedCrossbarEngine(
                20,
                11,
                technology=config.technology,
                noise_model=noise,
                rng=np.random.default_rng(content_sequence(11, weights)),
                tile_shape=(config.rows, config.columns),
            )
            engine.program(weights)
            return engine

        def linear(batch):
            accelerator = OpticalCrossbarAccelerator(config, noise_model=noise, seed=11)
            return accelerator.linear(weights, batch)

        assert layer_engine().matmul(inputs).tobytes() == linear(inputs).tobytes()
        assert layer_engine().matvec(inputs[0]).tobytes() == linear(inputs[0]).tobytes()


class _Counter:
    """Counts ``SignedCrossbarEngine`` constructions and spawned seed children."""

    def __init__(self, monkeypatch):
        self.engines = 0
        self.children = 0
        counter = self
        original_init = SignedCrossbarEngine.__init__

        def counting_init(engine, *args, **kwargs):
            counter.engines += 1
            original_init(engine, *args, **kwargs)

        class CountingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                counter.children += n_children
                return super().spawn(n_children)

        monkeypatch.setattr(SignedCrossbarEngine, "__init__", counting_init)
        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)


def _pass_time_s(technology, rows, columns):
    write = technology.pcm_programming_time_s
    return {
        "array": write,
        "row": rows * write,
    }.get(technology.pcm_program_parallelism, rows * columns * write)


def _lenet_matrices():
    weights = generate_random_weights(build_lenet5(), seed=4, scale=0.3)
    return [
        conv_weights_matrix(matrix) if matrix.ndim == 4 else matrix
        for matrix in weights.values()
    ]


class TestCountedAccounting:
    def test_noiseless_build_spawns_no_seeds_and_few_engines(self, monkeypatch):
        config = default_sweep_chip()
        accelerator = OpticalCrossbarAccelerator(config)
        counter = _Counter(monkeypatch)
        for matrix in _lenet_matrices():
            before = counter.engines
            accelerator.linear(matrix, np.ones((1, matrix.shape[0])))
            row_tiles = -(-matrix.shape[0] // config.rows)
            assert 1 <= counter.engines - before <= row_tiles
        assert counter.children == 0

    def test_noisy_build_spawns_one_child_per_physical_tile(self, monkeypatch):
        config = default_sweep_chip()
        accelerator = OpticalCrossbarAccelerator(
            config, noise_model=CrossbarNoiseModel(relative_amplitude_noise=0.05)
        )
        counter = _Counter(monkeypatch)
        tiles = 0
        for matrix in _lenet_matrices():
            accelerator.linear(matrix, np.ones((1, matrix.shape[0])))
            tiles += len(_spans(*matrix.shape, config.rows, config.columns))
        assert counter.children == tiles

    @pytest.mark.parametrize("make_config", [default_sweep_chip, optimal_chip])
    def test_statistics_equal_per_tile_sums(self, make_config):
        config = make_config()
        technology = config.technology
        rows, columns, cores = config.rows, config.columns, config.num_cores
        tile_energy = 2 * (rows * columns * technology.pcm_programming_energy_j)
        tile_time = _pass_time_s(technology, rows, columns)
        accelerator = OpticalCrossbarAccelerator(config)
        events, energy, time_s = 0, 0.0, 0.0
        dispatches, busy = [0] * cores, [0.0] * cores
        matrices = _lenet_matrices()
        layers = [accelerator.layer(matrix) for matrix in matrices]
        for batch in (3, 1):
            for matrix, layer in zip(matrices, layers):
                accelerator.linear(layer, np.ones((batch, matrix.shape[0])))
                tiles = len(_spans(*matrix.shape, rows, columns))
                if batch == 3:  # The second pass reads the programmed layers.
                    for _ in range(tiles):
                        events += 2
                        energy += tile_energy
                        time_s += tile_time
                report = [0.0] * cores
                for index in range(tiles):
                    dispatches[index % cores] += 1
                    report[index % cores] += tile_time + batch / config.mac_clock_hz
                for core in range(cores):
                    busy[core] += report[core]
        stats = accelerator.functional_statistics()
        assert stats["programming_events"] == events
        assert stats["programming_energy_j"] == energy
        assert stats["programming_time_s"] == time_s
        assert stats["tile_cache_misses"] == stats["tile_cache_hits"] == 5
        assert stats["per_core_tile_dispatches"] == tuple(dispatches)
        assert stats["per_core_busy_time_s"] == tuple(busy)

        for matrix in _lenet_matrices():
            tiles = len(_spans(*matrix.shape, rows, columns))
            jobs = [(tile_time, 8 / config.mac_clock_hz)] * tiles
            schedule = accelerator.analytical_schedule(matrix, 8)
            for cores, label in ((1, "single"), (2, "dual")):
                assert schedule[f"{label}_core_makespan_s"] == pytest.approx(
                    schedule_oracle.makespan_s(jobs, cores), rel=1e-12
                )
        assert accelerator.functional_statistics() == stats


def _tile_by_tile(engine, inputs):
    """``engine``'s noiseless ``tile()`` engines read one at a time, summed in plan order."""
    rows, columns = engine.tile_shape
    result = np.zeros((inputs.shape[0], engine.columns))
    for index, span in enumerate(_spans(engine.rows, engine.columns, rows, columns)):
        partial = engine.tile(*divmod(index, engine.grid[1])).matmul(
            _padded_inputs(inputs, span, rows)
        )
        result[:, span[2] : span[3]] += partial[:, : span[3] - span[2]]
    return result


class TestStackedLayerRead:
    @pytest.mark.parametrize(
        "shape, tile_shape",
        [
            ((20, 11), (8, 8)),
            ((37, 19), (16, 8)),
            ((150, 16), (128, 128)),
            ((400, 120), (32, 32)),
        ],
    )
    def test_stacked_read_equals_tile_engines_in_plan_order(self, shape, tile_shape):
        k, n = shape
        rows = tile_shape[0]
        rng = np.random.default_rng(k + n)
        weights = rng.normal(size=shape)
        engine = SignedCrossbarEngine(k, n, tile_shape=tile_shape)
        engine.program(weights)
        mixed = rng.uniform(-1.0, 1.0, (6, k))  # every row tile has both signs
        mixed[1] = 0.0  # a zero vector
        mixed[2, :rows] = 0.0  # an all-zero row-tile slice
        one_sided = rng.uniform(0.0, 1.0, (5, k))
        one_sided[0, -1] = -0.25  # only the last row tile sees a negative input
        one_sided[3] = 0.0
        one_sided[4, :rows] = 0.0
        cases = [mixed, np.abs(mixed), one_sided, np.zeros((3, k))]
        for inputs in cases:
            expected = _tile_by_tile(engine, inputs)
            assert engine.matmul(inputs).tobytes() == expected.tobytes()
            for vector, row in zip(inputs, expected):
                assert engine.matvec(vector).tobytes() == row.tobytes()


class TestLayerReadCount:
    @staticmethod
    def _count_reads(monkeypatch, owner):
        sizes = []
        original = owner.matmul

        def counting(self, inputs, *args, **kwargs):
            sizes.append(len(inputs))
            return original(self, inputs, *args, **kwargs)

        monkeypatch.setattr(owner, "matmul", counting)
        return sizes

    @pytest.mark.parametrize("make_config", [default_sweep_chip, optimal_chip])
    def test_noiseless_run_batch_reads_each_layer_once(self, monkeypatch, make_config):
        network = build_lenet5()
        engine = FunctionalInferenceEngine(
            network, generate_random_weights(network, seed=4, scale=0.3), make_config()
        )
        images = np.random.default_rng(0).uniform(0.0, 1.0, (3, *network.input_shape.as_tuple()))
        expected = engine.run_batch(images)
        reads = self._count_reads(monkeypatch, CrossbarArray)
        assert np.array_equal(engine.run_batch(images), expected)
        assert len(reads) == len(network.crossbar_layers) == 5

    @pytest.mark.parametrize("make_config", [default_sweep_chip, optimal_chip])
    def test_noisy_run_batch_reads_each_physical_tile(self, monkeypatch, make_config):
        config = make_config()
        network = build_lenet5()
        weights = generate_random_weights(network, seed=4, scale=0.3)
        engine = FunctionalInferenceEngine(
            network, weights, config, noise_model=CrossbarNoiseModel.pessimistic()
        )
        images = np.random.default_rng(0).uniform(0.0, 1.0, (3, *network.input_shape.as_tuple()))
        engine.run_batch(images)
        tile_reads = self._count_reads(monkeypatch, SignedCrossbarEngine)
        array_reads = self._count_reads(monkeypatch, CrossbarArray)
        engine.run_batch(images)
        tiles = sum(
            len(_spans(*matrix.shape, config.rows, config.columns)) for matrix in _lenet_matrices()
        )
        # One tile engine per physical tile under each layer engine; its
        # non-negative (post-ReLU) inputs read the W+ and the W- array once.
        assert len(tile_reads) == 5 + tiles
        assert len(array_reads) == 2 * tiles


class TestProgrammingMemory:
    def test_program_keeps_one_code_layout_and_one_block_of_temporaries(self):
        config = default_sweep_chip()
        weights = _lenet_matrices()[2]  # fc1: a 13x4 grid of 32x32 tiles
        assert weights.shape == (400, 120)

        def programmed():
            engine = SignedCrossbarEngine(
                *weights.shape,
                technology=config.technology,
                tile_shape=(config.rows, config.columns),
            )
            engine.program(weights)
            return engine

        programmed()  # makes this thread's programming block
        kept = _SCRATCH.block
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine = programmed()
            retained, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        # The thread keeps one block, at most one read block of float64s, and
        # reuses it.
        assert _SCRATCH.block is kept
        assert kept.nbytes <= 8 * _BLOCK_ELEMENTS
        grid_rows, grid_columns = engine.grid
        read_columns = 2 * weights.shape[1]  # K+ and K- of each real column
        # The read layout: float32 level codes of every row tile's read columns.
        layout = grid_rows * config.rows * read_columns * 4
        # Float64 scalars: the reader's full scale and L_a·S per read column
        # and weight scale per real column, and five per tile (weight scale,
        # two full scales, two denominators).
        scalars = 8 * grid_rows * (2 * read_columns + weights.shape[1] + 5 * grid_columns)
        objects = 16 * 1024  # the engine's and its reader's Python objects
        assert retained <= layout + scalars + objects
        # Per-block column sums and the reader's per-column copies: no block
        # buffer is allocated.
        assert peak - retained <= 64 * 1024


def _three_step_transmissions(codes, technology):
    """``span·c/(L-1) + t_min``, each step a separate pass."""
    span = technology.pcm_max_transmission - technology.pcm_min_transmission
    transmissions = span * codes
    transmissions = transmissions / (technology.pcm_levels - 1)
    return transmissions + technology.pcm_min_transmission


@st.composite
def level_codes(draw, shape):
    """Float level codes of ``shape``, zeros drawn with both signs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, 64, shape).astype(float)
    codes[rng.uniform(size=shape) < 0.3] = draw(st.sampled_from([0.0, -0.0]))
    codes[rng.uniform(size=shape) < 0.1] = -0.0
    return codes


class TestTransmissionPass:
    @pytest.mark.parametrize("name", sorted(TECHNOLOGIES))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_levels_to_transmission_is_the_three_step_formula(self, name, data):
        technology = TECHNOLOGIES[name]
        codes = data.draw(level_codes((data.draw(st.integers(1, 40)),)))
        expected = _three_step_transmissions(codes, technology)
        arguments = (
            technology.pcm_levels,
            technology.pcm_min_transmission,
            technology.pcm_max_transmission,
        )
        copy = codes.copy()
        assert levels_to_transmission(copy, *arguments).tobytes() == expected.tobytes()
        assert copy.tobytes() == codes.tobytes()  # not written without ``out``
        in_place = levels_to_transmission(copy, *arguments, out=copy)
        assert in_place is copy
        assert copy.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(TECHNOLOGIES))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_tile_scales_are_those_of_the_three_step_transmissions(self, name, data):
        technology = TECHNOLOGIES[name]
        tiles, rows = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 9))
        tile_columns, grid_columns = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        codes = data.draw(level_codes((tiles, rows, grid_columns * tile_columns)))
        transmissions = _three_step_transmissions(codes, technology)
        if tile_columns == 1:  # a one-column tile alone is one pairwise sum
            sums = np.ascontiguousarray(transmissions.transpose(0, 2, 1)).sum(axis=2)
        else:  # a wider tile is summed row after row
            sums = np.cumsum(transmissions, axis=1)[:, -1]
        expected = np.maximum(sums.reshape(tiles, grid_columns, tile_columns).max(axis=2), 1e-9)
        written = codes.copy()
        full_scale, _ = tile_scales(written, tile_columns, technology)
        assert full_scale.tobytes() == expected.tobytes()
        # The overwritten codes are the transmissions, up to the sign of a zero.
        assert np.array_equal(written, transmissions)

    def test_multi_column_full_scales_are_row_by_row_sums(self):
        technology = TECHNOLOGIES["ideal"]
        rng = np.random.default_rng(7)
        # Codes whose transmissions round differently in pairwise and in
        # sequential order, over many rows.
        codes = rng.integers(0, 64, (2, 513, 3 * 4)).astype(float)
        transmissions = _three_step_transmissions(codes, technology)
        sequential = np.cumsum(transmissions, axis=1)[:, -1]
        pairwise = np.ascontiguousarray(transmissions.transpose(0, 2, 1)).sum(axis=2)
        assert not np.array_equal(sequential, pairwise)  # the order is visible
        expected = np.maximum(sequential.reshape(2, 3, 4).max(axis=2), 1e-9)
        full_scale, _ = tile_scales(codes.copy(), 4, technology)
        assert full_scale.tobytes() == expected.tobytes()


def _run_together(calls):
    """Each callable's result, each run on its own thread, all released at once."""
    barrier = threading.Barrier(len(calls))
    results, errors = [None] * len(calls), []

    def run(index):
        try:
            barrier.wait()
            results[index] = calls[index]()
        except BaseException as error:  # reported below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(index,)) for index in range(len(calls))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    return results


class TestConcurrentProgramming:
    def test_threads_programming_different_layers_match_serial_programming(self):
        config = default_sweep_chip()
        matrices = _lenet_matrices()

        def programmed_state(weights):
            engine = SignedCrossbarEngine(
                *weights.shape,
                technology=config.technology,
                tile_shape=(config.rows, config.columns),
            )
            engine.program(weights)
            codes, full_scale, code_scale = engine._layout
            return [engine.weight_scale, codes, full_scale, code_scale]

        def programmed_five_times(weights):
            return lambda: [programmed_state(weights) for _ in range(5)]

        serial = [programmed_state(weights) for weights in matrices]
        for pair in ((2, 3), (1, 2), (4, 2)):  # fc1 with fc2, conv2, fc3
            results = _run_together([programmed_five_times(matrices[index]) for index in pair])
            for index, states in zip(pair, results):
                for state in states:
                    for value, reference in zip(state, serial[index]):
                        assert value.dtype == reference.dtype
                        assert value.shape == reference.shape
                        assert value.tobytes() == reference.tobytes()
