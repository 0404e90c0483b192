"""Exact-arithmetic equivalence guard for the functional datapath.

The reference here is an oracle that reads one vector at a time in Python
integers: ODAC codes ``c`` and PCM codes ``k``, the integer sum ``c @ k`` and
an ADC code ``round_half_even(L_o·(c @ k) / (L_a·S))`` evaluated as a
``Fraction``; full-size networks use the same arithmetic in int64 numpy,
checked against it.  The tiled ``linear``/``conv2d`` references re-program every
tile per call and read per vector, and im2col and pooling keep the seed's
per-patch / per-window loops.  In noiseless mode the batched ``matmul`` /
``linear`` / ``conv2d`` / pooling paths must equal them **bitwise**, and a
network's output for an image must not depend on the batch it runs in.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import TechnologyConfig, default_sweep_chip, optimal_chip, small_test_chip
from repro.core.accelerator import OpticalCrossbarAccelerator
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.crossbar import CrossbarArray, SignedCrossbarEngine
from repro.nn import build_lenet5
from repro.nn.im2col import conv_weights_matrix, im2col_matrix

# ---------------------------------------------------------------------------
# Exact per-vector oracle and the seed's per-call tiling / per-patch loops.
# ---------------------------------------------------------------------------


def exact_array_matvec(array: CrossbarArray, vector, quantize: bool = True) -> np.ndarray:
    """One vector through ``array`` in exact integer arithmetic.

    Quantised, column ``j`` is ``round_half_even(L_o·dot_j / (L_a·S))`` times
    ``adc_full_scale / L_o``; ``S`` is the largest column code sum.  Analog,
    it is ``sum_i (c_i/L_a)·(k_ij/L_w)`` rounded once to float.
    """
    technology = array.technology
    activation_max = (1 << technology.activation_bits) - 1
    weight_max = technology.pcm_levels - 1
    output_max = (1 << technology.output_bits) - 1
    drive = [round(min(max(float(v), 0.0), 1.0) * activation_max) for v in vector]
    codes = [[round(float(w) * weight_max) for w in row] for row in array.weights]
    columns = range(array.columns)
    dots = [sum(c * row[j] for c, row in zip(drive, codes)) for j in columns]
    if not quantize:
        return np.array([float(Fraction(dot, activation_max * weight_max)) for dot in dots])
    largest = max(max(sum(row[j] for row in codes) for j in columns), 1)
    return np.array(
        [
            round(Fraction(output_max * dot, activation_max * largest))
            / output_max
            * array.adc_full_scale
            for dot in dots
        ]
    )


def exact_array_matmul(array: CrossbarArray, inputs: np.ndarray, quantize: bool = True):
    return np.stack([exact_array_matvec(array, vector, quantize) for vector in inputs])


def exact_signed_matvec(engine: SignedCrossbarEngine, inputs: np.ndarray) -> np.ndarray:
    """The seed's SignedCrossbarEngine.matvec (per-vector scale, 4 exact reads)."""
    inputs = np.asarray(inputs, dtype=float)
    input_scale = float(np.max(np.abs(inputs)))
    if input_scale == 0.0:
        return np.zeros(engine.columns)
    normalised = inputs / input_scale
    positive_in = np.clip(normalised, 0.0, None)
    negative_in = np.clip(-normalised, 0.0, None)
    result = exact_array_matvec(engine.positive_array, positive_in) - exact_array_matvec(
        engine.negative_array, positive_in
    )
    if np.any(negative_in > 0):
        result -= exact_array_matvec(engine.positive_array, negative_in) - exact_array_matvec(
            engine.negative_array, negative_in
        )
    return result * engine.weight_scale * input_scale


def exact_signed_matmul(engine: SignedCrossbarEngine, inputs: np.ndarray) -> np.ndarray:
    return np.stack([exact_signed_matvec(engine, vector) for vector in inputs])


def integer_array_matmul(array: CrossbarArray, inputs: np.ndarray) -> np.ndarray:
    """:func:`exact_array_matvec` (quantised) for a batch, in int64 numpy arithmetic.

    The same drive codes, integer dot products and round-half-even ADC
    quotient, with the quotient rounded by integer division instead of a
    ``Fraction``: fast enough for full-size networks.
    """
    technology = array.technology
    activation_max = (1 << technology.activation_bits) - 1
    weight_max = technology.pcm_levels - 1
    output_max = (1 << technology.output_bits) - 1
    drive = np.rint(np.clip(inputs, 0.0, 1.0) * activation_max).astype(np.int64)
    codes = np.rint(array.weights * weight_max).astype(np.int64)
    denominator = activation_max * max(int(codes.sum(axis=0).max()), 1)
    quotient, remainder = np.divmod(output_max * (drive @ codes), denominator)
    ties = (2 * remainder == denominator) & (quotient % 2 == 1)
    adc = quotient + (2 * remainder > denominator) + ties
    return adc / output_max * array.adc_full_scale


def integer_signed_matmul(engine: SignedCrossbarEngine, inputs: np.ndarray) -> np.ndarray:
    """:func:`exact_signed_matmul` with every array read by :func:`integer_array_matmul`."""
    inputs = np.asarray(inputs, dtype=float)
    input_scale = np.max(np.abs(inputs), axis=1, keepdims=True)
    normalised = inputs / np.where(input_scale == 0.0, 1.0, input_scale)
    positive_in = np.clip(normalised, 0.0, None)
    negative_in = np.clip(-normalised, 0.0, None)
    positive, negative = engine.positive_array, engine.negative_array
    result = integer_array_matmul(positive, positive_in) - integer_array_matmul(
        negative, positive_in
    )
    negative_part = integer_array_matmul(positive, negative_in) - integer_array_matmul(
        negative, negative_in
    )
    has_negative = np.any(negative_in > 0, axis=1, keepdims=True)
    result = np.where(has_negative, result - negative_part, result)
    return np.where(input_scale == 0.0, 0.0, result * engine.weight_scale * input_scale)


def seed_linear(
    config, weights: np.ndarray, inputs: np.ndarray, signed_matmul=exact_signed_matmul
) -> np.ndarray:
    """The seed's OpticalCrossbarAccelerator.linear, read by the exact oracle.

    Every tile is re-programmed per call and read by ``signed_matmul`` (by
    default one vector at a time).
    """
    weights = np.asarray(weights, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    single_vector = inputs.ndim == 1
    if single_vector:
        inputs = inputs[None, :]
    k, n = weights.shape
    rows, columns = config.rows, config.columns
    num_vectors = inputs.shape[0]
    result = np.zeros((num_vectors, n))
    for k_start in range(0, k, rows):
        k_end = min(k_start + rows, k)
        tile_rows = k_end - k_start
        for n_start in range(0, n, columns):
            n_end = min(n_start + columns, n)
            tile_cols = n_end - n_start
            tile = np.zeros((rows, columns))
            tile[:tile_rows, :tile_cols] = weights[k_start:k_end, n_start:n_end]
            engine = SignedCrossbarEngine(rows, columns, technology=config.technology)
            engine.program(tile)
            padded_inputs = np.zeros((num_vectors, rows))
            padded_inputs[:, :tile_rows] = inputs[:, k_start:k_end]
            partial = signed_matmul(engine, padded_inputs)
            result[:, n_start:n_end] += partial[:, :tile_cols]
    return result[0] if single_vector else result


def seed_im2col(feature_map: np.ndarray, kernel_size: int, stride: int = 1, padding: int = 0):
    """The seed's per-patch im2col loop."""
    feature_map = np.asarray(feature_map, dtype=float)
    if padding:
        feature_map = np.pad(
            feature_map, ((padding, padding), (padding, padding), (0, 0)), mode="constant"
        )
    padded_h, padded_w = feature_map.shape[:2]
    out_h = (padded_h - kernel_size) // stride + 1
    out_w = (padded_w - kernel_size) // stride + 1
    rows = []
    for out_y in range(out_h):
        for out_x in range(out_w):
            y0 = out_y * stride
            x0 = out_x * stride
            patch = feature_map[y0 : y0 + kernel_size, x0 : x0 + kernel_size, :]
            rows.append(patch.reshape(-1))
    return np.stack(rows, axis=0)


def seed_pool(tensor: np.ndarray, kernel: int, stride: int, padding: int, kind: str):
    """The seed's per-window pooling loops."""
    if padding:
        pad_value = -np.inf if kind == "max" else 0.0
        tensor = np.pad(
            tensor,
            ((padding, padding), (padding, padding), (0, 0)),
            mode="constant",
            constant_values=pad_value,
        )
    height, width, channels = tensor.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    output = np.empty((out_h, out_w, channels))
    for y in range(out_h):
        for x in range(out_w):
            window = tensor[y * stride : y * stride + kernel, x * stride : x * stride + kernel, :]
            output[y, x, :] = window.max(axis=(0, 1)) if kind == "max" else window.mean(axis=(0, 1))
    return output


def seed_conv2d(
    config,
    feature_map: np.ndarray,
    weights: np.ndarray,
    stride: int,
    padding: int,
    signed_matmul=exact_signed_matmul,
):
    """The seed's conv2d: per-patch im2col + per-call tile programming."""
    kernel = np.asarray(weights).shape[0]
    unrolled = seed_im2col(feature_map, kernel, stride, padding)
    flat_weights = conv_weights_matrix(weights)
    product = seed_linear(config, flat_weights, unrolled, signed_matmul)
    feature_map = np.asarray(feature_map, dtype=float)
    out_h = (feature_map.shape[0] + 2 * padding - kernel) // stride + 1
    out_w = (feature_map.shape[1] + 2 * padding - kernel) // stride + 1
    return product.reshape(out_h, out_w, flat_weights.shape[1])


# ---------------------------------------------------------------------------
# Equivalence assertions
# ---------------------------------------------------------------------------


class TestArrayEquivalence:
    def test_batched_matmul_bitwise_matches_per_vector_loop(self):
        rng = np.random.default_rng(0)
        array = CrossbarArray(64, 64)
        array.program_weights(rng.uniform(0, 1, (64, 64)))
        inputs = rng.uniform(0, 1, (64, 64))
        batched = array.matmul(inputs)
        reference = exact_array_matmul(array, inputs)
        assert batched.dtype == reference.dtype
        assert np.array_equal(batched, reference)

    def test_batched_matmul_many_shapes(self):
        rng = np.random.default_rng(1)
        for rows, columns, num in [(8, 8, 3), (16, 12, 31), (33, 7, 65), (5, 40, 2)]:
            array = CrossbarArray(rows, columns)
            array.program_weights(rng.uniform(0, 1, (rows, columns)))
            inputs = rng.uniform(0, 1, (num, rows))
            assert np.array_equal(array.matmul(inputs), exact_array_matmul(array, inputs))

    def test_matvec_bitwise_matches_exact_oracle(self):
        rng = np.random.default_rng(2)
        array = CrossbarArray(32, 24)
        array.program_weights(rng.uniform(0, 1, (32, 24)))
        for _ in range(10):
            vector = rng.uniform(0, 1, 32)
            assert np.array_equal(array.matvec(vector), exact_array_matvec(array, vector))

    def test_exact_tie_rounds_half_to_even(self):
        # Found by a seeded search over 2..8-row tiles.  Column 0 reads
        # 58·0 + 1·49 = 49 against S = 44 + 54 = 98: the ADC argument is
        # exactly 0.5, so the code is 0.  Summing the float products instead
        # rounds it up to 1.
        codes = np.array([[0, 13, 44], [49, 57, 54]])
        drive = np.array([58, 1])
        array = CrossbarArray(2, 3)
        array.program_weights(codes / 63)
        assert Fraction(63 * int(drive @ codes[:, 0]), 63 * 98) == Fraction(1, 2)
        expected = np.array([0.0, 8.0, 27.0]) / 63 * array.adc_full_scale
        assert np.array_equal(array.matvec(drive / 63), expected)
        assert np.array_equal(array.matmul(np.tile(drive / 63, (3, 1))), np.tile(expected, (3, 1)))

    def test_gemm_dtype_follows_exactness_bound(self):
        # 63·63·128 < 2**24 reads in float32; 255·255·300 >= 2**24 needs
        # float64, and both stay exact.
        rng = np.random.default_rng(21)
        small = CrossbarArray(128, 4)
        small.program_weights(rng.uniform(0, 1, (128, 4)))
        assert small._codes.dtype == np.float32
        wide = _technology(8, 8, 8)
        tall = CrossbarArray(300, 2, wide)
        tall.program_weights(rng.uniform(0, 1, (300, 2)))
        assert tall._codes.dtype == np.float64
        inputs = rng.uniform(0, 1, (3, 300))
        assert np.array_equal(tall.matmul(inputs), exact_array_matmul(tall, inputs))

    def test_weights_only_noise_model_keeps_bitwise_guarantee(self):
        # weight_programming_std does not enter the field datapath, so the
        # batched path must still match the per-vector loop bitwise.
        from repro.crossbar import CrossbarNoiseModel

        rng = np.random.default_rng(20)
        model = CrossbarNoiseModel(weight_programming_std=0.05)
        array = CrossbarArray(64, 64, noise_model=model)
        array.program_weights(rng.uniform(0, 1, (64, 64)))
        inputs = rng.uniform(0, 1, (64, 64))
        batched = array.matmul(inputs)
        per_vector = np.stack([array.matvec(vector) for vector in inputs])
        assert np.array_equal(batched, per_vector)

    def test_analog_path_close_to_per_vector(self):
        # The unquantised (analog inspection) path scales the exact integer
        # sums in float64, so it agrees with the exact value to a few ulp.
        rng = np.random.default_rng(3)
        array = CrossbarArray(48, 48)
        array.program_weights(rng.uniform(0, 1, (48, 48)))
        inputs = rng.uniform(0, 1, (16, 48))
        batched = array.matmul(inputs, quantize_output=False)
        reference = exact_array_matmul(array, inputs, quantize=False)
        np.testing.assert_allclose(batched, reference, rtol=1e-14, atol=0)


class TestSignedEquivalence:
    def test_mixed_sign_batch_bitwise(self):
        rng = np.random.default_rng(4)
        engine = SignedCrossbarEngine(24, 16)
        engine.program(rng.normal(size=(24, 16)))
        inputs = rng.normal(size=(40, 24))
        inputs[5] = 0.0  # zero vector inside a mixed batch
        inputs[11] = np.abs(inputs[11])  # all-positive vector inside a mixed batch
        assert np.array_equal(engine.matmul(inputs), exact_signed_matmul(engine, inputs))

    def test_nonnegative_batch_bitwise(self):
        rng = np.random.default_rng(5)
        engine = SignedCrossbarEngine(16, 16)
        engine.program(rng.normal(size=(16, 16)))
        inputs = rng.uniform(0, 1, (20, 16))
        assert np.array_equal(engine.matmul(inputs), exact_signed_matmul(engine, inputs))


_BITS = st.sampled_from([4, 6, 8])


def _technology(weight_bits: int, activation_bits: int, output_bits: int) -> TechnologyConfig:
    return TechnologyConfig(
        weight_bits=weight_bits,
        pcm_levels=1 << weight_bits,
        activation_bits=activation_bits,
        output_bits=output_bits,
    )


def _matrix(data, shape, low: float):
    """A random matrix in [low, 1] with some all-zero rows, or an all-zero one."""
    values = data.draw(
        arrays(float, shape, elements=st.floats(low, 1.0, allow_nan=False))
        | st.just(np.zeros(shape))
    )
    zero_rows = data.draw(st.lists(st.integers(0, shape[0] - 1), max_size=2))
    values[zero_rows] = 0.0
    return values


class TestExactOracleProperties:
    @given(
        rows=st.integers(1, 12),
        columns=st.integers(1, 12),
        num_vectors=st.integers(1, 6),
        weight_bits=_BITS,
        activation_bits=_BITS,
        output_bits=_BITS,
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_array_and_signed_reads_equal_oracle(
        self, rows, columns, num_vectors, weight_bits, activation_bits, output_bits, data
    ):
        technology = _technology(weight_bits, activation_bits, output_bits)
        array = CrossbarArray(rows, columns, technology)
        array.program_weights(_matrix(data, (rows, columns), 0.0))
        inputs = _matrix(data, (num_vectors, rows), 0.0)
        assert np.array_equal(array.matmul(inputs), exact_array_matmul(array, inputs))

        engine = SignedCrossbarEngine(rows, columns, technology)
        engine.program(_matrix(data, (rows, columns), -1.0))
        signed_inputs = _matrix(data, (num_vectors, rows), -1.0)
        assert np.array_equal(
            engine.matmul(signed_inputs), exact_signed_matmul(engine, signed_inputs)
        )

    @given(
        k=st.integers(1, 20),
        n=st.integers(1, 20),
        num_vectors=st.integers(1, 5),
        weight_bits=_BITS,
        activation_bits=_BITS,
        output_bits=_BITS,
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_tiled_linear_equals_oracle(
        self, k, n, num_vectors, weight_bits, activation_bits, output_bits, data
    ):
        config = small_test_chip(
            technology=_technology(weight_bits, activation_bits, output_bits)
        )
        weights = _matrix(data, (k, n), -1.0)
        inputs = _matrix(data, (num_vectors, k), -1.0)
        accelerator = OpticalCrossbarAccelerator(config)
        assert np.array_equal(
            accelerator.linear(weights, inputs), seed_linear(config, weights, inputs)
        )


class TestAcceleratorEquivalence:
    @pytest.fixture()
    def config(self):
        return small_test_chip()

    def test_linear_bitwise_matches_seed_tiling(self, config):
        rng = np.random.default_rng(6)
        accelerator = OpticalCrossbarAccelerator(config)
        weights = rng.normal(size=(20, 11))  # forces tiling on the 8x8 chip
        inputs = rng.uniform(-1, 1, (9, 20))
        assert np.array_equal(
            accelerator.linear(weights, inputs), seed_linear(config, weights, inputs)
        )
        # Repeated call through the warm tile cache stays identical.
        assert np.array_equal(
            accelerator.linear(weights, inputs), seed_linear(config, weights, inputs)
        )

    def test_conv2d_bitwise_matches_seed(self, config):
        rng = np.random.default_rng(7)
        accelerator = OpticalCrossbarAccelerator(config)
        fmap = rng.uniform(0, 1, (7, 6, 3))
        weights = rng.normal(size=(3, 3, 3, 5))
        for stride, padding in [(1, 0), (1, 1), (2, 1)]:
            optical = accelerator.conv2d(fmap, weights, stride=stride, padding=padding)
            reference = seed_conv2d(config, fmap, weights, stride=stride, padding=padding)
            assert np.array_equal(optical, reference)

    def test_batched_conv2d_bitwise_matches_per_image(self, config):
        rng = np.random.default_rng(8)
        accelerator = OpticalCrossbarAccelerator(config)
        fmaps = rng.uniform(0, 1, (4, 6, 6, 2))
        weights = rng.normal(size=(3, 3, 2, 4))
        batched = accelerator.conv2d(fmaps, weights, stride=1, padding=1)
        per_image = np.stack(
            [seed_conv2d(config, fmap, weights, stride=1, padding=1) for fmap in fmaps]
        )
        assert np.array_equal(batched, per_image)


class TestIntegerOracle:
    def test_integer_oracle_matches_fraction_oracle(self):
        rng = np.random.default_rng(16)
        for rows, columns in [(25, 6), (40, 17), (64, 64)]:
            engine = SignedCrossbarEngine(rows, columns)
            engine.program(rng.normal(size=(rows, columns)))
            inputs = np.vstack([rng.normal(size=(6, rows)), rng.uniform(0, 1, (6, rows))])
            inputs[0] = 0.0
            expected = exact_signed_matmul(engine, inputs)
            assert integer_signed_matmul(engine, inputs).tobytes() == expected.tobytes()


class TestPoolingAndIm2colEquivalence:
    def test_im2col_bitwise_matches_loop(self):
        rng = np.random.default_rng(9)
        for (h, w, c), k, s, p in [
            ((6, 6, 3), 3, 1, 1),
            ((8, 5, 2), 2, 2, 0),
            ((7, 9, 4), 3, 3, 2),
            ((4, 4, 1), 4, 1, 0),
        ]:
            fmap = rng.normal(size=(h, w, c))
            assert np.array_equal(
                im2col_matrix(fmap, k, s, p), seed_im2col(fmap, k, s, p)
            )

    def test_pooling_bitwise_matches_loop(self):
        from repro.core.inference import _avg_pool, _max_pool

        rng = np.random.default_rng(10)
        for (h, w, c), k, s, p in [
            ((8, 8, 3), 2, 2, 0),
            ((11, 9, 4), 3, 2, 1),
            ((7, 7, 2), 3, 1, 0),
            # Non-overlapping windows (one strided pass per window element),
            # at LeNet's pooled shapes and with a size the kernel does not divide.
            ((28, 28, 6), 2, 2, 0),
            ((28, 28, 6), 3, 3, 0),
            ((10, 10, 16), 2, 2, 0),
            ((10, 10, 16), 3, 3, 0),
            ((11, 9, 4), 2, 2, 0),
        ]:
            batch = rng.normal(size=(3, h, w, c))
            vec_max = _max_pool(batch, k, s, p)
            vec_avg = _avg_pool(batch, k, s, p)
            for i in range(batch.shape[0]):
                assert np.array_equal(vec_max[i], seed_pool(batch[i], k, s, p, "max"))
                assert np.array_equal(vec_avg[i], seed_pool(batch[i], k, s, p, "avg"))


def seed_lenet(config, weights, image: np.ndarray, signed_matmul=exact_signed_matmul):
    """conv1 (pad 2) -> avg pool -> conv2 -> avg pool -> fc1/fc2/fc3, mirroring
    the seed FunctionalInferenceEngine._execute layer loop."""
    current = seed_conv2d(config, image, weights["conv1"], 1, 2, signed_matmul)
    current = np.maximum(current, 0.0)
    current = seed_pool(current, 2, 2, 0, "avg")
    current = seed_conv2d(config, current, weights["conv2"], 1, 0, signed_matmul)
    current = np.maximum(current, 0.0)
    current = seed_pool(current, 2, 2, 0, "avg")
    vector = current.reshape(-1)
    vector = np.maximum(seed_linear(config, weights["fc1"], vector, signed_matmul), 0.0)
    vector = np.maximum(seed_linear(config, weights["fc2"], vector, signed_matmul), 0.0)
    return seed_linear(config, weights["fc3"], vector, signed_matmul)


class TestEndToEndEquivalence:
    def test_noiseless_lenet_bitwise_identical_to_seed_execution(self):
        """Full noiseless functional LeNet: batched engine == seed per-step loops.

        The seed loops read every tile through the exact oracle: per vector
        on a small LeNet, in its integer form on the full-size one.
        """
        network = build_lenet5(input_size=12)
        weights = generate_random_weights(network, seed=6, scale=0.3)
        config = small_test_chip(rows=64, columns=64)
        engine = FunctionalInferenceEngine(network, weights, config)
        rng = np.random.default_rng(7)
        images = rng.uniform(0, 1, (3, 12, 12, 1))

        expected = np.stack([seed_lenet(config, weights, image) for image in images])
        per_image = np.stack([engine.run(image) for image in images])
        assert np.array_equal(per_image, expected)
        batched = engine.run_batch(images)
        assert np.array_equal(batched, expected)

        # The 28×28 LeNet on the paper's chips: conv2 spans two row tiles on
        # 128×128 (five on 32×32), the last zero-padded.  The integer form of
        # the oracle keeps the seed loops fast enough at this size.
        network = build_lenet5()
        weights = generate_random_weights(network, seed=8, scale=0.3)
        images = rng.uniform(0, 1, (2, 28, 28, 1))
        for config in (optimal_chip(), default_sweep_chip()):
            engine = FunctionalInferenceEngine(network, weights, config)
            expected = np.stack(
                [seed_lenet(config, weights, image, integer_signed_matmul) for image in images]
            )
            assert engine.run_batch(images).tobytes() == expected.tobytes()

    def test_run_batch_bitwise_matches_per_image_run(self):
        network = build_lenet5(input_size=12)
        weights = generate_random_weights(network, seed=11, scale=0.3)
        engine = FunctionalInferenceEngine(
            network, weights, small_test_chip(rows=32, columns=32)
        )
        rng = np.random.default_rng(12)
        images = rng.uniform(0, 1, (5, 12, 12, 1))
        batched = engine.run_batch(images)
        per_image = np.stack([engine.run(image) for image in images])
        assert np.array_equal(batched, per_image)
        reference_batched = engine.run_batch_reference(images)
        reference_per_image = np.stack([engine.run_reference(image) for image in images])
        assert np.array_equal(reference_batched, reference_per_image)


class TestBatchComposition:
    @pytest.mark.parametrize(
        "config", [optimal_chip(), small_test_chip(rows=32, columns=32)], ids=["128x128", "32x32"]
    )
    def test_each_image_output_independent_of_its_batch(self, config):
        """Every row of ``run_batch(images)`` equals ``run_batch`` of any subset
        holding that image, byte for byte (the serving path's bitwise check
        batches requests as they arrive)."""
        network = build_lenet5(input_size=12)
        weights = generate_random_weights(network, seed=13, scale=0.3)
        engine = FunctionalInferenceEngine(network, weights, config)
        images = np.random.default_rng(14).uniform(0, 1, (6, 12, 12, 1))
        full = engine.run_batch(images)
        rng = np.random.default_rng(15)
        subsets = [[index] for index in range(len(images))] + [
            sorted(rng.choice(len(images), size=size, replace=False)) for size in (2, 3, 4, 5)
        ]
        subsets.append(list(reversed(range(len(images)))))
        for subset in subsets:
            partial = engine.run_batch(images[subset])
            for row, index in enumerate(subset):
                assert partial[row].tobytes() == full[index].tobytes(), (subset, index)
