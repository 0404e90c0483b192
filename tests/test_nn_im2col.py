"""Unit tests for im2col/GEMM lowering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.nn import ConvLayer, DenseLayer, TensorShape, conv_to_gemm, layer_to_gemms
from repro.nn.im2col import (
    GemmShape,
    conv2d_reference,
    conv_weights_matrix,
    dense_to_gemm,
    im2col_matrix,
    pad_spatial,
)


def _loop_im2col(feature_map, kernel_size, stride, padding):
    """Per-patch reference implementation (the seed's Python loop)."""
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
            y0, x0 = out_y * stride, out_x * stride
            patch = feature_map[y0 : y0 + kernel_size, x0 : x0 + kernel_size, :]
            rows.append(patch.reshape(-1))
    return np.stack(rows, axis=0)


class TestGemmShape:
    def test_counts(self):
        gemm = GemmShape("layer", m=10, k=20, n=30)
        assert gemm.macs == 6000
        assert gemm.weight_elements == 600
        assert gemm.input_elements == 200
        assert gemm.output_elements == 300

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(WorkloadError):
            GemmShape("layer", m=0, k=1, n=1)


class TestConvLowering:
    def test_conv_to_gemm_dimensions(self):
        layer = ConvLayer("c", out_channels=64, kernel_size=3, stride=1, padding=1, bias=False)
        gemm = conv_to_gemm(layer, TensorShape(56, 56, 32))
        assert gemm.k == 32 * 9
        assert gemm.n == 64
        assert gemm.m == 56 * 56

    def test_gemm_macs_equal_layer_macs(self):
        layer = ConvLayer("c", out_channels=16, kernel_size=3, stride=2, padding=1, bias=False)
        shape = TensorShape(32, 32, 8)
        assert conv_to_gemm(layer, shape).macs == layer.macs(shape)

    def test_grouped_conv_macs_preserved(self):
        layer = ConvLayer("dw", out_channels=8, kernel_size=3, padding=1, groups=8, bias=False)
        shape = TensorShape(16, 16, 8)
        assert conv_to_gemm(layer, shape).macs == layer.macs(shape)

    def test_dense_to_gemm(self):
        layer = DenseLayer("fc", out_features=100, bias=False)
        gemm = dense_to_gemm(layer, TensorShape(1, 1, 512))
        assert (gemm.m, gemm.k, gemm.n) == (1, 512, 100)

    def test_layer_to_gemms_skips_non_crossbar_layers(self, resnet50):
        for info in resnet50.shape_infos:
            gemms = layer_to_gemms(info)
            if info.uses_crossbar:
                assert len(gemms) == 1
            else:
                assert gemms == []

    def test_network_gemm_macs_equal_network_macs(self, resnet50):
        gemm_macs = sum(
            gemm.macs for info in resnet50.shape_infos for gemm in layer_to_gemms(info)
        )
        assert gemm_macs == resnet50.total_macs


class TestIm2colData:
    def test_im2col_shape(self):
        fmap = np.arange(4 * 4 * 2, dtype=float).reshape(4, 4, 2)
        unrolled = im2col_matrix(fmap, kernel_size=3, stride=1, padding=0)
        assert unrolled.shape == (4, 18)

    def test_conv2d_reference_matches_direct_convolution(self):
        rng = np.random.default_rng(0)
        fmap = rng.normal(size=(6, 6, 3))
        weights = rng.normal(size=(3, 3, 3, 4))
        out = conv2d_reference(fmap, weights, stride=1, padding=1)
        assert out.shape == (6, 6, 4)

        # Direct (naive) convolution for one output position and channel: the
        # receptive field of output (3, 3) starts at padded row/col 3.
        padded = np.pad(fmap, ((1, 1), (1, 1), (0, 0)))
        expected = np.sum(padded[3:6, 3:6, :] * weights[:, :, :, 1])
        assert out[3, 3, 1] == pytest.approx(expected)

    def test_conv2d_reference_stride_two_shape(self):
        fmap = np.zeros((8, 8, 1))
        weights = np.zeros((3, 3, 1, 2))
        out = conv2d_reference(fmap, weights, stride=2, padding=1)
        assert out.shape == (4, 4, 2)

    def test_weights_matrix_shape(self):
        weights = np.zeros((3, 3, 8, 16))
        assert conv_weights_matrix(weights).shape == (72, 16)

    def test_im2col_rejects_bad_inputs(self):
        with pytest.raises(WorkloadError):
            im2col_matrix(np.zeros((4, 4)), 3)
        with pytest.raises(WorkloadError):
            im2col_matrix(np.zeros((4, 4, 1)), kernel_size=0)
        with pytest.raises(WorkloadError):
            im2col_matrix(np.zeros((2, 2, 1)), kernel_size=5)

    def test_weights_matrix_rejects_non_square_kernel(self):
        with pytest.raises(WorkloadError):
            conv_weights_matrix(np.zeros((3, 5, 1, 1)))


class TestPadSpatial:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(*(st.integers(min_value=1, max_value=5) for _ in range(4))),
        padding=st.integers(min_value=1, max_value=3),
        value=st.sampled_from([0.0, -np.inf]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_is_bitwise_np_pad(self, shape, padding, value, seed):
        rng = np.random.default_rng(seed)
        tensor = rng.normal(size=shape)
        tensor[rng.uniform(size=shape) < 0.2] = -0.0
        padded = pad_spatial(tensor, padding, value)
        reference = np.pad(
            tensor,
            ((0, 0), (padding, padding), (padding, padding), (0, 0)),
            mode="constant",
            constant_values=value,
        )
        assert padded.dtype == reference.dtype
        assert padded.shape == reference.shape
        assert padded.tobytes() == reference.tobytes()


class TestIm2colVectorized:
    """The sliding_window_view gather must match the per-patch loop bitwise."""

    @settings(max_examples=60, deadline=None)
    @given(
        height=st.integers(min_value=1, max_value=9),
        width=st.integers(min_value=1, max_value=9),
        channels=st.integers(min_value=1, max_value=4),
        kernel_size=st.integers(min_value=1, max_value=4),
        stride=st.integers(min_value=1, max_value=3),
        padding=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_loop_reference(
        self, height, width, channels, kernel_size, stride, padding, seed
    ):
        if height + 2 * padding < kernel_size or width + 2 * padding < kernel_size:
            return  # empty output; rejection is covered below
        rng = np.random.default_rng(seed)
        fmap = rng.normal(size=(height, width, channels))
        vectorized = im2col_matrix(fmap, kernel_size, stride, padding)
        reference = _loop_im2col(fmap, kernel_size, stride, padding)
        assert vectorized.shape == reference.shape
        assert np.array_equal(vectorized, reference)

    def test_batched_input_stacks_per_image_results(self):
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(5, 7, 6, 3))
        unrolled = im2col_matrix(batch, kernel_size=3, stride=2, padding=1)
        assert unrolled.shape[0] == 5
        for i in range(5):
            assert np.array_equal(unrolled[i], im2col_matrix(batch[i], 3, 2, 1))

    def test_batched_conv2d_reference_matches_per_image(self):
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(3, 6, 6, 2))
        weights = rng.normal(size=(3, 3, 2, 4))
        batched = conv2d_reference(batch, weights, stride=1, padding=1)
        assert batched.shape == (3, 6, 6, 4)
        for i in range(3):
            assert np.array_equal(
                batched[i], conv2d_reference(batch[i], weights, stride=1, padding=1)
            )

    def test_empty_output_still_rejected(self):
        with pytest.raises(WorkloadError):
            im2col_matrix(np.zeros((2, 2, 1)), kernel_size=3, stride=1, padding=0)

    def test_rejects_bad_rank(self):
        with pytest.raises(WorkloadError):
            im2col_matrix(np.zeros((2, 2, 1, 1, 1)), kernel_size=1)
