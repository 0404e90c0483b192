"""The noiseless read's one input contract: rows over their own scales.

A matrix (:class:`~repro.crossbar.array.ScaledRows`) and a convolution's
feature map (:class:`~repro.nn.im2col.ScaledPatches`) both hand the read
rows divided by their per-(vector, row tile) scale, plus those scales.  The
patches are never unrolled, yet a convolution must read bitwise as the same
layer reads its im2col matrix.  Rows divided by their own largest value are
in [0, 1] by construction, so the ODAC quantises them without its range
check, with the codes of the checked path.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import default_sweep_chip, optimal_chip, small_test_chip
from repro.core.accelerator import OpticalCrossbarAccelerator
from repro.crossbar.array import ScaledRows
from repro.errors import DeviceModelError
from repro.nn.im2col import ScaledPatches, im2col_matrix
from repro.photonics.ring import RingResonatorODAC

CHIPS = {
    "optimal": optimal_chip,
    "default_sweep": default_sweep_chip,
    "small_test": small_test_chip,
}


@st.composite
def conv_cases(draw):
    """A feature map, filters, stride and padding with a non-empty output."""
    kernel = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, 2))
    channels = draw(st.integers(1, 8))
    out_channels = draw(st.integers(1, 20))
    images = draw(st.integers(1, 5))
    size = draw(st.integers(max(1, kernel - 2 * padding), 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feature_map = rng.uniform(0.0, 1.0, (images, size, size, channels))
    kind = draw(st.sampled_from(["positive", "zero windows", "negative", "signed zeros"]))
    if kind == "zero windows":  # whole rows and images of zeros: scale 1 patches
        feature_map[:, : size // 2] = 0.0
        feature_map[0] = 0.0
    elif kind == "negative":  # the matrix path: parts of both signs
        feature_map -= 0.4
    elif kind == "signed zeros":
        feature_map[feature_map < 0.5] = -0.0
    filters = rng.normal(size=(kernel, kernel, channels, out_channels))
    return feature_map, filters, stride, padding


class TestConvReadsAsItsMatrix:
    @pytest.mark.parametrize("chip", sorted(CHIPS))
    @given(case=conv_cases())
    @settings(max_examples=25, deadline=None)
    def test_conv2d_equals_linear_of_its_im2col_matrix(self, chip, case):
        feature_map, filters, stride, padding = case
        accelerator = OpticalCrossbarAccelerator(CHIPS[chip]())
        layer = accelerator.layer(filters)
        output = accelerator.conv2d(feature_map, layer, stride, padding)
        unrolled = im2col_matrix(feature_map, filters.shape[0], stride, padding)
        expected = accelerator.linear(layer, unrolled.reshape(-1, unrolled.shape[-1]))
        assert output.tobytes() == expected.reshape(output.shape).tobytes()
        single = accelerator.conv2d(feature_map[-1], layer, stride, padding)
        assert single.tobytes() == output[-1].tobytes()

    def test_patches_are_the_im2col_rows_over_their_largest_value(self):
        rng = np.random.default_rng(7)
        feature_map = rng.uniform(0.0, 1.0, (3, 9, 8, 2))
        feature_map[1] = 0.0
        patches = ScaledPatches(feature_map, 3, stride=2, padding=1)
        rows = im2col_matrix(feature_map, 3, 2, 1).reshape(patches.shape)
        largest = rows.max(axis=1, keepdims=True)
        assert patches.scales.tobytes() == np.where(largest > 0, largest, 1.0).tobytes()
        divided = [
            patches.divide_into(block, np.empty(patches.shape[0] * patches.shape[1]))
            for block in patches.blocks(40)  # whole output rows of one image
        ]
        assert np.concatenate(divided).tobytes() == (rows / patches.scales).tobytes()

    def test_matrix_rows_split_by_sign_into_two_parts(self):
        matrix = np.array([[0.5, -2.0, 1.0], [0.0, 0.0, 0.0], [3.0, 1.5, -0.5]])
        rows = ScaledRows(matrix, tile_rows=2)
        assert rows.parts == 2 and len(rows) == 6
        assert rows.scales.tolist() == [[2.0, 1.0], [1.0, 1.0], [3.0, 0.5]]
        divided = rows.divide_into(slice(0, 3), np.empty(18))
        assert divided[:3].tolist() == [[0.25, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.5, 0.0]]
        assert divided[3:].tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]


finite_non_negative = st.floats(
    min_value=0.0, max_value=np.finfo(float).max, allow_nan=False, allow_subnormal=True
)


class TestInRangeODAC:
    @given(values=st.lists(finite_non_negative, min_size=1, max_size=40), tile=st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_rows_over_their_own_tile_maximum_are_in_the_unit_range(self, values, tile):
        matrix = np.array(values)[None]
        rows = ScaledRows(matrix, tile_rows=tile)
        divided = rows.divide_into(slice(0, 1), np.empty(matrix.size))
        assert np.all(divided >= 0.0) and np.all(divided <= 1.0)

    @given(values=st.lists(finite_non_negative, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_in_range_codes_are_the_checked_codes(self, values):
        values = np.array(values)
        largest = values.max()
        assume(largest > 0.0)
        normalised = values / largest
        odac = RingResonatorODAC(bits=6)
        checked = odac.modulate(normalised.copy(), out=np.empty(len(values), np.float32))
        unchecked = odac.modulate(
            normalised.copy(), out=np.empty(len(values), np.float32), in_range=True
        )
        assert np.array_equal(unchecked, checked)
        fields = odac.modulate(normalised, in_range=True)
        assert fields.tobytes() == odac.modulate(normalised).tobytes()

    def test_scaled_rows_with_a_non_finite_scale_are_range_checked(self):
        accelerator = OpticalCrossbarAccelerator(small_test_chip())
        layer = accelerator.layer(np.ones((4, 3)))
        for bad in (np.nan, np.inf):
            inputs = np.full((2, 4), 0.5)
            inputs[1, 2] = bad
            with pytest.raises(DeviceModelError, match=r"values must be in \[0, 1\]"):
                accelerator.linear(layer, inputs)


class TestConvReadMemory:
    def test_warm_conv1_read_makes_no_batch_sized_patch_matrix(self):
        """A warm B=32 conv1 read peaks below one (V, K) float64 patch matrix."""
        accelerator = OpticalCrossbarAccelerator(optimal_chip())
        rng = np.random.default_rng(3)
        layer = accelerator.layer(rng.normal(size=(5, 5, 1, 6)))
        images = rng.uniform(0.0, 1.0, (32, 28, 28, 1))
        expected = accelerator.conv2d(images, layer, 1, 2)  # programs the layer
        patch_matrix = images.shape[0] * 28 * 28 * 25 * 8  # about 5.0 MB
        tracemalloc.start()
        try:
            output = accelerator.conv2d(images, layer, 1, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert output.tobytes() == expected.tobytes()
        assert peak < patch_matrix
