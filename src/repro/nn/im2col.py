"""im2col / GEMM lowering of convolutional layers.

Mapping a convolution onto the crossbar follows the paper's description in
Section IV: the weights of a 2-D filter bank are flattened into a matrix of
shape (C_in·k·k) × C_out and embedded into the PCM array, and the input
feature map is unrolled into a stream of (C_in·k·k)-long vectors, one per
output pixel.  :class:`GemmShape` captures the resulting matrix-multiply
dimensions, which the tiling model in :mod:`repro.scalesim` maps onto the
N×M crossbar.

:func:`im2col_matrix` additionally performs the real data transformation for
small tensors so that the functional crossbar examples can run an actual
convolution optically.  :class:`ScaledPatches` gives the crossbar read the
same rows, each divided by its largest value, a block at a time straight
from the feature map, without unrolling it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import WorkloadError
from repro.nn.layers import ConvLayer, DenseLayer, TensorShape
from repro.nn.network import LayerShapeInfo


@dataclass(frozen=True)
class GemmShape:
    """Dimensions of the GEMM a crossbar layer lowers to.

    The crossbar computes ``output = weights.T @ input_vector`` per cycle:

    * ``k`` — contraction (dot-product) length = rows occupied on the array,
    * ``n`` — number of output channels = columns occupied on the array,
    * ``m`` — number of input vectors streamed through per inference
      (output pixels for a convolution, 1 for a dense layer).
    """

    layer_name: str
    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        for name in ("m", "k", "n"):
            value = getattr(self, name)
            if value < 1:
                raise WorkloadError(f"GemmShape.{name} must be >= 1, got {value}")

    @property
    def macs(self) -> int:
        """Total MACs of the GEMM."""
        return self.m * self.k * self.n

    @property
    def weight_elements(self) -> int:
        """Number of weight-matrix elements (k × n)."""
        return self.k * self.n

    @property
    def input_elements(self) -> int:
        """Number of streamed input-vector elements (m × k)."""
        return self.m * self.k

    @property
    def output_elements(self) -> int:
        """Number of produced output elements (m × n)."""
        return self.m * self.n


def conv_to_gemm(layer: ConvLayer, input_shape: TensorShape) -> GemmShape:
    """Lower a convolution layer to its im2col GEMM shape."""
    output_shape = layer.output_shape(input_shape)
    in_channels_per_group = input_shape.channels // layer.groups
    k = in_channels_per_group * layer.kernel_size * layer.kernel_size
    # Grouped convolutions run as `groups` separate GEMMs; for tiling purposes
    # we fold the group count into the number of streamed vectors, which keeps
    # the MAC count exact.
    m = output_shape.height * output_shape.width * layer.groups
    n = layer.out_channels // layer.groups
    return GemmShape(layer_name=layer.name, m=m, k=k, n=n)


def dense_to_gemm(layer: DenseLayer, input_shape: TensorShape) -> GemmShape:
    """Lower a dense layer to its GEMM shape (a single input vector)."""
    return GemmShape(layer_name=layer.name, m=1, k=input_shape.num_elements, n=layer.out_features)


def layer_to_gemms(info: LayerShapeInfo) -> List[GemmShape]:
    """Lower one resolved layer to zero or more GEMMs.

    Layers that do not use the crossbar return an empty list.
    """
    layer = info.layer
    if isinstance(layer, ConvLayer):
        return [conv_to_gemm(layer, info.input_shape)]
    if isinstance(layer, DenseLayer):
        return [dense_to_gemm(layer, info.input_shape)]
    return []


def pad_spatial(tensor: np.ndarray, padding: int, value: float = 0.0) -> np.ndarray:
    """A (B, H, W, C) tensor with ``padding`` cells of ``value`` around H and W.

    Bitwise ``np.pad(..., mode="constant", constant_values=value)``: a filled
    array with the interior assigned, without ``np.pad``'s per-call overhead.
    """
    images, height, width, channels = tensor.shape
    padded = np.full(
        (images, height + 2 * padding, width + 2 * padding, channels), value, tensor.dtype
    )
    padded[:, padding : padding + height, padding : padding + width] = tensor
    return padded


def im2col_matrix(
    feature_map: np.ndarray, kernel_size: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Unroll a (H, W, C) feature map into an im2col matrix.

    Returns an array of shape (num_output_pixels, kernel_size² · C) whose rows
    are the flattened receptive fields, ordered row-major over the output
    feature map.  This matches the weight flattening used by
    :func:`conv_weights_matrix`, so ``im2col @ weights`` reproduces the
    convolution.

    A batched input of shape (B, H, W, C) is accepted as well and returns
    (B, num_output_pixels, kernel_size² · C).

    The gather is a zero-copy ``sliding_window_view`` over the (padded)
    feature map; the only copy made is the final reshape into the contiguous
    im2col matrix, so no per-patch Python loop is involved.  That copy holds
    every patch element, ``k²`` times the feature map's size: the crossbar
    read makes it only for maps it must read as a matrix (with a negative
    value, or patches wider than one row tile) and reads a first layer's
    patches from the feature map instead (:class:`ScaledPatches`).
    """
    feature_map = np.asarray(feature_map, dtype=float)
    batched = feature_map.ndim == 4
    if feature_map.ndim not in (3, 4):
        raise WorkloadError(
            f"feature_map must have shape (H, W, C) or (B, H, W, C), "
            f"got {feature_map.shape}"
        )
    stacked = feature_map if batched else feature_map[None]
    windows, stacked = _windows(stacked, kernel_size, stride, padding)
    num_images, out_h, out_w, channels = windows.shape[:4]
    # Move the window axes in front of the channel axis so each flattened
    # patch is ordered (ky, kx, c), matching conv_weights_matrix.
    patches = windows.transpose(0, 1, 2, 4, 5, 3).reshape(
        num_images, out_h * out_w, kernel_size * kernel_size * channels
    )
    return patches if batched else patches[0]


def _windows(stacked: np.ndarray, kernel_size: int, stride: int, padding: int):
    """The (B, out_h, out_w, C, ky, kx) patch view of a (B, H, W, C) map, and the padded map."""
    if kernel_size < 1 or stride < 1 or padding < 0:
        raise WorkloadError("kernel_size and stride must be >= 1 and padding >= 0")
    if padding:
        stacked = pad_spatial(stacked, padding)
    padded_h, padded_w = stacked.shape[1:3]
    if padded_h < kernel_size or padded_w < kernel_size:
        raise WorkloadError("im2col produces an empty output; check kernel/stride/padding")
    windows = sliding_window_view(stacked, (kernel_size, kernel_size), axis=(1, 2))
    return windows[:, ::stride, ::stride], stacked


class ScaledPatches:
    """The im2col rows of a non-negative feature map, each over its largest value.

    The noiseless crossbar read takes its inputs as scaled rows (see
    :class:`~repro.crossbar.array.ScaledRows`): the (V, K) rows of
    :func:`im2col_matrix` of a (B, H, W, C) map, which here fit one row
    tile, with ``scales`` (V, 1) each patch's largest value (1 for an
    all-zero patch).  These are made from the (padded) feature map without
    unrolling it.  The scales are a separable sliding-window maximum: over
    channels, then ``k`` shifted maxima along the width and ``k`` along the
    height.  :meth:`divide_into` gathers a block of patches straight from the
    window view and divides it by the patches' scales in one pass,
    feature-major: the block is stored (K, count), where each of the K
    window offsets is a run of output pixels along a row of the map, and
    returned as its (count, K) transpose.  Blocks are whole images or, for
    an image larger than a block, whole output rows of one image.

    The values are those of dividing :func:`im2col_matrix`'s rows by their
    largest value: the same IEEE divides of the same operands.  The feature
    map must be finite and non-negative.
    """

    def __init__(
        self, feature_map: np.ndarray, kernel_size: int, stride: int = 1, padding: int = 0
    ) -> None:
        windows, stacked = _windows(feature_map, kernel_size, stride, padding)
        images, out_h, out_w, channels = windows.shape[:4]
        self.shape = (images * out_h * out_w, kernel_size * kernel_size * channels)
        self.parts = 1  # non-negative: no negative parts
        self._out_h, self._out_w = out_h, out_w
        # (ky, kx, c, B, out_h, out_w): the feature-major window view.
        self._windows = windows.transpose(4, 5, 3, 0, 1, 2)
        # Each patch's largest value: over channels, then along W and H.
        plane = stacked[..., 0] if channels == 1 else stacked.max(axis=3)
        span_w, span_h = (out_w - 1) * stride + 1, (out_h - 1) * stride + 1
        along_w = plane[:, :, :span_w:stride].copy()
        for offset in range(1, kernel_size):
            np.maximum(along_w, plane[:, :, offset : offset + span_w : stride], out=along_w)
        largest = along_w[:, :span_h:stride].copy()
        for offset in range(1, kernel_size):
            np.maximum(largest, along_w[:, offset : offset + span_h : stride], out=largest)
        self.nonzero = bool(np.any(largest > 0.0))
        largest[largest == 0.0] = 1.0  # an all-zero patch reads exact zeros
        self._largest = largest
        self.scales = largest.reshape(-1, 1)

    def __len__(self) -> int:
        return self.shape[0]

    def blocks(self, block_elements: int):
        """Slices of whole images, or whole output rows of one image, of at
        most ``block_elements`` values where a row fits (:meth:`divide_into`).
        """
        out_h, out_w = self._out_h, self._out_w
        per_image = out_h * out_w
        rows = max(1, block_elements // (out_w * self.shape[1]))
        if rows >= out_h:
            step = (rows // out_h) * per_image
            starts = range(0, len(self), step)
            return [slice(start, min(start + step, len(self))) for start in starts]
        return [
            slice(image + row * out_w, image + min(row + rows, out_h) * out_w)
            for image in range(0, len(self), per_image)
            for row in range(0, out_h, rows)
        ]

    def divide_into(self, block: slice, scratch: np.ndarray) -> np.ndarray:
        """Block ``block``'s patches over their scales, as a (count, K) view of ``scratch``."""
        count = block.stop - block.start
        per_image = self._out_h * self._out_w
        image, first = divmod(block.start, per_image)
        if count >= per_image:  # whole images
            here = (slice(image, image + count // per_image),)
        else:  # whole output rows of one image
            row = first // self._out_w
            here = (image, slice(row, row + count // self._out_w))
        windows = self._windows[(slice(None),) * 3 + here]
        out = scratch[: count * self.shape[1]]
        np.divide(windows, self._largest[here], out=out.reshape(windows.shape))
        return out.reshape(self.shape[1], count).T


def conv_weights_matrix(weights: np.ndarray) -> np.ndarray:
    """Flatten convolution weights (k, k, C_in, C_out) into a GEMM matrix.

    The result has shape (k²·C_in, C_out) and is compatible with
    :func:`im2col_matrix`.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 4:
        raise WorkloadError(
            f"weights must have shape (k, k, C_in, C_out), got {weights.shape}"
        )
    k1, k2, c_in, c_out = weights.shape
    if k1 != k2:
        raise WorkloadError(f"only square kernels are supported, got {k1}x{k2}")
    return weights.reshape(k1 * k2 * c_in, c_out)


def conv2d_reference(
    feature_map: np.ndarray, weights: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Reference convolution via im2col + matmul, for functional tests.

    Parameters
    ----------
    feature_map:
        Input of shape (H, W, C_in), or a batch of shape (B, H, W, C_in).
    weights:
        Filters of shape (k, k, C_in, C_out).

    Returns
    -------
    numpy.ndarray
        Output of shape (H_out, W_out, C_out), with a leading batch axis when
        the input had one.
    """
    weights = np.asarray(weights, dtype=float)
    feature_map = np.asarray(feature_map, dtype=float)
    kernel_size = weights.shape[0]
    unrolled = im2col_matrix(feature_map, kernel_size, stride, padding)
    flat_weights = conv_weights_matrix(weights)
    batched = feature_map.ndim == 4
    height, width = feature_map.shape[1:3] if batched else feature_map.shape[:2]
    out_h = (height + 2 * padding - kernel_size) // stride + 1
    out_w = (width + 2 * padding - kernel_size) // stride + 1
    product = unrolled @ flat_weights
    if batched:
        return product.reshape(feature_map.shape[0], out_h, out_w, flat_weights.shape[1])
    return product.reshape(out_h, out_w, flat_weights.shape[1])
