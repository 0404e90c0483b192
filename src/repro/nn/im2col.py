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
convolution optically.
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
    im2col matrix, so no per-patch Python loop is involved.
    """
    feature_map = np.asarray(feature_map, dtype=float)
    batched = feature_map.ndim == 4
    if feature_map.ndim not in (3, 4):
        raise WorkloadError(
            f"feature_map must have shape (H, W, C) or (B, H, W, C), "
            f"got {feature_map.shape}"
        )
    if kernel_size < 1 or stride < 1 or padding < 0:
        raise WorkloadError("kernel_size and stride must be >= 1 and padding >= 0")

    stacked = feature_map if batched else feature_map[None]
    if padding:
        stacked = pad_spatial(stacked, padding)
    num_images, padded_h, padded_w, channels = stacked.shape
    out_h = (padded_h - kernel_size) // stride + 1
    out_w = (padded_w - kernel_size) // stride + 1
    if out_h < 1 or out_w < 1:
        raise WorkloadError("im2col produces an empty output; check kernel/stride/padding")

    # (B, out_h', out_w', C, ky, kx) view; subsample by the stride, then move
    # the window axes in front of the channel axis so each flattened patch is
    # ordered (ky, kx, c), matching conv_weights_matrix.
    windows = sliding_window_view(stacked, (kernel_size, kernel_size), axis=(1, 2))
    windows = windows[:, :: stride, :: stride]
    patches = windows.transpose(0, 1, 2, 4, 5, 3).reshape(
        num_images, out_h * out_w, kernel_size * kernel_size * channels
    )
    return patches if batched else patches[0]


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
