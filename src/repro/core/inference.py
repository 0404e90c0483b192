"""End-to-end functional inference on the optical crossbar.

The performance path answers "how fast / how much power"; this module answers
"does the architecture actually compute a CNN correctly at INT6?".
:class:`FunctionalInferenceEngine` executes a whole
:class:`~repro.nn.network.Network` layer by layer:

* convolutions and dense layers run on the functional INT6 crossbar
  (differential PCM weights, ODAC-quantised inputs, ADC-quantised outputs,
  optional analog impairments) through the
  :class:`~repro.core.accelerator.OpticalCrossbarAccelerator` façade;
* pooling, batch-norm (folded), activations, residual adds and flattening run
  digitally in numpy, as they would in the chip's digital backend.

Execution is *batched end-to-end*: :meth:`FunctionalInferenceEngine.run_batch`
carries a whole stack of images through every layer at once — convolutions
unroll the full batch into one im2col GEMM, dense layers run the batch as one
tiled crossbar GEMM (each layer is a
:class:`~repro.core.accelerator.ProgrammedLayer` the engine holds, programmed
on the first batch and only read after that), and pooling/activations are
whole-tensor numpy operations.  :meth:`run` is the single-image wrapper.  In
noiseless mode the batched outputs are bitwise-identical to running the
images one at a time.

A float numpy reference of the same network
(:meth:`FunctionalInferenceEngine.run_reference`) allows the INT6 optical
result to be compared against exact arithmetic; the bundled example runs a
LeNet-5-class network this way and reports the agreement.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.config.chip import ChipConfig
from repro.core.accelerator import OpticalCrossbarAccelerator
from repro.crossbar.noise import CrossbarNoiseModel
from repro.errors import SimulationError, WorkloadError
from repro.nn.im2col import pad_spatial
from repro.nn.layers import (
    ActivationLayer,
    AddLayer,
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    PoolLayer,
)
from repro.nn.network import Network


def generate_random_weights(network: Network, seed: int = 0, scale: float = 0.5) -> Dict[str, np.ndarray]:
    """Synthetic weights for every crossbar layer of ``network``.

    Convolutions get ``(k, k, C_in, C_out)`` filters, dense layers get
    ``(in_features, out_features)`` matrices; both are drawn from a normal
    distribution with the given scale.  Biases are omitted (the bundled
    topologies use ``bias=False`` for their conv layers and the functional
    engine treats missing biases as zero).
    """
    rng = np.random.default_rng(seed)
    weights: Dict[str, np.ndarray] = {}
    for info in network.crossbar_layers:
        layer = info.layer
        if isinstance(layer, ConvLayer):
            shape = (
                layer.kernel_size,
                layer.kernel_size,
                info.input_shape.channels,
                layer.out_channels,
            )
        else:
            shape = (info.input_shape.num_elements, layer.out_features)
        weights[layer.name] = rng.normal(0.0, scale, size=shape)
    return weights


def agreement_metrics(optical: np.ndarray, reference: np.ndarray) -> Dict[str, float]:
    """Aggregate agreement metrics between batched optical and reference outputs.

    Both arrays must have shape (batch, num_outputs).  Shared by
    :meth:`FunctionalInferenceEngine.batch_agreement` and the CLI ``infer``
    command so the relative-error / top-1 definitions cannot drift apart.

    A sample whose reference output is all-zero has no meaningful relative
    error scale: if the optical output is also zero the relative error is
    0.0 (exact agreement), otherwise it is reported as ``inf`` instead of
    silently claiming perfect agreement.
    """
    norms = np.linalg.norm(reference, axis=1)
    errors = np.linalg.norm(optical - reference, axis=1)
    relative_errors = np.where(
        norms > 0,
        errors / np.where(norms > 0, norms, 1.0),
        np.where(errors > 0, np.inf, 0.0),
    )
    top1 = np.argmax(optical, axis=1) == np.argmax(reference, axis=1)
    return {
        "batch": float(optical.shape[0]),
        "mean_relative_error": float(np.mean(relative_errors)),
        "max_relative_error": float(np.max(relative_errors)),
        "top1_match_rate": float(np.mean(top1)),
    }


def _pool_windows(tensor: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """(B, out_h, out_w, ky, kx, C) window view of a (B, H, W, C) tensor.

    The window axes are ordered (ky, kx) ahead of the channel axis so that
    reductions over them accumulate in the same element order as the
    per-window reference loop.
    """
    windows = sliding_window_view(tensor, (kernel, kernel), axis=(1, 2))
    return windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)


def _pools_in_tiles(tensor: np.ndarray, kernel: int, stride: int, padding: int) -> bool:
    """Whether :func:`_pool_tiles` gives the window reduction's result bitwise.

    It needs non-overlapping, unpadded windows.  With one channel, numpy
    reduces a window's kx axis as its inner loop, in its own summation order,
    so that case keeps the window reduction.
    """
    return kernel == stride and not padding and tensor.shape[3] > 1


def _pool_tiles(tensor: np.ndarray, kernel: int, combine) -> np.ndarray:
    """Non-overlapping pooling of a (B, H, W, C) tensor, one pass per window element.

    Folds the k² strided views of the window elements into a copy of the
    first with ``combine`` in (ky, kx) order: the order in which a reduction
    over :func:`_pool_windows` visits them when C > 1.
    """
    rows = tensor.shape[1] // kernel * kernel
    columns = tensor.shape[2] // kernel * kernel
    views = [
        tensor[:, ky:rows:kernel, kx:columns:kernel]
        for ky in range(kernel)
        for kx in range(kernel)
    ]
    pooled = views[0].copy()
    for view in views[1:]:
        combine(pooled, view, out=pooled)
    return pooled


def _max_pool(tensor: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Batched max pooling over a (B, H, W, C) tensor via a strided gather."""
    if _pools_in_tiles(tensor, kernel, stride, padding):
        return _pool_tiles(tensor, kernel, np.maximum)
    if padding:
        tensor = pad_spatial(tensor, padding, -np.inf)
    return _pool_windows(tensor, kernel, stride).max(axis=(3, 4))


def _avg_pool(tensor: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Batched average pooling over a (B, H, W, C) tensor via a strided gather."""
    if _pools_in_tiles(tensor, kernel, stride, padding):
        pooled = _pool_tiles(tensor, kernel, np.add)
        pooled /= kernel * kernel
        return pooled
    if padding:
        tensor = pad_spatial(tensor, padding)
    return _pool_windows(tensor, kernel, stride).mean(axis=(3, 4))


def _apply_activation(tensor: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(tensor, 0.0)
    if kind == "relu6":
        return np.clip(tensor, 0.0, 6.0)
    if kind in ("identity", "linear", ""):
        return tensor
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-tensor))
    if kind == "tanh":
        return np.tanh(tensor)
    raise WorkloadError(f"unsupported activation {kind!r}")


class FunctionalInferenceEngine:
    """Runs a whole network functionally, optically or as a float reference.

    Parameters
    ----------
    network:
        The workload description; batched execution plus layers that are
        programmed once make multi-image functional runs practical well
        beyond LeNet scale.
    weights:
        Mapping from crossbar-layer name to its weight tensor; see
        :func:`generate_random_weights` for the expected shapes.  The engine
        keeps a read-only copy of each layer's weights in a
        :class:`~repro.core.accelerator.ProgrammedLayer` (:attr:`layers`),
        which both the optical and the reference path read.
    config:
        Chip configuration for the functional crossbar tiles.
    noise_model:
        Optional analog impairments for the optical path.
    """

    def __init__(
        self,
        network: Network,
        weights: Dict[str, np.ndarray],
        config: Optional[ChipConfig] = None,
        noise_model: Optional[CrossbarNoiseModel] = None,
        seed: int = 0,
    ) -> None:
        self.network = network
        self.accelerator = OpticalCrossbarAccelerator(config, noise_model=noise_model, seed=seed)
        missing = [info.name for info in network.crossbar_layers if info.name not in weights]
        if missing:
            raise SimulationError(f"missing weights for layers: {missing}")
        self.layers = {
            info.name: self.accelerator.layer(weights[info.name])
            for info in network.crossbar_layers
        }

    # ------------------------------------------------------------------ run
    def run(self, image: np.ndarray) -> np.ndarray:
        """Run one sample through the network on the optical crossbar."""
        return self._execute(np.asarray(image, dtype=float)[None], optical=True)[0]

    def run_reference(self, image: np.ndarray) -> np.ndarray:
        """Run one sample with exact float arithmetic (numpy reference)."""
        return self._execute(np.asarray(image, dtype=float)[None], optical=False)[0]

    def run_batch(self, images: np.ndarray) -> np.ndarray:
        """Run a batch of samples on the optical crossbar in one pass.

        Parameters
        ----------
        images:
            Array of shape (batch, H, W, C) — or any sequence that stacks to
            it.

        Returns
        -------
        numpy.ndarray
            Flattened network outputs, shape (batch, num_outputs).

        Every crossbar layer processes the whole batch as one tiled GEMM and
        is programmed on the engine's first batch only, so per-image cost
        drops sharply compared with looping :meth:`run`.
        """
        return self._execute(self._as_batch(images), optical=True)

    def run_batch_reference(self, images: np.ndarray) -> np.ndarray:
        """Float-reference counterpart of :meth:`run_batch`."""
        return self._execute(self._as_batch(images), optical=False)

    def agreement(self, image: np.ndarray) -> Dict[str, float]:
        """Compare optical vs reference outputs for one sample."""
        optical = self.run(image)
        reference = self.run_reference(image)
        metrics = agreement_metrics(optical[None, :], reference[None, :])
        correlation = (
            float(np.corrcoef(optical.ravel(), reference.ravel())[0, 1])
            if optical.size > 1
            else 1.0
        )
        return {
            "relative_error": metrics["max_relative_error"],
            "correlation": correlation,
            "top1_match": metrics["top1_match_rate"],
        }

    def batch_agreement(self, images: np.ndarray) -> Dict[str, float]:
        """Aggregate optical-vs-reference agreement over a batch of samples."""
        images = self._as_batch(images)
        optical = self.run_batch(images)
        reference = self.run_batch_reference(images)
        return agreement_metrics(optical, reference)

    # ------------------------------------------------------------------ internals
    def _as_batch(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=float)
        expected = self.network.input_shape.as_tuple()
        if images.size == 0:
            raise SimulationError(
                "input batch is empty: run_batch requires at least one image of "
                f"shape {expected}"
            )
        if images.ndim != 4 or images.shape[1:] != expected:
            raise SimulationError(
                f"input batch must have shape (batch, {', '.join(map(str, expected))}), "
                f"got {images.shape}"
            )
        if not np.isfinite(images).all():
            raise SimulationError("input batch has non-finite (NaN/Inf) pixels")
        return images

    def _execute(self, images: np.ndarray, optical: bool) -> np.ndarray:
        expected = self.network.input_shape
        if images.shape[1:] != expected.as_tuple():
            raise SimulationError(
                f"input image must have shape {expected.as_tuple()}, got {images.shape[1:]}"
            )

        outputs_by_name: Dict[str, np.ndarray] = {}
        batch = images.shape[0]
        current = images
        for info in self.network.shape_infos:
            layer = info.layer
            layer_input = current
            if layer.input_from is not None:
                if layer.input_from not in outputs_by_name:
                    raise SimulationError(
                        f"layer {layer.name!r} references unknown input {layer.input_from!r}"
                    )
                layer_input = outputs_by_name[layer.input_from]

            if isinstance(layer, ConvLayer):
                current = self._conv(layer, layer_input, optical)
                current = _apply_activation(current, layer.activation)
            elif isinstance(layer, DenseLayer):
                current = self._dense(layer, layer_input, optical)
                current = _apply_activation(current, layer.activation)
            elif isinstance(layer, PoolLayer):
                current = self._pool(layer, layer_input)
            elif isinstance(layer, BatchNormLayer):
                current = layer_input  # folded into the preceding conv at inference
            elif isinstance(layer, ActivationLayer):
                current = _apply_activation(layer_input, layer.kind)
            elif isinstance(layer, AddLayer):
                skip_from = getattr(layer, "skip_from", None)
                if skip_from is not None:
                    if skip_from not in outputs_by_name:
                        raise SimulationError(
                            f"add layer {layer.name!r} references unknown skip input {skip_from!r}"
                        )
                    second_operand = outputs_by_name[skip_from]
                else:
                    second_operand = current
                current = layer_input + second_operand
            elif isinstance(layer, FlattenLayer):
                current = layer_input.reshape(batch, 1, 1, -1)
            else:
                raise SimulationError(f"unsupported layer type {type(layer).__name__}")
            outputs_by_name[layer.name] = current

        return current.reshape(batch, -1)

    def _conv(self, layer: ConvLayer, tensor: np.ndarray, optical: bool) -> np.ndarray:
        padding = layer.resolved_padding()
        if optical:
            return self.accelerator.conv2d(
                tensor, self.layers[layer.name], stride=layer.stride, padding=padding
            )
        from repro.nn.im2col import conv2d_reference

        return conv2d_reference(
            tensor, self.layers[layer.name].weights, stride=layer.stride, padding=padding
        )

    def _dense(self, layer: DenseLayer, tensor: np.ndarray, optical: bool) -> np.ndarray:
        matrix = tensor.reshape(tensor.shape[0], -1)
        if optical:
            result = self.accelerator.linear(self.layers[layer.name], matrix)
        else:
            weights = self.layers[layer.name].weights
            # One GEMV per sample keeps the float reference bitwise identical
            # to single-image execution; the batch here is images, not patches,
            # so this stays cheap.
            result = np.stack([vector @ weights for vector in matrix])
        return result.reshape(tensor.shape[0], 1, 1, -1)

    def _pool(self, layer: PoolLayer, tensor: np.ndarray) -> np.ndarray:
        if layer.global_pool:
            return tensor.mean(axis=(1, 2), keepdims=True)
        if layer.kind == "max":
            return _max_pool(tensor, layer.kernel_size, layer.stride, layer.padding)
        return _avg_pool(tensor, layer.kernel_size, layer.stride, layer.padding)
