"""Reference (bit-parallel) convolution used as the functional golden model.

Every accelerator functional model in this repository — DaDianNao, Stripes and
the Pragmatic PIP pipeline — must produce exactly the same integer outputs as
this straightforward NumPy implementation of the convolution of Section IV-A.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import ConvLayerSpec

__all__ = ["pad_input", "conv2d_reference", "check_shapes"]


def check_shapes(layer: ConvLayerSpec, neurons: np.ndarray, synapses: np.ndarray) -> None:
    """Validate that neuron/synapse arrays match the layer geometry.

    ``neurons`` is expected as ``[I, Ny, Nx]`` (unpadded) and ``synapses`` as
    ``[N, I, Fy, Fx]``.
    """
    expected_neurons = (layer.input_channels, layer.input_height, layer.input_width)
    expected_synapses = (
        layer.num_filters,
        layer.input_channels,
        layer.filter_height,
        layer.filter_width,
    )
    if tuple(neurons.shape) != expected_neurons:
        raise ValueError(
            f"neuron array shape {tuple(neurons.shape)} does not match layer "
            f"{layer.name!r} expectation {expected_neurons}"
        )
    if tuple(synapses.shape) != expected_synapses:
        raise ValueError(
            f"synapse array shape {tuple(synapses.shape)} does not match layer "
            f"{layer.name!r} expectation {expected_synapses}"
        )


def pad_input(neurons: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the spatial dimensions of an ``[I, Ny, Nx]`` neuron array."""
    if padding == 0:
        return neurons
    if padding < 0:
        raise ValueError("padding must be non-negative")
    return np.pad(neurons, ((0, 0), (padding, padding), (padding, padding)))


def conv2d_reference(
    layer: ConvLayerSpec, neurons: np.ndarray, synapses: np.ndarray
) -> np.ndarray:
    """Compute the layer's output neurons with ordinary integer arithmetic.

    Parameters
    ----------
    layer:
        Layer geometry.
    neurons:
        Input neuron array ``[I, Ny, Nx]`` (integer, unpadded).
    synapses:
        Synapse array ``[N, I, Fy, Fx]`` (integer).

    Returns
    -------
    numpy.ndarray
        Output neuron array ``[N, Oy, Ox]`` as ``int64`` partial sums (no
        activation function applied — DaDN applies ``f`` after the full window
        has been reduced).
    """
    check_shapes(layer, neurons, synapses)
    padded = pad_input(np.asarray(neurons, dtype=np.int64), layer.padding)
    weights = np.asarray(synapses, dtype=np.int64)
    out = np.zeros((layer.num_filters, layer.output_height, layer.output_width), dtype=np.int64)
    stride = layer.stride
    for oy in range(layer.output_height):
        for ox in range(layer.output_width):
            window = padded[
                :,
                oy * stride : oy * stride + layer.filter_height,
                ox * stride : ox * stride + layer.filter_width,
            ]
            # weights: [N, I, Fy, Fx], window: [I, Fy, Fx]
            out[:, oy, ox] = np.tensordot(weights, window, axes=([1, 2, 3], [0, 1, 2]))
    return out
