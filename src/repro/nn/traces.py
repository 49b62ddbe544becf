"""Synthetic activation traces.

The paper measures its statistics (essential bit content, term counts, cycle
counts) on activation traces collected from real ImageNet inference.  Those
traces are not redistributable, so this module generates synthetic per-layer
activation streams with the same *bit statistics*:

* a fraction of exactly-zero neurons (the ReLU-censored mass), and
* non-zero magnitudes drawn from a lognormal distribution whose median
  ``sigma`` is tied to the layer's precision window and calibrated (see
  :mod:`repro.nn.calibration`) so that the per-network essential-bit content
  matches the paper's own Table I.

Every quantity the architecture exploits — how many bits are set, where they
are, how they distribute across neurons within a pallet — is a function of the
value distribution, so reproducing the published bit statistics reproduces the
inputs the evaluation needs.  The substitution is documented with the
calibrated traces (``docs/architecture.md``, ``docs/runtime.md#calibrations``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network
from repro.nn.precision import LayerPrecision

__all__ = [
    "LayerTraceParams",
    "NetworkTrace",
    "generate_layer_values",
    "generate_synapses",
    "saturate_magnitudes",
]


#: Magnitude distributions the trace generator supports.
DISTRIBUTIONS = ("lognormal", "half_normal", "uniform")

#: Default lognormal shape (log-space standard deviation).  Real post-ReLU
#: activation magnitudes are heavy tailed; this shape, combined with the
#: calibrated scale, reproduces both the mean essential-bit content of Table I
#: and pallet-maximum statistics consistent with the paper's measured speedups.
DEFAULT_SHAPE = 1.5

#: Values per chunk of :func:`generate_layer_values`.  A chunk's float draws
#: (512 KiB) stay in cache: 442,368 lognormal values with a 40% zero mask took
#: 39.8 ns each at this size, 42.6 at 4,096, 49.8 at 262,144 and 49.9 in one
#: bulk draw (2-vCPU VM, numpy 2.4).
GENERATE_CHUNK = 65_536


@dataclass(frozen=True)
class LayerTraceParams:
    """Distribution parameters for one layer's synthetic activations.

    Attributes
    ----------
    sigma:
        Scale in LSB units of the storage representation: the median magnitude
        for the lognormal distribution, the standard deviation for the
        half-normal, or the maximum value for the uniform distribution.
    zero_fraction:
        Probability that a neuron is exactly zero.
    max_magnitude:
        Saturation limit of the storage representation.
    distribution:
        ``"lognormal"`` (ReLU-fed layers), ``"half_normal"``, or ``"uniform"``
        (image-fed first layer).
    shape:
        Log-space standard deviation of the lognormal distribution; ignored by
        the other distributions.
    """

    sigma: float
    zero_fraction: float
    max_magnitude: int = (1 << 16) - 1
    distribution: str = "lognormal"
    shape: float = DEFAULT_SHAPE

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 <= self.zero_fraction < 1.0:
            raise ValueError(f"zero_fraction must be in [0, 1), got {self.zero_fraction}")
        if self.max_magnitude < 1:
            raise ValueError("max_magnitude must be positive")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}"
            )
        if self.shape <= 0:
            raise ValueError(f"shape must be positive, got {self.shape}")


def generate_layer_values(
    shape: tuple[int, ...],
    params: LayerTraceParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw synthetic post-ReLU activation values (non-negative integers).

    Values are zero with probability ``params.zero_fraction``; otherwise their
    magnitude is drawn from the configured distribution, rounded to the nearest
    integer (minimum 1, since the zero mass is modelled explicitly) and
    saturated to the storage range.  Rounding and saturation happen in float,
    so a magnitude beyond the integer range saturates too.  The zero mask is
    the generator's last draw, and is not drawn at all when
    ``zero_fraction`` is 0.

    Both draws fill one ``int64`` output in chunks of :data:`GENERATE_CHUNK`
    values, every magnitude first and then the zero mask, so the stream, and
    every value, is that of one bulk draw of each.
    """
    count = int(np.prod(shape))
    out = np.empty(count, dtype=np.int64)
    if params.distribution == "lognormal":
        draw = partial(rng.lognormal, np.log(params.sigma), params.shape)
    elif params.distribution == "half_normal":
        draw = partial(rng.normal, 0.0, params.sigma)
    else:  # uniform
        draw = partial(rng.uniform, 0.0, params.sigma)
    for start in range(0, count, GENERATE_CHUNK):
        magnitudes = draw(size=min(GENERATE_CHUNK, count - start))
        if params.distribution == "half_normal":
            np.abs(magnitudes, out=magnitudes)
        saturate_magnitudes(magnitudes, params.max_magnitude)
        out[start : start + magnitudes.size] = magnitudes
    if params.zero_fraction > 0.0:
        for start in range(0, count, GENERATE_CHUNK):
            chunk = out[start : start + GENERATE_CHUNK]
            chunk *= rng.random(chunk.size) >= params.zero_fraction
    return out.reshape(shape)


def saturate_magnitudes(magnitudes: np.ndarray, max_magnitude: int) -> np.ndarray:
    """Round float magnitudes in place to integers in ``[1, max_magnitude]``."""
    np.rint(magnitudes, out=magnitudes)
    return np.clip(magnitudes, 1, max_magnitude, out=magnitudes)


def generate_synapses(
    layer: ConvLayerSpec,
    rng: np.random.Generator,
    magnitude_bits: int = 8,
) -> np.ndarray:
    """Generate signed synthetic synapses ``[N, I, Fy, Fx]`` for functional tests."""
    if magnitude_bits < 1 or magnitude_bits > 15:
        raise ValueError("magnitude_bits must be in [1, 15]")
    limit = 1 << magnitude_bits
    shape = (
        layer.num_filters,
        layer.input_channels,
        layer.filter_height,
        layer.filter_width,
    )
    return rng.integers(-limit, limit, size=shape, dtype=np.int64)


@dataclass
class NetworkTrace:
    """Per-layer synthetic activation streams for one network.

    The trace is deterministic: layer ``i`` always produces the same values for
    a given ``seed``, independently of which other layers were generated first.

    Attributes
    ----------
    network:
        The network whose layers the trace covers.
    precisions:
        Per-layer precision windows (drives the magnitude scale and the
        software-trimming experiments).
    params:
        Per-layer :class:`LayerTraceParams`.
    seed:
        Base seed for the deterministic per-layer generators.
    storage_bits:
        Width of the storage representation the values are bounded by.
    """

    network: Network
    precisions: tuple[LayerPrecision, ...]
    params: tuple[LayerTraceParams, ...]
    seed: int = 0
    storage_bits: int = 16

    def __post_init__(self) -> None:
        expected = self.network.num_layers
        if len(self.precisions) != expected:
            raise ValueError(
                f"expected {expected} precision entries, got {len(self.precisions)}"
            )
        if len(self.params) != expected:
            raise ValueError(f"expected {expected} param entries, got {len(self.params)}")

    # ------------------------------------------------------------------ helpers
    def _rng(self, layer_index: int, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed, layer_index, stream))

    def layer(self, layer_index: int) -> ConvLayerSpec:
        """The layer spec at ``layer_index``."""
        return self.network.layers[layer_index]

    def layer_precision(self, layer_index: int) -> LayerPrecision:
        """The precision window of the layer at ``layer_index``."""
        return self.precisions[layer_index]

    def layer_params(self, layer_index: int) -> LayerTraceParams:
        """The trace distribution parameters of the layer at ``layer_index``."""
        return self.params[layer_index]

    # ------------------------------------------------------------------ values
    def layer_input(self, layer_index: int) -> np.ndarray:
        """Full synthetic input tensor ``[I, Ny, Nx]`` for the layer.

        Generated on demand and never retained: a call costs one generation
        pass, and the same ``(seed, layer)`` always yields the same values.
        """
        layer = self.layer(layer_index)
        shape = (layer.input_channels, layer.input_height, layer.input_width)
        return generate_layer_values(
            shape, self.layer_params(layer_index), self._rng(layer_index)
        )

    def sample_layer_values(self, layer_index: int, count: int) -> np.ndarray:
        """Draw ``count`` i.i.d. neuron values from the layer's distribution.

        Used by the analysis passes and by the sampled cycle simulator; drawn
        from a separate deterministic stream so samples do not depend on whether
        the full tensor was generated.
        """
        if count < 1:
            raise ValueError("count must be positive")
        return generate_layer_values(
            (count,), self.layer_params(layer_index), self._rng(layer_index, stream=1)
        )

    def stream_weights(self) -> np.ndarray:
        """Neuron-stream length of each layer (weights for Table I statistics)."""
        return np.array(
            [layer.neuron_stream_length() for layer in self.network.layers], dtype=np.float64
        )
