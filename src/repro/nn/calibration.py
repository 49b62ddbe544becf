"""Calibration of the synthetic traces against the paper's Table I statistics.

Table I of the paper reports, per network, the average fraction of non-zero bits
per neuron for the two storage representations the evaluation uses — 16-bit
fixed point and 8-bit TensorFlow-style quantization — over all neurons ("All")
and over non-zero neurons only ("NZ").  Those two numbers pin down the two free
parameters of the synthetic trace generator:

* the zero fraction ``z`` follows from ``All = (1 - z) * NZ``, and
* the magnitude scale multiplier ``alpha`` (the lognormal median expressed as
  a fraction of ``2**msb`` of each layer's bit window) is found by bisection so
  that the simulated NZ essential-bit fraction matches the published value.

The calibrated parameters are what every experiment uses by default, so the
reproduction's inputs carry the same bit statistics the original evaluation saw.
A calibration draws each layer's sample once; every bisection step only
rescales it (see :func:`_nz_fraction_evaluator`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.numerics.fixedpoint import popcount
from repro.nn.networks import Network, get_network
from repro.nn.precision import DEFAULT_SUFFIX_BITS, LayerPrecision, precision_profile
from repro.nn.traces import (
    DEFAULT_SHAPE,
    LayerTraceParams,
    NetworkTrace,
    generate_layer_values,
    saturate_magnitudes,
)

__all__ = [
    "TABLE1_TARGETS",
    "REPRESENTATIONS",
    "NetworkCalibration",
    "calibrate_network",
    "calibrated_trace",
    "storage_bits_for",
]

#: Storage representations the paper evaluates.
REPRESENTATIONS = ("fixed16", "quant8")

#: Table I of the paper: average fraction of non-zero bits per neuron.
#: Keys: representation -> statistic ("all" / "nz") -> network -> fraction.
TABLE1_TARGETS: dict[str, dict[str, dict[str, float]]] = {
    "fixed16": {
        "all": {
            "alexnet": 0.078,
            "nin": 0.104,
            "googlenet": 0.064,
            "vgg_m": 0.051,
            "vgg_s": 0.057,
            "vgg19": 0.127,
        },
        "nz": {
            "alexnet": 0.181,
            "nin": 0.221,
            "googlenet": 0.190,
            "vgg_m": 0.165,
            "vgg_s": 0.167,
            "vgg19": 0.242,
        },
    },
    "quant8": {
        "all": {
            "alexnet": 0.314,
            "nin": 0.271,
            "googlenet": 0.268,
            "vgg_m": 0.384,
            "vgg_s": 0.343,
            "vgg19": 0.165,
        },
        "nz": {
            "alexnet": 0.443,
            "nin": 0.374,
            "googlenet": 0.426,
            "vgg_m": 0.474,
            "vgg_s": 0.460,
            "vgg19": 0.291,
        },
    },
}


#: Maximum magnitude of the image feeding the first convolutional layer.  That
#: layer consumes the image itself (8-bit pixels, not ReLU outputs), so its
#: neuron stream is dense and carries roughly half of 8 bits of essential
#: content — the reason Cnvlutin cannot skip zeros there (Section II).  The
#: first layer also dominates the DaDN cycle count of several networks (few
#: channels, many windows), so modelling it as dense pixels is what keeps the
#: reproduced speedups aligned with the paper (see the ablation experiment).
IMAGE_LAYER_MAX = 255.0


def _image_layer_params(storage_bits: int) -> LayerTraceParams:
    """Trace parameters of the dense, uniformly distributed image-pixel layer."""
    return LayerTraceParams(
        sigma=IMAGE_LAYER_MAX,
        zero_fraction=0.0,
        max_magnitude=(1 << storage_bits) - 1,
        distribution="uniform",
    )


def storage_bits_for(representation: str) -> int:
    """Storage width of a representation name."""
    if representation == "fixed16":
        return 16
    if representation == "quant8":
        return 8
    raise ValueError(f"unknown representation {representation!r}; expected one of {REPRESENTATIONS}")


@dataclass(frozen=True)
class NetworkCalibration:
    """Calibrated synthetic-trace parameters for one network and representation.

    Attributes
    ----------
    network:
        Network name.
    representation:
        ``"fixed16"`` or ``"quant8"``.
    alpha:
        Lognormal median (``sigma``) as a fraction of ``2**msb`` of each layer's
        bit window.
    zero_fraction:
        Fraction of exactly-zero neurons.
    target_nz_fraction:
        The Table I NZ essential-bit fraction the calibration aimed for.
    achieved_nz_fraction:
        The fraction the calibrated generator actually produces (measured on the
        calibration sample).
    """

    network: str
    representation: str
    alpha: float
    zero_fraction: float
    target_nz_fraction: float
    achieved_nz_fraction: float


def _generation_windows(
    network: Network, representation: str, suffix_bits: int
) -> tuple[LayerPrecision, ...]:
    """Bit windows the value generator scales magnitudes to.

    For the 16-bit fixed-point representation the window is the layer's profiled
    precision placed above ``suffix_bits`` fractional bits.  For the 8-bit
    quantized representation the per-layer min/max quantization spreads codes
    over the full 8-bit range, so the window is always ``[0, 7]``.
    """
    if representation == "fixed16":
        return precision_profile(network, suffix_bits=suffix_bits)
    if representation == "quant8":
        return tuple(LayerPrecision(msb=7, lsb=0) for _ in network.layers)
    raise ValueError(f"unknown representation {representation!r}")


def _layer_sigma(window: LayerPrecision, alpha: float) -> float:
    """Magnitude scale for a layer: ``alpha`` of the top of its bit window."""
    return max(alpha * float(2**window.msb), 0.5)


def _layer_shape(representation: str) -> float:
    """Lognormal shape (log-space spread) of the non-zero magnitudes.

    Fixed-point activations keep the heavy tail of the underlying real values.
    The 8-bit min/max quantization, by contrast, sets its scale from the layer's
    extreme activations, which concentrates the bulk of the codes well below the
    top of the range — modelled as a lighter-tailed code distribution.
    """
    return DEFAULT_SHAPE if representation == "fixed16" else 0.8


def _bit_fraction(values: np.ndarray, storage_bits: int) -> float:
    """Mean essential-bit fraction of ``values`` in a ``storage_bits`` word."""
    return popcount(values, bits=storage_bits).mean() / storage_bits


def _nz_fraction_evaluator(
    network: Network,
    windows: tuple[LayerPrecision, ...],
    storage_bits: int,
    samples_per_layer: int,
    seed: int,
    dense_first_layer: bool,
    shape: float,
) -> Callable[[float], float]:
    """Stream-weighted essential-bit fraction of non-zero neurons, per alpha.

    Layer ``i``'s sample is what :func:`generate_layer_values` draws from
    ``default_rng((seed, i))`` with no zero mass: a lognormal magnitude is
    ``exp(log(sigma) + shape * z)`` over that stream's standard normals ``z``.
    So ``shape * z`` is drawn once here, and each alpha only recomputes the
    exponential, the rounding and the popcount.  With ``dense_first_layer``
    the first layer is pinned to the image-pixel distribution, which does not
    depend on alpha, so its fraction is computed once and the bisection only
    adjusts the remaining, ReLU-fed layers.
    """
    weights = np.array(
        [layer.neuron_stream_length() for layer in network.layers], dtype=np.float64
    )
    fractions = np.empty(network.num_layers, dtype=np.float64)
    max_magnitude = (1 << storage_bits) - 1
    noise: dict[int, np.ndarray] = {}
    for index in range(network.num_layers):
        rng = np.random.default_rng((seed, index))
        if dense_first_layer and index == 0:
            values = generate_layer_values(
                (samples_per_layer,), _image_layer_params(storage_bits), rng
            )
            fractions[index] = _bit_fraction(values, storage_bits)
        else:
            noise[index] = shape * rng.standard_normal(samples_per_layer)

    def evaluate(alpha: float) -> float:
        for index, log_noise in noise.items():
            magnitudes = np.exp(np.log(_layer_sigma(windows[index], alpha)) + log_noise)
            values = saturate_magnitudes(magnitudes, max_magnitude).astype(np.int64)
            fractions[index] = _bit_fraction(values, storage_bits)
        return float(np.average(fractions, weights=weights))

    return evaluate


@functools.lru_cache(maxsize=128)
def calibrate_network(
    network_name: str,
    representation: str = "fixed16",
    suffix_bits: int = DEFAULT_SUFFIX_BITS,
    samples_per_layer: int = 8192,
    seed: int = 12345,
    dense_first_layer: bool = True,
) -> NetworkCalibration:
    """Find trace parameters that reproduce the network's Table I statistics.

    The NZ essential-bit fraction is monotone in the magnitude scale, so a plain
    bisection on ``alpha`` converges quickly.  Calibration is a deterministic
    function of its arguments (and the code), so results are memoized per
    argument combination for the life of the process.

    With ``dense_first_layer`` the first layer's scale is pinned to the
    image-pixel distribution and only the remaining (ReLU-fed) layers are
    adjusted, mirroring the real neuron streams.
    """
    network = get_network(network_name)
    storage_bits = storage_bits_for(representation)
    targets = TABLE1_TARGETS[representation]
    if network.name not in targets["nz"]:
        raise KeyError(f"no Table I target for network {network.name!r}")
    target_nz = targets["nz"][network.name]
    target_all = targets["all"][network.name]
    zero_fraction = float(np.clip(1.0 - target_all / target_nz, 0.0, 0.99))

    evaluate = _nz_fraction_evaluator(
        network,
        _generation_windows(network, representation, suffix_bits),
        storage_bits=storage_bits,
        samples_per_layer=samples_per_layer,
        seed=seed,
        dense_first_layer=dense_first_layer,
        shape=_layer_shape(representation),
    )
    low, high = 1e-4, 4.0
    achieved = evaluate(high)
    if achieved < target_nz:
        # Even the widest scale cannot reach the target (should not happen for the
        # published targets); fall back to the widest scale.
        return NetworkCalibration(
            network=network.name,
            representation=representation,
            alpha=high,
            zero_fraction=zero_fraction,
            target_nz_fraction=target_nz,
            achieved_nz_fraction=achieved,
        )
    achieved = evaluate(low)
    if achieved > target_nz:
        # The pinned first layer alone exceeds the target; use the smallest scale
        # for the remaining layers.
        alpha = low
    else:
        for _ in range(40):
            mid = 0.5 * (low + high)
            achieved = evaluate(mid)
            if achieved < target_nz:
                low = mid
            else:
                high = mid
        alpha = 0.5 * (low + high)
        achieved = evaluate(alpha)
    return NetworkCalibration(
        network=network.name,
        representation=representation,
        alpha=alpha,
        zero_fraction=zero_fraction,
        target_nz_fraction=target_nz,
        achieved_nz_fraction=achieved,
    )


def calibrated_trace(
    network: str | Network,
    representation: str = "fixed16",
    suffix_bits: int = DEFAULT_SUFFIX_BITS,
    seed: int = 0,
    precisions: tuple[int, ...] | None = None,
    dense_first_layer: bool = True,
) -> NetworkTrace:
    """Build a :class:`NetworkTrace` whose bit statistics match Table I.

    Parameters
    ----------
    network:
        Network name or object.
    representation:
        ``"fixed16"`` (default) or ``"quant8"``.
    suffix_bits:
        Fractional bits stored below the precision window (16-bit fixed point
        only; trimmed by software guidance).
    seed:
        Seed of the generated trace (calibration uses its own fixed seed).
    precisions:
        Optional per-layer precision widths overriding Table II (16-bit fixed
        point only).
    dense_first_layer:
        Model the first layer's input as dense image pixels rather than sparse
        ReLU outputs (the realistic default).
    """
    net = network if isinstance(network, Network) else get_network(network)
    storage_bits = storage_bits_for(representation)
    calibration = calibrate_network(
        net.name,
        representation=representation,
        suffix_bits=suffix_bits,
        dense_first_layer=dense_first_layer,
    )
    if representation == "fixed16":
        profile = precision_profile(net, suffix_bits=suffix_bits, precisions=precisions)
    else:
        if precisions is not None:
            raise ValueError("explicit precisions only apply to the fixed16 representation")
        profile = _generation_windows(net, representation, suffix_bits)
    windows = _generation_windows(net, representation, suffix_bits)
    max_magnitude = (1 << storage_bits) - 1
    params = []
    for index, window in enumerate(windows):
        if dense_first_layer and index == 0:
            params.append(_image_layer_params(storage_bits))
        else:
            params.append(
                LayerTraceParams(
                    sigma=_layer_sigma(window, calibration.alpha),
                    zero_fraction=calibration.zero_fraction,
                    max_magnitude=max_magnitude,
                    shape=_layer_shape(representation),
                )
            )
    return NetworkTrace(
        network=net,
        precisions=profile,
        params=tuple(params),
        seed=seed,
        storage_bits=storage_bits,
    )
