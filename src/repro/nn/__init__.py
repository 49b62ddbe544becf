"""DNN substrate: layer geometry, network inventories, precisions and traces."""

from repro.nn.calibration import (
    REPRESENTATIONS,
    TABLE1_TARGETS,
    NetworkCalibration,
    calibrate_network,
    calibrated_trace,
    storage_bits_for,
)
from repro.nn.layers import BRICK_SIZE, PALLET_WINDOWS, ConvLayerSpec
from repro.nn.networks import NETWORK_NAMES, Network, get_network
from repro.nn.precision import (
    DEFAULT_SUFFIX_BITS,
    TABLE2_PRECISIONS,
    LayerPrecision,
    precision_profile,
    profile_from_values,
    table2_precisions,
)
from repro.nn.reference import conv2d_reference, pad_input
from repro.nn.traces import (
    LayerTraceParams,
    NetworkTrace,
    generate_layer_values,
    generate_synapses,
)

__all__ = [
    "ConvLayerSpec",
    "BRICK_SIZE",
    "PALLET_WINDOWS",
    "Network",
    "NETWORK_NAMES",
    "get_network",
    "LayerPrecision",
    "TABLE2_PRECISIONS",
    "table2_precisions",
    "precision_profile",
    "profile_from_values",
    "DEFAULT_SUFFIX_BITS",
    "conv2d_reference",
    "pad_input",
    "LayerTraceParams",
    "NetworkTrace",
    "generate_layer_values",
    "generate_synapses",
    "NetworkCalibration",
    "calibrate_network",
    "calibrated_trace",
    "TABLE1_TARGETS",
    "REPRESENTATIONS",
    "storage_bits_for",
]
