"""Convolutional layer inventories of the six networks evaluated in the paper.

The paper evaluates AlexNet, NiN (Network in Network), GoogLeNet, VGG-M, VGG-S
and VGG-19 — convolutional layers only, which account for more than 92% of
execution time on DaDianNao.  The inventories below follow the standard Caffe
model definitions; GoogLeNet's inception modules are each folded into one
equivalent convolutional layer so that the layer count matches the eleven
per-layer precision entries the paper reports in Table II (the folding preserves
the module's input/output channel counts and spatial dimensions, which is what
the term-count and cycle models consume).

Layer counts match Table II exactly: AlexNet 5, NiN 12, GoogLeNet 11, VGG-M 5,
VGG-S 5, VGG-19 16.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.layers import ConvLayerSpec

__all__ = ["Network", "NETWORK_NAMES", "get_network"]


@dataclass(frozen=True)
class Network:
    """A named collection of convolutional layers."""

    name: str
    display_name: str
    layers: tuple[ConvLayerSpec, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError(f"network {self.name!r} has no layers")
        seen = set()
        for layer in self.layers:
            if layer.name in seen:
                raise ValueError(f"duplicate layer name {layer.name!r} in {self.name!r}")
            seen.add(layer.name)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def total_macs(self) -> int:
        """MACs summed over all convolutional layers."""
        return sum(layer.macs for layer in self.layers)

    def layer(self, name: str) -> ConvLayerSpec:
        """Look a layer up by name."""
        for candidate in self.layers:
            if candidate.name == name:
                return candidate
        raise KeyError(f"network {self.name!r} has no layer named {name!r}")

    def describe(self) -> str:
        lines = [f"{self.display_name} ({self.num_layers} conv layers, "
                 f"{self.total_macs / 1e9:.2f} GMACs)"]
        lines.extend("  " + layer.describe() for layer in self.layers)
        return "\n".join(lines)


def _conv(name, in_c, in_h, in_w, filters, fh, fw, stride=1, padding=0) -> ConvLayerSpec:
    return ConvLayerSpec(
        name=name,
        input_channels=in_c,
        input_height=in_h,
        input_width=in_w,
        num_filters=filters,
        filter_height=fh,
        filter_width=fw,
        stride=stride,
        padding=padding,
    )


_ALEXNET = Network(
    name="alexnet",
    display_name="AlexNet",
    layers=(
        _conv("conv1", 3, 227, 227, 96, 11, 11, stride=4),
        _conv("conv2", 96, 27, 27, 256, 5, 5, padding=2),
        _conv("conv3", 256, 13, 13, 384, 3, 3, padding=1),
        _conv("conv4", 384, 13, 13, 384, 3, 3, padding=1),
        _conv("conv5", 384, 13, 13, 256, 3, 3, padding=1),
    ),
)

_NIN = Network(
    name="nin",
    display_name="NiN",
    layers=(
        _conv("conv1", 3, 224, 224, 96, 11, 11, stride=4),
        _conv("cccp1", 96, 54, 54, 96, 1, 1),
        _conv("cccp2", 96, 54, 54, 96, 1, 1),
        _conv("conv2", 96, 27, 27, 256, 5, 5, padding=2),
        _conv("cccp3", 256, 27, 27, 256, 1, 1),
        _conv("cccp4", 256, 27, 27, 256, 1, 1),
        _conv("conv3", 256, 13, 13, 384, 3, 3, padding=1),
        _conv("cccp5", 384, 13, 13, 384, 1, 1),
        _conv("cccp6", 384, 13, 13, 384, 1, 1),
        _conv("conv4-1024", 384, 6, 6, 1024, 3, 3, padding=1),
        _conv("cccp7", 1024, 6, 6, 1024, 1, 1),
        _conv("cccp8", 1024, 6, 6, 1000, 1, 1),
    ),
)

# GoogLeNet: each inception module folded into one equivalent 3x3 convolution with
# the module's aggregate input/output channel counts at the module's spatial size.
_GOOGLENET = Network(
    name="googlenet",
    display_name="GoogLeNet",
    layers=(
        _conv("conv1", 3, 224, 224, 64, 7, 7, stride=2, padding=3),
        _conv("conv2", 64, 56, 56, 192, 3, 3, padding=1),
        _conv("inception3a", 192, 28, 28, 256, 3, 3, padding=1),
        _conv("inception3b", 256, 28, 28, 480, 3, 3, padding=1),
        _conv("inception4a", 480, 14, 14, 512, 3, 3, padding=1),
        _conv("inception4b", 512, 14, 14, 512, 3, 3, padding=1),
        _conv("inception4c", 512, 14, 14, 512, 3, 3, padding=1),
        _conv("inception4d", 512, 14, 14, 528, 3, 3, padding=1),
        _conv("inception4e", 528, 14, 14, 832, 3, 3, padding=1),
        _conv("inception5a", 832, 7, 7, 832, 3, 3, padding=1),
        _conv("inception5b", 832, 7, 7, 1024, 3, 3, padding=1),
    ),
)

_VGG_M = Network(
    name="vgg_m",
    display_name="VGG M",
    layers=(
        _conv("conv1", 3, 224, 224, 96, 7, 7, stride=2),
        _conv("conv2", 96, 54, 54, 256, 5, 5, stride=2, padding=1),
        _conv("conv3", 256, 13, 13, 512, 3, 3, padding=1),
        _conv("conv4", 512, 13, 13, 512, 3, 3, padding=1),
        _conv("conv5", 512, 13, 13, 512, 3, 3, padding=1),
    ),
)

_VGG_S = Network(
    name="vgg_s",
    display_name="VGG S",
    layers=(
        _conv("conv1", 3, 224, 224, 96, 7, 7, stride=2),
        _conv("conv2", 96, 36, 36, 256, 5, 5, padding=1),
        _conv("conv3", 256, 17, 17, 512, 3, 3, padding=1),
        _conv("conv4", 512, 17, 17, 512, 3, 3, padding=1),
        _conv("conv5", 512, 17, 17, 512, 3, 3, padding=1),
    ),
)

_VGG_19 = Network(
    name="vgg19",
    display_name="VGG 19",
    layers=(
        _conv("conv1_1", 3, 224, 224, 64, 3, 3, padding=1),
        _conv("conv1_2", 64, 224, 224, 64, 3, 3, padding=1),
        _conv("conv2_1", 64, 112, 112, 128, 3, 3, padding=1),
        _conv("conv2_2", 128, 112, 112, 128, 3, 3, padding=1),
        _conv("conv3_1", 128, 56, 56, 256, 3, 3, padding=1),
        _conv("conv3_2", 256, 56, 56, 256, 3, 3, padding=1),
        _conv("conv3_3", 256, 56, 56, 256, 3, 3, padding=1),
        _conv("conv3_4", 256, 56, 56, 256, 3, 3, padding=1),
        _conv("conv4_1", 256, 28, 28, 512, 3, 3, padding=1),
        _conv("conv4_2", 512, 28, 28, 512, 3, 3, padding=1),
        _conv("conv4_3", 512, 28, 28, 512, 3, 3, padding=1),
        _conv("conv4_4", 512, 28, 28, 512, 3, 3, padding=1),
        _conv("conv5_1", 512, 14, 14, 512, 3, 3, padding=1),
        _conv("conv5_2", 512, 14, 14, 512, 3, 3, padding=1),
        _conv("conv5_3", 512, 14, 14, 512, 3, 3, padding=1),
        _conv("conv5_4", 512, 14, 14, 512, 3, 3, padding=1),
    ),
)

_REGISTRY: dict[str, Network] = {
    net.name: net for net in (_ALEXNET, _NIN, _GOOGLENET, _VGG_M, _VGG_S, _VGG_19)
}

#: Canonical network names in the order the paper's figures use.
NETWORK_NAMES: tuple[str, ...] = ("alexnet", "nin", "googlenet", "vgg_m", "vgg_s", "vgg19")


def get_network(name: str) -> Network:
    """Return the named network's convolutional layer inventory."""
    key = name.lower().replace("-", "_").replace(" ", "_")
    aliases = {
        "google": "googlenet",
        "vggm": "vgg_m",
        "vggs": "vgg_s",
        "vgg_19": "vgg19",
    }
    key = aliases.get(key, key)
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown network {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key]
