"""Unit tests for the network inventories."""

import pytest

from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import NETWORK_NAMES, Network, get_network
from repro.nn.precision import TABLE2_PRECISIONS


class TestRegistry:
    def test_six_networks_available(self):
        assert len(NETWORK_NAMES) == 6
        assert set(NETWORK_NAMES) == {"alexnet", "nin", "googlenet", "vgg_m", "vgg_s", "vgg19"}

    def test_get_network_accepts_aliases(self):
        assert get_network("VGG-M").name == "vgg_m"
        assert get_network("google").name == "googlenet"
        assert get_network("VGG 19").name == "vgg19"

    def test_get_network_rejects_unknown(self):
        with pytest.raises(KeyError):
            get_network("resnet50")


class TestInventories:
    @pytest.mark.parametrize("name", NETWORK_NAMES)
    def test_layer_counts_match_table2(self, name):
        assert get_network(name).num_layers == len(TABLE2_PRECISIONS[name])

    @pytest.mark.parametrize("name", NETWORK_NAMES)
    def test_all_layers_have_positive_macs(self, name):
        for layer in get_network(name).layers:
            assert layer.macs > 0

    def test_alexnet_first_layer_uses_stride_four(self):
        conv1 = get_network("alexnet").layers[0]
        assert conv1.stride == 4
        assert conv1.num_filters == 96

    def test_vgg19_uses_three_by_three_filters_throughout(self):
        for layer in get_network("vgg19").layers:
            assert layer.filter_height == 3 and layer.filter_width == 3

    def test_total_macs_ordering_is_plausible(self):
        # VGG-19's convolutional layers are by far the heaviest of the six networks.
        macs = {name: get_network(name).total_macs for name in NETWORK_NAMES}
        assert macs["vgg19"] == max(macs.values())
        assert macs["alexnet"] < macs["vgg19"]

    def test_layer_lookup_by_name(self):
        net = get_network("alexnet")
        assert net.layer("conv3").num_filters == 384
        with pytest.raises(KeyError):
            net.layer("missing")

    def test_describe_lists_every_layer(self):
        text = get_network("nin").describe()
        assert text.count("\n") == get_network("nin").num_layers


class TestNetworkValidation:
    def test_rejects_empty_layer_list(self):
        with pytest.raises(ValueError):
            Network(name="x", display_name="X", layers=())

    def test_rejects_duplicate_layer_names(self):
        layer = ConvLayerSpec("dup", 16, 8, 8, 4, 3, 3, padding=1)
        with pytest.raises(ValueError):
            Network(name="x", display_name="X", layers=(layer, layer))
