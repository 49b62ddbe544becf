"""Integration tests: every engine computes the same outputs, and the functional
Pragmatic tile (built on the Figure 7 oracle) agrees with the cycle model
(``sweep_network``) on small layers."""

import numpy as np
import pytest

from repro.analysis.speedup import stripes_result
from repro.arch.tiling import SamplingConfig
from repro.baselines.dadiannao import DaDianNaoFunctional, DaDianNaoModel
from repro.baselines.stripes import StripesFunctional
from repro.core.accelerator import PragmaticConfig
from repro.core.pip import PragmaticTileFunctional
from repro.core.sweep import sweep_network
from repro.nn.layers import ConvLayerSpec
from repro.nn.precision import LayerPrecision
from repro.nn.reference import conv2d_reference
from repro.nn.traces import generate_synapses


@pytest.fixture
def functional_layer():
    return ConvLayerSpec(
        name="functional",
        input_channels=32,
        input_height=7,
        input_width=7,
        num_filters=8,
        filter_height=3,
        filter_width=3,
        stride=1,
        padding=1,
    )


@pytest.fixture
def functional_inputs(functional_layer, rng):
    neurons = rng.integers(0, 2**9, size=(32, 7, 7))
    neurons[rng.random(neurons.shape) < 0.55] = 0
    synapses = generate_synapses(functional_layer, rng)
    return neurons, synapses


class TestFunctionalEquivalence:
    def test_every_engine_computes_identical_outputs(self, functional_layer, functional_inputs):
        neurons, synapses = functional_inputs
        reference = conv2d_reference(functional_layer, neurons, synapses)
        dadn = DaDianNaoFunctional().compute_layer(functional_layer, neurons, synapses)
        stripes = StripesFunctional().compute_layer(
            functional_layer, neurons, synapses, LayerPrecision(msb=8, lsb=0)
        )
        np.testing.assert_array_equal(dadn, reference)
        np.testing.assert_array_equal(stripes, reference)
        for first_stage_bits in (0, 1, 2, 3, 4):
            pragmatic, _ = PragmaticTileFunctional(
                first_stage_bits=first_stage_bits
            ).compute_layer(functional_layer, neurons, synapses)
            np.testing.assert_array_equal(pragmatic, reference)

    def test_pragmatic_functional_cycles_match_cycle_model(self, tiny_trace, rng):
        layer = tiny_trace.layer(0)
        neurons = tiny_trace.layer_input(0)
        synapses = generate_synapses(layer, rng)
        for first_stage_bits in (0, 2, 4):
            _, functional_cycles = PragmaticTileFunctional(
                first_stage_bits=first_stage_bits
            ).compute_layer(layer, neurons, synapses)
            config = PragmaticConfig(
                first_stage_bits=first_stage_bits, software_trimming=False
            )
            model = sweep_network(tiny_trace, {"x": config}, SamplingConfig(exact=True))
            assert functional_cycles == pytest.approx(model["x"].layers[0].cycles)

    def test_cycle_model_orderings_hold_on_real_structure(self, tiny_trace):
        sampling = SamplingConfig(exact=True)
        dadn_cycles = sum(
            DaDianNaoModel().layer_cycles(layer) for layer in tiny_trace.network.layers
        )
        stripes_cycles = stripes_result(tiny_trace).cycles
        config = PragmaticConfig(software_trimming=False)
        pragmatic_cycles = sweep_network(tiny_trace, {"x": config}, sampling)["x"].cycles
        assert pragmatic_cycles <= stripes_cycles <= dadn_cycles

    def test_stripes_speedup_matches_utilization_corrected_ideal(self, tiny_trace):
        # The ideal 16/p speedup is scaled by window-lane utilization when a layer's
        # window count is not a multiple of the 16-wide pallet.
        stripes_cycles = stripes_result(tiny_trace).cycles
        expected = 0.0
        for index, layer in enumerate(tiny_trace.network.layers):
            width = tiny_trace.layer_precision(index).width
            expected += layer.window_groups * layer.bricks_per_window * width
        assert stripes_cycles == pytest.approx(expected)
        dadn_cycles = sum(
            DaDianNaoModel().layer_cycles(layer) for layer in tiny_trace.network.layers
        )
        assert 1.0 < dadn_cycles / stripes_cycles <= 16.0
