"""Unit tests for the Pragmatic accelerator configuration, results and simulator."""

import pytest

from repro.arch.tiling import SamplingConfig
from repro.baselines.dadiannao import DaDianNaoModel
from repro.core.accelerator import LayerResult, NetworkResult, PragmaticConfig
from repro.core.sweep import sweep_network


def simulate(trace, config, sampling):
    """One design simulated as a one-entry sweep."""
    return sweep_network(trace, {"design": config}, sampling)["design"]


class TestPragmaticConfig:
    def test_defaults(self):
        config = PragmaticConfig()
        assert config.first_stage_bits == 2
        assert config.synchronization == "pallet"
        assert config.software_trimming

    def test_name_generation(self):
        assert PragmaticConfig(first_stage_bits=3).name == "PRA-3b"
        assert PragmaticConfig(synchronization="column", ssr_count=4).name == "PRA-2b-4R"
        assert (
            PragmaticConfig(synchronization="column", ssr_count=None).name == "PRA-2b-idealR"
        )
        assert PragmaticConfig(software_trimming=False).name == "PRA-2b-fp"

    def test_label_overrides_name(self):
        assert PragmaticConfig(label="custom").name == "custom"

    def test_validation(self):
        with pytest.raises(ValueError):
            PragmaticConfig(first_stage_bits=5)
        with pytest.raises(ValueError):
            PragmaticConfig(synchronization="row")
        with pytest.raises(ValueError):
            PragmaticConfig(synchronization="column", ssr_count=0)


class TestResults:
    def test_layer_result_speedup(self):
        result = LayerResult("l", cycles=50.0, baseline_cycles=100.0, terms=1.0, baseline_terms=4.0)
        assert result.speedup == 2.0

    def test_network_result_aggregates(self):
        layers = (
            LayerResult("a", 10.0, 40.0, 1.0, 2.0),
            LayerResult("b", 30.0, 40.0, 1.0, 2.0),
        )
        result = NetworkResult("net", "PRA", layers)
        assert result.cycles == 40.0
        assert result.baseline_cycles == 80.0
        assert result.speedup == 2.0
        assert "PRA on net" in result.summary()


class TestSingleConfigSweep:
    def test_exact_layer_simulation_bounds(self, tiny_trace):
        config = PragmaticConfig(software_trimming=False)
        result = simulate(tiny_trace, config, SamplingConfig(exact=True)).layers[0]
        baseline = DaDianNaoModel().layer_cycles(tiny_trace.layer(0))
        assert result.baseline_cycles == baseline
        assert result.cycles <= baseline
        assert result.cycles >= baseline / 16.0

    def test_speedup_at_least_one_and_at_most_sixteen(self, tiny_trace):
        network = simulate(tiny_trace, PragmaticConfig(), SamplingConfig(exact=True))
        assert 1.0 <= network.speedup <= 16.0

    def test_sampled_matches_exact_for_small_layers(self, tiny_trace):
        config = PragmaticConfig()
        exact = simulate(tiny_trace, config, SamplingConfig(exact=True)).layers[0]
        sampled = simulate(tiny_trace, config, SamplingConfig(max_pallets=64)).layers[0]
        assert sampled.cycles == pytest.approx(exact.cycles, rel=0.35)

    def test_software_trimming_never_slows_down(self, tiny_trace):
        sampling = SamplingConfig(exact=True)
        fast = simulate(tiny_trace, PragmaticConfig(software_trimming=True), sampling)
        slow = simulate(tiny_trace, PragmaticConfig(software_trimming=False), sampling)
        assert fast.cycles <= slow.cycles + 1e-9

    def test_column_sync_not_slower_than_pallet_sync(self, tiny_trace):
        sampling = SamplingConfig(exact=True)
        pallet_result = simulate(
            tiny_trace, PragmaticConfig(synchronization="pallet"), sampling
        )
        column_result = simulate(
            tiny_trace, PragmaticConfig(synchronization="column", ssr_count=None), sampling
        )
        # Allow the small SB-port skew the column model charges per step.
        slack = sum(layer.bricks_per_window * layer.window_groups for layer in tiny_trace.network.layers)
        assert column_result.cycles <= pallet_result.cycles + slack

    def test_terms_scale_with_macs(self, tiny_trace):
        result = simulate(tiny_trace, PragmaticConfig(), SamplingConfig(exact=True)).layers[0]
        layer = tiny_trace.layer(0)
        assert 0 < result.terms <= layer.macs * 16
        assert result.baseline_terms == layer.macs * 16

    def test_accelerator_name_propagates_to_results(self, tiny_trace):
        config = PragmaticConfig(first_stage_bits=3)
        result = simulate(tiny_trace, config, SamplingConfig(max_pallets=1))
        assert result.accelerator == "PRA-3b"
