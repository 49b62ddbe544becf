"""Unit tests for the named design variants and the design-space sweep helper."""

import pytest

from repro.arch.tiling import SamplingConfig
from repro.core.progress import ProgressToken, SweepCancelled
from repro.core.sweep import sweep_network
from repro.core.variants import (
    FIG9_FIRST_STAGE_BITS,
    FIG10_SSR_COUNTS,
    column_variant,
    fig9_variants,
    fig10_variants,
    fig12_variants,
    pallet_variant,
)


class TestVariants:
    def test_pallet_variant_names(self):
        assert pallet_variant(0).name == "PRA-0b"
        assert pallet_variant(4).name == "PRA-4b"

    def test_column_variant_configuration(self):
        config = column_variant(4)
        assert config.synchronization == "column"
        assert config.ssr_count == 4
        assert column_variant(None).ssr_count is None

    def test_fig9_variants_cover_all_shifter_widths(self):
        variants = fig9_variants()
        assert set(variants) == {f"{bits}-bit" for bits in FIG9_FIRST_STAGE_BITS}
        assert all(v.synchronization == "pallet" for v in variants.values())

    def test_fig10_variants_cover_ssr_counts(self):
        variants = fig10_variants()
        assert len(variants) == len(FIG10_SSR_COUNTS)
        assert variants["perCol-ideal"].ssr_count is None

    def test_fig12_variants_disable_software_trimming(self):
        assert all(not v.software_trimming for v in fig12_variants().values())

class TestSweep:
    def test_sweep_matches_individual_simulation(self, tiny_trace):
        sampling = SamplingConfig(exact=True)
        configs = {"a": pallet_variant(2), "b": column_variant(1), "c": pallet_variant(0)}
        swept = sweep_network(tiny_trace, configs, sampling=sampling)
        for label, config in configs.items():
            direct = sweep_network(tiny_trace, {label: config}, sampling=sampling)[label]
            assert swept[label] == direct

    def test_sweep_rejects_empty_configs(self, tiny_trace):
        with pytest.raises(ValueError):
            sweep_network(tiny_trace, {})

    def test_sweep_result_labels(self, tiny_trace):
        swept = sweep_network(
            tiny_trace, {"x": pallet_variant(3)}, sampling=SamplingConfig(max_pallets=1)
        )
        assert swept["x"].accelerator == "PRA-3b"
        assert swept["x"].network == tiny_trace.network.name


class TestSweepProgress:
    def test_progress_token_does_not_change_results(self, tiny_trace):
        sampling = SamplingConfig(exact=True)
        configs = {"a": pallet_variant(2), "b": column_variant(1)}
        plain = sweep_network(tiny_trace, configs, sampling=sampling)
        events = []
        observed = sweep_network(
            tiny_trace, configs, sampling=sampling, progress=ProgressToken(events.append)
        )
        for label in configs:
            assert observed[label].cycles == pytest.approx(plain[label].cycles)
        layer_events = [event for event in events if event["stage"] == "layer"]
        assert len(layer_events) == tiny_trace.network.num_layers
        assert [event["index"] for event in layer_events] == [0, 1]
        assert all(
            event["network"] == tiny_trace.network.name for event in layer_events
        )

    def test_cancelled_token_aborts_before_any_work(self, tiny_trace):
        token = ProgressToken()
        token.cancel()
        with pytest.raises(SweepCancelled):
            sweep_network(tiny_trace, {"x": pallet_variant(2)}, progress=token)

    def test_cancellation_interrupts_between_layers(self, tiny_trace):
        token = ProgressToken()
        events = []

        def cancel_after_first_layer(event):
            events.append(event)
            token.cancel()

        token.on_progress = cancel_after_first_layer
        with pytest.raises(SweepCancelled):
            sweep_network(tiny_trace, {"x": pallet_variant(2)}, progress=token)
        # Exactly one layer completed before the checkpoint fired.
        assert [event["index"] for event in events if event["stage"] == "layer"] == [0]

    def test_raising_observer_is_disarmed_not_fatal(self, tiny_trace):
        def broken(event):
            raise RuntimeError("observer bug")

        token = ProgressToken(broken)
        swept = sweep_network(tiny_trace, {"x": pallet_variant(2)}, progress=token)
        assert "x" in swept
        assert token.on_progress is None  # disarmed after the first failure
