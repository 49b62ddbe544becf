"""Unit tests for the named design variants and the design-space sweep helper."""

import dataclasses
import threading

import pytest

import repro.core.sweep as sweep_module
from repro.arch.tiling import SamplingConfig, sample_pallet_values
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


class TestSweepDrawsAhead:
    """A sweep on the main thread draws its pallet samples on drawer threads
    while it drains; a sweep on any other thread draws them in line."""

    SAMPLING = SamplingConfig(max_pallets=2)
    CONFIGS = {"a": pallet_variant(2), "b": column_variant(1)}

    @pytest.fixture
    def draws(self, monkeypatch):
        """Record ``(trace seed, layer, drawing thread)`` of every sample the
        sweep draws through its module-level ``sample_pallet_values``."""
        seen = []

        def recording(trace, layer_index, sampling):
            seen.append((trace.seed, layer_index, threading.get_ident()))
            return sample_pallet_values(trace, layer_index, sampling)

        monkeypatch.setattr(sweep_module, "sample_pallet_values", recording)
        return seen

    def assert_lone_sweep_draws_ahead(self, trace, draws):
        del draws[:]
        sweep_network(trace, self.CONFIGS, sampling=self.SAMPLING)
        caller = threading.get_ident()
        assert [layer for _, layer, _ in draws] == [0, 1]
        assert all(thread != caller for _, _, thread in draws), draws

    def test_lone_sweep_draws_on_other_threads(self, tiny_trace, draws):
        self.assert_lone_sweep_draws_ahead(tiny_trace, draws)

    def test_sweep_off_the_main_thread_draws_in_line(self, tiny_trace, draws):
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(
                thread=threading.get_ident(),
                swept=sweep_network(tiny_trace, self.CONFIGS, sampling=self.SAMPLING),
            )
        )
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert [(layer, drawn_on) for _, layer, drawn_on in draws] == [
            (0, result["thread"]),
            (1, result["thread"]),
        ]
        # Drawn in line or ahead, a layer's sample and so the results are the same.
        assert sweep_network(tiny_trace, self.CONFIGS, sampling=self.SAMPLING) == result["swept"]

    def test_second_sweep_draws_in_line_while_one_draws_ahead(
        self, tiny_trace, draws, monkeypatch
    ):
        other = dataclasses.replace(tiny_trace, seed=tiny_trace.seed + 1)
        entered, release = threading.Event(), threading.Event()
        recording = sweep_module.sample_pallet_values

        def held(trace, layer_index, sampling):
            if trace.seed == tiny_trace.seed:
                entered.set()
                assert release.wait(timeout=30)
            return recording(trace, layer_index, sampling)

        monkeypatch.setattr(sweep_module, "sample_pallet_values", held)
        second = {}

        def second_sweep():
            # Runs while the main thread's sweep is held inside its drawer.
            try:
                assert entered.wait(timeout=30)
                second["thread"] = threading.get_ident()
                sweep_network(other, self.CONFIGS, sampling=self.SAMPLING)
            finally:
                release.set()

        thread = threading.Thread(target=second_sweep)
        thread.start()
        sweep_network(tiny_trace, self.CONFIGS, sampling=self.SAMPLING)
        thread.join(timeout=30)
        assert not thread.is_alive()
        in_line = [(layer, drawn_on) for seed, layer, drawn_on in draws if seed == other.seed]
        assert in_line == [(0, second["thread"]), (1, second["thread"])]
        ahead = [drawn_on for seed, _, drawn_on in draws if seed == tiny_trace.seed]
        assert len(ahead) == 2 and threading.get_ident() not in ahead

    @pytest.mark.parametrize("ending", ["raises", "cancelled", "returns"])
    def test_no_drawer_outlives_its_sweep(self, tiny_trace, draws, monkeypatch, ending):
        recording = sweep_module.sample_pallet_values
        before = threading.active_count()
        if ending == "raises":
            raised_on = []

            def failing(trace, layer_index, sampling):
                if layer_index == 1:
                    raised_on.append(threading.get_ident())
                    raise RuntimeError("sampler failed on layer 1")
                return recording(trace, layer_index, sampling)

            monkeypatch.setattr(sweep_module, "sample_pallet_values", failing)
            with pytest.raises(RuntimeError, match="layer 1"):
                sweep_network(tiny_trace, self.CONFIGS, sampling=self.SAMPLING)
            # Raised on a drawer, re-raised on the caller.
            assert raised_on and raised_on[0] != threading.get_ident()
            monkeypatch.setattr(sweep_module, "sample_pallet_values", recording)
        elif ending == "cancelled":
            token = ProgressToken()
            token.on_progress = lambda event: token.cancel()
            with pytest.raises(SweepCancelled):
                sweep_network(
                    tiny_trace, self.CONFIGS, sampling=self.SAMPLING, progress=token
                )
        else:
            sweep_network(tiny_trace, self.CONFIGS, sampling=self.SAMPLING)
        assert threading.active_count() == before
        # Nothing is left behind: the next lone sweep draws ahead again.
        self.assert_lone_sweep_draws_ahead(tiny_trace, draws)
