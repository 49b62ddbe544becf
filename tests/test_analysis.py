"""Unit tests for the analysis passes (Table I statistics, Fig 2/3 potential, speedups)."""

import numpy as np
import pytest

from repro.analysis.essential_bits import measure_trace
from repro.analysis.potential import count_terms_fixed16, count_terms_quant8
from repro.analysis.speedup import dadn_result, geometric_mean, stripes_result
from repro.analysis.tables import format_percent, format_ratio, format_table
from repro.nn.calibration import TABLE1_TARGETS, calibrated_trace


class TestTables:
    def test_format_percent_and_ratio(self):
        assert format_percent(0.078) == "7.8%"
        assert format_ratio(2.591) == "2.59x"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert lines[2].startswith("a ")

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])

    def test_format_table_rejects_empty_headers(self):
        with pytest.raises(ValueError):
            format_table([], [])


class TestEssentialBits:
    def test_measure_trace_bounds(self, tiny_trace):
        all_fraction, nz_fraction = measure_trace(tiny_trace, samples_per_layer=2000)
        assert 0.0 < all_fraction < nz_fraction < 1.0

    def test_measure_trace_rejects_bad_sample_size(self, tiny_trace):
        with pytest.raises(ValueError):
            measure_trace(tiny_trace, samples_per_layer=0)

    def test_calibrated_alexnet_tracks_paper_nz(self):
        trace = calibrated_trace("alexnet", representation="fixed16")
        _, nz_fraction = measure_trace(trace, samples_per_layer=4000)
        paper = TABLE1_TARGETS["fixed16"]["nz"]["alexnet"]
        assert nz_fraction == pytest.approx(paper, rel=0.3)

    def test_quant8_content_higher_than_fixed16(self):
        fixed, _ = measure_trace(calibrated_trace("vgg_m", representation="fixed16"), 4000)
        quant, _ = measure_trace(calibrated_trace("vgg_m", representation="quant8"), 4000)
        assert quant > fixed


class TestPotential:
    def test_fig2_ordering_of_engines(self):
        trace = calibrated_trace("alexnet")
        counts = count_terms_fixed16(trace, samples_per_layer=4000)
        # Pragmatic with software guidance needs the fewest terms; every engine
        # needs fewer terms than the bit-parallel baseline (ratio 1.0).
        relative = counts.relative_terms
        assert relative["PRA-red"] <= relative["PRA-fp16"]
        assert relative["PRA-fp16"] < relative["Stripes"] <= 1.0
        assert relative["ZN"] <= relative["CVN"] <= 1.0

    def test_fig2_requires_fixed16_trace(self):
        trace = calibrated_trace("alexnet", representation="quant8")
        with pytest.raises(ValueError):
            count_terms_fixed16(trace)

    def test_fig3_pra_beats_zero_skipping(self):
        trace = calibrated_trace("alexnet", representation="quant8")
        counts = count_terms_quant8(trace, samples_per_layer=4000)
        assert counts.relative_terms["PRA"] < counts.relative_terms["ZN"] <= 1.0

    def test_fig3_requires_quant8_trace(self):
        with pytest.raises(ValueError):
            count_terms_quant8(calibrated_trace("alexnet"))


class TestSpeedupHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_dadn_result_has_unit_speedup(self, tiny_trace):
        result = dadn_result(tiny_trace)
        assert result.speedup == pytest.approx(1.0)
        assert result.accelerator == "DaDN"

    def test_stripes_result_speedup_matches_precision(self, tiny_trace):
        result = stripes_result(tiny_trace)
        assert result.speedup > 1.0
        assert result.accelerator == "Stripes"

    def test_stripes_result_with_width_override(self, tiny_trace):
        wide = stripes_result(tiny_trace, precision_widths=(16, 16))
        narrow = stripes_result(tiny_trace, precision_widths=(4, 4))
        assert narrow.speedup > wide.speedup
