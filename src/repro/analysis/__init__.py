"""Analysis passes: essential-bit statistics, term-count potential, speedup aggregation."""

from repro.analysis.essential_bits import measure_trace
from repro.analysis.potential import (
    FIG2_ENGINES,
    FIG3_ENGINES,
    TermCounts,
    count_terms_fixed16,
    count_terms_quant8,
)
from repro.analysis.speedup import dadn_result, geometric_mean, stripes_result
from repro.analysis.tables import format_percent, format_ratio, format_table

__all__ = [
    "measure_trace",
    "TermCounts",
    "FIG2_ENGINES",
    "FIG3_ENGINES",
    "count_terms_fixed16",
    "count_terms_quant8",
    "geometric_mean",
    "dadn_result",
    "stripes_result",
    "format_table",
    "format_percent",
    "format_ratio",
]
