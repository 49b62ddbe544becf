"""Named Pragmatic design points used throughout the paper's evaluation.

The evaluation sweeps two axes: the first-stage shifter width ``L`` (Figure 9,
Table III) and the per-column synchronization SSR count (Figure 10, Table IV).
This module gives those design points stable names and groups them the way the
figures do, so experiments, benchmarks and examples all agree on labels.
"""

from __future__ import annotations

from repro.core.accelerator import PragmaticConfig
from repro.numerics.encodings import encoding_names

__all__ = [
    "pallet_variant",
    "column_variant",
    "encoding_variant",
    "FIG9_FIRST_STAGE_BITS",
    "FIG10_SSR_COUNTS",
    "fig9_variants",
    "fig10_variants",
    "fig12_variants",
    "encoding_variants",
]

#: First-stage shifter widths swept in Figure 9 / Table III.
FIG9_FIRST_STAGE_BITS: tuple[int, ...] = (0, 1, 2, 3, 4)

#: SSR counts swept in Figure 10 / Table IV (None = ideal).
FIG10_SSR_COUNTS: tuple[int | None, ...] = (1, 4, 16, None)


def pallet_variant(first_stage_bits: int, software_trimming: bool = True) -> PragmaticConfig:
    """Per-pallet synchronization variant with ``L`` first-stage bits (``PRA-Lb``)."""
    return PragmaticConfig(
        first_stage_bits=first_stage_bits,
        synchronization="pallet",
        software_trimming=software_trimming,
        label=f"PRA-{first_stage_bits}b",
    )


def column_variant(
    ssr_count: int | None,
    first_stage_bits: int = 2,
    software_trimming: bool = True,
) -> PragmaticConfig:
    """Per-column synchronization variant (``PRA-2b-xR`` in the paper)."""
    suffix = "idealR" if ssr_count is None else f"{ssr_count}R"
    return PragmaticConfig(
        first_stage_bits=first_stage_bits,
        synchronization="column",
        ssr_count=ssr_count,
        software_trimming=software_trimming,
        label=f"PRA-{first_stage_bits}b-{suffix}",
    )


def encoding_variant(
    encoding: str,
    first_stage_bits: int = 2,
    software_trimming: bool = True,
) -> PragmaticConfig:
    """The baseline PRA design point streaming a registered encoding.

    PRA-2b with per-pallet synchronization — the paper's headline
    configuration — so encoding comparisons isolate the representation, not
    the synchronization scheme.
    """
    return PragmaticConfig(
        first_stage_bits=first_stage_bits,
        synchronization="pallet",
        software_trimming=software_trimming,
        encoding=encoding,
        label=f"PRA-{first_stage_bits}b-{encoding}",
    )


def fig9_variants() -> dict[str, PragmaticConfig]:
    """The Pragmatic bars of Figure 9: 0-bit … 4-bit first-stage shifters."""
    return {f"{bits}-bit": pallet_variant(bits) for bits in FIG9_FIRST_STAGE_BITS}


def fig10_variants() -> dict[str, PragmaticConfig]:
    """The Pragmatic bars of Figure 10: PRA-2b with 1/4/16/ideal SSRs."""
    labels = {1: "1-reg", 4: "4-regs", 16: "16-regs", None: "perCol-ideal"}
    return {labels[count]: column_variant(count) for count in FIG10_SSR_COUNTS}


def fig12_variants() -> dict[str, PragmaticConfig]:
    """The Pragmatic bars of Figure 12 (8-bit quantized representation).

    Software trimming does not apply to the per-layer min/max quantized codes,
    so the quantized variants run software-transparent.
    """
    return {
        "perPall": pallet_variant(4, software_trimming=False),
        "perPall-2bit": pallet_variant(2, software_trimming=False),
        "perCol-1reg-2bit": column_variant(1, software_trimming=False),
        "perCol-ideal-2bit": column_variant(None, software_trimming=False),
    }


def encoding_variants(first_stage_bits: int = 2) -> dict[str, PragmaticConfig]:
    """One PRA design point per registered encoding, keyed by encoding name.

    The groups of the ``encodings`` comparison experiment; ``positional`` is
    numerically identical to the plain ``PRA-2b`` point of Figure 9.
    """
    return {
        name: encoding_variant(name, first_stage_bits=first_stage_bits)
        for name in encoding_names()
    }
