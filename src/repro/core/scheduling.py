"""Term packing and the synchronization model of Pragmatic's cycle count.

Two steps turn a layer's sampled neuron values into cycles:

1. :func:`encoded_drain_masks` packs the values into per-lane term masks
   under a registered encoding, and the batched kernel
   (:func:`repro.core.kernels.batched_drain_cycles`) turns the masks into the
   cycles each PIP *column* needs to drain its oneffsets under 2-stage
   shifting with a first-stage reach of ``2**L`` (Figure 7).
2. A synchronization scheme turns per-column drains into per-pallet cycles
   (:func:`repro.core.sweep.cycles_from_drain`).  Under **per-pallet
   synchronization** (Section V-A4) every brick step costs the slowest column
   of the pallet.  Under **per-column synchronization** (Section V-E) columns
   advance independently, limited by the single SB port and by the number of
   synapse set registers (SSRs): :func:`ssr_pipeline_cycles`.

Drains are shaped ``[pallets, steps, windows]`` — the layout
:func:`repro.arch.tiling.sample_pallet_values` produces, minus its neuron
axis.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import KERNEL_MAX_POSITIONS
from repro.numerics.encodings import DEFAULT_ENCODING, get_encoding

__all__ = ["encoded_drain_masks", "ssr_pipeline_cycles"]


def encoded_drain_masks(
    values: np.ndarray, storage_bits: int, encoding: str = DEFAULT_ENCODING
) -> np.ndarray:
    """Packed term masks of integer neuron values under a named encoding.

    Shape-preserving: ``uint16`` masks when every term position fits in 16
    bits, ``uint32`` otherwise (CSD/HESE may use position ``storage_bits``).
    Raises :class:`ValueError` when a magnitude does not fit in
    ``storage_bits``, or when the encoding's positions would not fit the
    kernel's packed width (instead of truncating them).
    """
    scheme = get_encoding(encoding)
    if storage_bits < 1 or scheme.max_position(storage_bits) >= KERNEL_MAX_POSITIONS:
        raise ValueError(
            f"{encoding} terms of {storage_bits}-bit values do not fit "
            f"{KERNEL_MAX_POSITIONS}-bit packed masks"
        )
    return scheme.term_masks(values, bits=storage_bits)


def ssr_pipeline_cycles(
    drain: np.ndarray, ssr_count: int | None, sb_read_cycles: int = 1
) -> np.ndarray:
    """Per-pallet completion times under per-column synchronization.

    ``drain`` holds the (already clamped) per-column drain cycles shaped
    ``[pallets, steps, windows]``.  Only one synapse set can be read from the
    SB per cycle; a set stays in its SSR until every column has copied it into
    its synapse registers, and only then can the SSR be reused.  Columns
    process brick steps in order at their own pace:

    * ``load[b] = max(load[b-1] + sb_read_cycles, copied[b - R])``
    * ``start[c, b] = max(finish[c, b-1], load[b])``
    * ``finish[c, b] = start[c, b] + drain[c, b]``

    where ``copied[b]`` is the time the last column started step ``b`` (i.e.
    has copied the set out of the SSR).  ``ssr_count=None`` models the ideal,
    infinitely-buffered configuration ("perCol-ideal" in Figure 10).
    """
    if ssr_count is not None and ssr_count < 1:
        raise ValueError("ssr_count must be positive (or None for ideal buffering)")
    if sb_read_cycles < 1:
        raise ValueError("sb_read_cycles must be at least 1")
    drain = np.asarray(drain)
    if drain.ndim != 3:
        raise ValueError(
            f"drain must be shaped [pallets, steps, windows], got shape {drain.shape}"
        )
    pallets, steps, windows = drain.shape
    registers = steps if ssr_count is None else min(ssr_count, steps)

    finish = np.zeros((pallets, windows), dtype=np.float64)
    load_previous = np.zeros(pallets, dtype=np.float64)
    copied: list[np.ndarray] = []
    for step in range(steps):
        if step:
            load = load_previous + sb_read_cycles
        else:
            load = np.full(pallets, sb_read_cycles, dtype=np.float64)
        if step >= registers:
            load = np.maximum(load, copied[step - registers])
        start = np.maximum(finish, load[:, None])
        finish = start + drain[:, step, :]
        copied.append(start.max(axis=1))
        load_previous = load
    return finish.max(axis=1)
