"""Batched drain kernel: the cycle model's one drain implementation.

The drain computation — how many cycles a PIP column needs to stream its
neurons' oneffsets through the two-stage shifter — is the hot path of every
sweep.  :func:`batched_drain_cycles` is its only implementation; the scalar
Figure 7 control, :func:`repro.core.pip.serial_term_schedule`, is the
independent oracle the tests check it against.  The kernel works on a packed
formulation that the whole batch shares:

* **Packed masks.**  Every neuron's terms are one bit mask per lane
  (:func:`repro.core.scheduling.encoded_drain_masks`), so one kernel call can
  hold *all* sampled pallets and *all* drain groups of a layer at once.
  Positional masks are ``uint16``; signed-term encodings
  (:mod:`repro.numerics.encodings`) that use positions above 15 — CSD and
  HESE reach position 16 — pack into ``uint32`` masks and take the same path.
  The trailing-zero and highest-bit lookup tables stay 16-bit and wide masks
  are split into halves; popcounts are ``np.bitwise_count``.
* **Closed-form fast path.**  A column whose set bits all fit inside one
  first-stage window (``highest - lowest < reach``) never stalls: it finishes
  in exactly its busiest lane's popcount.  This generalizes the full-reach
  shortcut (``reach >= positions``) and resolves the large majority of
  trimmed columns without any iteration.
* **Batched frontier loop.**  The remaining slow columns of *every* drain
  group advance together, one whole-array update per cycle, so the number of
  Python-level iterations is bounded by the maximum drain depth across the
  whole batch.

:func:`batched_drain_cycles` evaluates many ``first_stage_bits`` reaches over
one packed tensor in a single call (the per-column statistics are computed
once and shared); :func:`repro.core.sweep.sweep_network` dispatches all of a
layer's ``(first_stage_bits, software_trimming, encoding)`` drain groups
through one call per ``(trimming, encoding)`` pair.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "KERNEL_MAX_POSITIONS",
    "batched_drain_cycles",
    "packed_essential_terms",
]

#: Widest bit position the packed representation holds (``uint32`` masks for
#: signed-term planes; plain positional packing stays ``uint16``).
KERNEL_MAX_POSITIONS = 32

#: Width of the lookup tables (wider masks are split into 16-bit halves).
_TABLE_POSITIONS = 16

#: Sentinel head value of an empty ``uint16`` lane (no outstanding oneffsets).
_EMPTY_HEAD = _TABLE_POSITIONS

# Lazily-built lookup tables over all 2**16 masks: trailing-zero position
# (lowest set bit; 16 for mask 0) and highest set bit (-1 for 0).  In the
# frontier loop the trailing-zero table is faster than a trailing zero
# computed with np.bitwise_count.
_TZ16: np.ndarray | None = None
_HB16: np.ndarray | None = None


def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The (trailing-zero, highest-bit) tables, built once."""
    global _TZ16, _HB16
    if _TZ16 is None:
        n = np.arange(1 << _TABLE_POSITIONS, dtype=np.uint32)
        tz = np.full(n.size, _EMPTY_HEAD, dtype=np.uint8)
        hb = np.full(n.size, -1, dtype=np.int8)
        for position in range(_TABLE_POSITIONS - 1, -1, -1):
            tz[((n >> position) & 1).astype(bool)] = position
        for position in range(_TABLE_POSITIONS):
            hb[((n >> position) & 1).astype(bool)] = position
        _TZ16, _HB16 = tz, hb
    return _TZ16, _HB16


# Half-splitting helpers: wide (uint32) masks reuse the 16-bit tables.  Each
# returns int16/int64 arrays so downstream arithmetic never wraps.
def _mask_width(masks: np.ndarray) -> int:
    return _TABLE_POSITIONS if masks.dtype == np.uint16 else KERNEL_MAX_POSITIONS


def _trailing_zeros(masks: np.ndarray) -> np.ndarray:
    """Lowest set bit per mask (the mask's width for an empty mask)."""
    tz, _ = _tables()
    if masks.dtype == np.uint16:
        return tz[masks].astype(np.int16)
    lo = (masks & np.uint32(0xFFFF)).astype(np.uint16)
    hi = (masks >> np.uint32(16)).astype(np.uint16)
    low = tz[lo].astype(np.int16)
    high = np.int16(16) + tz[hi].astype(np.int16)
    return np.where(lo != 0, low, high)


def _highest_bits(masks: np.ndarray) -> np.ndarray:
    """Highest set bit per mask (-1 for an empty mask)."""
    _, hb = _tables()
    if masks.dtype == np.uint16:
        return hb[masks].astype(np.int64)
    lo = (masks & np.uint32(0xFFFF)).astype(np.uint16)
    hi = (masks >> np.uint32(16)).astype(np.uint16)
    return np.where(hi != 0, 16 + hb[hi].astype(np.int64), hb[lo].astype(np.int64))


def packed_essential_terms(masks: np.ndarray) -> float:
    """Total terms (set bits) of a packed mask tensor."""
    return float(np.bitwise_count(_as_masks(masks)).sum(dtype=np.int64))


def _as_masks(masks: np.ndarray) -> np.ndarray:
    """Coerce a tensor into packed mask form, preserving wide masks."""
    masks = np.asarray(masks)
    if masks.dtype in (np.uint16, np.uint32):
        return masks
    return masks.astype(np.uint16)


# --------------------------------------------------------------- frontier loop
def _frontier(masks: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Drain the slow columns with one whole-array update per cycle.

    ``masks`` is ``uint16``/``uint32 [columns, lanes]`` (consumed by value —
    the caller passes a private copy); ``reach`` is ``int16 [columns]``.
    Returns the per-column cycle counts.  Columns retire from the working set
    as they drain, so late iterations touch only the deepest columns.
    """
    empty_head = _mask_width(masks)
    one = masks.dtype.type(1)
    out = np.zeros(masks.shape[0], dtype=np.int64)
    cycles = np.zeros(masks.shape[0], dtype=np.int64)
    index = np.arange(masks.shape[0])
    reach = reach.astype(np.int16, copy=False)
    while masks.size:
        heads = _trailing_zeros(masks)
        column_minimum = heads.min(axis=1)
        eligible = (heads < empty_head) & (
            heads < (column_minimum + reach)[:, None]
        )
        masks = np.where(eligible, masks & (masks - one), masks)
        cycles += 1
        alive = masks.any(axis=1)
        if not alive.all():
            finished = ~alive
            out[index[finished]] = cycles[finished]
            masks = masks[alive]
            reach = reach[alive]
            cycles = cycles[alive]
            index = index[alive]
    return out


# --------------------------------------------------------------------- kernel
def batched_drain_cycles(masks: np.ndarray, reaches) -> np.ndarray:
    """Drain cycles of every column under every first-stage reach, in one call.

    Parameters
    ----------
    masks:
        Packed term masks shaped ``(..., lanes)`` — the lanes of one PIP
        column along the last axis, any leading batch shape (the sweep packs
        ``[pallets, steps, windows, neurons]``).  ``uint16`` for positional
        packing, ``uint32`` for signed-term planes using positions above 15
        (other dtypes are coerced to ``uint16``).
    reaches:
        Sequence of first-stage reaches (``2 ** first_stage_bits``, each at
        least 1) to evaluate.  The per-column statistics (popcounts, bit
        span) are computed once and shared by every reach.

    Returns
    -------
    numpy.ndarray
        ``int64`` cycle counts shaped ``(len(reaches), *masks.shape[:-1])``.
        Columns with no set bits report zero cycles, exactly like the
        oracle's empty schedule.
    """
    masks = _as_masks(masks)
    if masks.ndim < 1:
        raise ValueError("masks must have at least a lanes dimension")
    reaches = [int(reach) for reach in reaches]
    if not reaches:
        raise ValueError("reaches must not be empty")
    if any(reach < 1 for reach in reaches):
        raise ValueError("every reach must be at least 1")

    *lead, lanes = masks.shape
    flat = np.ascontiguousarray(masks.reshape(-1, lanes))
    columns = flat.shape[0]
    out = np.zeros((len(reaches), columns), dtype=np.int64)
    if columns:
        busiest = np.bitwise_count(flat).max(axis=1)
        column_mask = np.bitwise_or.reduce(flat, axis=1)
        # Bit span of the column; empty columns go deeply negative and are
        # therefore always closed-form (zero busiest lanes -> zero cycles).
        span = _highest_bits(column_mask) - _trailing_zeros(column_mask)
        slow_sets: list[tuple[int, np.ndarray]] = []
        for slot, reach in enumerate(reaches):
            closed = span < reach
            out[slot] = np.where(closed, busiest, 0)
            slow = np.nonzero(~closed)[0]
            if slow.size:
                slow_sets.append((slot, slow))
        if slow_sets:
            rows = np.concatenate([slow for _, slow in slow_sets])
            row_reach = np.concatenate(
                [
                    np.full(slow.size, reaches[slot], dtype=np.int16)
                    for slot, slow in slow_sets
                ]
            )
            cycles = _frontier(flat[rows], row_reach)
            offset = 0
            for slot, slow in slow_sets:
                out[slot, slow] = cycles[offset : offset + slow.size]
                offset += slow.size
    return out.reshape((len(reaches), *lead))
