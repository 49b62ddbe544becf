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
  HESE reach position 16 — pack into ``uint32`` masks.  Both widths take one
  code path: every step below is plain integer bit arithmetic.
* **Two bit identities.**  A lane's next term is its lowest set bit,
  ``m & -m``, and the column's lowest outstanding term is the lowest set bit
  of the OR of its lanes.  The first stage covers the ``reach`` positions
  starting at that term, so with ``limit = (lowest(column OR) << reach) - 1`` (computed
  in ``uint64``, reaches above the mask width clamped to it) one Figure 7
  cycle is ``m ^= (m & -m) & limit``: a lane drains its next term exactly
  when that term lies inside the window.
* **Lanes-major layout.**  The kernel transposes the batch once into
  ``[lanes, columns]``, so every per-column reduction (column OR, busiest
  lane) runs over a few contiguous lane rows instead of a short last axis.
* **Closed-form fast path.**  A column whose set bits all fit inside one
  window (``column OR <= limit``) never stalls: it finishes in exactly its
  busiest lane's popcount.  An empty column's limit is all ones, so it is
  closed at zero cycles.  This resolves the large majority of trimmed
  columns without any iteration.
* **Batched frontier loop.**  The remaining slow columns of *every* drain
  group advance together on one lanes-major copy of those columns only, one
  whole-array update per cycle, so the number of Python-level iterations is
  bounded by the maximum drain depth across the whole batch.  Each cycle's
  column OR doubles as the liveness test.  A drained column is all zeros and
  the update leaves it unchanged, so the working set is compacted only once
  fewer than half its columns are alive.

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


def packed_essential_terms(masks: np.ndarray) -> float:
    """Total terms (set bits) of a packed mask tensor."""
    return float(np.bitwise_count(_as_masks(masks)).sum(dtype=np.int64))


def _as_masks(masks: np.ndarray) -> np.ndarray:
    """Coerce a tensor into packed mask form, preserving wide masks.

    ``uint16`` and ``uint32`` tensors pass through.  Any other dtype must hold
    16-bit masks: a negative value or one wider than 16 bits raises
    ``ValueError`` instead of wrapping.
    """
    masks = np.asarray(masks)
    if masks.dtype in (np.uint16, np.uint32):
        return masks
    outside = (masks < 0) | (masks > 0xFFFF)
    if outside.any():
        raise ValueError(
            f"mask value {masks[outside][0]} is not a 16-bit lane mask "
            "(pack wider terms as uint32)"
        )
    return masks.astype(np.uint16)


def _limits(column: np.ndarray, shift) -> np.ndarray:
    """Each column's window ``(lowest(column) << shift) - 1``.

    Its set bits are the positions less than ``shift`` above the column's
    lowest set bit, and every position below it; an empty column's limit is
    all ones.  ``uint64`` holds the shift of a 32-bit mask by up to 32.
    """
    lowest = (column & -column).astype(np.uint64)
    return (lowest << shift) - np.uint64(1)


# --------------------------------------------------------------- frontier loop
def _frontier(work: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Drain the slow columns with one whole-array update per cycle.

    ``work`` is ``uint16``/``uint32 [lanes, columns]`` (consumed by value —
    the caller passes a private copy); ``shift`` is the ``uint64 [columns]``
    clamped reach.  Returns the per-column cycle counts.
    """
    out = np.zeros(work.shape[1], dtype=np.int64)
    cycles = np.zeros(work.shape[1], dtype=np.int64)
    index = np.arange(work.shape[1])
    while True:
        column = np.bitwise_or.reduce(work, axis=0)
        alive = column != 0
        live = np.count_nonzero(alive)
        if 2 * live < alive.size:
            # Retire the drained columns; every survivor is busy this cycle.
            out[index[~alive]] = cycles[~alive]
            if not live:
                return out
            keep = np.flatnonzero(alive)
            work, column, shift, cycles, index = (
                array.take(keep, axis=-1) for array in (work, column, shift, cycles, index)
            )
            cycles += 1
        else:
            cycles += alive
        step = np.negative(work)
        step &= work
        step &= _limits(column, shift).astype(work.dtype)
        work ^= step


# --------------------------------------------------------------------- kernel
def batched_drain_cycles(masks: np.ndarray, reaches) -> np.ndarray:
    """Drain cycles of every column under every first-stage reach, in one call.

    Parameters
    ----------
    masks:
        Packed term masks shaped ``(..., lanes)`` — the lanes of one PIP
        column along the last axis, any leading batch shape (the sweep packs
        ``[pallets, steps, windows, neurons]``).  ``uint16`` for positional
        packing, ``uint32`` for signed-term planes using positions above 15.
        Other dtypes must hold 16-bit masks and are coerced to ``uint16``;
        a negative or wider value raises ``ValueError``.  The input is never
        modified.
    reaches:
        Sequence of first-stage reaches (``2 ** first_stage_bits``, each at
        least 1) to evaluate.  The per-column statistics (popcounts, column
        OR) are computed once and shared by every reach.

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
    lane_rows = np.ascontiguousarray(masks.reshape(-1, lanes).T)
    columns = lane_rows.shape[1]
    width = 8 * masks.dtype.itemsize
    out = np.zeros((len(reaches), columns), dtype=np.int64)
    if columns:
        busiest = np.bitwise_count(lane_rows).max(axis=0)
        column = np.bitwise_or.reduce(lane_rows, axis=0)
        slow_sets: list[tuple[int, np.ndarray, int]] = []
        for slot, reach in enumerate(reaches):
            shift = min(reach, width)
            closed = column <= _limits(column, np.uint64(shift))
            out[slot] = np.where(closed, busiest, 0)
            slow = np.flatnonzero(~closed)
            if slow.size:
                slow_sets.append((slot, slow, shift))
        if slow_sets:
            slow_columns = np.concatenate([slow for _, slow, _ in slow_sets])
            shifts = np.concatenate(
                [np.full(slow.size, shift, dtype=np.uint64) for _, slow, shift in slow_sets]
            )
            cycles = _frontier(lane_rows.take(slow_columns, axis=1), shifts)
            offset = 0
            for slot, slow, _ in slow_sets:
                out[slot, slow] = cycles[offset : offset + slow.size]
                offset += slow.size
    return out.reshape((len(reaches), *lead))
