"""Essential-bit count of fixed-point neuron values.

The paper's baseline hardware stores neurons (activations) and synapses
(weights) as 16-bit fixed-point integers, in units of the least significant
bit.  Pragmatic's work is proportional to the essential (set) bits of each
stored magnitude, which :func:`popcount` counts.

Neurons that have passed through a ReLU are non-negative; synapses are signed.
Pragmatic processes the *magnitude* bit-serially and handles the sign separately
(the ``neg`` input of the PIP in Figure 6 of the paper), so the count operates
on absolute values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["popcount"]


def popcount(values: np.ndarray, bits: int = 16) -> np.ndarray:
    """Count the set bits (essential bits) in each magnitude.

    This is the quantity the paper calls the *essential bit content* of a neuron.
    Raises :class:`ValueError` when a magnitude does not fit in ``bits``.
    """
    magnitudes = np.abs(np.asarray(values, dtype=np.int64))
    limit = (1 << bits) - 1
    if magnitudes.size and int(magnitudes.max()) > limit:
        raise ValueError(
            f"magnitude {int(magnitudes.max())} does not fit in {bits} bits (max {limit})"
        )
    return np.bitwise_count(magnitudes).astype(np.int64)
