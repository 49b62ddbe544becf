"""Per-layer neuron precision profiles (Table II) and the profiling path.

Stripes and the software-guided Pragmatic variant (PRA-red) rely on per-layer
neuron precisions obtained with the profiling method of Judd et al.: for each
layer, the smallest window of bit positions ``[lsb, msb]`` that preserves network
accuracy.  The paper publishes the resulting profiles in Table II; those values
are shipped here as data (:data:`TABLE2_PRECISIONS`).

For user-supplied networks (or synthetic traces) the same quantity can be derived
from observed activation values with :func:`profile_from_values`, which picks the
smallest window covering a configurable fraction of the layer's magnitude mass —
the distribution-based stand-in for the paper's accuracy-driven profiling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.networks import Network, get_network

__all__ = [
    "LayerPrecision",
    "TABLE2_PRECISIONS",
    "table2_precisions",
    "precision_profile",
    "profile_from_values",
    "DEFAULT_SUFFIX_BITS",
]

#: Fractional ("suffix") bits the trace generator places below the profiled
#: precision window.  Software guidance (Section V-F) trims these away.
DEFAULT_SUFFIX_BITS = 2


@dataclass(frozen=True)
class LayerPrecision:
    """The bit window ``[lsb, msb]`` a layer's neurons actually need.

    ``width`` is the per-layer precision ``p`` the paper reports; Stripes spends
    ``p`` cycles per neuron, and PRA-red masks every stored bit outside the
    window before generating oneffsets.
    """

    msb: int
    lsb: int = 0

    def __post_init__(self) -> None:
        if self.lsb < 0:
            raise ValueError(f"lsb must be non-negative, got {self.lsb}")
        if self.msb < self.lsb:
            raise ValueError(f"msb ({self.msb}) must be >= lsb ({self.lsb})")

    @property
    def width(self) -> int:
        """Precision in bits (``p`` in the paper)."""
        return self.msb - self.lsb + 1

    @property
    def mask(self) -> int:
        """Bit mask keeping only positions inside the window."""
        return ((1 << (self.msb + 1)) - 1) & ~((1 << self.lsb) - 1)

    def trim(self, values: np.ndarray) -> np.ndarray:
        """Zero out bits outside the window (the AND-gate trimming of Section V-F).

        Signs are preserved; the mask is applied to magnitudes.  Returns a new
        array, built in place beside ``values``.
        """
        arr = np.asarray(values, dtype=np.int64)
        # An explicit output keeps a 0-d input an array through the in-place steps.
        trimmed = np.abs(arr, out=np.empty_like(arr))
        trimmed &= np.int64(self.mask)
        np.negative(trimmed, out=trimmed, where=arr < 0)
        return trimmed


#: Table II of the paper: per-layer neuron precisions in bits.
TABLE2_PRECISIONS: dict[str, tuple[int, ...]] = {
    "alexnet": (9, 8, 5, 5, 7),
    "nin": (8, 8, 8, 9, 7, 8, 8, 9, 9, 8, 8, 8),
    "googlenet": (10, 8, 10, 9, 8, 10, 9, 8, 9, 10, 7),
    "vgg_m": (7, 7, 7, 8, 7),
    "vgg_s": (7, 8, 9, 7, 9),
    "vgg19": (12, 12, 12, 11, 12, 10, 11, 11, 13, 12, 13, 13, 13, 13, 13, 13),
}


def table2_precisions(network: str | Network) -> tuple[int, ...]:
    """Return the published per-layer precisions for ``network``.

    Raises ``KeyError`` for networks the paper did not profile.
    """
    net = network if isinstance(network, Network) else get_network(network)
    if net.name not in TABLE2_PRECISIONS:
        raise KeyError(
            f"no published precision profile for {net.name!r}; "
            "use profile_from_values() on a trace instead"
        )
    precisions = TABLE2_PRECISIONS[net.name]
    if len(precisions) != net.num_layers:
        raise RuntimeError(
            f"precision profile length {len(precisions)} does not match "
            f"{net.name!r} layer count {net.num_layers}"
        )
    return precisions


def precision_profile(
    network: str | Network,
    suffix_bits: int = DEFAULT_SUFFIX_BITS,
    precisions: tuple[int, ...] | None = None,
) -> tuple[LayerPrecision, ...]:
    """Build per-layer :class:`LayerPrecision` windows for ``network``.

    Parameters
    ----------
    network:
        Network name or object.
    suffix_bits:
        Fractional bits stored below the precision window.  The storage
        representation keeps them; software guidance trims them.
    precisions:
        Per-layer widths.  Defaults to the published Table II profile.
    """
    net = network if isinstance(network, Network) else get_network(network)
    if suffix_bits < 0:
        raise ValueError("suffix_bits must be non-negative")
    widths = precisions if precisions is not None else table2_precisions(net)
    if len(widths) != net.num_layers:
        raise ValueError(
            f"got {len(widths)} precisions for {net.num_layers} layers of {net.name!r}"
        )
    return tuple(
        LayerPrecision(msb=suffix_bits + width - 1, lsb=suffix_bits) for width in widths
    )


def profile_from_values(
    values: np.ndarray,
    storage_bits: int = 16,
    coverage: float = 0.999,
    suffix_coverage: float = 0.01,
) -> LayerPrecision:
    """Derive a precision window from observed activation magnitudes.

    This is the trace-driven stand-in for the accuracy-driven profiling of Judd
    et al.: the most significant kept bit covers the ``coverage`` quantile of the
    non-zero magnitudes, and low-order bits whose removal perturbs values by less
    than a ``suffix_coverage`` relative error are dropped.

    Parameters
    ----------
    values:
        Integer activation values in the storage representation (LSB units).
    storage_bits:
        Width of the storage representation.
    coverage:
        Fraction of non-zero magnitude mass the window's MSB must cover.
    suffix_coverage:
        Maximum tolerated relative magnitude error introduced by dropping
        low-order bits.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")
    if not 0.0 <= suffix_coverage < 1.0:
        raise ValueError("suffix_coverage must be in [0, 1)")
    magnitudes = np.abs(np.asarray(values, dtype=np.int64)).ravel()
    nonzero = magnitudes[magnitudes > 0]
    if nonzero.size == 0:
        return LayerPrecision(msb=0, lsb=0)
    top = float(np.quantile(nonzero, coverage))
    msb = max(0, int(np.floor(np.log2(max(top, 1.0)))))
    msb = min(msb, storage_bits - 1)

    typical = float(np.median(nonzero))
    # Dropping bits below position k introduces an error of at most 2**k - 1;
    # keep the largest k whose worst-case error stays under the tolerance.
    lsb = 0
    for candidate in range(msb, 0, -1):
        if (2**candidate - 1) <= suffix_coverage * typical:
            lsb = candidate
            break
    return LayerPrecision(msb=msb, lsb=lsb)
