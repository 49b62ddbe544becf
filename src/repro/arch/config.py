"""Chip-level configuration shared by all accelerator models.

Every design evaluated in the paper — DaDianNao, Stripes and Pragmatic — keeps
the same overall organization (Section IV-B): 16 tiles, each pairing 16 filter
lanes with 16 synapse lanes per filter, a 2 MB synapse buffer (SB) per tile, a
4 MB central neuron memory (NM) and per-tile NBin/NBout SRAM buffers.  Stripes
and Pragmatic additionally process 16 windows in parallel so that their
worst-case throughput matches DaDianNao.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ChipConfig", "DEFAULT_CHIP"]


@dataclass(frozen=True)
class ChipConfig:
    """Structural parameters of the accelerator chip.

    The defaults reproduce the DaDianNao configuration the paper builds on.
    """

    tiles: int = 16
    filters_per_tile: int = 16
    synapses_per_filter_lane: int = 16
    pallet_windows: int = 16
    storage_bits: int = 16
    frequency_ghz: float = 0.606
    nm_row_bytes: int = 512
    sb_bytes_per_tile: int = 2 * 1024 * 1024
    nm_bytes: int = 4 * 1024 * 1024
    nbin_bytes: int = 2 * 1024
    nbout_bytes: int = 2 * 1024

    def __post_init__(self) -> None:
        for field_name in (
            "tiles",
            "filters_per_tile",
            "synapses_per_filter_lane",
            "pallet_windows",
            "storage_bits",
        ):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be positive")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")

    @property
    def filters_per_cycle(self) -> int:
        """Filters processed concurrently chip-wide (256 for DaDN)."""
        return self.tiles * self.filters_per_tile

    @property
    def neuron_bytes(self) -> int:
        """Bytes per stored neuron."""
        return max(1, self.storage_bits // 8)


#: The configuration every experiment uses unless stated otherwise.
DEFAULT_CHIP = ChipConfig()
