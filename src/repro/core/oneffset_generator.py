"""On-the-fly oneffset generation (Section V-C).

Neurons are stored in NM in their positional representation and converted into
an explicit term representation as they are broadcast to the tiles.  The
conversion is a leading-one detector per neuron lane: every cycle it emits the
next outstanding power of two together with an end-of-neuron marker.

The converter is parameterized by a registered encoding
(:mod:`repro.numerics.encodings`): ``positional`` reproduces the paper's
oneffset generator exactly, while signed encodings (CSD, HESE) emit per-term
signs that ride the PIP's existing negation input — only the generator
changes, never the datapath.  This module provides both the batch converter
used by the functional models and a cycle-stepped generator that mirrors the
hardware's per-lane behaviour (used by the dispatcher model and its tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.numerics.encodings import DEFAULT_ENCODING, get_encoding

__all__ = ["OneffsetStream", "OneffsetGenerator", "NeuronLaneState"]


@dataclass(frozen=True)
class OneffsetStream:
    """The serial wire-level encoding of one neuron's oneffsets.

    Each entry is a ``(pow, eon)`` pair: ``pow`` is the bit position (4 bits wide
    for a 16-bit representation) and ``eon`` is the end-of-neuron marker that is
    set on the last entry.  A zero-valued neuron is transmitted as a single
    ``(0, eon=1)`` null entry whose term is suppressed by the PIP's AND gate.
    """

    entries: tuple[tuple[int, bool], ...]

    @classmethod
    def from_value(cls, value: int, bits: int = 16) -> "OneffsetStream":
        """Encode ``value`` the way the positional oneffset generator serializes it."""
        return cls.from_terms(get_encoding(DEFAULT_ENCODING).terms(int(value), bits=bits))

    @classmethod
    def from_terms(cls, terms: tuple[tuple[int, int], ...]) -> "OneffsetStream":
        """Serialize ascending ``(sign, position)`` terms; signs travel separately."""
        if not terms:
            return cls(entries=((0, True),))
        last = len(terms) - 1
        return cls(
            entries=tuple(
                (position, index == last) for index, (_, position) in enumerate(terms)
            )
        )

    @property
    def value(self) -> int:
        """Magnitude reconstructed from the stream as a positional sum.

        The null encoding of 0 is the same wire pattern as a genuine 1; the
        PIP tells them apart by the separate zero flag that drives its
        null-term AND gate, so the stream alone reconstructs 1.
        """
        return get_encoding(DEFAULT_ENCODING).decode(
            tuple((1, position) for position, _ in self.entries)
        )

    @property
    def cycles(self) -> int:
        """Cycles needed to stream the neuron (one oneffset per cycle, minimum 1)."""
        return max(1, len(self.entries))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class NeuronLaneState:
    """Per-lane state of the oneffset generator.

    ``pending`` holds the not-yet-emitted term positions of the current neuron
    in ascending order; ``sign`` is the neuron's sign, applied by the PIP's
    negation input.  For signed encodings ``term_signs`` carries the per-term
    signs (aligned with ``pending``); the wire-level sign of a term is the
    product of the neuron sign and its term sign.
    """

    pending: list[int]
    sign: int
    done: bool = False
    term_signs: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.term_signs:
            self.term_signs = [1] * len(self.pending)
        if len(self.term_signs) != len(self.pending):
            raise ValueError("term_signs must align with pending positions")

    def next_offset(self) -> tuple[int, bool, bool]:
        """Emit ``(offset, end_of_neuron, is_null)`` and advance the lane.

        A lane whose neuron is exhausted keeps emitting null terms (the PIP's
        AND gate suppresses their contribution) until the whole group advances.
        """
        offset, _, end, null = self.next_term()
        return offset, end, null

    def next_term(self) -> tuple[int, int, bool, bool]:
        """Emit ``(offset, term_sign, end_of_neuron, is_null)`` and advance."""
        if not self.pending:
            self.done = True
            return 0, 1, True, True
        offset = self.pending.pop(0)
        term_sign = self.term_signs.pop(0)
        end = not self.pending
        if end:
            self.done = True
        return offset, term_sign, end, False


class OneffsetGenerator:
    """Converts positional neuron values into per-encoding term streams.

    Parameters
    ----------
    storage_bits:
        Width of the storage representation; values must fit in it.
    encoding:
        Registered encoding name (:mod:`repro.numerics.encodings`).  The
        default ``positional`` reproduces the paper's oneffset generator
        bit-for-bit.
    """

    def __init__(
        self, storage_bits: int = 16, encoding: str = DEFAULT_ENCODING
    ) -> None:
        if storage_bits < 1:
            raise ValueError("storage_bits must be positive")
        self.storage_bits = storage_bits
        self.encoding = get_encoding(encoding)

    def convert_value(self, value: int) -> OneffsetStream:
        """Serialize one neuron into its wire-level term stream.

        The stream carries ``(pow, eon)`` entries; for signed encodings the
        per-term signs travel on the separate negation wire modelled by
        :meth:`lane_states` (so :attr:`OneffsetStream.value` reconstructs the
        unsigned positional sum only for unsigned encodings).
        """
        return OneffsetStream.from_terms(
            self.encoding.terms(int(value), bits=self.storage_bits)
        )

    def convert_brick(self, values: np.ndarray) -> list[OneffsetStream]:
        """Serialize one 16-neuron brick."""
        return [self.convert_value(int(v)) for v in np.asarray(values).ravel()]

    def lane_states(self, values: np.ndarray) -> list[NeuronLaneState]:
        """Initial per-lane generator state for a brick of neuron values."""
        states = []
        for raw in np.asarray(values, dtype=np.int64).ravel():
            magnitude = int(abs(raw))
            if magnitude >= (1 << self.storage_bits):
                raise ValueError(
                    f"value {int(raw)} does not fit in {self.storage_bits} bits"
                )
            terms = self.encoding.terms(magnitude, bits=self.storage_bits)
            states.append(
                NeuronLaneState(
                    pending=[position for _, position in terms],
                    sign=-1 if raw < 0 else 1,
                    term_signs=[sign for sign, _ in terms],
                )
            )
        return states

    def oneffset_lists(self, values: np.ndarray) -> list[list[int]]:
        """Ascending term-position lists for a brick (the scheduler's input format)."""
        return [list(state.pending) for state in self.lane_states(values)]

    def max_stream_length(self, values: np.ndarray) -> int:
        """Cycles the slowest lane of a brick needs (minimum 1)."""
        lists = self.oneffset_lists(values)
        return max(1, max((len(lst) for lst in lists), default=1))
