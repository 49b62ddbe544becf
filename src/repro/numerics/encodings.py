"""Registry of oneffset encoding families.

The paper's conclusion notes that Pragmatic applies to *any* explicit
power-of-two representation of the neurons: the accelerator streams signed
terms, so the oneffset generator is the only block that changes between
representations.  This module makes that observation first-class.  An
:class:`Encoding` turns stored neuron magnitudes into signed power-of-two
terms — a scalar generator, the reference the tests check the other form
against, and a vectorized term-mask form for the packed drain kernels — and
a registry (:func:`register_encoding` / :func:`get_encoding`, mirroring
:mod:`repro.runtime.backends`) lets every stratum of the stack select one by
name.

Four encodings ship:

``positional``
    The paper's oneffset representation: one ``+`` term per set bit of the
    magnitude.  Bit-identical to the pre-registry behaviour.
``csd``
    Canonical signed digit (non-adjacent form) — minimal signed terms, never
    two adjacent positions, may use position ``bits`` (one above the storage
    width).
``hese``
    Signed-digit adjacent-term pairing in the term-revealing (HESE) style:
    each maximal run of consecutive set bits ``[s, e]`` with ``e > s``
    becomes the pair ``(-2^s, +2^(e+1))``; isolated set bits stay single
    ``+`` terms.  No carry propagates across runs, so the encoding is a
    purely local rewrite — cheaper to generate than CSD while removing the
    same long runs.
``binary``
    1-bit sign-only traces: any non-zero magnitude becomes the single term
    ``+2^0``.  Lossy by construction (``represent`` collapses magnitudes to
    ``min(1, |v|)``); it models binarized-network traffic where essential-term
    skipping degenerates to zero-skipping.

Every encoding produces terms with pairwise-distinct positions, so the
vectorized term masks carry one bit per term and the packed drain kernels of
:mod:`repro.core.kernels` schedule any registered encoding unchanged.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "Encoding",
    "DEFAULT_ENCODING",
    "register_encoding",
    "get_encoding",
    "encoding_names",
]

#: The encoding every pre-registry code path used (and every default uses).
DEFAULT_ENCODING = "positional"


class Encoding(abc.ABC):
    """One explicit power-of-two representation of neuron magnitudes.

    Subclasses implement the scalar term generator (:meth:`terms`) and the
    vectorized term masks (:meth:`term_masks`); decoding, term counting and
    the shared validation ride on those.  Term positions of one value must be
    pairwise distinct — the mask form carries one bit per term.
    """

    #: Registry name of the encoding.
    name: str = ""
    #: Whether the encoding emits negative terms (the PIP's negation input).
    signed: bool = False
    #: Whether ``decode(terms(v)) == |v|`` for every representable value.
    lossless: bool = True

    @abc.abstractmethod
    def terms(self, value: int, bits: int = 16) -> tuple[tuple[int, int], ...]:
        """Signed terms of ``|value|`` as ``(sign, position)`` pairs, ascending.

        ``sign`` is ``+1`` or ``-1``; positions are pairwise distinct and at
        most :meth:`max_position`.  Zero encodes as the empty tuple.
        """

    @abc.abstractmethod
    def term_masks(self, values: np.ndarray, bits: int = 16) -> np.ndarray:
        """Bit mask of term positions for every magnitude of ``values``.

        Shape-preserving; dtype ``uint16`` when every position fits in 16
        bits, ``uint32`` otherwise (CSD/HESE may use position ``bits``).  The
        sign of a term does not affect drain timing — the PIP negates for
        free — so the mask is all the packed kernels need.
        """

    def represent(self, value: int, bits: int = 16) -> int:
        """The magnitude the encoding actually represents (lossy encodings
        collapse it); the decode target of :meth:`terms`."""
        return self._validate(value, bits)

    def decode(self, terms: tuple[tuple[int, int], ...]) -> int:
        """Reconstruct the represented magnitude from ``(sign, position)`` terms."""
        value = 0
        seen: set[int] = set()
        for sign, position in terms:
            if sign not in (-1, 1):
                raise ValueError(f"term signs must be +1 or -1, got {sign}")
            if position < 0:
                raise ValueError(f"term positions must be non-negative, got {position}")
            if position in seen:
                raise ValueError(f"duplicate term position {position}")
            seen.add(position)
            value += sign * (1 << position)
        return value

    def term_counts(self, values: np.ndarray, bits: int = 16) -> np.ndarray:
        """Number of terms per magnitude (popcount of :meth:`term_masks`)."""
        return np.bitwise_count(self.term_masks(values, bits=bits)).astype(np.int64)

    def max_terms(self, bits: int = 16) -> int:
        """Upper bound on the term count of any ``bits``-wide magnitude."""
        return bits

    def max_position(self, bits: int = 16) -> int:
        """Highest term position any ``bits``-wide magnitude can use."""
        return bits - 1

    def _validate(self, value: int, bits: int) -> int:
        magnitude = abs(int(value))
        if magnitude >= (1 << bits):
            raise ValueError(f"value {value} does not fit in {bits} bits")
        return magnitude

    def _validated_magnitudes(self, values: np.ndarray, bits: int) -> np.ndarray:
        magnitudes = np.abs(np.asarray(values, dtype=np.int64))
        limit = (1 << bits) - 1
        if magnitudes.size and int(magnitudes.max()) > limit:
            raise ValueError(
                f"magnitude {int(magnitudes.max())} does not fit in {bits} bits"
            )
        return magnitudes

    def _mask_dtype(self, bits: int):
        return np.uint16 if self.max_position(bits) < 16 else np.uint32


class PositionalEncoding(Encoding):
    """The paper's oneffset representation: one ``+`` term per set bit."""

    name = "positional"
    signed = False
    lossless = True

    def terms(self, value: int, bits: int = 16) -> tuple[tuple[int, int], ...]:
        magnitude = self._validate(value, bits)
        out = []
        position = 0
        while magnitude:
            if magnitude & 1:
                out.append((1, position))
            magnitude >>= 1
            position += 1
        return tuple(out)

    def term_masks(self, values: np.ndarray, bits: int = 16) -> np.ndarray:
        # The magnitude *is* its own positional term mask.
        return self._validated_magnitudes(values, bits).astype(self._mask_dtype(bits))


class CsdEncoding(Encoding):
    """Canonical signed digit: the non-adjacent form (NAF).

    The NAF uses the minimum number of signed power-of-two terms and never two
    adjacent positions: ``126 = 0b0111_1110`` needs six positional terms but
    only two CSD terms (``+2^7 - 2^1``).  The PIP's negation input makes the
    signed terms free, so only the oneffset generator changes.
    """

    name = "csd"
    signed = True
    lossless = True

    def terms(self, value: int, bits: int = 16) -> tuple[tuple[int, int], ...]:
        magnitude = self._validate(value, bits)
        out: list[tuple[int, int]] = []
        position = 0
        while magnitude:
            if magnitude & 1:
                sign = 2 - (magnitude % 4)  # +1 if ...01, -1 if ...11
                out.append((sign, position))
                magnitude -= sign
            magnitude >>= 1
            position += 1
        return tuple(out)

    def term_masks(self, values: np.ndarray, bits: int = 16) -> np.ndarray:
        m = self._validated_magnitudes(values, bits)
        # The non-zero NAF digits of m sit at the bits where m >> 1 and
        # 3m >> 1 differ: the closed form of the digit recurrence in terms().
        half = m >> 1
        return (half ^ (m + half)).astype(np.uint32)

    def max_terms(self, bits: int = 16) -> int:
        # NAF never uses two adjacent positions out of bits + 1 available.
        return bits // 2 + 1

    def max_position(self, bits: int = 16) -> int:
        return bits


class HeseEncoding(Encoding):
    """Signed-digit adjacent-term pairing (HESE / term-revealing style).

    Each maximal run of consecutive set bits ``[s, e]`` with ``e > s``
    becomes ``(-2^s, +2^(e+1))``; an isolated set bit stays ``+2^s``.  The
    rewrite is purely local (no carry crosses the zero between runs), so the
    ``+`` term of one run — landing on that zero — can never collide with the
    next run's ``-`` term.
    """

    name = "hese"
    signed = True
    lossless = True

    def terms(self, value: int, bits: int = 16) -> tuple[tuple[int, int], ...]:
        magnitude = self._validate(value, bits)
        out: list[tuple[int, int]] = []
        position = 0
        while magnitude:
            if magnitude & 1:
                start = position
                while magnitude & 1:
                    magnitude >>= 1
                    position += 1
                if position - start == 1:
                    out.append((1, start))
                else:
                    out.append((-1, start))
                    out.append((1, position))
            else:
                magnitude >>= 1
                position += 1
        return tuple(out)

    def term_masks(self, values: np.ndarray, bits: int = 16) -> np.ndarray:
        m = self._validated_magnitudes(values, bits)
        starts = m & ~(m << 1)  # lowest bit of every run
        ends = m & ~(m >> 1)  # highest bit of every run
        isolated = starts & ends  # runs of length one
        masks = isolated | (starts & ~isolated) | ((ends & ~isolated) << 1)
        return masks.astype(np.uint32)

    def max_terms(self, bits: int = 16) -> int:
        # Worst case is the run pattern 11011011…: two terms per three bits.
        return 2 * (bits // 3) + min(bits % 3, 2)

    def max_position(self, bits: int = 16) -> int:
        return bits


class BinaryEncoding(Encoding):
    """1-bit sign-only traces: non-zero magnitudes collapse to ``+2^0``.

    Models binarized-network traffic (PAPERS.md: Bitwise Neural Networks).
    Essential-term skipping degenerates: every non-zero neuron costs exactly
    one term, so Pragmatic's advantage reduces to zero-skipping.
    """

    name = "binary"
    signed = False
    lossless = False

    def terms(self, value: int, bits: int = 16) -> tuple[tuple[int, int], ...]:
        magnitude = self._validate(value, bits)
        return ((1, 0),) if magnitude else ()

    def term_masks(self, values: np.ndarray, bits: int = 16) -> np.ndarray:
        magnitudes = self._validated_magnitudes(values, bits)
        return (magnitudes != 0).astype(np.uint16)

    def represent(self, value: int, bits: int = 16) -> int:
        return min(1, self._validate(value, bits))

    def max_terms(self, bits: int = 16) -> int:
        return 1

    def max_position(self, bits: int = 16) -> int:
        return 0


_REGISTRY: dict[str, Encoding] = {}


def register_encoding(encoding: Encoding, replace: bool = False) -> Encoding:
    """Register an encoding under its ``name`` (mirrors the runtime backends).

    Raises :class:`ValueError` on unnamed encodings and on duplicate names
    unless ``replace=True``.
    """
    if not encoding.name:
        raise ValueError("encodings must carry a non-empty name")
    if encoding.name in _REGISTRY and not replace:
        raise ValueError(f"encoding {encoding.name!r} is already registered")
    _REGISTRY[encoding.name] = encoding
    return encoding


def get_encoding(name: str) -> Encoding:
    """Look up a registered encoding by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown encoding {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def encoding_names() -> tuple[str, ...]:
    """Names of every registered encoding, in registration order."""
    return tuple(_REGISTRY)


register_encoding(PositionalEncoding())
register_encoding(CsdEncoding())
register_encoding(HeseEncoding())
register_encoding(BinaryEncoding())
