"""Bit-level primitives and number encodings used throughout the reproduction.

Public surface:

* :func:`popcount` — the essential-bit count of 16-bit fixed-point magnitudes
  (the storage of DaDianNao, Stripes and Pragmatic).
* the registry of oneffset encodings (positional, CSD, HESE, binary).
"""

from repro.numerics.encodings import (
    DEFAULT_ENCODING,
    Encoding,
    encoding_names,
    get_encoding,
    register_encoding,
)
from repro.numerics.fixedpoint import popcount

__all__ = [
    "popcount",
    "Encoding",
    "DEFAULT_ENCODING",
    "register_encoding",
    "get_encoding",
    "encoding_names",
]
