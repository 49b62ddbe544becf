"""Number representations and bit-level encodings used throughout the reproduction.

Public surface:

* :class:`FixedPointFormat` / :data:`FIXED16` — the 16-bit fixed point storage of
  DaDianNao, Stripes and Pragmatic, and :func:`popcount`, the essential-bit count.
* :class:`QuantizationParams` — TensorFlow-style 8-bit linear quantization.
* the registry of oneffset encodings (positional, CSD, HESE, binary).
"""

from repro.numerics.encodings import (
    DEFAULT_ENCODING,
    Encoding,
    encoding_names,
    get_encoding,
    register_encoding,
)
from repro.numerics.fixedpoint import FIXED8, FIXED16, FixedPointFormat, popcount
from repro.numerics.quantized import QuantizationParams, quantize_layer

__all__ = [
    "FixedPointFormat",
    "FIXED16",
    "FIXED8",
    "popcount",
    "QuantizationParams",
    "quantize_layer",
    "Encoding",
    "DEFAULT_ENCODING",
    "register_encoding",
    "get_encoding",
    "encoding_names",
]
