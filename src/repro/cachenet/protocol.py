"""Length-prefixed JSON frame codec for the cache-server wire protocol.

Every message — request or response — is one *frame*: a 4-byte big-endian
unsigned length followed by that many bytes of UTF-8 JSON (newline-terminated,
so a captured stream is also valid JSON-lines for debugging).  The length
prefix is what distinguishes this protocol from the serve layer's
newline-delimited one: cache payloads are arbitrary JSON documents that may be
large, and the prefix lets both sides size their reads exactly instead of
scanning for delimiters.

Frames are bounded by :data:`MAX_FRAME_BYTES`; an oversized or malformed
frame raises :class:`FrameError` and the connection is dropped (a damaged
stream cannot be resynchronized).  Both helpers speak to binary file objects
(``socket.makefile("rwb")`` on the client, the request handler's
``rfile``/``wfile`` on the server) so socket timeouts apply unchanged.

Protocol semantics — the ops, auth and failure behavior — are documented in
``docs/cachenet.md``.
"""

from __future__ import annotations

import json
import struct
from typing import BinaryIO

__all__ = ["FrameError", "MAX_FRAME_BYTES", "read_frame", "write_frame"]

#: Upper bound on one frame's body.  Entry payloads are gzip-sized JSON
#: documents (typically kilobytes); anything near this bound is damage.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class FrameError(ValueError):
    """The stream does not contain a valid frame (connection must drop)."""


def _read_exact(stream: BinaryIO, count: int) -> bytes:
    """Exactly ``count`` bytes from ``stream``; ``b""`` on clean EOF at a
    frame boundary, :class:`FrameError` on EOF mid-frame."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if remaining == count:
                return b""
            raise FrameError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def write_frame(stream: BinaryIO, message: dict) -> None:
    """Serialize ``message`` as one length-prefixed JSON frame and flush."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    stream.write(_HEADER.pack(len(body)) + body)
    stream.flush()


def read_frame(stream: BinaryIO) -> dict | None:
    """The next frame's message, or ``None`` on clean end-of-stream."""
    header = _read_exact(stream, _HEADER.size)
    if not header:
        return None
    (length,) = _HEADER.unpack(header)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise FrameError(f"invalid frame length {length}")
    body = _read_exact(stream, length)
    if len(body) != length:
        raise FrameError("connection closed mid-frame")
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # Invalid UTF-8 or JSON, nesting too deep to recurse into, or an
        # integer longer than Python converts.
        raise FrameError(f"frame body is not JSON: {error}") from error
    if not isinstance(message, dict):
        raise FrameError("frame body is not a JSON object")
    return message
