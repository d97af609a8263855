"""The serve wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON (one object per frame).  Deliberately boring: the
sets the protocols intersect are small integer lists, the interesting
bits-on-the-wire accounting happens *inside* the simulated protocols, and
a self-describing frame makes the load generator, the CI smoke driver,
and ``nc``-grade debugging all trivial.

Requests carry ``op`` plus op-specific fields; every reply carries
``ok``.  Failure replies are **typed**::

    {"ok": false, "id": 7, "error": {"type": "overloaded", "scope":
     "server", "message": "..."}}

The contract the server keeps under pressure: a request that is read is
always answered -- overload shedding is the ``overloaded`` error reply,
never a silently dropped frame.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, Optional

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameError",
    "FrameReader",
    "ServeError",
    "encode_frame",
    "decode_frame_payload",
    "read_frame",
    "error_reply",
    "ERROR_TYPES",
]

#: Default ceiling on one frame's JSON payload.  Two full max-size sets of
#: 64-bit decimal ids with JSON overhead stay far below this; anything
#: larger is a malformed or hostile frame.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: The closed set of error types a reply may carry.  ``overloaded`` is the
#: graceful-shedding reply (with ``scope`` = ``"server"`` or ``"session"``);
#: ``internal`` is a server fault (a code bug, never the client's request);
#: the rest are request/protocol faults.
ERROR_TYPES = (
    "bad-frame",
    "bad-request",
    "unknown-session",
    "session-exists",
    "invalid-input",
    "overloaded",
    "shutting-down",
    "internal",
)


class FrameError(ValueError):
    """A frame violated the transport contract (oversize, torn, not JSON)."""


class ServeError(Exception):
    """A typed request failure; becomes an ``error_reply`` on the wire."""

    def __init__(self, error_type: str, message: str, **fields: Any) -> None:
        if error_type not in ERROR_TYPES:
            raise ValueError(f"unknown serve error type {error_type!r}")
        super().__init__(message)
        self.type = error_type
        self.fields = fields

    def reply(self, request_id: Optional[int] = None) -> Dict[str, Any]:
        return error_reply(self.type, str(self), request_id, **self.fields)


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """One wire frame: big-endian length header + compact JSON payload."""
    payload = json.dumps(
        obj, separators=(",", ":"), sort_keys=True, allow_nan=False
    ).encode("utf-8")
    return _HEADER.pack(len(payload)) + payload


def decode_frame_payload(payload: bytes) -> Dict[str, Any]:
    """Parse one frame's JSON payload into an object.

    :raises FrameError: when the payload is not a JSON object.
    """
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got {type(obj).__name__}"
        )
    return obj


async def read_frame(
    reader: asyncio.StreamReader, *, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    :raises FrameError: on a torn header/payload (EOF mid-frame), an
        oversize declaration, or a non-JSON payload.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError(
            f"connection closed mid-header ({len(exc.partial)} of "
            f"{_HEADER.size} bytes)"
        ) from None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise FrameError(f"frame of {length} bytes exceeds limit {max_bytes}")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"connection closed mid-frame ({len(exc.partial)} of "
            f"{length} bytes)"
        ) from None
    return decode_frame_payload(payload)


class FrameReader:
    """Buffered frame reader: one socket read can yield many frames.

    :func:`read_frame` costs two stream awaits per frame; under pipelined
    load that coroutine overhead is a visible per-operation tax on both
    sides of the loop.  This reader pulls large chunks and slices frames
    out of a local buffer, so a burst of pipelined requests costs one
    await total.  Same contract as :func:`read_frame`: ``None`` on clean
    EOF at a frame boundary, :class:`FrameError` on torn/oversize/non-JSON.
    """

    __slots__ = ("_reader", "_buffer", "_max_bytes")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        *,
        max_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        self._buffer = bytearray()
        self._max_bytes = max_bytes

    async def next(self) -> Optional[Dict[str, Any]]:
        buffer = self._buffer
        header_size = _HEADER.size
        while True:
            if len(buffer) >= header_size:
                (length,) = _HEADER.unpack_from(buffer)
                if length > self._max_bytes:
                    raise FrameError(
                        f"frame of {length} bytes exceeds limit "
                        f"{self._max_bytes}"
                    )
                end = header_size + length
                if len(buffer) >= end:
                    payload = bytes(buffer[header_size:end])
                    del buffer[:end]
                    return decode_frame_payload(payload)
            chunk = await self._reader.read(65536)
            if not chunk:
                if buffer:
                    raise FrameError(
                        f"connection closed mid-frame "
                        f"({len(buffer)} buffered bytes)"
                    )
                return None
            buffer += chunk


def error_reply(
    error_type: str,
    message: str,
    request_id: Optional[int] = None,
    **fields: Any,
) -> Dict[str, Any]:
    """Build a typed failure reply (the only way requests fail)."""
    if error_type not in ERROR_TYPES:
        raise ValueError(f"unknown serve error type {error_type!r}")
    error: Dict[str, Any] = {"type": error_type, "message": message}
    error.update(fields)
    reply: Dict[str, Any] = {"ok": False, "error": error}
    if request_id is not None:
        reply["id"] = request_id
    return reply
