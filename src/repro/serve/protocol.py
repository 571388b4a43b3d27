"""Versioned JSON+binary wire protocol for the serving transport.

One frame is the unit of the wire: a fixed binary prefix (magic, protocol
version, header length, payload length), a JSON *header* carrying the
message metadata, and an optional raw binary *payload* carrying float64
feature/angle blocks byte-for-byte::

    +-------+---------+------------+-------------+--------------+---------+
    | magic | version | header_len | payload_len | JSON header  | payload |
    | 4 B   | 1 B     | 4 B (!I)   | 4 B (!I)    | header_len B | raw f64 |
    +-------+---------+------------+-------------+--------------+---------+

Numeric arrays never round-trip through JSON: angles travel as the raw
bytes of a C-contiguous float64 array (shape/dtype in the header), so a
response read off the socket is bit-identical to the array the server
computed -- the serving layer's equality contract extends to the wire.

Message types (``header["type"]``), client -> server::

    hello    {version}                      open the session
    submit   {id, template, tenant, seed?, timeout_s?, array}
    predict  {id, template, tenant, seed?, timeout_s?, array}

and server -> client::

    welcome  {version, templates: {name: {rows, cols, layout, head}}}
    result   {id, lo, rows, array}          slices lo.. of a rows-slice answer
    error    {id, code, message, ...}       structured failure

``seed`` is tri-state exactly like :meth:`FeatureService.submit`: key
absent = the template's default seed, ``null`` = fresh entropy per call,
an int = that seed.  Errors carry a stable ``code`` from
:data:`ERROR_CODES` so clients re-raise the matching exception type
instead of parsing prose.

Every answer is one or more ``result`` frames, in order, of consecutive
slices along axis 0 of the response (rows of a 2-D answer, values of a
1-D one); ``array`` holds slices ``lo`` onward of the answer's ``rows``.

Everything here is pure framing -- no sockets, no service -- so both the
server and the client transports build on one implementation, and tests
can exercise malformed frames without a running server.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "FRAME_MAGIC",
    "FRAME_OVERHEAD",
    "DEFAULT_MAX_FRAME_BYTES",
    "ERROR_CODES",
    "ProtocolError",
    "pack_frame",
    "read_frame",
    "encode_array",
    "decode_array",
]

#: Wire protocol version; bumped on any frame- or message-level change.
PROTOCOL_VERSION = 2

#: Frame magic: "Repro Quantum Feature" + frame marker.
FRAME_MAGIC = b"RQF\x00"

_PREFIX = struct.Struct("!4sBII")

#: Fixed bytes every frame spends before its header: magic + version +
#: the two length words.
FRAME_OVERHEAD = _PREFIX.size

#: Default per-frame size bound (header + payload), generous enough for
#: multi-thousand-sample blocks while still refusing a corrupt length
#: word before allocating its buffer.
DEFAULT_MAX_FRAME_BYTES = 16 * 2**20

#: Stable error codes an ``error`` frame may carry.  Append-only, like
#: diagnostic codes: clients dispatch on these to re-raise typed errors.
ERROR_CODES = (
    "timeout",          # the request exceeded its deadline (peers unaffected)
    "backpressure",     # admission rejected the tenant at the door
    "unknown_template", # no registration under that name
    "bad_request",      # malformed submit (shape/seed/field errors)
    "unavailable",      # server draining or service stopped
    "protocol",         # unreadable frame (magic/version/length)
    "internal",         # flush execution failed server-side
)


class ProtocolError(RuntimeError):
    """A frame violated the wire protocol (magic, version, or bounds)."""


def pack_frame(header: Mapping[str, Any], payload: bytes = b"") -> bytes:
    """Serialize one frame: prefix + JSON header + raw payload."""
    header_bytes = json.dumps(dict(header), sort_keys=True).encode("utf-8")
    return (
        _PREFIX.pack(
            FRAME_MAGIC, PROTOCOL_VERSION, len(header_bytes), len(payload)
        )
        + header_bytes
        + payload
    )


async def read_frame(
    reader: asyncio.StreamReader, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> tuple[dict[str, Any], bytes] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`ProtocolError` on bad magic, a version mismatch, a
    frame larger than ``max_frame_bytes``, or a connection that dies
    mid-frame -- anything after which the stream position is untrustworthy.
    """
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise ProtocolError(
            f"connection closed mid-prefix ({len(exc.partial)} of "
            f"{_PREFIX.size} bytes)"
        ) from None
    magic, version, header_len, payload_len = _PREFIX.unpack(prefix)
    if magic != FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (not a repro peer?)")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"peer speaks protocol version {version}, this side speaks "
            f"{PROTOCOL_VERSION}"
        )
    total = FRAME_OVERHEAD + header_len + payload_len
    if total > max_frame_bytes:
        raise ProtocolError(
            f"frame of {total} bytes exceeds max_frame_bytes={max_frame_bytes}"
        )
    try:
        # One read for header + payload: halves the await round-trips a
        # frame costs on the hot path.
        body = await reader.readexactly(header_len + payload_len)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} bytes short)"
        ) from None
    header_bytes = body[:header_len]
    payload = body[header_len:] if payload_len else b""
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise ProtocolError(f"unparseable frame header: {exc}") from None
    if not isinstance(header, dict) or not isinstance(header.get("type"), str):
        raise ProtocolError("frame header must be an object with a 'type'")
    return header, payload


def encode_array(x: np.ndarray) -> tuple[dict[str, Any], bytes]:
    """``(metadata, payload)`` for one float64 array.

    The payload is the raw bytes of the C-contiguous float64 view, so
    ``decode_array(*encode_array(x))`` is bit-identical to ``x``.
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    return {"shape": list(arr.shape), "dtype": "float64"}, arr.tobytes()


def _result_frame_bytes(
    request_id: Any, rows: int, slice_shape: Sequence[int], slices: int = 1
) -> int:
    """Bytes of the largest ``result`` frame of ``slices`` slices, each of
    ``slice_shape``, from a ``rows``-slice answer (its header sized at the
    last start, ``lo = rows - 1``).  The server splits answers and RPA115
    lints the frame bound with it."""
    meta = {"shape": [slices, *slice_shape], "dtype": "float64"}
    header = {"type": "result", "id": request_id, "lo": rows - 1, "rows": rows, "array": meta}
    return len(pack_frame(header)) + 8 * slices * math.prod(slice_shape)


def decode_array(meta: Mapping[str, Any], payload: bytes) -> np.ndarray:
    """Rebuild the array ``encode_array`` shipped (validating the meta)."""
    if not isinstance(meta, Mapping) or "shape" not in meta:
        raise ProtocolError(f"frame carries no array metadata: {meta!r}")
    if meta.get("dtype", "float64") != "float64":
        raise ProtocolError(f"unsupported wire dtype {meta.get('dtype')!r}")
    shape = tuple(int(dim) for dim in meta["shape"])
    expected = 8 * int(np.prod(shape)) if shape else 8
    if len(payload) != expected:
        raise ProtocolError(
            f"payload of {len(payload)} bytes does not match shape {shape} "
            f"({expected} bytes expected)"
        )
    return np.frombuffer(payload, dtype=np.float64).reshape(shape).copy()
