"""Wire protocol of the query server: length-prefixed JSON frames.

A frame is a 4-byte big-endian length word followed by the payload.
The top bit of the length word is the **checksum flag**: when set, a
4-byte big-endian CRC32 of the payload sits between the length word and
the payload, and the remaining 31 bits give the payload length.  Both
the server and :class:`~repro.server.client.QueryClient` send
checksummed frames by default — a garbled or half-delivered frame then
surfaces as a typed :class:`~repro.errors.ProtocolError`, never as a
silently wrong result — while plain frames (flag clear) remain accepted
for wire compatibility and hand-rolled test clients.

Requests are objects::

    {"sql": "<statement>"}            required (unless "op" is given)
    {"timeout": <seconds>}            optional per-statement deadline
                                      (clamped to the server's max)
    {"min_lsn": <int>}                bounded-staleness read: only
                                      execute once the server has
                                      applied through this LSN, else
                                      answer ReplicaLaggingError
    {"min_lsn_timeout": <seconds>}    how long a min_lsn read may wait
                                      for the replica to catch up
    {"op": "health"}                  liveness/health probe — answered
                                      inline, never queued, even while
                                      the server drains
    {"op": "replicate", ...}          primary-side WAL streaming (see
                                      repro.replication.primary); also
                                      "replicate_snapshot" (bootstrap
                                      image chunks), "replicate_detach"
                                      (release a stream's retention
                                      pin), and — on replicas —
                                      "promote" (become a writable
                                      primary)

Responses are objects with ``ok``::

    {"ok": true,  "result": <value>, "elapsed_ms": <float>, "lsn": <int>}
    {"ok": false, "error": "<message>", "error_type": "<ReproError class>"}

The ``lsn`` on success responses is the server's log position (a
primary's flushed WAL tail; a replica's applied watermark) — clients
carry it forward as the ``min_lsn`` bound for read-your-writes reads
against replicas.

Result values mirror :meth:`Database.sql` returns in JSON shape: a
SELECT becomes ``{"columns": [...], "rows": [[...]], "row_count": n}``,
ZOOM IN a list of texts, DELETE/UPDATE/ANNOTATE a number, DDL/INSERT
``null``, EXPLAIN its rendered text.  A health probe's result is the
server's :meth:`~repro.server.server.QueryServer.health` dict (status,
queue depth, connection counts, degraded access paths).

Framing errors are deliberately unforgiving: an oversized length,
checksum mismatch, or undecodable payload raises
:class:`~repro.errors.ProtocolError` and the server answers with an
error frame then drops the connection — a peer that cannot frame
correctly cannot be trusted to stay in sync with the stream.  Statement
errors (parse errors, lock timeouts, deadlines) and admission sheds
(:class:`~repro.errors.ServerOverloadedError`) are ordinary
``ok: false`` responses and the connection survives.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.errors import ProtocolError

#: 4-byte big-endian unsigned frame length (and CRC32 word).
LENGTH = struct.Struct(">I")

#: Top bit of the length word: a CRC32 word follows the header.
CRC_FLAG = 0x8000_0000

#: Refuse frames beyond this many payload bytes (requests *and* results).
MAX_FRAME = 8 * 1024 * 1024

#: Default server port (0 = ephemeral, for tests).
DEFAULT_PORT = 5433


def frame_crc(payload: bytes) -> int:
    """CRC32 of a frame payload (what the checksum word carries)."""
    return zlib.crc32(payload) & 0xFFFF_FFFF


def encode_frame(obj: object, max_frame: int = MAX_FRAME,
                 crc: bool = False) -> bytes:
    """Serialize one length-prefixed JSON frame; ``crc=True`` sets the
    checksum flag and prepends the payload CRC32."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > max_frame:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {max_frame}-byte limit"
        )
    if crc:
        return (LENGTH.pack(len(payload) | CRC_FLAG)
                + LENGTH.pack(frame_crc(payload)) + payload)
    return LENGTH.pack(len(payload)) + payload


def decode_header(header: bytes,
                  max_frame: int = MAX_FRAME) -> tuple[int, bool]:
    """Validate and unpack a frame header; returns
    ``(payload_length, has_crc)``."""
    if len(header) != LENGTH.size:
        raise ProtocolError(
            f"truncated frame header ({len(header)} of {LENGTH.size} bytes)"
        )
    (word,) = LENGTH.unpack(header)
    has_crc = bool(word & CRC_FLAG)
    length = word & ~CRC_FLAG
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte limit"
        )
    return length, has_crc


def decode_length(header: bytes, max_frame: int = MAX_FRAME) -> int:
    """Validate and unpack a frame header; returns the payload length
    (checksum flag masked off — use :func:`decode_header` when the flag
    matters)."""
    return decode_header(header, max_frame)[0]


def verify_crc(payload: bytes, expected: int) -> None:
    """Raise :class:`ProtocolError` when ``payload`` fails its checksum."""
    actual = frame_crc(payload)
    if actual != expected:
        raise ProtocolError(
            f"frame checksum mismatch (crc {actual:#010x} != "
            f"declared {expected:#010x}): bytes were corrupted in flight"
        )


def decode_payload(payload: bytes) -> dict:
    """Decode a frame payload into a request/response object."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def jsonable_result(result: object) -> object:
    """Render a :meth:`Database.sql` return value as JSON-compatible data."""
    from repro.core.database import QueryReport
    from repro.query.result import ResultSet

    if result is None or isinstance(result, (bool, int, float, str)):
        return result
    if isinstance(result, ResultSet):
        return {
            "columns": list(result.columns),
            "rows": [
                [_jsonable_value(v) for v in t.values] for t in result.tuples
            ],
            "row_count": len(result),
        }
    if isinstance(result, QueryReport):
        return str(result)
    if isinstance(result, (list, tuple)):
        return [_jsonable_value(v) for v in result]
    return str(result)


def _jsonable_value(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)
