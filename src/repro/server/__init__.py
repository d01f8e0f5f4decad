"""Query serving: a thread-per-connection TCP server + thin client
(DESIGN.md §5g–5h).

The server multiplexes concurrent clients over one
:class:`~repro.core.database.Database`; each connection has its own
thread and locking :class:`~repro.txn.session.Session`, runs its
statements itself, and a mid-statement client hangup cancels the
statement at its next cooperative checkpoint so locks are never
stranded.  Overload is shed with typed errors (connection cap + bounded
statement queue), shutdown drains gracefully, and a seeded
:class:`~repro.faults.network.NetworkFaultPlan` can subject the whole
stack to resets/stalls/partial/garbled frames.
:class:`~repro.server.resilient.ResilientQueryClient` is the
self-healing reference client.
"""

from repro.server.client import QueryClient
from repro.server.protocol import (
    CRC_FLAG,
    DEFAULT_PORT,
    MAX_FRAME,
    decode_header,
    decode_length,
    decode_payload,
    encode_frame,
    frame_crc,
    jsonable_result,
    verify_crc,
)
from repro.server.resilient import ResilientQueryClient, is_read_only
from repro.server.server import QueryServer, serve

__all__ = [
    "CRC_FLAG",
    "DEFAULT_PORT",
    "MAX_FRAME",
    "QueryClient",
    "QueryServer",
    "ResilientQueryClient",
    "decode_header",
    "decode_length",
    "decode_payload",
    "encode_frame",
    "frame_crc",
    "is_read_only",
    "jsonable_result",
    "serve",
    "verify_crc",
]
