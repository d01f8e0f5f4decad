"""Primary-side replication ops over the existing JSON protocol.

A :class:`ReplicationEndpoint` installs three ops on a
:class:`~repro.server.server.QueryServer` whose database has a WAL
attached:

* ``{"op": "replicate", "from_lsn": N, "replica_id": ID}`` — serve up to
  ``max_bytes`` of durable WAL starting at byte offset ``N``, base64 in
  the response. The ``from_lsn`` of each poll doubles as the replica's
  cumulative ack: everything below it is applied replica-side, so the
  primary may release retained segments beneath the minimum ack.  A
  request below the retained range answers ``status: "too_old"`` — the
  replica must re-bootstrap from a fresh snapshot.
* ``{"op": "replicate_snapshot", "offset": K}`` — stream a base image
  (:meth:`~repro.core.database.Database.snapshot_bytes`) in chunks; the
  snapshot is generated at ``offset == 0`` and cached on the connection
  so every chunk comes from one consistent image.
* ``{"op": "replicate_detach", "replica_id": ID}`` — release the
  stream's retention pin (clean shutdown / promote).

Handlers run on the requesting connection's thread, so snapshot
generation (which takes the commit mutex) never blocks the accept loop.
"""

from __future__ import annotations

import base64

from repro.errors import ReplicationError

#: bytes of WAL served per replicate poll unless the replica asks for a
#: different budget; the cap keeps base64-expanded responses well under
#: the protocol's frame limit.
DEFAULT_STREAM_BYTES = 1 << 20
MAX_STREAM_BYTES = 4 << 20

#: bytes of snapshot image per bootstrap chunk.
SNAPSHOT_CHUNK = 1 << 20


def _int_field(request: dict, name: str, default=None) -> int:
    value = request.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ReplicationError(f"{name!r} must be a non-negative integer")
    return value


class ReplicationEndpoint:
    """Serves a primary's WAL stream and bootstrap snapshots."""

    def __init__(self, server):
        self.server = server
        self.db = server.db

    def install(self) -> "ReplicationEndpoint":
        self.server.register_op("replicate", self.replicate)
        self.server.register_op("replicate_snapshot", self.snapshot)
        self.server.register_op("replicate_detach", self.detach)
        self.server.repl_endpoint = self
        return self

    def _wal(self):
        wal = self.db.wal
        if wal is None:
            raise ReplicationError(
                "primary has no WAL attached; nothing to replicate"
            )
        return wal

    # -- ops -----------------------------------------------------------------

    def replicate(self, request: dict, conn) -> dict:
        wal = self._wal()
        from_lsn = _int_field(request, "from_lsn")
        max_bytes = _int_field(request, "max_bytes", DEFAULT_STREAM_BYTES)
        max_bytes = max(1, min(max_bytes, MAX_STREAM_BYTES))
        replica_id = request.get("replica_id")
        self.db.metrics.inc("repl.stream_requests")
        # The poll's from_lsn is the cumulative ack: everything below it
        # is applied on the replica. Registration is implicit and sticky;
        # ack/registration and the read happen under the commit mutex so
        # a concurrent checkpoint can't retire bytes mid-decision.
        with self.db._commit_mutex:
            if isinstance(replica_id, str) and replica_id:
                wal.ack_stream(replica_id, from_lsn)
            data, status = wal.read_stream(from_lsn, max_bytes)
            response = {
                "status": status,
                "from_lsn": from_lsn,
                "data": base64.b64encode(data).decode("ascii"),
                "end_lsn": from_lsn + len(data),
                "durable_lsn": wal.flushed_lsn,
                "next_lsn": wal.next_lsn,
                "retained_base": wal.retained_base,
            }
        if data:
            self.db.metrics.inc("repl.stream_bytes", len(data))
        return response

    def snapshot(self, request: dict, conn) -> dict:
        offset = _int_field(request, "offset", 0)
        image = getattr(conn, "snapshot", None)
        if offset == 0 or image is None:
            image = self.db.snapshot_bytes()
            conn.snapshot = image
            self.db.metrics.inc("repl.snapshots")
        if offset > len(image):
            raise ReplicationError(
                f"snapshot offset {offset} beyond image size {len(image)}"
            )
        chunk = image[offset:offset + SNAPSHOT_CHUNK]
        done = offset + len(chunk) >= len(image)
        if done:
            conn.snapshot = None  # free; offset-0 re-request regenerates
        return {
            "offset": offset,
            "data": base64.b64encode(chunk).decode("ascii"),
            "total": len(image),
            "done": done,
        }

    def detach(self, request: dict, conn) -> dict:
        wal = self._wal()
        replica_id = request.get("replica_id")
        if not isinstance(replica_id, str) or not replica_id:
            raise ReplicationError(
                "'replica_id' must be a non-empty string"
            )
        with self.db._commit_mutex:
            wal.unregister_stream(replica_id)
        return {"detached": replica_id}
