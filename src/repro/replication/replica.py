"""The replica server: a hot standby serving read-only queries.

A :class:`ReplicaServer` owns three pieces: a local
:class:`~repro.core.database.Database` (bootstrapped from a primary
snapshot, ``read_only`` thereafter), a
:class:`~repro.server.server.QueryServer` serving it on the normal
protocol, and a :class:`~repro.replication.link.ReplicationLink` thread
continuously applying the primary's WAL stream.

* Read-only statements execute normally (including bounded-staleness
  ``min_lsn`` waits, answered through the link's applied watermark);
  mutating statements answer a typed
  :class:`~repro.errors.ReadOnlyReplicaError`.
* ``{"op": "promote"}`` (or :meth:`promote`) turns the replica into a
  writable primary: the link stops, any buffered uncommitted group is
  discarded, a fresh WAL is attached at the applied watermark — so the
  new primary's log continues the old primary's LSN space over exactly
  the acked-committed prefix — and the replication endpoint is installed
  so further replicas can chain off the promoted node.

Bootstrap and state replacement happen **in place**: the Database object
identity is stable (sessions, the server, the applier all hold references
to it), so installing a snapshot swaps ``db.__dict__`` under the commit
mutex — the same idiom the REPL uses to swap demo databases.
"""

from __future__ import annotations

import os
import socket

from repro.core.database import Database
from repro.errors import ReplicationError
from repro.replication.applier import WALApplier
from repro.replication.link import ReplicationLink
from repro.replication.primary import ReplicationEndpoint
from repro.resilience import RetryPolicy
from repro.server.server import (
    DEFAULT_WORKERS,
    QueryServer,
    run_until_signalled,
)
from repro.wal.device import MemoryWALDevice

_replica_seq = 0


def _default_replica_id() -> str:
    global _replica_seq
    _replica_seq += 1
    return f"replica-{socket.gethostname()}-{os.getpid()}-{_replica_seq}"


class ReplicaServer:
    """A read-only standby continuously applying a primary's WAL."""

    def __init__(self, primary_host: str, primary_port: int,
                 host: str = "127.0.0.1", port: int = 0,
                 replica_id: str | None = None,
                 retry: RetryPolicy | None = None,
                 poll_interval: float = 0.02,
                 workers: int = DEFAULT_WORKERS,
                 **server_kwargs):
        self.primary_host = primary_host
        self.primary_port = primary_port
        self.replica_id = replica_id or _default_replica_id()
        #: placeholder until the first snapshot installs; read-only from
        #: the start so nothing can write while we bootstrap.
        self.db = Database()
        self.db.read_only = True
        self.applier = WALApplier(self.db, 0)
        self.link = ReplicationLink(
            self.db, self.applier, primary_host, primary_port,
            self.replica_id, install_snapshot=self.install_snapshot,
            retry=retry, poll_interval=poll_interval,
        )
        self.server = QueryServer(
            self.db, host=host, port=port, workers=workers, **server_kwargs
        )
        self.server.repl_link = self.link
        self.server.register_op("promote", self._promote_op)
        self.promoted = False

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind the query server and start the replication link. The
        link bootstraps in the background — health reports
        ``bootstrapped`` and lag; :meth:`wait_ready` blocks for tests
        and the CLI."""
        self.server.start()
        self.link.start()

    def stop(self, drain_timeout: float | None = None) -> None:
        self.link.stop()
        if not self.promoted:
            # Release the retention pin on the primary (best-effort: a
            # dead primary just means nothing to release).
            self._detach_best_effort()
        self.server.stop(drain_timeout)

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until the first bootstrap completed."""
        return self.link.bootstrapped.wait(timeout)

    def _detach_best_effort(self) -> None:
        from repro.server.client import QueryClient

        try:
            with QueryClient(self.primary_host, self.primary_port,
                             connect_timeout=0.5,
                             response_timeout=2.0) as client:
                client.request({"op": "replicate_detach",
                                "replica_id": self.replica_id})
        except Exception:
            pass

    # -- bootstrap -----------------------------------------------------------

    def install_snapshot(self, image: bytes) -> int:
        """Install a primary snapshot image in place; returns its LSN.

        The new state replaces ``db.__dict__`` under the old commit
        mutex, with ``read_only`` already set on the incoming state so
        there is no instant at which a write could slip in.
        """
        new_db = Database.load_bytes(
            image,
            source=f"{self.primary_host}:{self.primary_port} snapshot",
        )
        new_db.read_only = True
        lsn = max(new_db.checkpoint_lsn, new_db._applied_lsn)
        db = self.db
        with db._commit_mutex:
            db.__dict__.clear()
            db.__dict__.update(new_db.__dict__)
            # The loaded runtime (transaction manager, regeneration hook)
            # points back at new_db; every write and commit runs through
            # it, so rebuild it around this object.
            db._init_concurrency()
        self.applier.reset(lsn)
        db.metrics.set_gauge("repl.applied_lsn", lsn)
        return lsn

    # -- promotion -----------------------------------------------------------

    def promote(self) -> dict:
        """Turn this replica into a writable primary.

        Stops the link (joining its thread), discards any buffered
        uncommitted commit group, clears ``read_only``, and attaches a
        fresh WAL based at the applied watermark — the new primary's log
        continues the old LSN space over exactly the acked-committed
        prefix. The replication endpoint is installed so new replicas
        can bootstrap off the promoted node.
        """
        if self.promoted:
            return {"promoted": False, "already_primary": True,
                    "lsn": self.applier.ack_lsn}
        if not self.link.bootstrapped.is_set():
            raise ReplicationError(
                "cannot promote before the first bootstrap completed"
            )
        self.link.stop(join=True)
        db = self.db
        with db._commit_mutex:
            self.applier.reset_to_ack()
            lsn = self.applier.ack_lsn
            db._applied_lsn = max(db._applied_lsn, lsn)
            db.checkpoint_lsn = max(db.checkpoint_lsn, lsn)
            device = MemoryWALDevice(base_lsn=lsn, metrics=db.metrics)
            db.attach_wal(device)
            db.read_only = False
        self.server.repl_link = None
        ReplicationEndpoint(self.server).install()
        self.promoted = True
        db.metrics.inc("repl.promotions")
        return {"promoted": True, "lsn": lsn}

    def _promote_op(self, request: dict, conn) -> dict:
        return self.promote()


async def serve_replica(primary_host: str, primary_port: int,
                        host: str = "127.0.0.1", port: int = 0,
                        workers: int = DEFAULT_WORKERS, **kwargs) -> None:
    """CLI runner: serve a replica until SIGTERM/SIGINT, then drain."""
    replica = ReplicaServer(primary_host, primary_port, host=host,
                            port=port, workers=workers, **kwargs)
    await run_until_signalled(
        replica, f"repro replica of {primary_host}:{primary_port} "
        "listening on", "repro replica drained")
