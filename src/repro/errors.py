"""Exception hierarchy for the repro engine.

Every error raised by the engine derives from :class:`ReproError`, so
applications can catch a single base class. Sub-classes mirror the major
subsystems (storage, catalog, query, index, summaries).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro engine."""


class StorageError(ReproError):
    """Raised for page/heap/buffer-pool level failures."""


class PageFullError(StorageError):
    """Raised when a record does not fit into the target page."""


class RecordNotFoundError(StorageError):
    """Raised when a RID or OID does not resolve to a live record."""


class BufferPoolError(StorageError):
    """Raised when the buffer pool cannot satisfy a pin request."""


class CorruptPageError(StorageError):
    """Raised when a page read back from disk fails its checksum or cannot
    be parsed into a structurally valid page (torn write, bit rot)."""


class InjectedFaultError(StorageError):
    """Raised by the fault-injection layer for a scheduled fail-stop fault.

    After a fail-stop fires the faulty disk is *dead*: every subsequent
    operation raises this error too, modelling a crashed device.
    """


class TransientIOError(InjectedFaultError):
    """Raised for a scheduled transient I/O fault: the operation failed but
    the disk remains usable — a retry may succeed."""


class CircuitOpenError(StorageError):
    """Raised by the resilience layer's circuit breaker when a device has
    failed repeatedly and calls are being rejected fast instead of
    hammering the dying device. The breaker re-admits a trial call after
    its cooldown (half-open state)."""


class IntegrityError(ReproError):
    """Raised by ``Database.check_integrity(raise_on_error=True)`` when any
    structural or cross-structure invariant is violated."""


class WALError(StorageError):
    """Raised for write-ahead-log failures: bad record types, appends to a
    truncated region, or a writer driven against a dead log device."""


class DatabaseFailedError(WALError):
    """Raised by every statement once a WAL sync failed: that statement
    is applied but unacknowledged, so the database answers nothing until
    ``Database.recover`` rebuilds it from the acknowledged log."""


class IndexError_(ReproError):
    """Raised for B-Tree / Summary-BTree failures.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class DuplicateKeyError(IndexError_):
    """Raised when inserting an entry that already exists in a unique index."""


class CatalogError(ReproError):
    """Raised for schema / catalog inconsistencies."""


class SchemaError(CatalogError):
    """Raised when a row does not match its table schema."""


class SummaryError(ReproError):
    """Raised for summary-object / summary-instance failures."""


class UnknownInstanceError(SummaryError):
    """Raised when a summary instance name does not resolve."""


class QueryError(ReproError):
    """Raised for SQL parse / bind / execution failures."""


class ParseError(QueryError):
    """Raised by the lexer/parser on malformed SQL."""


class BindError(QueryError):
    """Raised when names in a query do not resolve against the catalog."""


class PlanError(QueryError):
    """Raised when the optimizer cannot produce a physical plan."""


class QueryTimeoutError(QueryError):
    """Raised when a statement exceeds its deadline.

    Carries the partial progress made before the deadline fired in
    ``partial`` (rows produced so far, elapsed seconds, checkpoint count).
    """

    def __init__(self, message: str, partial: dict | None = None):
        super().__init__(message)
        self.partial = partial or {}


class QueryCancelledError(QueryError):
    """Raised when a statement is cooperatively cancelled (REPL Ctrl-C,
    :meth:`ExecutionContext.cancel`). Carries partial progress like
    :class:`QueryTimeoutError`."""

    def __init__(self, message: str, partial: dict | None = None):
        super().__init__(message)
        self.partial = partial or {}


class CorruptImageError(StorageError, QueryError):
    """Raised when a database image file is truncated, bit-flipped, or
    otherwise not a loadable image.

    Inherits both :class:`StorageError` (it is a storage-level corruption)
    and :class:`QueryError` (images are loaded through the query-facing
    ``Database.load`` API, whose callers historically caught QueryError).
    """


class TransactionError(QueryError):
    """Raised for transaction-control misuse (BEGIN inside an open
    transaction, COMMIT/ABORT with none open, DDL inside a transaction)
    and for commit-path failures."""


class TransactionAbortedError(TransactionError):
    """Raised when a transaction was force-aborted by the engine (e.g. as
    a deadlock victim after a lock-wait timeout): every buffered change
    was discarded and the session is back in autocommit mode."""


class LockTimeoutError(TransactionError):
    """Raised when a table lock could not be acquired before the
    deadline — the engine's timeout-based deadlock detection. The waiting
    transaction is chosen as the victim and auto-aborted."""


class ProtocolError(ReproError):
    """Raised on a malformed wire frame (bad length prefix, oversized
    payload, checksum mismatch, undecodable JSON, wrong request shape)."""


class ServerError(ReproError):
    """Client-side mirror of an error response from the server: carries
    the original error type name in ``error_type``."""

    def __init__(self, message: str, error_type: str = "ServerError"):
        super().__init__(message)
        self.error_type = error_type


class ServerOverloadedError(ReproError):
    """Raised (and sent as a typed error frame) when the server sheds a
    connection or statement under admission control: the connection cap
    was reached, the statement queue was full, or the queue deadline
    passed before a worker picked the statement up.

    The shed request was **never executed** — retrying it is always
    safe, which is what lets :class:`~repro.server.resilient.
    ResilientQueryClient` transparently retry even writes on overload.
    """


class ServerShuttingDownError(ServerOverloadedError):
    """Raised for statements rejected because the server is draining:
    it has stopped accepting work and is finishing (or cancelling)
    what's in flight. Like its parent, the statement was never
    executed and a retry — against this server after restart, or
    another replica — is safe."""


class ClientTimeoutError(ReproError):
    """Raised by :class:`~repro.server.client.QueryClient` when the
    server does not produce a complete response within the client's
    ``response_timeout``. The socket is closed (a half-read frame can
    never be resynchronized), so the connection is gone; whether the
    statement executed server-side is unknown."""


class ReplicationError(ReproError):
    """Base class for replication-link failures: stream protocol
    violations, bootstrap failures, a primary that no longer retains the
    requested log range."""


class ReplicationDivergenceError(ReplicationError):
    """Raised when the replica detects that its applied log prefix no
    longer matches the primary's stream — an LSN/positional mismatch or a
    CRC failure at an offset the replica believed durable. The replica's
    state cannot be trusted past its last verified prefix; the standard
    response is an automatic re-bootstrap from a fresh primary snapshot."""


class ReadOnlyReplicaError(QueryError):
    """Raised (and sent as a typed error frame) when a mutating
    statement — DDL, DML, annotation ops, or BEGIN — is submitted to a
    replica. Replicas apply the primary's WAL stream only; route writes
    to the primary (or ``promote`` the replica first)."""


class ReplicaLaggingError(ReproError):
    """Raised when a bounded-staleness read asked the replica to be
    caught up through ``min_lsn`` but the replica had not applied that
    far within the wait deadline. Carries the replica's applied LSN so
    the client can decide to wait longer, retry elsewhere, or accept
    staler data.

    The statement was **never executed** — retrying it (here or on
    another endpoint) is always safe."""

    def __init__(self, message: str, applied_lsn: int = 0,
                 min_lsn: int = 0):
        super().__init__(message)
        self.applied_lsn = applied_lsn
        self.min_lsn = min_lsn


class AmbiguousStatementError(ReproError):
    """Raised by :class:`~repro.server.resilient.ResilientQueryClient`
    when a connection died after a non-read-only statement was sent but
    before its response arrived: the statement may or may not have
    executed, so a transparent retry could apply it twice. The caller
    must reconcile (re-read state) before retrying.

    ``cause`` carries the underlying transport error."""

    def __init__(self, message: str, cause: BaseException | None = None):
        super().__init__(message)
        self.cause = cause
