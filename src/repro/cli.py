"""Interactive SQL shell: ``python -m repro``.

A small REPL over one in-process :class:`~repro.core.database.Database`,
aimed at exploring the engine:

* plain SQL statements run and print result tables,
* ``EXPLAIN [ANALYZE] <select>`` shows the logical + physical plans
  (ANALYZE also runs the query and annotates per-operator counters),
* ``\\demo`` loads the seeded Birds workload (handy first command),
* ``\\stats <table>``, ``\\instances``, ``\\tables`` inspect the catalog,
* ``\\set <option> <value>`` flips any :class:`PlannerOptions` knob
  (e.g. ``\\set enable_rules false``), and
* ``\\quit`` exits.
"""

from __future__ import annotations

import os
import sys

from repro.core.database import Database, QueryReport
from repro.errors import QueryCancelledError, QueryTimeoutError, ReproError
from repro.query.result import ResultSet

PROMPT = "insightnotes> "

_HELP = """\
Commands:
  <SQL statement>          run it (SELECT / INSERT / UPDATE / DELETE /
                           CREATE TABLE / ALTER TABLE ... / ZOOM IN ... /
                           ANNOTATE <table> <oid> 'text')
  BEGIN / COMMIT / ABORT   explicit transactions: DML between BEGIN and
                           COMMIT is buffered and atomically durable;
                           ABORT (or ROLLBACK) discards it
  EXPLAIN <select>         show the chosen logical and physical plans
  EXPLAIN ANALYZE <select> run it too; annotate actual rows/time/pages
  \\demo [birds] [apt]      load the seeded Birds workload
                           (default 50 tuples x 20 annotations)
  \\tables                  list user tables
  \\instances               list summary instances and their links
  \\stats <table>           show optimizer statistics for a table
  \\set <option> <value>    set a PlannerOptions field
  \\cache                   summary-cache statistics (hits, misses, bytes)
  \\cache clear             drop every cached summary set
  \\cache resize <bytes>    set the cache capacity (0 disables it)
  \\check                   run the full integrity audit (checksums, heap
                           accounting, B-Tree invariants, cross-structure)
  \\repair                  self-heal: quarantine corrupt pages, rebuild
                           derived structures, re-audit for convergence
  \\timeout [secs|off]      show or set the statement deadline (Ctrl-C
                           during a statement cancels it, not the shell)
  \\help                    this text
  \\quit                    exit\
"""


def _parse_option_value(raw: str) -> object:
    lowered = raw.lower()
    if lowered in ("true", "on"):
        return True
    if lowered in ("false", "off"):
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        return raw


def execute_line(db: Database, line: str, interruptible: bool = False) -> str:
    """One REPL interaction; returns the text to print (exposed separately
    from the input loop so it is unit-testable).

    ``interruptible`` routes the statement through :meth:`Database.execute`
    with SIGINT handling, so Ctrl-C cancels the running statement instead
    of killing the shell (only useful from the interactive main loop)."""
    line = line.strip()
    if not line:
        return ""
    if line.startswith("\\"):
        return _execute_command(db, line[1:])
    result = db.execute(line, interruptible=interruptible)
    if isinstance(result, QueryReport):
        return str(result)
    if isinstance(result, ResultSet):
        stats = result.stats
        timing = (
            f"\n({len(result)} rows, {stats['elapsed_s'] * 1e3:.1f} ms, "
            f"{stats['io_reads']} reads)"
            if stats else f"\n({len(result)} rows)"
        )
        return result.to_table() + timing
    if isinstance(result, list):  # ZOOM IN output
        return "\n".join(f"- {text}" for text in result) or "(no annotations)"
    if isinstance(result, int):  # DELETE / UPDATE row counts
        return f"{result} rows affected"
    return "ok"


def _execute_command(db: Database, command: str) -> str:
    parts = command.split()
    name, args = parts[0].lower(), parts[1:]
    if name in ("q", "quit", "exit"):
        raise EOFError
    if name == "help":
        return _HELP
    if name == "demo":
        from repro.workload.generator import WorkloadConfig, build_database

        num_birds = int(args[0]) if args else 50
        apt = int(args[1]) if len(args) > 1 else 20
        demo = build_database(WorkloadConfig(
            num_birds=num_birds, annotations_per_tuple=apt,
            cell_fraction=0.0,
        ))
        # Adopt the demo database's state wholesale.
        db.__dict__.update(demo.__dict__)
        return (
            f"loaded Birds workload: {num_birds} birds x {apt} annotations, "
            "instances ClassBird1 (indexed) + TextSummary1"
        )
    if name == "tables":
        names = db.catalog.table_names()
        return "\n".join(names) or "(no tables)"
    if name == "instances":
        lines = []
        for inst_name, instance in sorted(db.manager._instances.items()):
            tables = db.manager.tables_with_instance(inst_name)
            kind = type(instance).__name__.replace("Instance", "")
            linked = ", ".join(tables) or "unlinked"
            lines.append(f"{inst_name} ({kind}) -> {linked}")
        return "\n".join(lines) or "(no instances)"
    if name == "stats":
        if not args:
            return "usage: \\stats <table>"
        stats = db.statistics.table_stats(args[0])
        lines = [
            f"rows={stats.row_count} heap_pages={stats.heap_pages} "
            f"summary_pages={stats.summary_pages}"
        ]
        for inst_name, inst in sorted(stats.instances.items()):
            lines.append(
                f"  {inst_name}: avg_object_size={inst.avg_object_size:.0f}"
            )
            for label, ls in sorted(inst.labels.items()):
                lines.append(
                    f"    {label}: min={ls.min} max={ls.max} "
                    f"ndistinct={ls.ndistinct}"
                )
        return "\n".join(lines)
    if name == "cache":
        cache = db.manager.cache
        if args and args[0] == "clear":
            cache.clear()
            return "cache cleared"
        if args and args[0] == "resize":
            try:
                capacity = int(args[1])
            except (IndexError, ValueError):
                return "usage: \\cache resize <bytes>"
            cache.resize(capacity)
            state = "enabled" if cache.enabled else "disabled"
            return f"cache capacity = {cache.capacity_bytes} bytes ({state})"
        if args:
            return "usage: \\cache [clear | resize <bytes>]"
        s = cache.stats()
        state = "enabled" if cache.enabled else "disabled"
        return (
            f"summary cache: {state}, "
            f"{s['used_bytes']}/{s['capacity_bytes']} bytes, "
            f"{s['entries']} entries\n"
            f"  hits={s['hits']} misses={s['misses']} "
            f"hit_rate={s['hit_rate']:.1%}\n"
            f"  stores={s['stores']} evictions={s['evictions']} "
            f"invalidations={s['invalidations']} "
            f"rejections={s['rejections']}"
        )
    if name == "check":
        return str(db.check_integrity())
    if name == "repair":
        return str(db.repair())
    if name == "timeout":
        if not args:
            current = db.statement_timeout
            return (
                f"statement timeout = {current}s" if current is not None
                else "statement timeout = off"
            )
        if args[0].lower() in ("off", "none", "0"):
            db.statement_timeout = None
            return "statement timeout = off"
        try:
            seconds = float(args[0])
            if seconds <= 0:
                raise ValueError
        except ValueError:
            return "usage: \\timeout [<seconds> | off]"
        db.statement_timeout = seconds
        return f"statement timeout = {seconds}s"
    if name == "set":
        if len(args) != 2:
            return "usage: \\set <option> <value>"
        option, raw = args
        if not hasattr(db.options, option):
            valid = ", ".join(sorted(vars(db.options)))
            return f"unknown option {option!r}; one of: {valid}"
        setattr(db.options, option, _parse_option_value(raw))
        return f"{option} = {getattr(db.options, option)!r}"
    return f"unknown command \\{parts[0]} (try \\help)"


def repl_step(db: Database, line: str, interruptible: bool = False) -> str:
    """One fault-isolated REPL step: whatever one statement does — parse
    error, engine error, timeout, cancellation, even an unexpected crash
    or a stray KeyboardInterrupt — is rendered as output text; only the
    explicit quit path (EOFError) escapes. The session always survives
    the statement."""
    try:
        return execute_line(db, line, interruptible=interruptible)
    except EOFError:
        raise
    except QueryTimeoutError as exc:
        partial = exc.partial
        return (
            f"timeout: {exc} "
            f"({partial.get('rows', 0)} rows produced before the deadline)"
        )
    except QueryCancelledError as exc:
        partial = exc.partial
        return f"cancelled ({partial.get('rows', 0)} rows produced)"
    except KeyboardInterrupt:
        # A Ctrl-C that raced past the statement's SIGINT handler (e.g.
        # between cancel-flag checks): treat it as a cancelled statement,
        # never as a dead shell.
        return "cancelled"
    except ReproError as exc:
        return f"error: {exc}"
    except Exception as exc:  # surface, keep the session alive
        return f"unexpected {type(exc).__name__}: {exc}"


def check_image(path: str) -> int:
    """``python -m repro check <image>``: load an image and audit it.

    Exit status: 0 when the audit is clean, 1 on integrity violations,
    2 when the image itself cannot be loaded (truncated, corrupted,
    wrong version).
    """
    from repro.errors import CorruptImageError

    try:
        db = Database.load(path)
    except (CorruptImageError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    report = db.check_integrity()
    try:
        print(report)
    except BrokenPipeError:
        # Downstream pager/head closed early; swallow the flush-at-exit
        # error too. The exit status still stands.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.ok else 1


def recover_image(image: str, wal_path: str, out: str | None = None) -> int:
    """``python -m repro recover <image> <wal> [out]``: crash recovery.

    Loads the checkpoint image (pass ``-`` for a database that never
    checkpointed), replays the WAL file's durable tail onto it (torn
    tails are truncated, never replayed), audits the result, and — when a
    target path exists — checkpoints the recovered database back out
    (``out`` defaults to the image path).

    Exit status: 0 on a clean recovery, 1 when the post-replay audit
    still reports violations (``repair`` is the next step), 2 when the
    image or WAL cannot be read, or a record raises on replay.
    """
    from repro.errors import CorruptImageError, WALError
    from repro.wal.device import FileWALDevice

    try:
        device = FileWALDevice(wal_path)
    except (WALError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    try:
        db, report = Database.recover(
            None if image == "-" else image, device
        )
    except (CorruptImageError, WALError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    print(report)
    audit = db.check_integrity()
    print(audit)
    target = out if out is not None else (None if image == "-" else image)
    if target is not None:
        db.save(target)
    return 0 if audit.ok else 1


def repair_image(image: str, out: str | None = None) -> int:
    """``python -m repro repair <image> [out]``: self-healing repair.

    Loads the image, runs :meth:`Database.repair` (salvage corrupt pages,
    rebuild every derived structure from the heaps, re-audit), prints the
    repair report, and saves the repaired database (``out`` defaults to
    the image path).

    Exit status: 0 when repair converged (or the database was already
    clean), 1 when violations remain after repair, 2 when the image
    cannot be loaded.
    """
    from repro.errors import CorruptImageError

    try:
        db = Database.load(image)
    except (CorruptImageError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    report = db.repair()
    print(report)
    db.save(out if out is not None else image)
    return 0 if report.converged else 1


def serve_command(args: list[str]) -> int:
    """``python -m repro serve [image] [--host H] [--port P] [--workers N]
    [--max-connections N] [--drain-timeout S] [--idle-timeout S]
    [--replicate] [--replica-of HOST:PORT] [--replica-id ID]``: run the
    query server (a thread per connection) over a fresh database or a
    loaded image.

    ``--replicate`` attaches a WAL (if the database has none) and serves
    the primary-side replication ops so replicas can attach.
    ``--replica-of HOST:PORT`` instead runs a read-only hot standby of
    that primary: it bootstraps from a snapshot, continuously applies
    the primary's WAL stream, and serves read-only queries; promote it
    with ``python -m repro promote HOST:PORT``.

    SIGTERM and SIGINT (Ctrl-C) trigger a graceful drain: the server
    stops accepting, in-flight statements get the drain deadline to
    finish, stragglers are cooperatively cancelled, and every session
    closes before exit — no lock or transaction survives shutdown.

    Exit status: 0 on a clean (drained) shutdown, 2 on bad arguments or
    an unloadable image.
    """
    import asyncio

    from repro.errors import CorruptImageError
    from repro.server import DEFAULT_PORT
    from repro.server.server import DEFAULT_WORKERS, serve

    usage = ("usage: python -m repro serve [image] [--host H] [--port P] "
             "[--workers N] [--max-connections N] [--drain-timeout S] "
             "[--idle-timeout S] [--replicate] "
             "[--replica-of HOST:PORT] [--replica-id ID]")
    host, port, image = "127.0.0.1", DEFAULT_PORT, None
    workers = DEFAULT_WORKERS
    server_kwargs: dict = {}
    replicate = False
    replica_of: str | None = None
    replica_id: str | None = None

    def _number(raw, cast):
        try:
            return cast(raw)
        except (TypeError, ValueError):
            return None

    it = iter(args)
    for arg in it:
        if arg == "--host":
            host = next(it, None)
        elif arg == "--replicate":
            replicate = True
        elif arg == "--replica-of":
            replica_of = next(it, None)
            if replica_of is None or ":" not in replica_of:
                print(usage)
                return 2
        elif arg == "--replica-id":
            replica_id = next(it, None)
            if not replica_id:
                print(usage)
                return 2
        elif arg == "--port":
            port = _number(next(it, None), int)
            if port is None:
                print(usage)
                return 2
        elif arg == "--workers":
            workers = _number(next(it, None), int)
            if workers is None or workers < 1:
                print(usage)
                return 2
        elif arg == "--max-connections":
            cap = _number(next(it, None), int)
            if cap is None:
                print(usage)
                return 2
            server_kwargs["max_connections"] = cap if cap > 0 else None
        elif arg == "--drain-timeout":
            value = _number(next(it, None), float)
            if value is None or value < 0:
                print(usage)
                return 2
            server_kwargs["drain_timeout"] = value
        elif arg == "--idle-timeout":
            value = _number(next(it, None), float)
            if value is None or value < 0:
                print(usage)
                return 2
            if value > 0:
                server_kwargs["idle_timeout"] = value
        elif image is None and not arg.startswith("-"):
            image = arg
        else:
            print(usage)
            return 2
    if host is None:
        print(usage)
        return 2
    if replica_of is not None:
        if image is not None or replicate:
            print(usage)
            return 2
        from repro.replication.replica import serve_replica

        primary_host, _, raw_port = replica_of.rpartition(":")
        primary_port = _number(raw_port, int)
        if not primary_host or primary_port is None:
            print(usage)
            return 2
        try:
            asyncio.run(serve_replica(
                primary_host, primary_port, host=host, port=port,
                workers=workers, replica_id=replica_id, **server_kwargs,
            ))
        except KeyboardInterrupt:
            print("\nshutting down")
        return 0
    if image is not None:
        try:
            db = Database.load(image)
        except (CorruptImageError, OSError) as exc:
            print(f"error: {exc}")
            return 2
    else:
        db = Database()
    if replicate and db.wal is None:
        # serve() installs the replication endpoint whenever a WAL is
        # attached; all --replicate must do is make sure one is.
        db.attach_wal()
    try:
        asyncio.run(serve(db, host=host, port=port, workers=workers,
                          **server_kwargs))
    except KeyboardInterrupt:
        # Signal handlers normally drain before this is reachable; a
        # second Ctrl-C mid-drain lands here.
        print("\nshutting down")
    return 0


def promote_command(args: list[str]) -> int:
    """``python -m repro promote HOST:PORT``: promote a replica to a
    writable primary (the replica stops its replication link, attaches a
    fresh WAL at its applied watermark, and starts accepting writes).

    Exit status: 0 on success, 1 when the server refused (not a replica,
    or not bootstrapped yet), 2 on bad arguments or connection failure.
    """
    from repro.errors import ServerError
    from repro.server.client import QueryClient

    usage = "usage: python -m repro promote HOST:PORT"
    if len(args) != 1 or ":" not in args[0]:
        print(usage)
        return 2
    host, _, raw_port = args[0].rpartition(":")
    try:
        port = int(raw_port)
    except ValueError:
        print(usage)
        return 2
    try:
        with QueryClient(host, port, connect_timeout=5.0,
                         response_timeout=30.0) as client:
            result = client.request({"op": "promote"})
    except OSError as exc:
        print(f"error: cannot reach {host}:{port}: {exc}")
        return 2
    except ServerError as exc:
        print(f"error: {exc}")
        return 1
    if result.get("promoted"):
        print(f"promoted: now a writable primary at LSN {result.get('lsn')}")
    else:
        print(f"already a primary (LSN {result.get('lsn')})")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: ``repro check|recover|repair|serve …`` or the REPL."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "check":
        if len(argv) != 2:
            print("usage: python -m repro check <image>")
            return 2
        return check_image(argv[1])
    if argv and argv[0] == "recover":
        if len(argv) not in (3, 4):
            print("usage: python -m repro recover <image|-> <wal> [out]")
            return 2
        return recover_image(argv[1], argv[2], argv[3] if len(argv) == 4 else None)
    if argv and argv[0] == "repair":
        if len(argv) not in (2, 3):
            print("usage: python -m repro repair <image> [out]")
            return 2
        return repair_image(argv[1], argv[2] if len(argv) == 3 else None)
    if argv and argv[0] == "serve":
        return serve_command(argv[1:])
    if argv and argv[0] == "promote":
        return promote_command(argv[1:])
    print("InsightNotes+ shell — \\help for commands, \\demo to load data")
    db = Database()
    while True:
        try:
            line = input(PROMPT)
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        try:
            output = repl_step(db, line, interruptible=True)
        except EOFError:
            return 0
        if output:
            print(output)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
