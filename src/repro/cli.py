"""Command-line interface: work with SEED databases and SPADES specs.

Usage (also via ``python -m repro``)::

    python -m repro load SPEC.spades -o DB.seed    # spec text -> database
    python -m repro report DB.seed                 # workspace summary
    python -m repro completeness DB.seed           # what is still missing
    python -m repro flows DB.seed                  # dataflow report
    python -m repro history DB.seed [NAME]         # version tree / cluster
    python -m repro snapshot DB.seed [-v VERSION]  # create a version
    python -m repro compact DB.seed [--pin VERSION] [--dry-run]
                                                   # squash, consolidate, collect
    python -m repro print DB.seed                  # database -> spec text
    python -m repro ddl DB.seed                    # schema as DDL text
    python -m repro query DB.seed --extent Data --prefix Alarm --via Access
                                                   # planned ER-algebra query
    python -m repro fsck DB.seed [--salvage]       # verify / repair storage
    python -m repro serve DB.journal [--port P] [--journal-byte-budget BYTES]
                                                   # multi-user wire service

The CLI operates on the SPADES schema (the paper's application); it is a
thin layer over the library so scripted use mirrors programmatic use.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.errors import SeedError
from repro.core.schema.ddl import print_ddl
from repro.core.storage import load_database, save_database
from repro.spades import (
    SpadesTool,
    parse_spec,
    print_spec,
    render_version_history,
    render_workspace_summary,
)

__all__ = ["main"]

#: on SIGTERM/SIGINT, ``repro serve`` waits up to this many seconds for
#: in-flight check-ins before it closes
DRAIN_TIMEOUT_S = 10.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SEED (ICDE 1986) reproduction - specification databases",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    load = commands.add_parser("load", help="parse a spec script into a database")
    load.add_argument("spec", type=Path, help="specification text file")
    load.add_argument("-o", "--output", type=Path, required=True,
                      help="database file to write")

    for name, help_text in (
        ("report", "one-screen workspace summary"),
        ("completeness", "completeness analysis report"),
        ("flows", "dataflow report"),
        ("print", "regenerate the specification text"),
        ("ddl", "print the schema as DDL text"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("database", type=Path, help="database file")

    history = commands.add_parser("history", help="version tree or item cluster")
    history.add_argument("database", type=Path)
    history.add_argument("name", nargs="?", default=None,
                         help="object name for a per-item version cluster")

    snapshot = commands.add_parser("snapshot", help="create a version")
    snapshot.add_argument("database", type=Path)
    snapshot.add_argument("-v", "--version", default=None,
                          help="explicit decimal version id (e.g. 2.0)")

    compact = commands.add_parser(
        "compact",
        help="compact the version store under the server's maintenance "
             "policy and rewrite the file as one image")
    compact.add_argument("database", type=Path)
    compact.add_argument("--pin", action="append", default=[],
                         metavar="VERSION",
                         help="protect a version from squashing "
                              "(repeatable)")
    compact.add_argument("--dry-run", action="store_true",
                         help="report store statistics without compacting")

    fsck = commands.add_parser(
        "fsck",
        help="verify a database/journal file's record integrity")
    fsck.add_argument("database", type=Path, help="database or journal file")
    fsck.add_argument("--salvage", action="store_true",
                      help="repair in place: quarantine corrupt byte ranges "
                           "into a .corrupt sidecar, keep intact records")
    fsck.add_argument("--quarantine", type=Path, default=None,
                      metavar="PATH",
                      help="where to write the quarantine sidecar "
                           "(default: <file>.corrupt)")

    serve = commands.add_parser(
        "serve",
        help="serve a journal-bound database to concurrent wire clients "
             "(one thread per connection)")
    serve.add_argument("journal", type=Path,
                       help="journal file (created if missing)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7844,
                       help="TCP port (default: 7844; 0 = ephemeral)")
    serve.add_argument("--lease-seconds", type=float, default=30.0,
                       metavar="S",
                       help="write-lock lease; a silent client's locks are "
                            "reclaimable after S seconds (default: 30)")
    serve.add_argument("--session-seconds", type=float, default=300.0,
                       metavar="S",
                       help="idle session expiry (default: 300)")
    serve.add_argument("--maintain-every", type=int, default=8, metavar="N",
                       help="compaction after every N accepted "
                            "check-ins (default: 8; 0 = never)")
    serve.add_argument("--journal-byte-budget", type=int, default=None,
                       metavar="BYTES",
                       help="auto-checkpoint-and-compact the journal "
                            "whenever it exceeds BYTES (default: "
                            "unbounded)")

    query = commands.add_parser(
        "query", help="run a planned ER-algebra query (cost-based planner)")
    query.add_argument("database", type=Path, help="database file")
    query.add_argument("--extent", metavar="CLASS",
                       help="scan the extent of a class")
    query.add_argument("--prefix", metavar="PREFIX",
                       help="name-prefix selection on the extent "
                            "(rewritten into an indexed scan)")
    query.add_argument("--via", metavar="ASSOC",
                       help="join the extent with an association "
                            "(extent column takes the first role name)")
    query.add_argument("--association", metavar="ASSOC",
                       help="scan an association's instances directly")
    query.add_argument("--explain", action="store_true",
                       help="print the optimized plan tree before the rows")
    return parser


def _open_tool(path: Path) -> SpadesTool:
    return SpadesTool(db=load_database(path))


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (SeedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "load":
        tool = parse_spec(args.spec.read_text())
        tool.db.create_version()
        size = save_database(tool.db, args.output)
        stats = tool.db.statistics()
        print(
            f"loaded {stats['objects']} objects, "
            f"{stats['relationships']} relationships -> "
            f"{args.output} ({size} bytes)"
        )
        return 0
    if args.command == "report":
        print(render_workspace_summary(_open_tool(args.database)))
        return 0
    if args.command == "completeness":
        report = _open_tool(args.database).completeness_report()
        print(report.render())
        return 0 if report.is_complete else 2
    if args.command == "flows":
        for line in _open_tool(args.database).dataflow_report():
            print(line)
        return 0
    if args.command == "print":
        print(print_spec(_open_tool(args.database)), end="")
        return 0
    if args.command == "ddl":
        print(print_ddl(load_database(args.database).schema), end="")
        return 0
    if args.command == "history":
        db = load_database(args.database)
        print(render_version_history(db, args.name))
        return 0
    if args.command == "snapshot":
        db = load_database(args.database)
        version = db.create_version(args.version)
        save_database(db, args.database)
        print(f"saved version {version}")
        return 0
    if args.command == "compact":
        return _run_compact(args)
    if args.command == "fsck":
        return _run_fsck(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "query":
        return _run_query(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def _run_compact(args: argparse.Namespace) -> int:
    """Compact a database's version store and report what changed.

    The policy is the server's (``DEFAULT_MAINTENANCE``) plus the
    user's pins. The file is opened as a journal and saved as one
    image, whether it held one image or a journal with a delta tail.
    ``--dry-run`` only loads.
    """
    from dataclasses import replace

    from repro.core.storage import JournaledDatabase
    from repro.core.versions.compaction import DEFAULT_MAINTENANCE

    def store_stats(db) -> str:
        stats = db.statistics()
        return (
            f"{stats['saved_versions']} versions, "
            f"{stats['stored_states']} stored states, "
            f"{db.versions.store.cell_count()} cells, "
            f"{stats['snapshot_versions']} snapshots"
        )

    if args.dry_run:
        print(f"before: {store_stats(load_database(args.database))}")
        return 0
    journal = JournaledDatabase.open(args.database)
    try:
        print(f"before: {store_stats(journal.db)}")
        result = journal.db.compact(
            replace(DEFAULT_MAINTENANCE, pins=frozenset(args.pin))
        )
        size = journal.save_point()
        print(f"compacted: {result.summary()}")
        print(f"after:  {store_stats(journal.db)} ({size} bytes on disk)")
    finally:
        journal.close()
    return 0


def _run_fsck(args: argparse.Namespace) -> int:
    """Verify (and with ``--salvage`` repair) a record file.

    Exit codes: 0 clean (or salvaged), 1 error, 2 corruption found in
    report-only mode — mirroring ``completeness``'s 2-means-findings.
    """
    from repro.core.storage import RecordFile
    from repro.core.storage.engine import KNOWN_RECORD_KINDS

    record_file = RecordFile(args.database)
    if not record_file.exists():
        raise SeedError(f"no database file at {args.database}")
    events = list(record_file.decoded())  # the one scan everything below folds
    report = record_file.verify(events)
    print(report.render())
    # unknown record kinds (a journal written by a newer build) are
    # intact records — report them as advisory, never as corruption
    unknown: dict[str, int] = {}
    for event in events:
        if event.kind != "record" or not isinstance(event.record, dict):
            continue
        kind = event.record.get("kind")
        if kind not in KNOWN_RECORD_KINDS:
            unknown[str(kind)] = unknown.get(str(kind), 0) + 1
    for kind, count in sorted(unknown.items()):
        print(
            f"note: {count} intact record(s) of unknown kind {kind!r} "
            "(written by a newer build?) — loads skip them with a "
            "RecoveryWarning"
        )
    if report.is_clean:
        return 0
    if not args.salvage:
        if report.tail_problem is not None and report.tail_is_torn:
            # a torn tail is ordinary crash recovery: the next load
            # ignores it, no repair required
            print("torn tail only: loads recover automatically")
            return 0
        print("corruption found: re-run with --salvage to repair")
        return 2
    salvaged = record_file.salvage(args.quarantine)
    quarantine = args.quarantine or args.database.with_name(
        args.database.name + ".corrupt"
    )
    print(
        f"salvaged: kept {salvaged.intact_records} record(s), "
        f"quarantined {salvaged.corrupt_bytes} byte(s) -> {quarantine}"
    )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Serve a journal-bound SPADES database over the wire protocol.

    The service serves each client connection on its own thread; this
    thread only waits for SIGTERM/SIGINT. Every accepted check-in is
    durable in the journal before it is acknowledged, so a killed
    server restarts from its last acknowledged state.  On a signal the
    service shuts down gracefully: it refuses new connections, drains
    in-flight check-ins (up to ``DRAIN_TIMEOUT_S`` seconds), writes a
    final checkpoint, compacts the journal, and exits 0.
    """
    import signal
    import threading

    from repro.multiuser.server import SeedServer
    from repro.multiuser.service import SeedService
    from repro.spades import spades_schema

    server = SeedServer.open(
        args.journal,
        schema=spades_schema(),
        lease_seconds=args.lease_seconds,
        session_seconds=args.session_seconds,
        byte_budget=args.journal_byte_budget,
    )
    service = SeedService(
        server,
        host=args.host,
        port=args.port,
        maintain_every=args.maintain_every,
    )
    shutdown = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *__: shutdown.set())
    service.start_in_thread()
    stats = server.master.statistics()
    print(
        f"serving {args.journal} on {service.host}:{service.port} "
        f"({stats['objects']} objects, "
        f"{stats['relationships']} relationships; "
        f"lease {args.lease_seconds}s, session {args.session_seconds}s)"
    )
    shutdown.wait()
    # graceful: stop() closes the listener first (refusing new
    # connections), drains in-flight check-ins, then runs the final
    # checkpoint + compaction before closing the journal
    service.stop(drain_timeout_s=DRAIN_TIMEOUT_S, final_checkpoint=True)
    print(
        f"stopped: {server.checkins_applied} check-in(s) applied, "
        f"{server.checkins_rejected} rejected, "
        f"{service.reads_served} snapshot read(s) served"
    )
    return 0


def _run_query(args: argparse.Namespace) -> int:
    """Build, optionally explain, and execute a planned query."""
    from repro.core.errors import QueryError
    from repro.core.objects import SeedObject
    from repro.core.query.planner import on, plan
    from repro.core.query.predicates import name_prefix

    db = load_database(args.database)
    if args.extent and args.association:
        raise QueryError("use either --extent or --association, not both")
    if args.association and (args.prefix or args.via):
        raise QueryError("--prefix/--via apply to --extent queries only")
    if args.extent:
        column = args.extent.lower()
        if args.via:
            # name the extent column after the association role that
            # accepts the extent's class, so the natural join targets
            # the right end (first role wins for self-associations)
            wanted = db.schema.entity_class(args.extent)
            association = db.schema.association(args.via)
            matching = [
                role.name
                for role in association.roles
                if role.accepts(wanted) or role.target.is_kind_of(wanted)
            ]
            if not matching:
                raise QueryError(
                    f"class {args.extent!r} is bound at no role of "
                    f"{args.via!r} (roles: "
                    f"{', '.join(str(r) for r in association.roles)})"
                )
            column = matching[0]
        query = plan(db).extent(args.extent, column=column)
        if args.prefix:
            query = query.select(on(column, name_prefix(args.prefix)))
        if args.via:
            query = query.join(plan(db).relationship(args.via))
    elif args.association:
        query = plan(db).relationship(args.association)
    else:
        raise QueryError("query needs --extent CLASS or --association ASSOC")
    if args.explain:
        print(query.explain())
        print()
    result = query.execute()
    print("\t".join(result.columns))
    for row in result.rows:
        print(
            "\t".join(
                str(cell.name) if isinstance(cell, SeedObject) else str(cell)
                for cell in row
            )
        )
    print(f"({len(result)} rows)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
