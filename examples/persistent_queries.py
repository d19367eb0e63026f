#!/usr/bin/env python
"""Persistence and the ER-algebra query extension.

Builds a specification, saves it through the journaled storage engine,
reloads it in a "second process", and answers analysis questions with
the entity-relationship algebra (the paper's prototype stopped at
retrieval by name; the algebra is the extension its related-work section
points to).

Run:  python examples/persistent_queries.py
"""

import tempfile
from pathlib import Path

from repro.core import SchemaBuilder
from repro.core.query import Retrieval, extent, relationship_relation
from repro.core.query.predicates import participates_in
from repro.core.storage import JournaledDatabase, load_database, save_database
from repro.spades import SpadesTool, parse_spec, spades_schema

SPEC = """
data ProcessData input
data Alarms output
data AuditLog output
action Sensor "reads hardware sensors"
action AlarmHandler "handles alarms"
action Auditor "writes the audit trail"
read Sensor <- ProcessData
write Sensor -> ProcessData
read AlarmHandler <- ProcessData
write AlarmHandler -> Alarms x2 repeat
read Auditor <- Alarms
write Auditor -> AuditLog
read AlarmHandler <- AuditLog
contain AlarmHandler (Sensor)
"""


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="seed-example-"))
    path = workdir / "spec.seed"

    # ------------------------------------------------------------------
    # process 1: author the specification and persist it
    # ------------------------------------------------------------------
    tool = parse_spec(SPEC, SpadesTool("persisted"))
    tool.db.create_version()
    size = save_database(tool.db, path)
    print(f"saved {tool.db.statistics()['objects']} objects "
          f"({size} bytes) to {path.name}")

    # ------------------------------------------------------------------
    # process 2: reload and analyse
    # ------------------------------------------------------------------
    db = load_database(path)
    print("reloaded:", db)

    retrieval = Retrieval(db)
    print("\nwriters (simple retrieval):",
          [o.simple_name for o in retrieval.instances(
              "Action", participates_in("Write", "by"))])

    # -- ER algebra: who reads what somebody else writes? --------------
    reads = relationship_relation(db, "Read").rename(**{"from": "data", "by": "reader"})
    writes = relationship_relation(db, "Write").rename(to="data", by="writer")
    handoffs = reads.join(writes).select(
        lambda row: row["reader"] is not row["writer"]
    )
    print("\ndata handoffs (reader <- data <- writer):")
    for row in handoffs:
        print(f"  {row['reader'].simple_name} <- "
              f"{row['data'].simple_name} <- {row['writer'].simple_name}")

    # -- attribute columns ----------------------------------------------
    detailed = relationship_relation(
        db, "Write", with_attributes=["NumberOfWrites", "ErrorHandling"]
    )
    print("\nwrite details:")
    for row in detailed:
        print(f"  {row['by'].simple_name} -> {row['to'].simple_name}: "
              f"times={row['NumberOfWrites']}, on-error={row['ErrorHandling']}")

    # -- set operations ---------------------------------------------------
    readers = reads.project("reader").rename(reader="action")
    writers = writes.project("writer").rename(writer="action")
    read_only = readers.difference(writers)
    print("\nactions that only read:",
          [o.simple_name for o in read_only.distinct_objects("action")])
    either = readers.union(writers)
    print("actions that read or write:",
          [o.simple_name for o in either.distinct_objects("action")])

    # ------------------------------------------------------------------
    # journaled mode: every committed mutation survives a crash
    # ------------------------------------------------------------------
    journal_path = workdir / "journal.seed"
    journal = JournaledDatabase.open(journal_path, schema=spades_schema())
    journal.db.create_object("Module", "ReportGenerator")
    journal.checkpoint()
    # direct mutations are write-ahead durable the moment they commit:
    # the journal appends a txn delta, no checkpoint call needed —
    # kill -9 here and the next open still has the Archiver
    journal.db.create_object("Module", "Archiver")
    with journal.db.transaction():  # multi-step commits are one delta
        journal.db.create_object("Module", "Indexer")
        journal.db.create_object("Module", "Notifier")
    print(f"\njournal: {journal.checkpoints()} checkpoint(s) + "
          f"{journal.txn_deltas()} txn delta(s), "
          f"{journal.compact()} bytes after compaction")
    reopened = JournaledDatabase.open(journal_path)  # the "crash"
    print("recovered modules:",
          sorted(m.simple_name for m in reopened.db.objects("Module")))

    # ------------------------------------------------------------------
    # every mutation is a journaled delta: even a schema migration
    # survives a crash with zero checkpoint calls — the migration
    # appends one write-ahead "schema" record through the same change
    # seam the txn deltas use, and replay re-applies it in file order
    # ------------------------------------------------------------------
    evolve_path = workdir / "evolving.seed"
    v1 = SchemaBuilder("evolving").entity_class("Module", sort="STRING").build()
    evolving = JournaledDatabase.open(evolve_path, schema=v1, name="evolving")
    evolving.db.create_object("Module", "Core")
    v2 = (
        SchemaBuilder("evolving")
        .entity_class("Module", sort="STRING")
        .entity_class("Interface", sort="STRING")
        .build()
    )
    evolving.db.migrate_schema(v2)  # one "schema" delta, no checkpoint
    evolving.db.create_object("Interface", "CoreApi")  # only legal in v2
    recovered = JournaledDatabase.open(evolve_path)  # the "crash"
    assert recovered.checkpoints() == 1  # just the initial empty image
    print(f"\nafter migration crash: schema knows "
          f"{recovered.db.schema.entity_class('Interface').name!r}, "
          f"{recovered.recovery.applied_change_deltas} change delta(s) "
          "replayed, zero checkpoints written")
    print("recovered items:",
          sorted(o.simple_name for o in recovered.db.objects()))


if __name__ == "__main__":
    main()
