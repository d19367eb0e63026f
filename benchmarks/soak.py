"""Durability soak: sustained mixed writes against a bounded journal.

Drives a journal-bound :class:`~repro.multiuser.server.SeedServer`
through a long, deterministic mix of direct transactions (the txn
write-ahead path), check-out/check-in cycles (the check-in delta
path), rejected check-ins (abort markers), and periodic maintenance —
all with a ``byte_budget`` set, so the journal must keep itself
bounded by auto-checkpoint-then-compact while the workload runs.
Optionally the mix also carries schema migrations and version
snapshot/restore cycles (the PR-10 ``schema`` / ``version`` /
``restore`` change deltas), so they interleave with ``txn`` and
check-in records across compaction cycles.

The driver only *observes* (high-water file size, compaction count);
the assertions live in ``benchmarks/test_soak.py`` and the nightly CI
job, which also runs ``repro fsck`` over the file the soak leaves
behind. Import it with ``benchmarks/`` on the path
(``PYTHONPATH=src:benchmarks``, then ``from soak import
run_durability_soak``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro.core import SchemaBuilder
from repro.core.errors import SeedError
from repro.multiuser.server import SeedServer

__all__ = ["SoakResult", "run_durability_soak", "soak_schema"]


def soak_schema(extra_classes: int = 0):
    """The soak's schema: string-valued items.

    *extra_classes* > 0 returns the migrated shape the soak's schema-
    migration ops walk through: the same ``Item`` class plus that many
    ``ExtraN`` classes (migrations are cumulative and additive, so
    every earlier shape's items stay valid).
    """
    builder = SchemaBuilder("soak").entity_class("Item", sort="STRING")
    for index in range(extra_classes):
        builder.entity_class(f"Extra{index}", sort="STRING")
    return builder.build()


@dataclass
class SoakResult:
    """What one soak run did and how the journal behaved."""

    transactions: int  #: direct commits through the txn sink
    checkins: int  #: accepted check-in packages
    rejected: int  #: stale check-ins (abort markers in the journal)
    maintenance_runs: int
    byte_budget: int
    high_water_bytes: int  #: largest file size ever observed
    final_bytes: int
    compactions: int  #: observed file shrinks (auto or maintenance)
    items: int  #: live objects at the end
    migrations: int = 0  #: applied schema migrations (``schema`` deltas)
    restores: int = 0  #: version snapshot+restore cycles (``restore``)

    def summary(self) -> str:
        extras = ""
        if self.migrations or self.restores:
            extras = (
                f", {self.migrations} migration(s), "
                f"{self.restores} restore(s)"
            )
        return (
            f"{self.transactions} txn(s), {self.checkins} check-in(s) "
            f"(+{self.rejected} rejected), {self.compactions} "
            f"compaction(s){extras}; journal peaked at "
            f"{self.high_water_bytes} bytes against a "
            f"{self.byte_budget}-byte budget"
        )


def run_durability_soak(
    path: str | Path,
    *,
    transactions: int = 240,
    checkins: int = 60,
    byte_budget: int = 24_000,
    maintain_every: int = 16,
    seed: int = 0,
    migrations: int = 0,
    restores: int = 0,
) -> SoakResult:
    """Run the soak; returns observations for the caller to assert on.

    Deterministic for a given *seed*. Direct transactions mostly
    rewrite values in a fixed pool of items (so the image stays small
    relative to *byte_budget* and the journal's churn is genuinely
    superseded work); check-ins add fresh items; every
    *maintain_every* accepted check-ins the server runs a maintenance
    pass. One in each eight check-ins is made stale on purpose to leave
    abort markers in the stream. *migrations* schema migrations
    (additive, cumulative — see :func:`soak_schema`) and *restores*
    version snapshot+restore cycles are shuffled into the same op
    stream, so their ``schema`` / ``version`` / ``restore`` deltas land
    interleaved with txn and check-in records across compaction
    boundaries.
    """
    rng = random.Random(seed)
    server = SeedServer.open(
        path,
        schema=soak_schema(),
        name="soak",
        byte_budget=byte_budget,
    )
    master = server.master
    pool = [f"Item{index:02d}" for index in range(24)]
    with master.bulk():
        for name in pool:
            master.create_object("Item", name).set_value("fresh")
    journal = server.journal
    high_water = journal._file.size_bytes()  # noqa: SLF001 - observation
    last_size = high_water
    compactions = 0
    rejected = 0
    accepted = 0
    checkin_no = 0

    def observe() -> None:
        nonlocal high_water, last_size, compactions
        size = journal._file.size_bytes()  # noqa: SLF001 - observation
        high_water = max(high_water, size)
        if size < last_size:
            compactions += 1
        last_size = size

    migrated = 0
    restored = 0
    ops: list[str] = (
        ["txn"] * transactions
        + ["checkin"] * checkins
        + ["migrate"] * migrations
        + ["restore"] * restores
    )
    rng.shuffle(ops)
    for index, op in enumerate(ops):
        if op == "txn":
            name = rng.choice(pool)
            with master.transaction():
                master.get_object(name).set_value(f"v{index}")
        elif op == "migrate":
            # each migration adds one more ExtraN class; the schema
            # delta replays without a checkpoint
            migrated += 1
            master.migrate_schema(soak_schema(extra_classes=migrated))
        elif op == "restore":
            # snapshot, churn one item, then rebase back onto the
            # snapshot: one version delta plus one restore delta
            vid = master.create_version()
            name = rng.choice(pool)
            with master.transaction():
                master.get_object(name).set_value(f"pre-restore{index}")
            master.select_version(vid, discard_changes=True)
            restored += 1
        else:
            client = server.connect(f"worker-{index}")
            checkin_no += 1
            make_stale = checkin_no % 8 == 0
            if make_stale:
                # a direct master mutation of a checked-out object
                # invalidates the client's baseline: its check-in
                # arrives stale, is rejected, and leaves an abort
                # marker paired with the write-ahead delta
                name = rng.choice(pool)
                local = client.check_out(name)
                with master.transaction():
                    master.get_object(name).set_value(f"raced{index}")
                observe()
                local.get_object(name).set_value("too late")
                try:
                    client.check_in()
                except SeedError:
                    rejected += 1
                else:  # pragma: no cover - the race must reject
                    raise AssertionError("stale check-in was accepted")
                client.abandon()
            else:
                local = client.check_out()
                local.create_object("Item", f"New{index}")
                client.check_in()
                accepted += 1
            server.disconnect(f"worker-{index}")
        observe()
        if maintain_every and index and index % maintain_every == 0:
            server.maintain()
            observe()

    return SoakResult(
        transactions=transactions,
        checkins=accepted,
        rejected=rejected,
        maintenance_runs=server.maintenance_runs,
        byte_budget=byte_budget,
        high_water_bytes=high_water,
        final_bytes=journal._file.size_bytes(),  # noqa: SLF001
        compactions=compactions,
        items=len(master.objects("Item")),
        migrations=migrated,
        restores=restored,
    )
