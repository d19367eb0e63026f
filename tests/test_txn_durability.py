"""Transaction-level write-ahead durability (PR 9).

Unit-level coverage for the post-commit txn sink, the journal byte
budget with auto-checkpoint-then-compact, the ``compact()`` fallback
when no on-disk image is intact, and graceful service shutdown.
The crash matrix (:mod:`tests.test_crash_matrix`) covers the
byte-level recovery sweeps; these tests pin the API behaviour.
"""

import json
import random
from collections import Counter

import pytest

from repro.core import RecoveryWarning, SchemaBuilder
from repro.core.errors import SeedError, StorageError
from repro.core.faults import FaultPlan
from repro.core.storage import JournaledDatabase, RecordFile, database_to_dict
from repro.core.versions.compaction import RetentionPolicy
from repro.multiuser.server import SeedServer
from repro.multiuser.service import SeedService, ServiceClient
from repro.spades.model import spades_schema
from repro.spades.tool import SpadesTool


def record_kinds(path) -> list:
    return [record.get("kind") for record in RecordFile(path).records()]


def canonical(db) -> str:
    return json.dumps(database_to_dict(db), sort_keys=True)


def item_schema():
    return SchemaBuilder("txn").entity_class("Item", sort="STRING").build()


@pytest.fixture
def journal(tmp_path):
    return JournaledDatabase.open(
        tmp_path / "txn.journal", schema=item_schema(), name="txn"
    )


class TestTxnSink:
    def test_each_commit_appends_one_txn_record(self, journal):
        db = journal.db
        db.create_object("Item", "A")  # commit 1
        db.get_object("A").set_value("v")  # commit 2
        with db.transaction():  # one commit, however many mutations
            db.create_object("Item", "B")
            db.create_object("Item", "C")
        assert journal.txn_deltas() == 3
        assert record_kinds(journal.path) == ["image", "txn", "txn", "txn"]

    def test_committed_work_survives_without_checkpoint(self, journal):
        journal.db.create_object("Item", "Direct").set_value("kept")
        # no checkpoint: the write-ahead deltas alone must carry it
        reopened = JournaledDatabase.open(journal.path)
        assert reopened.db.get_object("Direct").value == "kept"

    def test_rollback_appends_nothing(self, journal):
        with pytest.raises(RuntimeError, match="boom"):
            with journal.db.transaction():
                journal.db.create_object("Item", "Ghost")
                raise RuntimeError("boom")
        assert journal.txn_deltas() == 0
        reopened = JournaledDatabase.open(journal.path)
        assert reopened.db.find_object("Ghost") is None

    def test_read_only_commit_appends_nothing(self, journal):
        with journal.db.transaction():
            pass  # nothing touched
        assert journal.txn_deltas() == 0

    def test_sink_failure_propagates_commit_stays_live(self, journal):
        with FaultPlan().fail_io("txn.journal.pre_append"):
            with pytest.raises(OSError, match="injected"):
                journal.db.create_object("Item", "Unlogged")
        # the commit itself is not unwound: the object is live in
        # memory (only its durability is lost until the next append)
        assert journal.db.find_object("Unlogged") is not None
        journal.checkpoint()
        reopened = JournaledDatabase.open(journal.path)
        assert reopened.db.find_object("Unlogged") is not None

    def test_relationship_reclassify_replays_with_its_role_bindings(
        self, tmp_path
    ):
        # PR 12 regression: the txn-delta applier used to set a
        # re-classified relationship's association but not its role
        # bindings, so the reopened Write still bound role "data" and
        # imaging it raised KeyError: 'to'
        journal = JournaledDatabase.open(
            tmp_path / "spec.journal", schema=spades_schema(), name="spec"
        )
        tool = SpadesTool(db=journal.db)
        tool.note_thing("Alarms")
        tool.note_thing("Handler")
        flow = tool.note_dataflow("Alarms", "Handler")
        tool.refine_flow_to_write(flow, times=3)
        reopened = JournaledDatabase.open(journal.path)
        assert canonical(reopened.db) == canonical(journal.db)
        (write,) = reopened.db.relationships("Write")
        assert write.bound("to").simple_name == "Alarms"
        assert write.attribute("NumberOfWrites") == 3

    def test_suspension_is_reentrant(self, journal):
        with journal.suspended_txn_sink():
            with journal.suspended_txn_sink():
                journal.db.create_object("Item", "Quiet")
            journal.db.create_object("Item", "StillQuiet")
        journal.db.create_object("Item", "Loud")
        assert journal.txn_deltas() == 1


class TestCheckInInterplay:
    def test_checkin_apply_does_not_double_journal(self, tmp_path):
        server = SeedServer.open(
            tmp_path / "srv.journal", schema=item_schema()
        )
        alice = server.connect("alice")
        local = alice.check_out()
        local.create_object("Item", "FromAlice")
        alice.check_in()
        # the check-in delta is the journal record; the sink stayed
        # suspended while the package applied to the master
        assert server.journal.txn_deltas() == 0
        kinds = record_kinds(server.journal.path)
        assert kinds.count("checkin") == 1

    def test_direct_and_checkin_deltas_interleave(self, tmp_path):
        server = SeedServer.open(
            tmp_path / "srv.journal", schema=item_schema()
        )
        alice = server.connect("alice")
        local = alice.check_out()
        local.create_object("Item", "ByCheckIn")
        alice.check_in()
        server.master.create_object("Item", "ByTxn")
        reopened = JournaledDatabase.open(server.journal.path)
        assert reopened.db.find_object("ByCheckIn") is not None
        assert reopened.db.find_object("ByTxn") is not None


def _long_keys(state: dict) -> dict:
    """One encoded state under the pre-PR-12 check-in spellings."""
    legacy = {
        "class": "class_name",
        "parent": "parent_oid",
        "pattern": "is_pattern",
        "inherits": "inherited_pattern_oids",
        "association": "association_name",
    }
    return {legacy.get(key, key): value for key, value in state.items()}


class TestLegacyCheckinSpellings:
    """Journals written before the check-in codec was folded into the
    image state codec spell state keys the long way; they still replay."""

    def checked_in_journal(self, tmp_path):
        server = SeedServer.open(
            tmp_path / "srv.journal", schema=spades_schema()
        )
        tool = SpadesTool(db=server.master)
        tool.note_thing("Alarms")
        tool.note_thing("Handler")
        tool.note_dataflow("Alarms", "Handler")
        alice = server.connect("alice")
        local = alice.check_out("Alarms", "Handler")
        (flow,) = local.relationships("Access")
        flow.reclassify("Write")  # a modified relationship ...
        local.get_object("Alarms").add_sub_object("Note", "n")  # created object
        local.create_object("Action", "Fresh")
        alice.check_in()
        return server.journal.path

    def rewrite_checkins(self, path, respell):
        records = list(RecordFile(path).records())
        rewritten = 0
        for record in records:
            if record.get("kind") != "checkin":
                continue
            for entries in record["delta"].values():
                for entry in entries:
                    entry[1:] = [respell(state) for state in entry[1:]]
                    rewritten += len(entry) - 1
        RecordFile(path).rewrite(records)
        return rewritten

    def test_long_key_record_replays_to_the_same_image(self, tmp_path):
        path = self.checked_in_journal(tmp_path)
        expected = canonical(JournaledDatabase.open(path).db)
        assert self.rewrite_checkins(path, _long_keys) >= 4
        text = path.read_text()
        assert "association_name" in text and "inherited_pattern_oids" in text
        reopened = JournaledDatabase.open(path)
        assert reopened.recovery.applied_deltas == 1
        assert canonical(reopened.db) == expected

    @pytest.mark.parametrize(
        "damage",
        [
            lambda state: {**state, "colour": "red"},  # unknown key
            lambda state: {k: v for k, v in state.items() if k != "deleted"},
        ],
        ids=["unknown-key", "missing-key"],
    )
    def test_malformed_state_keys_raise_storage_error(self, tmp_path, damage):
        path = self.checked_in_journal(tmp_path)
        self.rewrite_checkins(path, damage)
        with pytest.raises(StorageError, match="malformed item state"):
            JournaledDatabase.open(path)


class TestByteBudget:
    def test_tail_bytes_tracks_superseded_prefix(self, journal):
        assert journal.tail_bytes() == journal._file.size_bytes()
        journal.db.create_object("Item", "A")
        journal.checkpoint()
        # everything before the new image is superseded
        assert journal.tail_bytes() < journal._file.size_bytes()
        journal.compact()
        assert journal.tail_bytes() == journal._file.size_bytes()

    def test_enforce_budget_checkpoints_then_compacts(self, journal):
        for index in range(20):
            journal.db.create_object("Item", f"M{index}")
        grown = journal._file.size_bytes()
        size = journal.enforce_budget(grown // 4)
        assert size < grown
        assert record_kinds(journal.path) == ["image"]
        reopened = JournaledDatabase.open(journal.path)
        assert reopened.db.find_object("M19") is not None

    def test_enforce_budget_under_budget_is_noop(self, journal):
        journal.db.create_object("Item", "A")
        before = record_kinds(journal.path)
        journal.enforce_budget(10**9)
        assert record_kinds(journal.path) == before

    def test_auto_compaction_bounds_the_file(self, tmp_path):
        path = tmp_path / "bounded.journal"
        journal = JournaledDatabase.open(
            path, schema=item_schema(), name="b", byte_budget=20_000
        )
        high_water = 0
        for index in range(120):
            journal.db.create_object("Item", f"M{index}")
            high_water = max(high_water, journal._file.size_bytes())
        # the budget self-enforces on the commit path: the transient
        # peak is one full tail plus the checkpoint image, < 2x budget
        # as long as an image fits in the budget
        assert high_water < 2 * 20_000
        reopened = JournaledDatabase.open(path)
        assert reopened.db.find_object("M119") is not None

    def test_an_image_over_budget_waits_for_its_deltas(
        self, tmp_path, monkeypatch
    ):
        # a base image larger than the budget: a checkpoint per commit
        # would rewrite the whole file each time, so one waits until the
        # deltas after the base are as large as the image
        journal = JournaledDatabase.open(
            tmp_path / "big.journal", schema=item_schema(), name="b"
        )
        with journal.db.transaction():
            for index in range(120):
                journal.db.create_object("Item", f"B{index}").set_value("x" * 40)
        image = journal.save_point()
        journal.byte_budget = image // 2
        calls = {"checkpoint": 0, "compact": 0}

        def counted(name):
            real = getattr(JournaledDatabase, name)

            def call(self, *args, **kwargs):
                calls[name] += 1
                return real(self, *args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(JournaledDatabase, name, counted(name))
        sizes = []
        for index in range(100):
            journal.db.create_object("Item", f"M{index}")  # one commit
            sizes.append(journal._file.size_bytes())
        delta = max(b - a for a, b in zip([image, *sizes], sizes))
        # one checkpoint per image's worth of deltas, not one per commit
        assert 1 <= calls["checkpoint"] <= 100 * delta // image + 1
        # and no rewrite of a file that has nothing superseded
        assert calls["compact"] == calls["checkpoint"]
        assert max(sizes) < 2 * image + 2 * delta
        reopened = JournaledDatabase.open(journal.path)
        assert reopened.db.find_object("M99") is not None

    def test_checkin_path_enforces_budget(self, tmp_path):
        server = SeedServer.open(
            tmp_path / "srv.journal",
            schema=item_schema(),
            byte_budget=6_000,
        )
        for index in range(12):
            client = server.connect(f"c{index}")
            local = client.check_out()
            local.create_object("Item", f"W{index}")
            client.check_in()
            assert server.journal._file.size_bytes() < 2 * 6_000
        reopened = JournaledDatabase.open(server.journal.path)
        assert reopened.db.find_object("W11") is not None

    def test_the_stated_bound_holds_while_the_image_outgrows_the_budget(
        self, tmp_path
    ):
        """``enforce_budget``'s bound, ``max(budget, 2 * image - 1)``
        bytes with *image* the size of the base unit, after every write
        of a server whose image grows to many times its budget: direct
        transactions, applied and rejected check-ins, versions and
        maintenance."""
        budget = 6_000
        server = SeedServer.open(
            tmp_path / "grown.journal", schema=item_schema(), byte_budget=budget
        )
        journal, master = server.journal, server.master
        rng = random.Random(4)
        seen = Counter()
        size = journal._file.size_bytes()  # noqa: SLF001
        for index in range(300):
            roll = rng.random()
            if roll < 0.4:
                with master.transaction():
                    item = master.create_object("Item", f"T{index}")
                    item.set_value("x" * rng.randint(5, 60))
            elif roll < 0.85:
                client = server.connect(f"c{index}")
                if roll < 0.7:
                    client.check_out().create_object("Item", f"C{index}")
                    client.check_in()
                else:
                    name = rng.choice(master.objects("Item")).name
                    local = client.check_out(name)
                    master.get_object(name).set_value(f"raced {index}")
                    local.get_object(name).set_value("too late")
                    with pytest.raises(SeedError):
                        client.check_in()
                    seen["rejected"] += 1
                server.disconnect(f"c{index}")
            elif roll < 0.95:
                master.create_version()
            else:
                server.maintain()
            before, size = size, journal._file.size_bytes()  # noqa: SLF001
            base = journal._base  # noqa: SLF001
            image = base.end - base.offset
            assert size <= max(budget, 2 * image - 1), (index, size, image)
            if size < before:
                seen["shrunk, image over budget" if image > budget else "shrunk"] += 1
        assert image > 5 * budget
        assert seen["rejected"] and seen["shrunk"] and seen["shrunk, image over budget"]
        expected = canonical(master)
        journal.close()
        assert canonical(JournaledDatabase.open(journal.path).db) == expected

    def test_maintain_enforces_policy_budget(self, tmp_path):
        # the budget has one home, the journal: maintain() enforces
        # whatever the journal carries (no policy field any more)
        server = SeedServer.open(
            tmp_path / "srv.journal", schema=item_schema(),
            byte_budget=10**9,
        )
        for index in range(20):
            server.master.create_object("Item", f"M{index}")
        grown = server.journal._file.size_bytes()
        assert len(record_kinds(server.journal.path)) == 21
        server.journal.byte_budget = grown // 4
        server.maintain()
        assert server.journal._file.size_bytes() < grown
        assert record_kinds(server.journal.path) == ["image"]
        assert not hasattr(RetentionPolicy(), "journal_byte_budget")

    def test_maintain_without_budget_only_flushes(self, tmp_path):
        server = SeedServer.open(
            tmp_path / "srv.journal", schema=item_schema()
        )
        for index in range(5):
            server.master.create_object("Item", f"M{index}")
        before = record_kinds(server.journal.path)
        server.maintain()
        assert record_kinds(server.journal.path) == before

    def test_policy_rejects_non_positive_budget(self, tmp_path):
        # the positive-value check moved with the value
        for bad in (0, -1):
            with pytest.raises(StorageError, match="byte_budget"):
                JournaledDatabase.open(
                    tmp_path / "bad.journal", schema=item_schema(),
                    byte_budget=bad,
                )
            with pytest.raises(StorageError, match="byte_budget"):
                SeedServer.open(
                    tmp_path / "bad.journal", schema=item_schema(),
                    byte_budget=bad,
                )
        assert not (tmp_path / "bad.journal").exists()


class TestCompactFallback:
    def test_compact_without_intact_image_keeps_live_state(self, journal):
        journal.db.create_object("Item", "Survivor").set_value("alive")
        # damage the only on-disk image (record 0) under the live handle
        data = bytearray(journal.path.read_bytes())
        data[20] ^= 0xFF
        journal.path.write_bytes(bytes(data))
        with pytest.warns(RecoveryWarning, match="no intact image"):
            journal.compact()
        assert record_kinds(journal.path) == ["image"]
        reopened = JournaledDatabase.open(journal.path)
        assert reopened.db.get_object("Survivor").value == "alive"

    def test_compact_keeps_newest_intact_image_and_tail(self, journal):
        journal.db.create_object("Item", "A")
        journal.checkpoint()
        journal.db.create_object("Item", "B")  # post-image txn delta
        journal.compact()
        assert record_kinds(journal.path) == ["image", "txn"]
        reopened = JournaledDatabase.open(journal.path)
        assert reopened.db.find_object("A") is not None
        assert reopened.db.find_object("B") is not None


class TestGracefulStop:
    def _stop(self, service, **kwargs) -> None:
        service.stop(**kwargs)

    def test_stop_drains_and_flushes(self, tmp_path):
        server = SeedServer.open(
            tmp_path / "svc.journal", schema=item_schema()
        )
        service = SeedService(server)
        with service:
            with ServiceClient.for_service(service, "alice") as alice:
                local = alice.check_out()
                local.create_object("Item", "Drained")
                alice.check_in()
            self._stop(service, drain_timeout_s=10.0, final_checkpoint=True)
            # final flush: one fresh image, nothing else
            assert record_kinds(server.journal.path) == ["image"]
        reopened = JournaledDatabase.open(server.journal.path)
        assert reopened.db.find_object("Drained") is not None

    def test_stop_refuses_new_connections(self, tmp_path):
        server = SeedServer.open(
            tmp_path / "svc.journal", schema=item_schema()
        )
        service = SeedService(server)
        with service:
            self._stop(service, drain_timeout_s=5.0)
            with pytest.raises(OSError):
                ServiceClient.for_service(service, "late")

    def test_stop_is_idempotent(self, tmp_path):
        server = SeedServer.open(
            tmp_path / "svc.journal", schema=item_schema()
        )
        service = SeedService(server)
        with service:
            self._stop(service, final_checkpoint=True)
            self._stop(service, final_checkpoint=True)  # no-op

    def test_stop_without_flush_leaves_journal_as_is(self, tmp_path):
        server = SeedServer.open(
            tmp_path / "svc.journal", schema=item_schema()
        )
        service = SeedService(server)
        with service:
            with ServiceClient.for_service(service, "alice") as alice:
                local = alice.check_out()
                local.create_object("Item", "Plain")
                alice.check_in()
            self._stop(service, drain_timeout_s=5.0)
            kinds = record_kinds(server.journal.path)
            assert "checkin" in kinds  # not flattened to an image
        reopened = JournaledDatabase.open(server.journal.path)
        assert reopened.db.find_object("Plain") is not None
