"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.core.schema import print_ddl
from repro.spades import spades_schema

SPEC = """
data Alarms output
action Handler "handles alarms"
write Handler -> Alarms x2
read Handler <- Alarms
"""


@pytest.fixture
def db_file(tmp_path):
    spec_path = tmp_path / "alarm.spades"
    spec_path.write_text(SPEC)
    db_path = tmp_path / "alarm.seed"
    assert main(["load", str(spec_path), "-o", str(db_path)]) == 0
    return db_path


class TestCommands:
    def test_load_creates_database(self, db_file):
        assert db_file.exists()
        from repro.core.storage import load_database

        db = load_database(db_file)
        assert db.find_object("Alarms") is not None
        assert db.saved_versions()  # load snapshots an initial version

    def test_report(self, db_file, capsys):
        assert main(["report", str(db_file)]) == 0
        out = capsys.readouterr().out
        assert "completeness:" in out

    def test_completeness_exit_code(self, db_file, capsys):
        code = main(["completeness", str(db_file)])
        out = capsys.readouterr().out
        assert code == 0  # the little spec is complete
        assert "complete" in out

    def test_flows(self, db_file, capsys):
        assert main(["flows", str(db_file)]) == 0
        out = capsys.readouterr().out
        assert "W Handler writes Alarms x2" in out

    def test_print_roundtrips(self, db_file, capsys, tmp_path):
        assert main(["print", str(db_file)]) == 0
        text = capsys.readouterr().out
        spec2 = tmp_path / "again.spades"
        spec2.write_text(text)
        db2 = tmp_path / "again.seed"
        assert main(["load", str(spec2), "-o", str(db2)]) == 0

    def test_ddl(self, db_file, capsys):
        assert main(["ddl", str(db_file)]) == 0
        out = capsys.readouterr().out
        assert "schema spades" in out
        assert "association Write : Access" in out

    def test_ddl_prints_the_stored_schema(self, db_file, capsys):
        assert main(["ddl", str(db_file)]) == 0
        assert capsys.readouterr().out == print_ddl(spades_schema())

    def test_snapshot_and_history(self, db_file, capsys):
        assert main(["snapshot", str(db_file), "-v", "2.0"]) == 0
        assert main(["history", str(db_file)]) == 0
        out = capsys.readouterr().out
        assert "1.0" in out and "2.0" in out

    def test_history_of_item(self, db_file, capsys):
        assert main(["history", str(db_file), "Alarms"]) == 0
        out = capsys.readouterr().out
        assert "Alarms @ 1.0" in out

    def test_compact(self, db_file, capsys):
        for version in ("2.0", "3.0", "4.0", "5.0"):
            assert main(["snapshot", str(db_file), "-v", version]) == 0
        capsys.readouterr()
        assert main(["compact", str(db_file), "--pin", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "before:" in out and "compacted:" in out and "after:" in out
        from repro.core.storage import load_database

        db = load_database(db_file)
        from repro.core.versions.version_id import VersionId

        versions = db.saved_versions()
        assert VersionId.parse("1.0") in versions  # pinned
        assert VersionId.parse("5.0") in versions  # keep_last + leaf
        assert VersionId.parse("2.0") not in versions  # squashed
        # history still resolves on the compacted image
        assert main(["history", str(db_file), "Alarms"]) == 0

    def test_compact_dry_run_changes_nothing(self, db_file, capsys):
        assert main(["snapshot", str(db_file), "-v", "2.0"]) == 0
        before = db_file.read_bytes()
        assert main(["compact", str(db_file), "--dry-run"]) == 0
        assert db_file.read_bytes() == before
        assert "before:" in capsys.readouterr().out

    def test_compact_dry_run_leaves_a_torn_journal_alone(self, db_file, capsys):
        # a journal open would cut the torn tail; the dry run only loads
        from repro.core.storage import JournaledDatabase

        journal = JournaledDatabase.open(db_file)
        journal.db.create_object("Data", "Torn")
        journal.close()
        torn = db_file.read_bytes()[:-5]
        db_file.write_bytes(torn)
        assert main(["compact", str(db_file), "--dry-run"]) == 0
        assert db_file.read_bytes() == torn
        assert "before:" in capsys.readouterr().out

    def test_compact_collects_dead_items(self, db_file, capsys):
        from repro.core.storage import load_database, save_database

        db = load_database(db_file)
        victim = db.create_object("Thing", "DeadOnArrival")
        db.delete(victim)
        db.create_version("2.0")
        save_database(db, db_file)
        capsys.readouterr()
        assert main(["compact", str(db_file)]) == 0
        out = capsys.readouterr().out
        assert "collected 1 dead objects" in out
        reloaded = load_database(db_file)
        assert victim.oid not in reloaded._objects  # noqa: SLF001

    def test_compact_rewrites_a_journal_as_one_image(self, db_file, capsys):
        from repro.core.storage import JournaledDatabase, load_database

        journal = JournaledDatabase.open(db_file)
        journal.db.create_object("Data", "Tail")
        journal.close()
        assert main(["compact", str(db_file)]) == 0
        assert "bytes on disk" in capsys.readouterr().out
        assert main(["fsck", str(db_file)]) == 0
        assert "1 intact record(s)" in capsys.readouterr().out
        assert load_database(db_file).find_object("Tail") is not None

    def test_compact_of_an_image_equals_compact_of_its_journal(
        self, tmp_path, capsys
    ):
        from dataclasses import replace

        from repro.core.storage import (
            JournaledDatabase, RecordFile, load_database, save_database,
        )
        from repro.core.versions.compaction import DEFAULT_MAINTENANCE

        journaled = tmp_path / "journal.seed"
        journal = JournaledDatabase.open(
            journaled, schema=spades_schema(), name="spec"
        )
        db = journal.db
        for index in range(12):
            db.create_object("Data", f"D{index}")
            if index % 3 == 0:
                db.delete(db.create_object("Thing", f"Gone{index}"))
            db.create_version()
        journal.close()
        assert RecordFile(journaled).count() > 1  # a delta tail
        saved = tmp_path / "image.seed"
        save_database(load_database(journaled), saved)
        pin = str(load_database(journaled).saved_versions()[3])
        expected = load_database(journaled)
        stats = expected.compact(
            replace(DEFAULT_MAINTENANCE, pins=frozenset([pin]))
        )
        assert stats.squashed_versions and stats.collected_objects
        reference = tmp_path / "reference.seed"
        save_database(expected, reference)
        for path in (journaled, saved):
            assert main(["compact", str(path), "--pin", pin]) == 0
        capsys.readouterr()
        assert journaled.read_bytes() == saved.read_bytes()
        assert saved.read_bytes() == reference.read_bytes()

    def test_compact_reports_a_malformed_image(self, db_file, tmp_path, capsys):
        from repro.core.storage import RecordFile

        (record,) = RecordFile(db_file).records()
        record["image"]["objects"] = 5
        broken = tmp_path / "broken.seed"
        RecordFile(broken).append(record)
        assert main(["compact", str(broken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed image objects section")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--group-commit", None),
        ("--group-commit-txns", "8"),
        ("--group-commit-bytes", "65536"),
        ("--group-commit-delay", "0.05"),
    ])
    def test_group_commit_bounds_are_not_options(
        self, tmp_path, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as usage:
            main(["serve", str(tmp_path / "served.seed"), flag,
                  *([] if value is None else [value])])
        assert usage.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("compact", "--snapshot-interval", "2"),
        ("compact", "--keep-last", "1"),
        ("compact", "--no-squash", None),
        ("compact", "--gc-tombstones", None),
        ("compact", "--byte-budget", "1"),
        ("compact", "--streamed-checkpoint", None),
        ("serve", "--streamed-checkpoints", None),
        ("serve", "--drain-timeout", "10"),
        ("query", "--parallel", None),
        ("query", "--shards", "2"),
    ])
    def test_retired_options_are_not_options(
        self, tmp_path, capsys, command, flag, value
    ):
        argv = [command, str(tmp_path / "any.seed"), flag]
        with pytest.raises(SystemExit) as usage:
            main(argv if value is None else [*argv, value])
        assert usage.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_missing_database_is_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.seed")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_incomplete_spec_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "gappy.spades"
        spec_path.write_text("data Alarms\n")
        db_path = tmp_path / "gappy.seed"
        main(["load", str(spec_path), "-o", str(db_path)])
        assert main(["completeness", str(db_path)]) == 2


class TestFsckScansOnce:
    """``fsck`` folds one list of scan events; ``--salvage`` adds one."""

    @pytest.fixture
    def scans(self, monkeypatch):
        from repro.core.storage import RecordFile

        calls = []
        real_scan = RecordFile.scan

        def counting_scan(self):
            calls.append(self.path)
            return real_scan(self)

        monkeypatch.setattr(RecordFile, "scan", counting_scan)
        return calls

    @staticmethod
    def flip(path, offset):
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))

    @pytest.fixture
    def journal_file(self, db_file):
        """Two images and an unknown-kind record: room to damage one."""
        from repro.core.storage import JournaledDatabase, RecordFile

        JournaledDatabase.open(db_file).checkpoint()
        RecordFile(db_file).append({"kind": "replica.hint", "seq": 9})
        return db_file

    def test_report_only_scans_once(self, journal_file, scans, capsys):
        assert main(["fsck", str(journal_file)]) == 0
        out = capsys.readouterr().out
        assert "3 intact record(s)" in out and "clean" in out
        assert "note: 1 intact record(s) of unknown kind 'replica.hint'" in out
        assert scans == [journal_file]

    def test_corruption_exit_code_from_the_same_scan(
        self, journal_file, scans, capsys
    ):
        self.flip(journal_file, 40)
        assert main(["fsck", str(journal_file)]) == 2
        out = capsys.readouterr().out
        assert "corrupt [0:" in out and "--salvage" in out
        assert "unknown kind 'replica.hint'" in out
        assert scans == [journal_file]

    def test_torn_tail_only_exits_zero_in_one_scan(
        self, journal_file, scans, capsys
    ):
        with open(journal_file, "r+b") as handle:
            handle.truncate(journal_file.stat().st_size - 5)
        assert main(["fsck", str(journal_file)]) == 0
        assert "torn tail only" in capsys.readouterr().out
        assert scans == [journal_file]

    def test_salvage_scans_at_most_twice(self, journal_file, scans, capsys):
        from repro.core.storage import RecordFile, load_database

        self.flip(journal_file, 40)
        assert main(["fsck", str(journal_file), "--salvage"]) == 0
        out = capsys.readouterr().out
        assert "salvaged: kept 2 record(s)" in out
        assert 1 <= len(scans) <= 2 and set(scans) == {journal_file}
        scans.clear()
        assert RecordFile(journal_file).verify().is_clean
        with pytest.warns(Warning, match="unknown kind"):
            assert load_database(journal_file).find_object("Alarms")


class TestQueryCommand:
    def test_extent_query(self, db_file, capsys):
        assert main(["query", str(db_file), "--extent", "Data"]) == 0
        out = capsys.readouterr().out
        assert "Alarms" in out
        assert "(1 rows)" in out

    def test_extent_with_prefix_and_join(self, db_file, capsys):
        assert main([
            "query", str(db_file),
            "--extent", "Data", "--prefix", "Al", "--via", "Access",
        ]) == 0
        out = capsys.readouterr().out
        assert "data\tby" in out
        assert "Alarms\tHandler" in out
        assert "(2 rows)" in out  # one read + one write flow

    def test_explain_shows_indexed_scan(self, db_file, capsys):
        assert main([
            "query", str(db_file),
            "--extent", "Data", "--prefix", "Al", "--via", "Access",
            "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "ExtentScan Data as data prefix='Al'" in out
        assert "RelScan Access (data, by)" in out

    def test_explain_shows_index_join(self, tmp_path, capsys):
        # enough flows that probing the one matching data item's edges
        # beats scanning the Access family: the join method is a node
        lines = ['action Handler "handles everything"']
        for index in range(24):
            lines += [f"data Signal{index} input", f"read Handler <- Signal{index}"]
        spec_path = tmp_path / "signals.spades"
        spec_path.write_text("\n".join(lines) + "\n")
        db_path = tmp_path / "signals.seed"
        assert main(["load", str(spec_path), "-o", str(db_path)]) == 0
        capsys.readouterr()
        assert main([
            "query", str(db_path),
            "--extent", "Data", "--prefix", "Signal7", "--via", "Access",
            "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "IndexJoin Access.data" in out
        assert "└─ ExtentScan Data as data prefix='Signal7'" in out
        assert "RelScan" not in out
        assert "Signal7\tHandler" in out
        assert "(1 rows)" in out

    def test_association_scan(self, db_file, capsys):
        assert main(["query", str(db_file), "--association", "Write"]) == 0
        out = capsys.readouterr().out
        assert "to\tby" in out
        assert "Alarms\tHandler" in out

    def test_query_without_source_is_error(self, db_file, capsys):
        assert main(["query", str(db_file)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_conflicting_sources_are_rejected(self, db_file, capsys):
        assert main([
            "query", str(db_file), "--extent", "Data", "--association", "Read",
        ]) == 1
        assert "not both" in capsys.readouterr().err

    def test_prefix_without_extent_is_rejected(self, db_file, capsys):
        assert main([
            "query", str(db_file), "--association", "Write", "--prefix", "Al",
        ]) == 1
        assert "--extent queries only" in capsys.readouterr().err

    def test_via_picks_the_matching_role(self, db_file, capsys):
        # Action binds the second role of Access ("by"); the join must
        # target that role, not default to the first
        assert main([
            "query", str(db_file), "--extent", "Action", "--via", "Access",
        ]) == 0
        out = capsys.readouterr().out
        assert "by\tdata" in out
        assert "(2 rows)" in out  # Handler reads and writes Alarms

    def test_backend_is_not_an_option(self, db_file, capsys):
        with pytest.raises(SystemExit) as usage:
            main([
                "query", str(db_file), "--extent", "Data",
                "--backend", "process",
            ])
        assert usage.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_via_with_unbound_class_is_error(self, db_file, capsys):
        assert main([
            "query", str(db_file), "--extent", "Module", "--via", "Read",
        ]) == 1
        assert "bound at no role" in capsys.readouterr().err
