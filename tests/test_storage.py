"""Tests for persistence: serialisation, record files, the engine."""

import copy
import gc
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    SchemaError,
    SeedDatabase,
    SeedError,
    StorageError,
    figure3_schema,
)
from repro.core.indexes import IndexLayer
from repro.core.patterns import PatternManager
from repro.core.schema.attached import AttachedProcedure, ProcedureRegistry
from repro.core.storage import (
    JournaledDatabase,
    RecordFile,
    database_from_dict,
    database_from_records,
    database_to_dict,
    iter_image_records,
    load_database,
    save_database,
    schema_from_dict,
    schema_to_dict,
)


@pytest.fixture
def rich_db(fig3_db):
    """A database exercising most persistent features."""
    db = fig3_db
    alarms = db.create_object("Thing", "Alarms")
    sensor = db.create_object("Action", "Sensor")
    sensor.add_sub_object("Description", "senses")
    sensor.add_sub_object("Revised", "1986-02-05")
    alarms.reclassify("Data")
    access = db.relate("Access", data=alarms, by=sensor)
    db.create_version("1.0")
    with db.transaction():
        alarms.reclassify("OutputData")
        access.reclassify("Write")
    access.set_attribute("NumberOfWrites", 2)
    template = db.create_object("Action", "Template", pattern=True)
    db.create_sub_object(template, "Description", "shared descr")
    worker = db.create_object("Action", "Worker")
    db.inherit(template, worker)
    db.create_version("2.0")
    db.delete(db.get_object("Worker"))
    return db


class TestSchemaSerialisation:
    def test_roundtrip_structure(self, fig3_schema):
        data = schema_to_dict(fig3_schema)
        json.dumps(data)
        rebuilt = schema_from_dict(data)
        assert {c.name for c in rebuilt.classes} == {
            c.name for c in fig3_schema.classes
        }
        assert rebuilt.entity_class("OutputData").is_kind_of(
            rebuilt.entity_class("Thing")
        )
        assert rebuilt.association("Write").general is rebuilt.association("Access")
        assert rebuilt.association("Write").attribute("NumberOfWrites").mandatory
        assert rebuilt.association("Contained").acyclic
        assert rebuilt.entity_class("Thing").covering
        assert str(rebuilt.entity_class("Data.Text").cardinality) == "0..16"

    def test_procedures_by_name(self):
        registry = ProcedureRegistry()
        proc = AttachedProcedure("guard", lambda ctx: None)
        registry.register(proc)
        from repro.core.schema import SchemaBuilder

        schema = (
            SchemaBuilder("s")
            .entity_class("A")
            .attach("A", proc)
            .build()
        )
        data = schema_to_dict(schema)
        rebuilt = schema_from_dict(data, registry)
        assert rebuilt.entity_class("A").attached_procedures[0] is proc

    def test_unknown_procedure_rejected(self):
        from repro.core.schema import SchemaBuilder

        proc = AttachedProcedure("ephemeral_proc", lambda ctx: None)
        schema = SchemaBuilder("s").entity_class("A").attach("A", proc).build()
        data = schema_to_dict(schema)
        empty_registry = ProcedureRegistry()
        with pytest.raises(Exception, match="unknown attached procedure"):
            schema_from_dict(data, empty_registry)


class TestDatabaseSerialisation:
    def test_full_roundtrip(self, rich_db):
        image = database_to_dict(rich_db)
        json.dumps(image)  # JSON-compatible
        rebuilt = database_from_dict(image)
        assert database_to_dict(rebuilt) == image

    def test_roundtrip_preserves_views(self, rich_db):
        rebuilt = database_from_dict(database_to_dict(rich_db))
        view = rebuilt.version_view("1.0")
        assert view.get("Alarms").class_name == "Data"
        current_alarms = rebuilt.get_object("Alarms")
        assert current_alarms.class_name == "OutputData"

    def test_roundtrip_preserves_patterns(self, rich_db):
        rebuilt = database_from_dict(database_to_dict(rich_db))
        template = rebuilt.find_object("Template", include_patterns=True)
        assert template.is_pattern
        # Worker was deleted; its tombstone must survive the roundtrip
        assert rebuilt.find_object("Worker") is None
        assert any(
            obj.simple_name == "Worker" and obj.deleted
            for obj in rebuilt.all_objects_raw()
        )

    def test_roundtrip_preserves_dirty_state(self, rich_db):
        assert rich_db.has_unsaved_changes()
        rebuilt = database_from_dict(database_to_dict(rich_db))
        assert rebuilt.has_unsaved_changes()
        rebuilt.create_version("3.0")
        assert not rebuilt.has_unsaved_changes()

    def test_bad_format_rejected(self, rich_db):
        image = database_to_dict(rich_db)
        image["format"] = 99
        with pytest.raises(StorageError, match="format"):
            database_from_dict(image)

    def test_rebuilt_database_fully_operational(self, rich_db):
        rebuilt = database_from_dict(database_to_dict(rich_db))
        new = rebuilt.create_object("Action", "PostLoad")
        new.add_sub_object("Description", "created after load")
        assert rebuilt.check_consistency() == []


def field_paths(node, at=()):
    """The path of every dict key inside *node*, lists walked through."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield at + (key,)
            yield from field_paths(value, at + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from field_paths(value, at + (index,))


def mutated(records, index, path, how):
    """A copy of *records* with one field deleted or replaced by *how*."""
    records = copy.deepcopy(records)
    node = records[index]
    for step in path[:-1]:
        node = node[step]
    if how == "delete":
        del node[path[-1]]
    else:
        node[path[-1]] = how
    return records


class TestImageDecoderFuzz:
    """Every single-field mutation of a well-framed image stream (its
    records pass the CRC; their content lies) loads or raises a
    ``SeedError``: a raw built-in error never escapes the decoder."""

    @pytest.fixture(scope="class")
    def records(self):
        db = SeedDatabase(figure3_schema(), "fuzz")
        alarms = db.create_object("Data", "Alarms")
        sensor = db.create_object("Action", "Sensor")
        sensor.add_sub_object("Description", "senses")
        db.create_object("Action", "Handler")
        db.relate("Access", data=alarms, by=sensor)
        db.create_version("1.0")
        return list(iter_image_records(db))

    def test_every_mutation_loads_or_raises_a_seed_error(self, records):
        collecting = gc.isenabled()
        escaped, outcomes = [], 0
        for index, record in enumerate(records):
            for path in field_paths(record):
                for how in ("delete", None, "zz"):
                    outcomes += 1
                    try:
                        database_from_records(mutated(records, index, path, how))
                    except SeedError:
                        pass
                    except Exception as exc:  # noqa: BLE001 - the finding
                        escaped.append((index, path, how, repr(exc)))
                    assert gc.isenabled() is collecting
                    assert gc.get_freeze_count() == 0
        assert outcomes > 800
        assert escaped == []

    @pytest.mark.parametrize(
        "index, path, kind",
        [
            (0, ("h", "name"), "header"),
            (0, ("h", "schema_versions"), "header"),
            (5, ("s",), "relationship"),
            (6, ("c", "kind"), "version-cell"),
        ],
    )
    def test_the_error_names_the_record_kind_and_chains_the_cause(
        self, records, index, path, kind
    ):
        with pytest.raises(StorageError, match=f"malformed image {kind} record") as info:
            database_from_records(mutated(records, index, path, "delete"))
        assert isinstance(info.value.__cause__, KeyError)

    def test_a_dangling_parent_names_the_object_record(self, records):
        broken = mutated(records, 3, ("s", "parent"), 999)
        with pytest.raises(StorageError, match="malformed image object record") as info:
            database_from_records(broken)
        assert isinstance(info.value.__cause__, KeyError)

    @pytest.mark.parametrize(
        "layer, method",
        [(IndexLayer, "rebuild"), (PatternManager, "rebuild_index")],
    )
    def test_a_rebuild_defect_is_not_reported_as_a_malformed_record(
        self, records, monkeypatch, layer, method
    ):
        def defect(self):
            raise AttributeError("a defect in the rebuild")

        monkeypatch.setattr(layer, method, defect)
        with pytest.raises(AttributeError, match="a defect in the rebuild"):
            database_from_records(records)

    def test_a_seed_error_keeps_its_type(self, records):
        broken = mutated(records, 1, ("s", "class"), "zz")
        with pytest.raises(SchemaError, match="zz"):
            database_from_records(broken)

    @pytest.fixture(scope="class")
    def image_record(self, records, tmp_path_factory):
        """The fixture database as one monolithic ``image`` record."""
        path = tmp_path_factory.mktemp("monolithic") / "image.seed"
        save_database(database_from_records(records), path)
        (record,) = RecordFile(path).records()
        assert record["image"]["version_cells"]
        return record

    def test_every_monolithic_mutation_loads_or_raises_a_seed_error(
        self, image_record, tmp_path
    ):
        paths = [("image",)]
        for key in ("objects", "relationships", "version_cells"):
            paths += [("image", key), ("image", key, 0)]
        cases = [(path, how) for path in paths for how in (None, 7, "zz", ["zz"])]
        cases += [((key,), "delete") for key in image_record]
        cases += [(("image", key), "delete") for key in image_record["image"]]
        collecting = gc.isenabled()
        escaped = []
        for number, (path, how) in enumerate(cases):
            journal = tmp_path / f"case{number}.seed"
            RecordFile(journal).append(mutated([image_record], 0, path, how)[0])
            for load in (load_database, JournaledDatabase.open):
                try:
                    load(journal)
                except SeedError:
                    pass
                except Exception as exc:  # noqa: BLE001 - the finding
                    escaped.append((path, how, load.__name__, repr(exc)))
                assert gc.isenabled() is collecting
                assert gc.get_freeze_count() == 0
        assert len(cases) == 7 * 4 + 2 + 11
        assert escaped == []

    @pytest.mark.parametrize(
        "path, how, message, cause",
        [
            (("image",), None, "malformed image record: the image is NoneType", None),
            (("image", "objects"), 5, "malformed image objects section", TypeError),
            (("image", "objects"), "delete", "malformed image objects section", KeyError),
            (("image", "objects", 0), None, "malformed image objects section", TypeError),
            (
                ("image", "relationships"), 7,
                "malformed image relationships section", TypeError,
            ),
        ],
    )
    def test_a_malformed_image_names_its_section(
        self, image_record, tmp_path, path, how, message, cause
    ):
        journal = tmp_path / "image.seed"
        RecordFile(journal).append(mutated([image_record], 0, path, how)[0])
        for load in (load_database, JournaledDatabase.open):
            with pytest.raises(StorageError, match=message) as info:
                load(journal)
            if cause is None:
                assert info.value.__cause__ is None
            else:
                assert isinstance(info.value.__cause__, cause)


class TestRecordFile:
    def test_append_and_read(self, tmp_path):
        record_file = RecordFile(tmp_path / "log.rec")
        record_file.append({"n": 1})
        record_file.append({"n": 2})
        assert [r["n"] for r in record_file.records()] == [1, 2]
        assert record_file.count() == 2

    def test_append_many(self, tmp_path):
        record_file = RecordFile(tmp_path / "log.rec")
        assert record_file.append_many([{"n": i} for i in range(5)]) == 5
        assert record_file.count() == 5

    def test_torn_tail_ignored(self, tmp_path):
        path = tmp_path / "log.rec"
        record_file = RecordFile(path)
        record_file.append({"n": 1})
        record_file.append({"n": 2})
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # cut into the final record
        assert [r["n"] for r in record_file.records()] == [1]

    def test_corrupt_payload_detected(self, tmp_path):
        path = tmp_path / "log.rec"
        record_file = RecordFile(path)
        record_file.append({"n": 1})
        data = bytearray(path.read_bytes())
        data[-3] = data[-3] ^ 0xFF  # flip a payload byte
        path.write_bytes(bytes(data))
        assert list(record_file.records()) == []
        with pytest.raises(StorageError):
            list(record_file.records(strict=True))

    def test_rewrite(self, tmp_path):
        record_file = RecordFile(tmp_path / "log.rec")
        record_file.append_many([{"n": i} for i in range(10)])
        record_file.rewrite([{"n": 99}])
        assert [r["n"] for r in record_file.records()] == [99]

    def test_missing_file(self, tmp_path):
        record_file = RecordFile(tmp_path / "absent.rec")
        assert list(record_file.records()) == []
        assert not record_file.exists()
        assert record_file.size_bytes() == 0


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)
#: damage: ("cut", fraction of the file kept) or ("flip", fraction, mask)
_damage = st.lists(
    st.tuples(st.just("cut"), st.floats(0, 1))
    | st.tuples(st.just("flip"), st.floats(0, 1), st.integers(1, 255)),
    max_size=3,
)


class TestRecordsIsAScanPrefix:
    """``records()`` is ``scan()`` up to its first non-record event."""

    @settings(max_examples=150, deadline=None)
    @given(records=st.lists(_json_values, max_size=8), damage=_damage)
    def test_records_equals_the_scan_prefix(self, records, damage):
        with tempfile.TemporaryDirectory() as directory:
            record_file = RecordFile(Path(directory) / "log.rec")
            record_file.append_many(records)
            if record_file.exists():
                data = bytearray(record_file.path.read_bytes())
                for kind, where, *mask in damage:
                    if kind == "cut":
                        del data[int(where * len(data)):]
                    elif data:
                        data[int(where * (len(data) - 1))] ^= mask[0]
                record_file.path.write_bytes(bytes(data))
            prefix, problem = [], None
            for event in record_file.scan():
                if event.kind != "record":
                    problem = event.problem
                    break
                prefix.append(event.record)
            assert list(record_file.records()) == prefix
            assert record_file.count() == len(prefix)
            assert prefix == records[:len(prefix)]
            if problem is None:
                assert list(record_file.records(strict=True)) == prefix
            else:
                with pytest.raises(StorageError, match=problem):
                    list(record_file.records(strict=True))


class TestEngine:
    def test_save_load(self, rich_db, tmp_path):
        path = tmp_path / "db.seed"
        size = save_database(rich_db, path)
        assert size > 0
        loaded = load_database(path)
        assert database_to_dict(loaded) == database_to_dict(rich_db)

    def test_load_missing(self, tmp_path):
        with pytest.raises(StorageError, match="no database file"):
            load_database(tmp_path / "absent.seed")

    def test_journal_lifecycle(self, fig3_schema, tmp_path):
        path = tmp_path / "journal.seed"
        journal = JournaledDatabase.open(path, schema=fig3_schema, name="j")
        db = journal.db
        obj = db.create_object("Action", "A")
        obj.add_sub_object("Description", "x")
        journal.checkpoint()
        assert journal.checkpoints() == 2

        reopened = JournaledDatabase.open(path)
        assert reopened.db.find_object("A") is not None

    def test_journal_newest_image_wins(self, fig3_schema, tmp_path):
        path = tmp_path / "journal.seed"
        journal = JournaledDatabase.open(path, schema=fig3_schema)
        journal.db.create_object("Action", "First").add_sub_object(
            "Description", "x"
        )
        journal.checkpoint()
        journal.db.create_object("Action", "Second").add_sub_object(
            "Description", "x"
        )
        journal.checkpoint()
        reopened = JournaledDatabase.open(path)
        assert reopened.db.find_object("Second") is not None

    def test_journal_compact(self, fig3_schema, tmp_path):
        path = tmp_path / "journal.seed"
        journal = JournaledDatabase.open(path, schema=fig3_schema)
        for i in range(4):
            journal.db.create_object("Action", f"M{i}")
            journal.checkpoint()
        before = RecordFile(path).size_bytes()
        journal.compact()
        after = RecordFile(path).size_bytes()
        assert after < before
        assert journal.checkpoints() == 1
        reopened = JournaledDatabase.open(path)
        assert reopened.db.find_object("M3") is not None

    def test_journal_requires_schema_when_new(self, tmp_path):
        with pytest.raises(StorageError, match="no schema"):
            JournaledDatabase.open(tmp_path / "new.seed")

    def test_crash_during_checkpoint_falls_back(self, fig3_schema, tmp_path):
        path = tmp_path / "journal.seed"
        journal = JournaledDatabase.open(path, schema=fig3_schema)
        journal.db.create_object("Action", "Safe")
        journal.checkpoint()
        # simulate a torn final image
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])
        reopened = JournaledDatabase.open(path)
        # fell back to the initial (empty) image — but the committed
        # creation survives anyway: its write-ahead txn delta replays
        assert reopened.db.find_object("Safe") is not None
