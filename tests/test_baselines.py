"""Tests for the baseline comparators."""

import pytest

from repro.baselines import (
    FileVersionStore,
    FullCopyVersioning,
    HandCodedSpecStore,
    ManualCopySharing,
    StrictStore,
)
from repro.core import ConsistencyError, SeedDatabase, figure2_schema
from repro.core.errors import VersionError


class TestStrictStore:
    """The paper's two motivating rejections, demonstrated on real code."""

    def test_rejection_2_data_without_flows(self):
        store = StrictStore(figure2_schema())
        # 'Alarms' alone violates the (now hard) minimum cardinalities
        with pytest.raises(ConsistencyError, match="rejects incomplete"):
            store.create_object("Data", "Alarms")
        assert store.find_object("Alarms") is None  # rolled back

    def test_chicken_and_egg_without_compound(self):
        store = StrictStore(figure2_schema())
        # even the action alone fails (Description minimum)
        with pytest.raises(ConsistencyError):
            store.create_object("Action", "Handler")

    def test_compound_entry_of_complete_unit_succeeds(self):
        store = StrictStore(figure2_schema())
        with store.compound():
            alarms = store.create_object("Data", "Alarms")
            handler = store.create_object("Action", "Handler")
            store.create_sub_object(handler, "Description", "handles")
            store.relate("Read", {"from": alarms, "by": handler})
            store.relate("Write", {"to": alarms, "by": handler})
        assert store.find_object("Alarms") is not None

    def test_rejection_1_no_vague_category(self):
        # figure 2 simply has no Access association: the vague dataflow
        # has no admissible representation, however the user phrases it
        store = StrictStore(figure2_schema())
        assert not figure2_schema().has_association("Access")

    def test_strict_delete_protects_survivors(self):
        store = StrictStore(figure2_schema())
        with store.compound():
            alarms = store.create_object("Data", "Alarms")
            handler = store.create_object("Action", "Handler")
            store.create_sub_object(handler, "Description", "handles")
            read = store.relate("Read", {"from": alarms, "by": handler})
            store.relate("Write", {"to": alarms, "by": handler})
        with pytest.raises(ConsistencyError):
            store.delete(read)  # Alarms would lose its mandatory Read


class TestFullCopyVersioning:
    def test_snapshots_store_everything(self, fig1_db):
        versioning = FullCopyVersioning(fig1_db)
        versioning.create_version("1.0")
        size_before = len(versioning.snapshot("1.0"))
        fig1_db.get_object("Alarms.Text.Selector").set_value("Changed")
        versioning.create_version("2.0")
        assert len(versioning.snapshot("2.0")) == size_before
        assert versioning.stored_state_count() == 2 * size_before

    def test_delta_store_is_smaller(self, fig1_db):
        versioning = FullCopyVersioning(fig1_db)
        fig1_db.create_version("1.0")
        versioning.create_version("1.0")
        for i in range(5):
            fig1_db.get_object("Alarms.Text.Selector").set_value(f"v{i}")
            fig1_db.create_version()
            versioning.create_version()
        delta = fig1_db.versions.total_stored_states()
        full = versioning.stored_state_count()
        assert delta < full
        # delta: initial snapshot + one state per later version
        assert delta == fig1_db.versions.delta_size("1.0") + 5

    def test_state_lookup(self, fig1_db):
        versioning = FullCopyVersioning(fig1_db)
        versioning.create_version("1.0")
        selector = fig1_db.get_object("Alarms.Text.Selector")
        state = versioning.state_of("1.0", ("o", selector.oid))
        assert state.value == "Representation"
        assert versioning.state_of("1.0", ("o", 999)) is None

    def test_duplicate_and_missing_versions(self, fig1_db):
        versioning = FullCopyVersioning(fig1_db)
        versioning.create_version("1.0")
        with pytest.raises(VersionError, match="already exists"):
            versioning.create_version("1.0")
        with pytest.raises(VersionError, match="does not exist"):
            versioning.snapshot("9.9")


class TestFileVersionStore:
    def test_check_in_out_roundtrip(self):
        store = FileVersionStore()
        store.check_in("line a\nline b\n", "first")
        store.check_in("line a\nline B\nline c\n", "second")
        store.check_in("line B\nline c\n", "third")
        assert store.check_out(1) == "line a\nline b\n"
        assert store.check_out(2) == "line a\nline B\nline c\n"
        assert store.check_out() == "line B\nline c\n"
        assert [r.log for r in store.revisions()] == ["first", "second", "third"]

    def test_missing_revisions(self):
        store = FileVersionStore()
        with pytest.raises(VersionError, match="no revision"):
            store.check_out()
        store.check_in("x\n")
        with pytest.raises(VersionError, match="does not exist"):
            store.check_out(2)

    def test_reverse_delta_storage_grows_with_change(self):
        store = FileVersionStore()
        base = "".join(f"line {i}\n" for i in range(100))
        store.check_in(base)
        store.check_in(base.replace("line 50", "line fifty"))
        # storage: 100 head lines + ~1 delta line, far below 200
        assert store.stored_line_count() < 110

    def test_item_history_requires_full_scan(self):
        store = FileVersionStore()
        store.check_in("AlarmHandler v1\nOther\n")
        store.check_in("AlarmHandler v2\nOther\n")
        store.check_in("Renamed\nOther\n")
        assert store.item_history("AlarmHandler") == [1, 2]

    def test_many_revisions_roundtrip(self):
        store = FileVersionStore()
        texts = []
        for i in range(20):
            text = "".join(f"item {j} rev{i if j == i else 0}\n" for j in range(20))
            texts.append(text)
            store.check_in(text)
        for i, text in enumerate(texts, start=1):
            assert store.check_out(i) == text


class TestHandCodedStore:
    def test_basic_operations(self):
        store = HandCodedSpecStore()
        store.declare_action("Handler", "handles")
        store.declare_data("Alarms", "output")
        store.add_flow("write", "Alarms", "Handler", times=2)
        assert store.find("Handler").description == "handles"
        assert store.dataflow_report() == ["W Handler writes Alarms x2"]

    def test_vague_flows_inexpressible(self):
        store = HandCodedSpecStore()
        store.declare_action("A")
        store.declare_data("D")
        with pytest.raises(NotImplementedError, match="tool change"):
            store.add_flow("vague", "D", "A")

    def test_new_kind_needs_code(self):
        store = HandCodedSpecStore()
        with pytest.raises(NotImplementedError, match="tool change"):
            store.declare("module", "Kernel")

    def test_containment_cycle_rejected(self):
        store = HandCodedSpecStore()
        store.declare_action("A")
        store.declare_action("B")
        store.contain("A", "B")
        with pytest.raises(ValueError, match="cycle"):
            store.contain("B", "A")

    def test_duplicate_names(self):
        store = HandCodedSpecStore()
        store.declare_action("X")
        with pytest.raises(ValueError, match="already used"):
            store.declare_data("X")

    def test_flows_of_an_item(self):
        store = HandCodedSpecStore()
        store.declare_action("R1")
        store.declare_action("R2")
        store.declare_data("D")
        store.declare_data("E")
        store.add_flow("read", "D", "R1")
        store.add_flow("read", "D", "R2")
        store.add_flow("write", "D", "R1")
        store.add_flow("write", "E", "R2", times=3)
        assert [(f.kind, f.action) for f in store.flows_of("D")] == [
            ("read", "R1"),
            ("read", "R2"),
            ("write", "R1"),
        ]
        assert [(f.kind, f.data) for f in store.flows_of("R2")] == [
            ("read", "D"),
            ("write", "E"),
        ]
        assert store.statistics() == {"objects": 4, "relationships": 4}

    def test_flows_need_declared_items(self):
        store = HandCodedSpecStore()
        store.declare_action("A")
        store.declare_data("D")
        with pytest.raises(ValueError, match="unknown data 'Nope'"):
            store.add_flow("read", "Nope", "A")
        with pytest.raises(ValueError, match="unknown action 'Nope'"):
            store.add_flow("write", "D", "Nope")
        assert store.flows_of("D") == []

    def test_annotate(self):
        store = HandCodedSpecStore()
        store.declare_action("A")
        store.declare_data("D")
        store.annotate("A", "first")
        store.annotate("A", "second")
        store.annotate("D", "input")
        assert store.find("A").notes == ["first", "second"]
        assert store.find("D").notes == ["input"]
        with pytest.raises(ValueError, match="unknown item 'Nope'"):
            store.annotate("Nope", "lost")


class TestManualCopySharing:
    def test_update_all_is_linear_work(self, spades_db):
        sharing = ManualCopySharing(spades_db, "Deadline")
        for i in range(5):
            action = spades_db.create_object("Action", f"P{i}")
            action.add_sub_object("Description", "x")
            sharing.add_member(action, "1986-06-01")
        assert sharing.is_consistent()
        assert sharing.update_all("1986-09-01") == 5
        assert sharing.is_consistent()
        import datetime

        assert sharing.values() == [datetime.date(1986, 9, 1)] * 5

    def test_missed_copy_diverges(self, spades_db):
        sharing = ManualCopySharing(spades_db, "Deadline")
        for i in range(6):
            action = spades_db.create_object("Action", f"P{i}")
            action.add_sub_object("Description", "x")
            sharing.add_member(action, "1986-06-01")
        sharing.update_some("1986-09-01", skip_every=3)
        assert not sharing.is_consistent()
        assert sharing.divergence() == 2
