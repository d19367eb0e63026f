"""Tests for version ids, the history tree, and the delta store."""

import random

import pytest

from repro.core import VersionId
from repro.core.errors import VersionError
from repro.core.versions.store import VersionStore
from repro.core.versions.tree import VersionTree
from repro.core.objects import ObjectState


def make_state(value=None, deleted=False):
    return ObjectState(
        class_name="Data",
        name="X",
        index=None,
        parent_oid=None,
        value=value,
        deleted=deleted,
        is_pattern=False,
        inherited_pattern_oids=(),
    )


class TestVersionId:
    def test_parse_and_str(self):
        assert str(VersionId.parse("2.0")) == "2.0"
        assert str(VersionId.parse("1.0.1")) == "1.0.1"

    @pytest.mark.parametrize("text", ["", "a", "1..0", "1.", ".1", "-1.0"])
    def test_bad_syntax(self, text):
        with pytest.raises(VersionError):
            VersionId.parse(text)

    def test_ordering_lexicographic(self):
        ids = [VersionId.parse(t) for t in ("2.0", "1.0", "1.0.1", "1.1")]
        assert [str(v) for v in sorted(ids)] == ["1.0", "1.0.1", "1.1", "2.0"]

    def test_derivations(self):
        v = VersionId.parse("1.3")
        assert str(v.next_major()) == "2.0"
        assert str(v.next_minor()) == "1.4"
        assert str(v.child()) == "1.3.1"
        assert str(VersionId.initial()) == "1.0"

    def test_hashable_equality(self):
        assert VersionId.parse("1.0") == VersionId((1, 0))
        assert len({VersionId.parse("1.0"), VersionId((1, 0))}) == 1


class TestVersionTree:
    def test_linear_history(self):
        tree = VersionTree()
        v1, v2, v3 = (VersionId.parse(t) for t in ("1.0", "2.0", "3.0"))
        tree.add(v1, None)
        tree.add(v2, v1)
        tree.add(v3, v2)
        assert tree.chain(v3) == [v1, v2, v3]
        assert tree.parent(v3) == v2
        assert tree.roots() == [v1]
        assert tree.is_leaf(v3) and not tree.is_leaf(v2)

    def test_branching(self):
        tree = VersionTree()
        v1, v2, alt = (VersionId.parse(t) for t in ("1.0", "2.0", "1.0.1"))
        tree.add(v1, None)
        tree.add(v2, v1)
        tree.add(alt, v1)
        assert set(tree.children(v1)) == {v2, alt}
        assert tree.chain(alt) == [v1, alt]

    def test_duplicate_rejected(self):
        tree = VersionTree()
        tree.add(VersionId.parse("1.0"), None)
        with pytest.raises(VersionError, match="already exists"):
            tree.add(VersionId.parse("1.0"), None)

    def test_unknown_parent_rejected(self):
        tree = VersionTree()
        with pytest.raises(VersionError, match="does not exist"):
            tree.add(VersionId.parse("2.0"), VersionId.parse("1.0"))

    def test_remove_leaf_only(self):
        tree = VersionTree()
        v1, v2 = VersionId.parse("1.0"), VersionId.parse("2.0")
        tree.add(v1, None)
        tree.add(v2, v1)
        with pytest.raises(VersionError, match="successors"):
            tree.remove(v1)
        tree.remove(v2)
        assert v2 not in tree
        tree.remove(v1)
        assert len(tree) == 0

    def test_next_id_mainline(self):
        tree = VersionTree()
        assert str(tree.next_id(None)) == "1.0"
        v1 = VersionId.parse("1.0")
        tree.add(v1, None)
        assert str(tree.next_id(v1)) == "2.0"
        v2 = VersionId.parse("2.0")
        tree.add(v2, v1)
        # rebasing on the historical 1.0 branches below it
        assert str(tree.next_id(v1)) == "1.0.1"
        tree.add(VersionId.parse("1.0.1"), v1)
        assert str(tree.next_id(v1)) == "1.0.2"

    def test_render(self):
        tree = VersionTree()
        tree.add(VersionId.parse("1.0"), None)
        tree.add(VersionId.parse("2.0"), VersionId.parse("1.0"))
        tree.add(VersionId.parse("1.0.1"), VersionId.parse("1.0"))
        assert tree.render() == "1.0\n  2.0\n  1.0.1"


class TestVersionStore:
    def test_record_and_chain_lookup(self):
        store = VersionStore()
        v1, v2, v3 = (VersionId.parse(t) for t in ("1.0", "2.0", "3.0"))
        store.record(v1, ("o", 1), make_state("first"))
        store.record(v3, ("o", 1), make_state("third"))
        chain = [v1, v2, v3]
        assert store.state_on_chain(("o", 1), chain).value == "third"
        assert store.state_on_chain(("o", 1), [v1, v2]).value == "first"
        assert store.state_on_chain(("o", 1), [v1]).value == "first"
        assert store.state_on_chain(("o", 2), chain) is None

    def test_versions_are_immutable(self):
        store = VersionStore()
        v1 = VersionId.parse("1.0")
        store.record(v1, ("o", 1), make_state())
        with pytest.raises(VersionError, match="cannot be modified"):
            store.record(v1, ("o", 1), make_state("again"))

    def test_tombstones_are_states(self):
        store = VersionStore()
        v1, v2 = VersionId.parse("1.0"), VersionId.parse("2.0")
        store.record(v1, ("o", 1), make_state("alive"))
        store.record(v2, ("o", 1), make_state("alive", deleted=True))
        assert store.state_on_chain(("o", 1), [v1, v2]).deleted
        assert not store.state_on_chain(("o", 1), [v1]).deleted

    def test_drop_version(self):
        store = VersionStore()
        v1, v2 = VersionId.parse("1.0"), VersionId.parse("2.0")
        store.record(v1, ("o", 1), make_state("a"))
        store.record(v2, ("o", 1), make_state("b"))
        assert store.drop_version(v2) == 1
        assert store.state_on_chain(("o", 1), [v1, v2]).value == "a"

    def test_metrics(self):
        store = VersionStore()
        v1 = VersionId.parse("1.0")
        store.record_many(
            v1, [(("o", 1), make_state()), (("o", 2), make_state())]
        )
        assert store.stored_state_count() == 2
        assert store.cell_count() == 2
        assert sorted(store.keys_in_version(v1)) == [("o", 1), ("o", 2)]
        assert sorted(store.states_of(("o", 1))) == [v1]


class SinkLog:
    """A cell sink that logs what the store tells it."""

    def __init__(self) -> None:
        self.heard: list = []

    def cell_changed(self, key, at_end=False) -> None:
        self.heard.append((key, at_end))


def record_one(store, version, key, state) -> None:
    """The per-state reference for ``record_many``: one state, with
    its own cell lookup, index lookup and at-end scan."""
    slot, at_version = store._slot(version)  # noqa: SLF001
    cell = store._cells.setdefault(key, {})  # noqa: SLF001
    assert slot not in cell
    cell[slot] = state
    at_version[key] = False
    labels = [store._version_of[other] for other in cell]  # noqa: SLF001
    store._cell_sink.cell_changed(  # noqa: SLF001
        key, len(cell) > 1 and all(other <= version for other in labels)
    )


class TestRecordMany:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_pass_is_per_state_record(self, seed):
        """Batches at versions in shuffled order (so a new entry sorts
        at a cell's end, in its middle, or opens the cell), empty
        batches too: the same cells, the same index, and the cell sink
        hears the same ``(key, at_end)`` sequence as from the per-state
        reference."""
        rng = random.Random(seed)
        versions = [VersionId.parse(f"{n}.0") for n in range(1, 13)]
        rng.shuffle(versions)
        batched, single = VersionStore(), VersionStore()
        batched._cell_sink, single._cell_sink = SinkLog(), SinkLog()  # noqa: SLF001
        for version in versions:
            batch = [
                (("o" if item % 3 else "r", item), make_state(f"{version}/{item}"))
                for item in rng.sample(range(20), rng.randint(0, 8))
            ]
            assert batched.record_many(version, iter(batch)) == len(batch)
            for key, state in batch:
                record_one(single, version, key, state)
        assert batched._cell_sink.heard == single._cell_sink.heard  # noqa: SLF001
        assert any(at_end for __, at_end in single._cell_sink.heard)  # noqa: SLF001
        assert not all(at_end for __, at_end in single._cell_sink.heard)  # noqa: SLF001
        assert list(batched.keys()) == list(single.keys())
        assert [batched.entries_of(key) for key in batched.keys()] == [
            single.entries_of(key) for key in single.keys()
        ]
        assert [list(batched.states_at(v)) for v in versions] == [
            list(single.states_at(v)) for v in versions
        ]

    def test_a_recorded_version_cannot_be_modified(self):
        store = VersionStore()
        v1, v2 = VersionId.parse("1.0"), VersionId.parse("2.0")
        store.record_many(v1, [(("o", 1), make_state("a"))])
        with pytest.raises(VersionError, match="cannot be modified"):
            store.record_many(v1, [(("o", 1), make_state("again"))])
        assert store.states_of(("o", 1))[v1].value == "a"
        with pytest.raises(VersionError, match="cannot be modified"):
            store.record_many(v2, [(("o", 2), make_state()), (("o", 2), make_state())])
        # the state before the duplicate stays recorded
        assert list(store.keys_in_version(v2)) == [("o", 2)]
        store.record_many(VersionId.parse("3.0"), [])
        assert store.stored_state_count() == 2
        assert VersionId.parse("3.0") not in store._slot_of  # noqa: SLF001
