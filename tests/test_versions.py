"""Tests for version ids, the history tree, and the delta store."""

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
