"""Successor views: derived from the parent's view ≡ built cold.

``VersionManager.view(v, base=view(parent(v)))`` copies the base's page
directories and applies only the states stored at *v*, copying the pages
they write; the cold build applies the whole resolved chain to empty
tables. The contract checked here over randomized histories, at the real
page size and at pages of two ids: both give the same answers to every
retrieval — as *lists*, so iteration order is part of it — the base view
(a reader's pin) is not changed by deriving from it and shares every
page the delta did not write, an unusable base falls back to the cold
build instead of failing, and a publication after a *k*-item check-in
reads O(k) cells and allocates about as much on a master ten times
larger.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro.core import SeedDatabase, figure3_schema
from repro.core.errors import SeedError
from repro.core.versions.compaction import RetentionPolicy
from repro.core.versions import view as view_module
from repro.core.versions.store import VersionStore
from repro.multiuser import SeedServer
from repro.multiuser.server import DEFAULT_SNAPSHOT_CACHE
from repro.spades import spades_schema


# ---------------------------------------------------------------------------
# what a view answers
# ---------------------------------------------------------------------------


def observe(view, names=()):
    """Every answer a view gives, in a form ``==`` compares exactly.

    Lists stay lists: a successor must list the same items in the same
    order as the cold view. *names* adds dotted names to look up beyond
    the view's own (names of other versions must resolve to None).
    """
    schema = view.schema
    seen = {}
    seen["states"] = list(view.item_states())
    seen["counts"] = (view.object_count(), view.relationship_count())
    everything = view.objects(include_patterns=True)
    own_names = [str(obj.name) for obj in everything if not _under_pattern(obj)]
    seen["find"] = {
        name: _oid(view.find(name)) for name in [*own_names, *names]
    }
    for entity_class in schema.all_classes():
        for specials in (True, False):
            for patterns in (True, False):
                seen["objects", entity_class.full_name, specials, patterns] = [
                    obj.oid
                    for obj in view.objects(
                        entity_class.full_name,
                        include_specials=specials,
                        include_patterns=patterns,
                    )
                ]
    for association in schema.associations:
        for specials in (True, False):
            seen["relationships", association.name, specials] = [
                rel.rid
                for rel in view.relationships(
                    association.name, include_specials=specials
                )
            ]
    seen["relationships", None] = [rel.rid for rel in view.relationships()]
    for obj in everything:
        seen["children", obj.oid] = [c.oid for c in view.children_of(obj.oid)]
        seen["parent", obj.oid] = _oid(obj.parent)
        seen["relationships_of", obj.oid] = [
            rel.rid for rel in view.relationships_of(obj.oid)
        ]
        for association in schema.associations:
            seen["relationships_of", obj.oid, association.name] = [
                rel.rid for rel in view.relationships_of(obj.oid, association.name)
            ]
    return seen


def _oid(obj):
    return None if obj is None else obj.oid


def _under_pattern(obj):
    """Patterns are invisible to retrieval by name (and so is anything
    below one): ``find`` answers None for them in every view."""
    while obj is not None:
        if obj.is_pattern:
            return True
        obj = obj.parent
    return False


def all_names(db):
    """Dotted names of every object of every saved version."""
    names = set()
    for version in db.saved_versions():
        for obj in db.version_view(version).objects(include_patterns=True):
            names.add(str(obj.name))
    return sorted(names)


# ---------------------------------------------------------------------------
# randomized histories
# ---------------------------------------------------------------------------


class History:
    """Seeded random edits over the figure-3 schema (generalizations,
    sub-objects, patterns). An edit the consistency engine refuses is
    rolled back by the database and simply skipped."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.db = SeedDatabase(figure3_schema(), f"history-{seed}")
        self.counter = 0

    def roots(self, *classes):
        return [
            obj
            for name in classes
            for obj in self.db.objects(name, include_specials=False)
            if obj.parent is None
        ]

    def create(self):
        self.counter += 1
        class_name = self.rng.choice(
            ["Thing", "Data", "Action", "InputData", "OutputData"]
        )
        return self.db.create_object(class_name, f"Item{self.counter}")

    def edit(self) -> None:
        rng, db = self.rng, self.db
        data = self.roots("Data", "InputData", "OutputData")
        actions = self.roots("Action")
        roll = rng.random()
        if roll < 0.22 or not data or not actions:
            self.create()
        elif roll < 0.32:
            rng.choice(data).add_sub_object("Text")
        elif roll < 0.40:
            target = rng.choice(actions)
            described = target.sub_objects("Description")
            if described:
                db.set_value(described[0], f"text {rng.random():.4f}")
            else:
                target.add_sub_object("Description", "first")
        elif roll < 0.52:
            # relationships between new and old items alike
            partner = self.create() if rng.random() < 0.4 else rng.choice(data)
            if not partner.entity_class.is_kind_of(db.schema.entity_class("Data")):
                partner = rng.choice(data)
            db.relate("Access", {"data": partner, "by": rng.choice(actions)})
        elif roll < 0.60:
            inputs = self.roots("InputData")
            if inputs:
                db.relate("Read", {"from": rng.choice(inputs), "by": rng.choice(actions)})
        elif roll < 0.68:
            victims = [o for o in data + actions + self.roots("Thing")]
            db.delete(rng.choice(victims))
        elif roll < 0.73:
            texts = [t for o in data for t in o.sub_objects("Text")]
            if texts:
                db.delete(rng.choice(texts))
        elif roll < 0.80:
            things = self.roots("Thing")
            plain = self.roots("Data")
            if things and rng.random() < 0.5:
                db.reclassify(rng.choice(things), rng.choice(["Data", "Action"]))
            elif plain:
                db.reclassify(
                    rng.choice(plain), rng.choice(["InputData", "OutputData"])
                )
        elif roll < 0.86:
            vague = db.relationships("Access", include_specials=False)
            if vague:
                db.reclassify(rng.choice(vague), "Read")
        elif roll < 0.92:
            patterns = [
                o for o in db.objects(include_patterns=True)
                if o.is_pattern and o.parent is None
            ]
            if patterns and rng.random() < 0.5:
                db.unmark_pattern(rng.choice(patterns))
            else:
                db.mark_pattern(rng.choice(data + actions))
        elif roll < 0.96:
            rels = db.relationships()
            if rels:
                db.delete(rng.choice(rels))
        else:
            self.counter += 1
            db.rename(rng.choice(data + actions), f"Renamed{self.counter}")

    def version(self, edits: int):
        """Make up to *edits* edits (at least one that sticks), then save."""
        done = 0
        while done < edits or not self.db.has_unsaved_changes():
            done += 1
            try:
                self.edit()
            except SeedError:
                pass
        return self.db.create_version()


def build_history(seed: int, versions: int, edits: int, branch: float = 0.2):
    history = History(seed)
    for __ in range(versions):
        history.version(edits)
        if history.rng.random() < branch and len(history.db.saved_versions()) > 2:
            history.db.select_version(
                history.rng.choice(history.db.saved_versions()),
                discard_changes=True,
            )
    return history.db


# ---------------------------------------------------------------------------
# successor ≡ cold, and the base does not move
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("versions,edits", [(8, 3), (14, 6), (10, 25)])
def test_successor_equals_cold_for_every_version(seed, versions, edits):
    db = build_history(seed * 101 + versions, versions, edits)
    names = all_names(db)
    derived = 0
    for version in db.saved_versions():
        parent = db.versions.tree.parent(version)
        cold = observe(db.version_view(version), names)
        if parent is None:
            assert observe(db.version_view(version, base=None), names) == cold
            continue
        base = db.version_view(parent)
        before = observe(base, names)
        successor = db.version_view(version, base=base)
        derived += 1
        assert observe(successor, names) == cold, f"view of {version} (seed {seed})"
        assert observe(base, names) == before, f"base {parent} moved (seed {seed})"
    assert derived >= versions - 1


@pytest.mark.parametrize("seed", [2, 5])
def test_chain_of_forty_successors_and_pins_that_never_move(seed):
    history = History(seed)
    first = history.version(5)
    view = history.db.version_view(first)
    pinned = [(view, observe(view))]
    for __ in range(40):
        version = history.version(4)
        view = history.db.version_view(version, base=view)
        pinned.append((view, observe(view)))
    names = all_names(history.db)
    assert observe(view, names) == observe(history.db.version_view(version), names)
    # every view handed out along the way — a reader's pin — still gives
    # the answers it gave when it was built, ten or forty successors on
    for held, answers in pinned:
        assert observe(held) == answers
        assert observe(held) == observe(history.db.version_view(held.version))


@pytest.fixture
def small_pages(monkeypatch):
    """Pages of two ids. Every history here stays under ~110 ids, one
    page at the real size; with two ids a page they span dozens of
    pages, some emptied, and new ids land below a page's top."""
    monkeypatch.setattr(view_module, "PAGE_SHIFT", 1)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("versions,edits", [(8, 3), (14, 6), (10, 25)])
def test_successor_equals_cold_on_small_pages(small_pages, seed, versions, edits):
    test_successor_equals_cold_for_every_version(seed, versions, edits)


@pytest.mark.parametrize("seed", [2, 5])
def test_chain_of_forty_successors_on_small_pages(small_pages, seed):
    test_chain_of_forty_successors_and_pins_that_never_move(seed)


def test_views_share_states_and_untouched_lists(monkeypatch):
    # pages of four ids: the history spans dozens of them, and a child
    # page holds several parents' lists
    monkeypatch.setattr(view_module, "PAGE_SHIFT", 2)
    history = History(11)
    for __ in range(12):
        base_version = history.version(6)
    base = history.db.version_view(base_version)
    obj = history.create()
    parent = history.roots("Data", "InputData", "OutputData")[0]
    child = parent.add_sub_object("Text")
    version = history.db.create_version()
    successor = history.db.version_view(version, base=base)
    assert successor.object_by_oid(obj.oid) is not None
    assert base.object_by_oid(obj.oid) is None
    delta = list(history.db.versions.store.states_at(version))
    changed = {key for key, __, __ in delta}
    assert changed >= {("o", obj.oid), ("o", child.oid)}
    derived = dict(successor.item_states())
    assert all(
        derived[key] is state
        for key, state in base.item_states()
        if key not in changed
    )
    # the pages the delta wrote, from the delta alone
    shift = view_module.PAGE_SHIFT
    assert len(base._object_pages) > 10  # noqa: SLF001
    assert all(kind == "o" for (kind, __), __, __ in delta)
    written = {
        "_object_pages": {oid >> shift for (__, oid), __, __ in delta},
        "_relationship_pages": set(),
        "_child_pages": {
            state.parent_oid >> shift
            for __, state, __ in delta
            if state.parent_oid is not None
        },
        "_incidence_pages": set(),
        # a known root's state replaces it in place: only a new root
        # enters the name index
        "_name_buckets": {
            hash(state.name) % view_module.NAME_BUCKETS
            for (__, oid), state, __ in delta
            if state.parent_oid is None and base.object_by_oid(oid) is None
        },
    }
    assert written["_child_pages"] == {parent.oid >> shift}
    for table, pages in written.items():
        before = getattr(base, table)
        after = getattr(successor, table)
        for number, page in enumerate(before):
            if number in pages:
                assert after[number] is not page, (table, number)
            else:
                assert after[number] is page, (table, number)
    # inside the one child page written, only the parent's list is new
    number = parent.oid >> shift
    before = base._child_pages[number]  # noqa: SLF001
    after = successor._child_pages[number]  # noqa: SLF001
    assert child.oid in after[parent.oid]
    assert child.oid not in before.get(parent.oid, ())
    assert any(owner != parent.oid for owner in before)
    assert all(
        after[owner] is members
        for owner, members in before.items()
        if owner != parent.oid
    )


def test_flyweights_of_one_item_compare_equal_within_a_view():
    db = build_history(4, 6, 5, branch=0)
    version = db.saved_versions()[-1]
    view, other = db.version_view(version), db.version_view(version)
    obj = view.objects(include_patterns=True)[0]
    again = view.object_by_oid(obj.oid)
    assert again is not obj and again == obj and hash(again) == hash(obj)
    assert obj in view.objects(include_patterns=True)
    assert other.object_by_oid(obj.oid) != obj  # another view's item
    rels = view.relationships()
    if rels:
        assert view.relationships()[0] == rels[0]
        assert rels[0] in view.relationships_of(rels[0].endpoints()[0].oid)


# ---------------------------------------------------------------------------
# fall-backs: an unusable base gives the cold view, never an error
# ---------------------------------------------------------------------------


@pytest.fixture
def counted_resolves(monkeypatch):
    """Counts ``resolve_chain`` calls — the mark of a cold build."""
    calls = []
    original = VersionStore.resolve_chain

    def counting(self, chain):
        calls.append(list(chain))
        return original(self, chain)

    monkeypatch.setattr(VersionStore, "resolve_chain", counting)
    return calls


class TestFallBacks:
    def test_parent_base_is_used_and_resolves_nothing(self, counted_resolves):
        history = History(3)
        first = history.version(5)
        second = history.version(5)
        base = history.db.version_view(first)
        del counted_resolves[:]
        successor = history.db.version_view(second, base=base)
        assert counted_resolves == []
        assert observe(successor) == observe(history.db.version_view(second))

    def test_base_on_another_branch(self, counted_resolves):
        history = History(7)
        fork = history.version(5)
        trunk = history.version(5)
        history.db.select_version(fork)
        branch = history.version(5)
        assert history.db.versions.tree.parent(branch) == fork
        wrong = history.db.version_view(trunk)
        cold = observe(history.db.version_view(branch))
        del counted_resolves[:]
        assert observe(history.db.version_view(branch, base=wrong)) == cold
        assert len(counted_resolves) == 1  # built cold
        # ... and the fork's own view is a usable base for both children
        base = history.db.version_view(fork)
        assert observe(history.db.version_view(branch, base=base)) == cold
        assert observe(history.db.version_view(trunk, base=base)) == observe(
            history.db.version_view(trunk)
        )

    def test_base_is_an_ancestor_but_not_the_parent(self, counted_resolves):
        history = History(8)
        versions = [history.version(4) for __ in range(3)]
        grandparent = history.db.version_view(versions[0])
        del counted_resolves[:]
        view = history.db.version_view(versions[2], base=grandparent)
        assert len(counted_resolves) == 1
        assert observe(view) == observe(history.db.version_view(versions[2]))

    def test_parent_squashed_away_by_compact(self, counted_resolves):
        history = History(9)
        versions = [history.version(4) for __ in range(6)]
        stale = history.db.version_view(versions[4])
        expected = observe(history.db.version_view(versions[5]))
        history.db.compact(
            RetentionPolicy(
                squash_chains=True, keep_last=1, pins=frozenset({versions[1]})
            )
        )
        assert history.db.saved_versions() == [versions[1], versions[5]]
        del counted_resolves[:]
        view = history.db.version_view(versions[5], base=stale)
        assert len(counted_resolves) == 1
        assert observe(view) == expected
        # the new parent (the squash run's surviving ancestor) works
        parent = history.db.versions.tree.parent(versions[5])
        base = history.db.version_view(parent)
        assert observe(history.db.version_view(versions[5], base=base)) == expected

    def test_schema_version_boundary(self, counted_resolves):
        history = History(10)
        before = history.version(6)
        history.db.migrate_schema(figure3_schema())
        after = history.version(6)
        base = history.db.version_view(before)
        assert history.db.versions.tree.parent(after) == before
        del counted_resolves[:]
        view = history.db.version_view(after, base=base)
        assert len(counted_resolves) == 1
        assert view.schema is history.db.schema and base.schema is not view.schema
        assert observe(view) == observe(history.db.version_view(after))
        # within the new schema version successors derive again
        later = history.version(4)
        del counted_resolves[:]
        derived = history.db.version_view(later, base=view)
        assert counted_resolves == []
        assert observe(derived) == observe(history.db.version_view(later))

    def test_no_base(self, counted_resolves):
        history = History(12)
        version = history.version(5)
        assert observe(history.db.version_view(version, base=None)) == observe(
            history.db.version_view(version)
        )
        assert len(counted_resolves) == 2


# ---------------------------------------------------------------------------
# derivations interleaved with compaction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_successors_interleaved_with_compaction(seed):
    """Consolidation right after each version makes some versions
    *snapshots* (their delta is the complete state), squashing folds
    versions into their child and tombstone GC drops cells — a successor
    must equal the cold view through all of it, and held views must not
    move."""
    rng = random.Random(seed + 500)
    history = History(seed + 40)
    db = history.db
    materialized = 0

    def consolidated(version):
        nonlocal materialized
        stats = db.compact(RetentionPolicy(squash_chains=False, snapshot_interval=2))
        materialized += stats.snapshot_states_added
        return version

    view = db.version_view(consolidated(history.version(5)))
    held = [(view, observe(view))]
    for round_number in range(24):
        version = consolidated(history.version(rng.randint(1, 6)))
        view = db.version_view(version, base=view)
        assert observe(view) == observe(db.version_view(version)), (
            f"round {round_number}, version {version}, seed {seed}"
        )
        held.append((view, observe(view)))
        if round_number % 5 == 4:
            db.compact(
                RetentionPolicy(
                    squash_chains=True,
                    snapshot_interval=rng.choice([2, 3]),
                    keep_last=rng.randint(1, 3),
                    gc_tombstones=True,
                )
            )
            # whatever survived derives from its (possibly new) parent
            for survivor in db.saved_versions():
                parent = db.versions.tree.parent(survivor)
                if parent is None:
                    continue
                derived = db.version_view(survivor, base=db.version_view(parent))
                assert observe(derived) == observe(db.version_view(survivor))
    assert db.versions.store.snapshot_versions()
    assert materialized, "no version was consolidated between derivations"
    for pinned, answers in held:
        assert observe(pinned) == answers


@pytest.mark.parametrize("seed", range(5))
def test_successors_interleaved_with_compaction_on_small_pages(small_pages, seed):
    test_successors_interleaved_with_compaction(seed)


# ---------------------------------------------------------------------------
# a publication after a k-item check-in does O(k) work and copies O(pages)
# ---------------------------------------------------------------------------


class _CountingCells(dict):
    """The store's cell table, recording which cells are read and
    counting whole-table passes (iteration of any kind)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()
        self.passes = 0

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __iter__(self):
        self.passes += 1
        return super().__iter__()

    def items(self):
        self.passes += 1
        return super().items()

    def values(self):
        self.passes += 1
        return super().values()

    def keys(self):
        self.passes += 1
        return super().keys()


def _publish_after_a_k_item_check_in(path, roots, counted_resolves):
    """Publish a 3-item check-in on a master of *roots* described
    actions whose view cache is full; returns the ``tracemalloc`` peak
    of the publication, in bytes."""
    server = SeedServer.open(path, schema=spades_schema())
    master = server.master
    with master.bulk():
        for i in range(roots):
            action = master.create_object("Action", f"Act{i:05d}")
            action.add_sub_object("Description", f"does {i}")
    assert len(master._objects) == 2 * roots  # noqa: SLF001
    server.publish_snapshot()  # the cold first pin
    # fill the view cache, so that the publication also evicts
    for i in range(DEFAULT_SNAPSHOT_CACHE):
        master.set_value(master.get_object(f"Act{i + 10:05d}.Description"), "x")
        server.publish_snapshot()
    assert len(server.pinned_snapshots()) == DEFAULT_SNAPSHOT_CACHE
    client = server.connect("writer")
    local = client.check_out("Act00007", "Act00008")
    local.set_value(local.get_object("Act00007.Description"), "edited")
    local.set_value(local.get_object("Act00008.Description"), "edited too")
    local.create_object("Data", "Fresh")
    client.check_in()
    k = 3
    store = master.versions.store
    cells = store._cells = _CountingCells(store._cells)  # noqa: SLF001
    del counted_resolves[:]
    tracemalloc.start()
    try:
        version = server.publish_snapshot()
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counted_resolves == []
    assert cells.passes == 0
    # the journal record and the successor view read the k cells just
    # recorded, and no other
    assert 0 < len(cells.read) <= k
    assert master.versions.delta_size(version) == k
    assert len(server.pinned_snapshots()) == DEFAULT_SNAPSHOT_CACHE
    view = server.snapshot(version, build=False)
    assert view.object_count() == 2 * roots + 1
    assert view.get("Act00007.Description").value == "edited"
    assert list(view.item_states()) == list(
        master.version_view(version).item_states()
    )
    return peak


def test_publication_after_a_k_item_check_in_is_o_k(tmp_path, counted_resolves):
    """The publication allocates about as much on a master ten times
    larger: it copies page directories and the pages the check-in
    wrote, not the tables (copying them showed as 284 KB against
    4.9 MB)."""
    small = _publish_after_a_k_item_check_in(
        tmp_path / "small.seed", 2_500, counted_resolves
    )
    large = _publish_after_a_k_item_check_in(
        tmp_path / "large.seed", 25_000, counted_resolves
    )
    assert large < 2 * small, (small, large)
