"""The bulk write path vs. the per-item path — equivalence forever.

``SeedDatabase.bulk()`` defers index maintenance, ACYCLIC checks, and
completeness fan-out to one-shot batch finalize. These tests pin its
contract:

* a successful batch lands in a state *identical* to replaying the
  same operations one by one (records, indexes, completeness, version
  machinery — compared via the canonical image);
* a failed batch (validation violation, escaping exception, or a
  swallowed mutation error) rolls the whole batch back in place,
  byte-identical, with surviving handles still valid;
* mid-batch reads see the batch's writes;
* ``bulk_load`` (a convenience walker: it feeds its specs to the public
  mutators inside one batch) is equivalent to the same data entered
  through the operational interface, and constructs no record itself —
  only the three create mutators and ``wire_item_states`` do;
* ``VersionStore.resolve_chain`` (what cold checkout builds on) always
  agrees with the per-cell ``state_on_chain`` reference.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

import repro
from repro.core import SeedDatabase, figure3_schema
from repro.core.completeness import CompletenessEngine
from repro.core.errors import (
    ConsistencyError,
    SchemaError,
    SeedError,
    TransactionError,
)
from repro.core.schema.builder import SchemaBuilder
from repro.core.storage.serialize import database_to_dict
from repro.core.variants import VariantFamily
from repro.core.versions.compaction import RetentionPolicy
from repro.spades import spades_schema
from repro.workloads.specgen import SpecShape, generate_spec

SRC = Path(repro.__file__).parent


def acyclic_schema():
    """Tasks with titles/notes and an ACYCLIC dependency association."""
    builder = SchemaBuilder("bulk-acyclic")
    builder.entity_class("Task")
    builder.dependent("Task", "Title", "1..1", sort="STRING")
    builder.dependent("Task", "Note", "0..*", sort="STRING")
    builder.association(
        "DependsOn",
        ("prereq", "Task", "0..*"),
        ("dependent", "Task", "0..*"),
        acyclic=True,
    )
    return builder.build()


def canonical_image(db: SeedDatabase) -> dict:
    """Comparable form of the complete database state."""
    image = database_to_dict(db)
    image.pop("name")  # the two replicas are named differently
    return image


def gap_multiset(report):
    return sorted(
        (gap.kind, gap.item, gap.element, gap.message) for gap in report.gaps
    )


def assert_states_identical(item_db: SeedDatabase, bulk_db: SeedDatabase):
    assert canonical_image(item_db) == canonical_image(bulk_db)
    bulk_db.indexes.verify()
    assert gap_multiset(bulk_db.check_completeness()) == gap_multiset(
        bulk_db.check_completeness_scan()
    )
    assert gap_multiset(item_db.check_completeness()) == gap_multiset(
        bulk_db.check_completeness()
    )


# ---------------------------------------------------------------------------
# randomized equivalence: record valid ops per-item, replay them in bulk
# ---------------------------------------------------------------------------


def generate_script(seed: int) -> list[tuple]:
    """Drive random mutations on a throwaway database, recording the
    ops that succeeded. Ops reference independent objects and
    relationships by *script registry index* (their creation ordinal),
    never by oid — failed attempts on the throwaway still consume ids,
    so raw oids would not replay. The recorded script is deterministic
    and valid: replaying it on any fresh replica (per-item or bulk)
    succeeds and allocates identical ids."""
    rng = random.Random(seed)
    db = SeedDatabase(figure3_schema(), f"oracle-{seed}")
    script: list[tuple] = []
    obj_index_of: dict[int, int] = {}  # throwaway oid -> registry index
    rel_index_of: dict[int, int] = {}
    obj_count = 0
    rel_count = 0
    counter = 0
    for __ in range(70):
        objects = [
            o for o in db.objects(include_patterns=True) if o.parent is None
        ]
        roll = rng.random()
        try:
            if roll < 0.28 or not objects:
                counter += 1
                class_name = rng.choice(
                    ["Data", "Action", "OutputData", "Thing"]
                )
                created = db.create_object(
                    class_name, f"Obj{counter}", pattern=rng.random() < 0.12
                )
                obj_index_of[created.oid] = obj_count
                obj_count += 1
                op = ("create_object", class_name, f"Obj{counter}",
                      created.is_pattern)
            elif roll < 0.45:
                target = rng.choice(objects)
                if target.is_instance_of("Data"):
                    role, value = "Text", None
                elif target.class_name == "Action" and not target.sub_objects(
                    "Description"
                ):
                    role, value = "Description", "desc"
                else:
                    continue
                db.create_sub_object(target, role, value)
                op = ("create_sub", obj_index_of[target.oid], role, value)
            elif roll < 0.58:
                data = [o for o in objects if o.is_instance_of("Data")]
                actions = [o for o in objects if o.class_name == "Action"]
                if not (data and actions):
                    continue
                association = rng.choice(["Read", "Access"])
                first_role = "from" if association == "Read" else "data"
                chosen_data = rng.choice(data)
                chosen_action = rng.choice(actions)
                created_rel = db.relate(
                    association,
                    {first_role: chosen_data, "by": chosen_action},
                )
                rel_index_of[created_rel.rid] = rel_count
                rel_count += 1
                op = (
                    "relate",
                    association,
                    (
                        (first_role, obj_index_of[chosen_data.oid]),
                        ("by", obj_index_of[chosen_action.oid]),
                    ),
                )
            elif roll < 0.66:
                rels = [
                    r
                    for r in db.relationships(include_patterns=True)
                    if r.rid in rel_index_of
                ]
                if not rels:
                    continue
                victim = rng.choice(rels)
                db.delete(victim)
                op = ("delete_rel", rel_index_of[victim.rid])
            elif roll < 0.74:
                if not objects:
                    continue
                victim = rng.choice(objects)
                db.delete(victim)
                op = ("delete_obj", obj_index_of[victim.oid])
            elif roll < 0.82:
                if not objects:
                    continue
                counter += 1
                target = rng.choice(objects)
                db.rename(target, f"Renamed{counter}")
                op = ("rename", obj_index_of[target.oid], f"Renamed{counter}")
            elif roll < 0.90:
                vague = [o for o in objects if o.class_name == "Data"]
                if not vague:
                    continue
                target = rng.choice(vague)
                db.reclassify(target, "OutputData")
                op = ("reclassify", obj_index_of[target.oid], "OutputData")
            else:
                patterns = [o for o in objects if o.is_pattern]
                normals = [
                    o
                    for o in objects
                    if not o.is_pattern and not o.inherited_patterns
                ]
                if not (patterns and normals):
                    continue
                pattern = rng.choice(patterns)
                inheritor = rng.choice(normals)
                db.inherit(pattern, inheritor)
                op = (
                    "inherit",
                    obj_index_of[pattern.oid],
                    obj_index_of[inheritor.oid],
                )
        except SeedError:
            continue  # rejected on the throwaway: not part of the script
        script.append(op)
    return script


class Replayer:
    """Replays a recorded script, resolving registry indices."""

    def __init__(self, db: SeedDatabase) -> None:
        self.db = db
        self.objects: list = []
        self.relationships: list = []

    def replay(self, script: list[tuple]) -> None:
        db = self.db
        for op in script:
            kind = op[0]
            if kind == "create_object":
                self.objects.append(
                    db.create_object(op[1], op[2], pattern=op[3])
                )
            elif kind == "create_sub":
                db.create_sub_object(self.objects[op[1]], op[2], op[3])
            elif kind == "relate":
                self.relationships.append(
                    db.relate(
                        op[1],
                        {
                            role: self.objects[index]
                            for role, index in op[2]
                        },
                    )
                )
            elif kind == "delete_rel":
                db.delete(self.relationships[op[1]])
            elif kind == "delete_obj":
                db.delete(self.objects[op[1]])
            elif kind == "rename":
                db.rename(self.objects[op[1]], op[2])
            elif kind == "reclassify":
                db.reclassify(self.objects[op[1]], op[2])
            elif kind == "inherit":
                db.inherit(self.objects[op[1]], self.objects[op[2]])
            else:  # pragma: no cover - script generator bug
                raise AssertionError(f"unknown op {kind}")


@pytest.mark.parametrize("seed", range(8))
def test_randomized_bulk_replay_is_identical(seed):
    script = generate_script(seed)
    assert script, "the generator must produce a non-trivial script"
    item_db = SeedDatabase(figure3_schema(), f"item-{seed}")
    Replayer(item_db).replay(script)
    bulk_db = SeedDatabase(figure3_schema(), f"bulk-{seed}")
    bulk_db.check_completeness()  # prime so the finalize merge is exercised
    with bulk_db.bulk():
        Replayer(bulk_db).replay(script)
    assert_states_identical(item_db, bulk_db)
    # and the version machinery sees identical state: snapshot both
    item_db.create_version()
    bulk_db.create_version()
    assert canonical_image(item_db) == canonical_image(bulk_db)


@pytest.mark.parametrize("seed", range(8))
def test_randomized_mid_batch_failure_rolls_everything_back(seed):
    script = generate_script(seed)
    item_db = SeedDatabase(figure3_schema(), f"item-{seed}")
    Replayer(item_db).replay(script)
    bulk_db = SeedDatabase(figure3_schema(), f"bulk-{seed}")
    replayer = Replayer(bulk_db)
    prefix = script[: len(script) // 2]
    with bulk_db.bulk():
        replayer.replay(prefix)
    before = canonical_image(bulk_db)
    index_before = bulk_db.indexes.snapshot()
    registry_mark = (len(replayer.objects), len(replayer.relationships))
    with pytest.raises(RuntimeError, match="boom"):
        with bulk_db.bulk():
            replayer.replay(script[len(prefix):])
            raise RuntimeError("boom")
    assert canonical_image(bulk_db) == before
    assert bulk_db.indexes.snapshot() == index_before
    bulk_db.indexes.verify()
    # the batch can be replayed afterwards: the rollback left no residue
    del replayer.objects[registry_mark[0]:]
    del replayer.relationships[registry_mark[1]:]
    with bulk_db.bulk():
        replayer.replay(script[len(prefix):])
    assert_states_identical(item_db, bulk_db)


# ---------------------------------------------------------------------------
# failure atomicity details
# ---------------------------------------------------------------------------


class TestFailureAtomicity:
    def test_validation_failure_restores_and_keeps_handles(self):
        db = SeedDatabase(acyclic_schema(), "atomic")
        first = db.create_object("Task", "First")
        first.add_sub_object("Title", "first")
        second = db.create_object("Task", "Second")
        second.add_sub_object("Title", "second")
        db.relate("DependsOn", prereq=first, dependent=second)
        before = canonical_image(db)
        with pytest.raises(ConsistencyError, match="cycle"):
            with db.bulk():
                extra = db.create_object("Task", "Extra")
                extra.add_sub_object("Title", "extra")
                # closes First -> Second -> First: caught by the one
                # batched DFS at finalize, not per edge
                db.relate("DependsOn", prereq=second, dependent=first)
        assert canonical_image(db) == before
        assert db.find_object("First") is first, "handle identity survives"
        assert db.find_object("Extra") is None
        db.indexes.verify()

    def test_swallowed_mutation_error_poisons_the_batch(self):
        db = SeedDatabase(acyclic_schema(), "poison")
        task = db.create_object("Task", "T")
        task.add_sub_object("Title", "t")
        before = canonical_image(db)
        with pytest.raises(TransactionError, match="rolled back"):
            with db.bulk():
                db.create_object("Task", "Kept").add_sub_object("Title", "k")
                try:
                    # unknown attribute raises *after* the relationship
                    # was registered: partial effects, no undo closures
                    db.relate(
                        "DependsOn",
                        prereq=task,
                        dependent=task,
                        attributes={"nope": 1},
                    )
                except SeedError:
                    pass  # swallowed: the batch must refuse to commit
        assert canonical_image(db) == before

    def test_pre_mutation_error_is_harmless_when_caught(self):
        db = SeedDatabase(acyclic_schema(), "harmless")
        db.create_object("Task", "Dup").add_sub_object("Title", "d")
        with db.bulk():
            try:
                db.create_object("Task", "Dup")  # duplicate: rejected
            except ConsistencyError:
                pass  # raised before any mutation — batch stays clean
            db.create_object("Task", "Fresh").add_sub_object("Title", "f")
        assert db.find_object("Fresh") is not None
        db.indexes.verify()

    def test_escaping_exception_restores(self, fig2_db):
        fig2_db.create_object("Data", "Kept")
        before = canonical_image(fig2_db)
        with pytest.raises(ValueError):
            with fig2_db.bulk():
                fig2_db.create_object("Data", "Gone")
                raise ValueError("abort")
        assert canonical_image(fig2_db) == before


# ---------------------------------------------------------------------------
# batch semantics
# ---------------------------------------------------------------------------


class TestBatchSemantics:
    def test_mid_batch_reads_see_writes(self, fig2_db):
        with fig2_db.bulk():
            data = fig2_db.create_object("Data", "Seen")
            assert fig2_db.find_object("Seen") is data
            assert data in fig2_db.objects("Data")  # triggers a rebuild
            fig2_db.create_object("Data", "Later")
            assert len(fig2_db.objects("Data")) == 2  # rebuilds again
            report = fig2_db.check_completeness()  # the compiled kernel
            assert report.gaps == fig2_db.check_completeness_scan().gaps

    def test_mid_batch_completeness_on_figure5_patterns(self):
        db = SeedDatabase(spades_schema(), "figure5")
        db.create_object("Module", "Kernel")
        primed = db.check_completeness().gaps
        gap_map = dict(db.completeness._gaps_by_item)
        with db.bulk():
            family = VariantFamily(db, "Config", variant_class="Action")
            family.add_shared_relationship(
                "AllocatedTo", {"module": db.get_object("Kernel")},
                variant_role="action",
            )
            family.add_shared_sub_object("Description", "shared description")
            family.add_variant(db.create_object("Action", "AlpineConfig"))
            reader = db.create_object("Action", "ReaderPattern", pattern=True)
            alarms = db.create_object("InputData", "Alarms")
            db.relate("Read", {"from": alarms, "by": reader}, pattern=True)
            db.inherit(reader, db.create_object("Action", "Worker"))
            db.create_object("Action", "Plain").add_sub_object("Note", "n")
            report = db.check_completeness()
            assert report.gaps == db.check_completeness_scan().gaps
            assert report.gaps != primed
            assert {"AlpineConfig", "Worker", "Plain"} <= {
                gap.item for gap in report
            }
            assert db.completeness._gaps_by_item == gap_map  # left alone
        assert db.check_completeness().gaps == report.gaps

    def test_mid_batch_completeness_does_not_run_the_oracle(
        self, fig2_db, monkeypatch
    ):
        with fig2_db.bulk():
            fig2_db.create_object("Data", "Seen")
            expected = fig2_db.check_completeness_scan().gaps

            def oracle(self, item):
                raise AssertionError("the product ran the oracle")

            monkeypatch.setattr(CompletenessEngine, "object_gaps_scan", oracle)
            monkeypatch.setattr(CompletenessEngine, "relationship_gaps_scan", oracle)
            assert fig2_db.check_completeness().gaps == expected

    def test_restrictions_inside_bulk(self, fig2_db):
        with fig2_db.bulk():
            with pytest.raises(TransactionError, match="bulk batch"):
                fig2_db.create_version()
            with pytest.raises(TransactionError, match="bulk batch"):
                fig2_db.select_version("1.0")
            with pytest.raises(TransactionError, match="bulk batch"):
                fig2_db.compact(RetentionPolicy())
            with pytest.raises(TransactionError, match="bulk batch"):
                fig2_db.migrate_schema(figure3_schema())
            with pytest.raises(TransactionError, match="nested"):
                with fig2_db.bulk():
                    pass  # pragma: no cover

    def test_bulk_inside_transaction_forbidden(self, fig2_db):
        with pytest.raises(TransactionError, match="inside a transaction"):
            with fig2_db.transaction():
                with fig2_db.bulk():
                    pass  # pragma: no cover

    def test_transaction_inside_bulk_joins_the_batch(self, fig2_db):
        with fig2_db.bulk():
            with fig2_db.transaction():
                fig2_db.create_object("Data", "InTxn")
            assert fig2_db._bulk is not None  # noqa: SLF001 - the batch is still open
        assert fig2_db.find_object("InTxn") is not None

    def test_empty_batch_is_a_no_op(self, fig2_db):
        before = canonical_image(fig2_db)
        with fig2_db.bulk():
            pass
        assert canonical_image(fig2_db) == before

    def test_dirty_set_accumulates_for_one_version_commit(self, fig2_db):
        with fig2_db.bulk():
            fig2_db.create_object("Data", "A")
            fig2_db.create_object("Data", "B")
        assert fig2_db.has_unsaved_changes()
        version = fig2_db.create_version()
        assert fig2_db.versions.delta_size(version) == 2
        assert not fig2_db.has_unsaved_changes()


# ---------------------------------------------------------------------------
# bulk_load (the spec walker over the operational interface)
# ---------------------------------------------------------------------------


def spades_population(seed: int) -> tuple[list[dict], list[dict]]:
    """A generated SPADES specification in ``bulk_load`` spec form:
    keyword sub-trees, read/write/vague flows, containments, a pattern."""
    spec = generate_spec(
        SpecShape(actions=30, data=30, flows=80, keywords_per_data=2.0), seed
    )
    keywords: dict[str, list[str]] = {}
    for data, keyword in spec.keywords:
        keywords.setdefault(data, []).append(keyword)
    assert keywords and spec.containments
    assert {kind for kind, __, __ in spec.flows} == {"read", "write", "vague"}
    objects: list[dict] = [
        {
            "class": "Action",
            "name": name,
            "sub_objects": [{"role": "Description", "value": f"does {name}"}],
        }
        for name in spec.action_names
    ]
    for name in spec.data_names:
        body = [{"role": "Contents", "value": f"about {name}"}] + [
            {"role": "Keywords", "value": keyword}
            for keyword in keywords.get(name, ())
        ]
        objects.append(
            {
                "class": "Data",
                "name": name,
                "sub_objects": [
                    {"role": "Text",
                     "sub_objects": [{"role": "Body", "sub_objects": body}]}
                ],
            }
        )
    objects.append({"class": "Data", "name": "Template", "pattern": True})
    flow_shapes = {
        "read": ("Read", "from", None),
        "write": ("Write", "to", {"NumberOfWrites": 2}),
        "vague": ("Access", "data", None),
    }
    relationships: list[dict] = []
    for kind, data, action in spec.flows:
        association, data_role, attributes = flow_shapes[kind]
        relationships.append(
            {
                "association": association,
                "bindings": {data_role: data, "by": action},
                "attributes": attributes,
            }
        )
    relationships += [
        {
            "association": "Contained",
            "bindings": {"container": container, "contained": contained},
        }
        for container, contained in spec.containments
    ]
    relationships.append(
        {
            "association": "Access",
            "bindings": {"data": "Template", "by": spec.action_names[0]},
            "pattern": True,
        }
    )
    return objects, relationships


def enter_through_mutators(db, objects, relationships) -> None:
    """The same specs, one public mutator call per item."""

    def enter_subs(parent, specs):
        for spec in specs:
            child = db.create_sub_object(
                parent, spec["role"], spec.get("value"), index=spec.get("index")
            )
            enter_subs(child, spec.get("sub_objects", ()))

    for spec in objects:
        obj = db.create_object(
            spec["class"], spec["name"], pattern=spec.get("pattern", False)
        )
        enter_subs(obj, spec.get("sub_objects", ()))
    for spec in relationships:
        db.relate(
            spec["association"],
            {
                role: db.get_object(name, include_patterns=True)
                for role, name in spec["bindings"].items()
            },
            attributes=spec.get("attributes"),
            pattern=spec.get("pattern", False),
        )



class TestBulkLoad:
    def test_equivalent_to_operational_interface(self):
        item_db = SeedDatabase(acyclic_schema(), "item")
        a = item_db.create_object("Task", "A")
        a.add_sub_object("Title", "a")
        a.add_sub_object("Note", "n0")
        a.add_sub_object("Note", "n1")
        b = item_db.create_object("Task", "B")
        b.add_sub_object("Title", "b")
        item_db.relate("DependsOn", prereq=b, dependent=a)

        bulk_db = SeedDatabase(acyclic_schema(), "bulk")
        created = bulk_db.bulk_load(
            objects=[
                {
                    "class": "Task",
                    "name": "A",
                    "sub_objects": [
                        {"role": "Title", "value": "a"},
                        {"role": "Note", "value": "n0"},
                        {"role": "Note", "value": "n1"},
                    ],
                },
                {
                    "class": "Task",
                    "name": "B",
                    "sub_objects": [{"role": "Title", "value": "b"}],
                },
            ],
            relationships=[
                {
                    "association": "DependsOn",
                    "bindings": {"prereq": "B", "dependent": "A"},
                }
            ],
        )
        assert set(created) == {"A", "B"}
        assert_states_identical(item_db, bulk_db)

    def test_nested_sub_objects_and_attributes(self, fig3_db):
        fig3_db.bulk_load(
            objects=[
                {
                    "class": "OutputData",
                    "name": "Alarms",
                    "sub_objects": [
                        {
                            "role": "Text",
                            "sub_objects": [
                                {
                                    "role": "Body",
                                    "sub_objects": [
                                        {"role": "Contents", "value": "texts"}
                                    ],
                                }
                            ],
                        }
                    ],
                },
                {"class": "Action", "name": "Handler"},
            ],
            relationships=[
                {
                    "association": "Write",
                    "bindings": {"to": "Alarms", "by": "Handler"},
                    "attributes": {"NumberOfWrites": 3},
                }
            ],
        )
        alarms = fig3_db.get_object("Alarms")
        body = alarms.sub_object("Text").sub_object("Body")
        assert body.sub_object("Contents").value == "texts"
        (write,) = fig3_db.relationships("Write")
        assert write.attribute("NumberOfWrites") == 3
        fig3_db.indexes.verify()

    def test_failed_load_rolls_back(self):
        db = SeedDatabase(acyclic_schema(), "fail")
        db.create_object("Task", "Existing").add_sub_object("Title", "e")
        before = canonical_image(db)
        with pytest.raises(SchemaError):
            db.bulk_load(
                objects=[
                    {
                        "class": "Task",
                        "name": "New",
                        "sub_objects": [{"role": "Title", "value": "n"}],
                    },
                    {"class": "Task", "name": "Bad",
                     "sub_objects": [{"role": "NoSuchRole"}]},
                ]
            )
        assert canonical_image(db) == before
        with pytest.raises(SeedError, match="unknown object spec"):
            db.bulk_load(objects=[{"class": "Task", "name": "X", "oops": 1}])
        assert canonical_image(db) == before

    def test_mixed_explicit_and_auto_indices_match_per_item(self):
        item_db = SeedDatabase(acyclic_schema(), "idx-item")
        task = item_db.create_object("Task", "T")
        task.add_sub_object("Title", "t")
        task.add_sub_object("Note", "n0")
        task.add_sub_object("Note", "n1", index=3)
        task.add_sub_object("Note", "n2")  # continues after the maximum
        bulk_db = SeedDatabase(acyclic_schema(), "idx-bulk")
        bulk_db.bulk_load(
            objects=[
                {
                    "class": "Task",
                    "name": "T",
                    "sub_objects": [
                        {"role": "Title", "value": "t"},
                        {"role": "Note", "value": "n0"},
                        {"role": "Note", "value": "n1", "index": 3},
                        {"role": "Note", "value": "n2"},
                    ],
                }
            ]
        )
        assert [
            n.index for n in bulk_db.get_object("T").sub_objects("Note")
        ] == [0, 3, 4]
        assert_states_identical(item_db, bulk_db)
        # a duplicate explicit index is rejected like add_sub_object's
        with pytest.raises(ConsistencyError, match="already has a live sub-object"):
            bulk_db.bulk_load(
                objects=[
                    {
                        "class": "Task",
                        "name": "U",
                        "sub_objects": [
                            {"role": "Title", "value": "u"},
                            {"role": "Note", "value": "a"},
                            {"role": "Note", "value": "b", "index": 0},
                        ],
                    }
                ]
            )
        assert bulk_db.find_object("U") is None

    def test_load_cycle_rejected_atomically(self):
        db = SeedDatabase(acyclic_schema(), "cycle")
        before = canonical_image(db)
        with pytest.raises(ConsistencyError, match="cycle"):
            db.bulk_load(
                objects=[
                    {"class": "Task", "name": "X",
                     "sub_objects": [{"role": "Title", "value": "x"}]},
                    {"class": "Task", "name": "Y",
                     "sub_objects": [{"role": "Title", "value": "y"}]},
                ],
                relationships=[
                    {"association": "DependsOn",
                     "bindings": {"prereq": "X", "dependent": "Y"}},
                    {"association": "DependsOn",
                     "bindings": {"prereq": "Y", "dependent": "X"}},
                ],
            )
        assert canonical_image(db) == before

    @pytest.mark.parametrize("seed", range(3))
    def test_generated_population_three_ways(self, seed):
        """bulk_load(specs) ≡ mutators in one bulk() ≡ mutators per item:
        same ids, sibling order and dirty set; every index verifies."""
        objects, relationships = spades_population(seed)
        replicas = {}
        for way in ("bulk_load", "batched", "per-item"):
            db = replicas[way] = SeedDatabase(spades_schema(), way)
            db.create_object("Module", "Existing")
            if way == "bulk_load":
                created = db.bulk_load(objects, relationships)
                assert list(created) == [spec["name"] for spec in objects]
                assert created["Template"].is_pattern
            elif way == "batched":
                with db.bulk():
                    enter_through_mutators(db, objects, relationships)
            else:
                enter_through_mutators(db, objects, relationships)
            db.indexes.verify()
        assert_states_identical(replicas["per-item"], replicas["bulk_load"])
        assert_states_identical(replicas["batched"], replicas["bulk_load"])
        # a failing load leaves the image identical and handles valid
        db = replicas["bulk_load"]
        before = canonical_image(db)
        existing = db.get_object("Existing")
        first, second = objects[0]["name"], objects[1]["name"]
        with pytest.raises(ConsistencyError):
            db.bulk_load(
                [{"class": "Module", "name": "Late"}],
                [
                    {"association": "Contained",
                     "bindings": {"container": a, "contained": b}}
                    for a, b in ((first, "Late"), (first, second), (second, first))
                ],
            )
        assert canonical_image(db) == before
        assert db.get_object("Existing") is existing and not existing.deleted
        db.indexes.verify()

    def test_records_are_constructed_in_two_places(self):
        """Structural pin: only the three create mutators and the
        from-state primitive call a record constructor."""
        sites = set()
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and getattr(
                        node.func, "id", getattr(node.func, "attr", None)
                    ) in ("SeedObject", "SeedRelationship"):
                        sites.add((path.name, function.name))
        assert sites == {
            ("database.py", "create_object"),
            ("database.py", "create_sub_object"),
            ("database.py", "relate"),
            ("bulk.py", "wire_item_states"),
        }


# ---------------------------------------------------------------------------
# one-pass chain resolution (cold checkout)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_resolve_chain_matches_per_cell_walks(seed):

    rng = random.Random(seed)
    db = SeedDatabase(figure3_schema(), f"chain-{seed}")
    counter = 0
    for __ in range(rng.randint(3, 8)):
        for __ in range(rng.randint(1, 5)):
            counter += 1
            obj = db.create_object("Data", f"D{counter}")
            if rng.random() < 0.4:
                obj.add_sub_object("Text")
            if rng.random() < 0.3 and counter > 1:
                victim = db.find_object(f"D{rng.randint(1, counter - 1)}")
                if victim is not None:
                    db.delete(victim)
        db.create_version()
        if rng.random() < 0.3 and len(db.saved_versions()) > 1:
            db.select_version(
                rng.choice(db.saved_versions()), discard_changes=True
            )
    store = db.versions.store
    for version in db.saved_versions():
        chain = db.versions.tree.chain(version)
        assert store.resolve_chain(chain) == store.resolve_chain_scan(chain)
    # snapshot consolidation must not change resolution either
    db.compact(RetentionPolicy(squash_chains=False, snapshot_interval=2))
    for version in db.saved_versions():
        chain = db.versions.tree.chain(version)
        assert store.resolve_chain(chain) == store.resolve_chain_scan(chain)


# ---------------------------------------------------------------------------
# rewired subsystems still behave (spot checks; their suites do the rest)
# ---------------------------------------------------------------------------


def test_checkin_failure_leaves_master_unchanged():
    from repro.multiuser.server import SeedServer

    server = SeedServer(acyclic_schema(), "central")
    master = server.master
    first = master.create_object("Task", "First")
    first.add_sub_object("Title", "f")
    second = master.create_object("Task", "Second")
    second.add_sub_object("Title", "s")
    master.relate("DependsOn", prereq=first, dependent=second)
    before = canonical_image(master)
    client = server.connect("alice")
    client.check_out("First", "Second")
    local = client.local
    # close the cycle locally -- the local (bulk-validated) database
    # may reject it immediately; force it through the check-in instead
    local_first = local.get_object("First")
    local_second = local.get_object("Second")
    with pytest.raises(ConsistencyError):
        local.relate("DependsOn", prereq=local_second, dependent=local_first)
    # stale-copy conflict instead: server mutates behind the client
    master.set_value(first.sub_object("Title"), "changed-behind")
    local.set_value(local_first.sub_object("Title"), "mine")
    from repro.core.errors import CheckInError

    with pytest.raises(CheckInError):
        client.check_in()
    # the failed check-in rolled the master batch back to the
    # server-side mutation, and the handle identity survived
    assert master.get_object("First") is first
    assert first.sub_object("Title").value == "changed-behind"
    assert canonical_image(master) != before  # only the server's change


def test_large_checkin_applies_in_one_transaction(monkeypatch):
    from repro.core.indexes import IndexLayer
    from repro.multiuser.server import SeedServer

    server = SeedServer(acyclic_schema(), "central")
    root = server.master.create_object("Task", "Root")
    root.add_sub_object("Title", "r")
    client = server.connect("bob")
    client.check_out("Root")
    local = client.local
    # a package of ~120 items, 60 times the 2-item master: still one
    # transaction, maintained per item — no bulk batch, no rebuild
    previous = None
    for i in range(40):
        task = local.create_object("Task", f"New{i}")
        task.add_sub_object("Title", f"t{i}")
        if previous is not None:
            local.relate("DependsOn", prereq=task, dependent=previous)
        previous = task
    rebuilds = []
    real_rebuild = IndexLayer.rebuild
    monkeypatch.setattr(
        IndexLayer, "rebuild",
        lambda layer: rebuilds.append(layer) or real_rebuild(layer),
    )
    translation = client.check_in()
    assert [layer for layer in rebuilds if layer is server.master.indexes] == []
    assert len(translation) >= 80
    master = server.master
    assert master.find_object("New39") is not None
    master.indexes.verify()
    assert master.check_consistency() == []
