"""Shared generators for the planner test suites.

Builds (a) seeded random SPADES populations — via
:mod:`repro.workloads.specgen` plus extra sub-structure exercising vague
flows, undefined values, and tombstones — and (b) seeded random queries
constructed *in lockstep* through the eager ``Relation`` algebra and the
planner's ``plan()`` builder, so equivalence tests can compare the two
evaluation paths on identical logical queries.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.core.errors import SeedError
from repro.core.query.algebra import Relation, extent, relationship_relation
from repro.core.query.planner import on, plan
from repro.core.query.predicates import (
    InClass,
    Not,
    ObjectPredicate,
    both,
    either,
    has_value,
    name_prefix,
    participates_in,
)
from repro.spades.tool import SpadesTool
from repro.workloads.drivers import load_into_spades
from repro.workloads.specgen import SpecShape, generate_spec

OBJ = "obj"
VAL = "val"

CLASS_CHOICES = ("Thing", "Data", "InputData", "OutputData", "Action", "Module")
ASSOC_CHOICES = ("Access", "Read", "Write", "Contained", "Triggers", "AllocatedTo")
ROLE_PATHS = (
    "Text.Selector",
    "Text.Body.Contents",
    "Text.Body.Keywords",
    "Note",
    "Description",
)
NAME_PREFIXES = ("Handle", "Mo", "Al", "S", "Con", "Up", "X", "Alarm0")


@dataclass(frozen=True)
class FunctionPredicate(ObjectPredicate):
    """An opaque predicate: a callable the planner cannot look into,
    with a stable description for ``explain()``."""

    fn: Callable[[object], object]
    description: str

    def __call__(self, obj) -> bool:
        return bool(self.fn(obj))

    def describe(self) -> str:
        return self.description


def build_population(seed: int):
    """A small seeded SPADES database with the paper's data shapes.

    Includes vague flows (``Access``), undefined values (value-typed
    sub-objects never set), pattern-free modules/triggers, and a few
    tombstoned relationships.
    """
    shape = SpecShape(actions=6, data=6, flows=14, vague_fraction=0.3)
    spec = generate_spec(shape, seed)
    tool = SpadesTool(f"pop{seed}")
    load_into_spades(spec, tool)
    rng = random.Random(seed * 31 + 7)
    db = tool.db

    for name in spec.data_names:
        obj = db.get_object(name)
        if rng.random() < 0.5:
            text = obj.find_sub_object("Text")
            if text is None:
                text = obj.add_sub_object("Text")
                text.add_sub_object("Body").add_sub_object(
                    "Contents", f"about {name}"
                )
            if rng.random() < 0.5:
                text.add_sub_object(
                    "Selector", rng.choice(["Representation", "Summary"])
                )
            else:
                text.add_sub_object("Selector")  # undefined value

    modules = [tool.declare_module(f"Module{seed}x{i}") for i in range(2)]
    for name in spec.action_names[:4]:
        if rng.random() < 0.6:
            tool.allocate(name, modules[rng.randrange(2)].simple_name)
    for first, second in zip(spec.action_names, spec.action_names[1:]):
        if rng.random() < 0.3:
            tool.trigger(first, second)

    for rel in list(db.relationships("Contained", include_specials=False)):
        if rng.random() < 0.15:
            try:
                db.delete(rel)
            except SeedError:  # pragma: no cover - constraint refused it
                pass
    return db


# ----------------------------------------------------------------------
# random queries, built both ways in lockstep
# ----------------------------------------------------------------------


class BothWays:
    """One logical query held as eager result + logical plan."""

    def __init__(self, relation: Relation, planned, kinds: dict[str, str]):
        self.relation = relation
        self.plan = planned
        self.kinds = kinds

    @property
    def columns(self):
        return self.relation.columns


def _is_alarmish(value) -> bool:
    return isinstance(value, str) and "a" in value


def _is_even_int(value) -> bool:
    return isinstance(value, int) and value % 2 == 0


def _is_defined(value) -> bool:
    return value is not None


def _short_name(obj) -> bool:
    return len(obj.simple_name) <= 7


def _object_predicate(rng: random.Random):
    roll = rng.randrange(7)
    if roll == 0:
        return name_prefix(rng.choice(NAME_PREFIXES))
    if roll == 1:
        return InClass(rng.choice(CLASS_CHOICES))
    if roll == 2:
        return participates_in(rng.choice(ASSOC_CHOICES))
    if roll == 3:
        return has_value()
    if roll == 4:
        return FunctionPredicate(_short_name, "short_name")
    if roll == 5:  # conjunction with an indexable part: exercises the
        # optimizer's And-splitting during scan rewrites
        return both(
            name_prefix(rng.choice(NAME_PREFIXES)), _object_predicate(rng)
        )
    return rng.choice(
        (
            either(
                InClass(rng.choice(CLASS_CHOICES)),
                name_prefix(rng.choice(NAME_PREFIXES)),
            ),
            Not(InClass(rng.choice(CLASS_CHOICES))),
        )
    )


def _value_predicate(rng: random.Random):
    fn, label = rng.choice(
        (
            (_is_alarmish, "alarmish"),
            (_is_even_int, "even_int"),
            (_is_defined, "defined"),
        )
    )
    return FunctionPredicate(fn, label)


def _leaf(rng: random.Random, db, fresh) -> BothWays:
    if rng.random() < 0.45:
        class_name = rng.choice(CLASS_CHOICES)
        column = f"c{next(fresh)}"
        include_specials = rng.random() < 0.85
        return BothWays(
            extent(db, class_name, column=column, include_specials=include_specials),
            plan(db).extent(
                class_name, column=column, include_specials=include_specials
            ),
            {column: OBJ},
        )
    return _leaf_of(rng, db, rng.choice(ASSOC_CHOICES))


def _leaf_of(rng: random.Random, db, association: str) -> BothWays:
    attributes = (
        ("NumberOfWrites",)
        if association == "Write" and rng.random() < 0.5
        else ()
    )
    relation = relationship_relation(db, association, with_attributes=attributes)
    kinds = {relation.columns[0]: OBJ, relation.columns[1]: OBJ}
    for attribute in attributes:
        kinds[attribute] = VAL
    return BothWays(
        relation,
        plan(db).relationship(association, with_attributes=attributes),
        kinds,
    )


def _apply_select(rng: random.Random, query: BothWays) -> BothWays:
    column = rng.choice(sorted(query.kinds))
    if query.kinds[column] == OBJ:
        predicate = on(column, _object_predicate(rng))
    else:
        predicate = on(column, _value_predicate(rng))
    return BothWays(
        query.relation.select(predicate),
        query.plan.select(predicate),
        query.kinds,
    )


def _apply_project(rng: random.Random, query: BothWays) -> BothWays:
    columns = list(query.columns)
    kept = rng.sample(columns, rng.randrange(1, len(columns) + 1))
    return BothWays(
        query.relation.project(*kept),
        query.plan.project(*kept),
        {column: query.kinds[column] for column in kept},
    )


def _apply_rename(rng: random.Random, query: BothWays, fresh) -> BothWays:
    old = rng.choice(sorted(query.kinds))
    new = f"n{next(fresh)}"
    kinds = dict(query.kinds)
    kinds[new] = kinds.pop(old)
    return BothWays(
        query.relation.rename(**{old: new}),
        query.plan.rename(**{old: new}),
        kinds,
    )


def _apply_values(rng: random.Random, query: BothWays, fresh) -> BothWays:
    object_columns = sorted(
        column for column, kind in query.kinds.items() if kind == OBJ
    )
    if not object_columns:
        return query
    column = rng.choice(object_columns)
    role_path = rng.choice(ROLE_PATHS)
    into = f"v{next(fresh)}"
    kinds = dict(query.kinds)
    kinds[into] = VAL
    return BothWays(
        query.relation.values(column, role_path, into=into),
        query.plan.values(column, role_path, into=into),
        kinds,
    )


def _apply_join(left: BothWays, right: BothWays) -> BothWays:
    kinds = dict(right.kinds)
    kinds.update(left.kinds)  # shared columns keep the left side's kind
    return BothWays(
        left.relation.join(right.relation),
        left.plan.join(right.plan),
        kinds,
    )


def _apply_set_op(rng: random.Random, query: BothWays, op: str) -> BothWays:
    # derive a same-columns operand: either a filtered copy or the query
    # itself (self-union / self-difference edge cases)
    if rng.random() < 0.7:
        other = _apply_select(rng, query)
    else:
        other = query
    if op == "union":
        return BothWays(
            query.relation.union(other.relation),
            query.plan.union(other.plan),
            query.kinds,
        )
    return BothWays(
        query.relation.difference(other.relation),
        query.plan.difference(other.plan),
        query.kinds,
    )


def _read_write_union(rng: random.Random, db, fresh) -> BothWays:
    """Union of Read and Write renamed onto common columns."""
    column = f"u{next(fresh)}"
    reads_eager = relationship_relation(db, "Read").rename(**{"from": column})
    writes_eager = relationship_relation(db, "Write").rename(to=column)
    reads_plan = plan(db).relationship("Read").rename(**{"from": column})
    writes_plan = plan(db).relationship("Write").rename(to=column)
    if rng.random() < 0.5:
        return BothWays(
            reads_eager.union(writes_eager),
            reads_plan.union(writes_plan),
            {column: OBJ, "by": OBJ},
        )
    return BothWays(
        reads_eager.difference(writes_eager),
        reads_plan.difference(writes_plan),
        {column: OBJ, "by": OBJ},
    )


def _role_prefix_query(rng: random.Random, db) -> BothWays:
    """A name-prefix selection on a role column of an association,
    alone or joined with an extent written on either side of it.

    These are the shapes the optimizer serves from the name index and
    the incidence index (``IndexJoin``): the prefix is cut from a name
    the role really binds, so it is selective often enough for the
    index path to win, and the association is the left factor as often
    as the right one.
    """
    query = _leaf_of(rng, db, rng.choice(ASSOC_CHOICES))
    role = rng.choice(query.columns[:2])
    bound = [str(row[query.columns.index(role)].name) for row in query.relation.rows]
    if bound and rng.random() < 0.8:
        name = rng.choice(bound)
        prefix = name[: rng.randrange(1, len(name) + 1)]
    else:
        prefix = rng.choice(NAME_PREFIXES + ("",))
    test = name_prefix(prefix)
    if rng.random() < 0.3:  # the prefix as one part of a conjunction
        test = both(test, _object_predicate(rng))
    predicate = on(role, test)
    shape = rng.randrange(4)
    if shape == 0:
        return BothWays(
            query.relation.select(predicate), query.plan.select(predicate), query.kinds
        )
    class_name = rng.choice(CLASS_CHOICES)
    extent_side = BothWays(
        extent(db, class_name, column=role),
        plan(db).extent(class_name, column=role),
        {role: OBJ},
    )
    if shape == 1:  # selection below the join, association on the right
        selected = BothWays(
            query.relation.select(predicate), query.plan.select(predicate), query.kinds
        )
        return _apply_join(extent_side, selected)
    joined = (
        _apply_join(extent_side, query) if shape == 2 else _apply_join(query, extent_side)
    )
    return BothWays(
        joined.relation.select(predicate), joined.plan.select(predicate), joined.kinds
    )


def random_query(rng: random.Random, db, depth: int = 0, fresh=None) -> BothWays:
    """A random logical query built through both evaluation paths."""
    if fresh is None:
        fresh = itertools.count()
    if depth >= 3 or rng.random() < 0.3:
        return _leaf(rng, db, fresh)
    op = rng.choice(
        (
            "select",
            "select",
            "project",
            "rename",
            "values",
            "join",
            "join",
            "chain_join",
            "union",
            "difference",
            "rw_setop",
            "role_prefix",
        )
    )
    if op == "select":
        return _apply_select(rng, random_query(rng, db, depth + 1, fresh))
    if op == "project":
        return _apply_project(rng, random_query(rng, db, depth + 1, fresh))
    if op == "rename":
        return _apply_rename(rng, random_query(rng, db, depth + 1, fresh), fresh)
    if op == "values":
        return _apply_values(rng, random_query(rng, db, depth + 1, fresh), fresh)
    if op == "join":
        return _apply_join(
            random_query(rng, db, depth + 1, fresh),
            random_query(rng, db, depth + 1, fresh),
        )
    if op == "chain_join":  # three-way chains feed the join reorderer
        query = _apply_join(
            _apply_join(_leaf(rng, db, fresh), _leaf(rng, db, fresh)),
            _leaf(rng, db, fresh),
        )
        if rng.random() < 0.6:
            query = _apply_select(rng, query)
        return query
    if op == "rw_setop":
        return _read_write_union(rng, db, fresh)
    if op == "role_prefix":
        return _role_prefix_query(rng, db)
    return _apply_set_op(
        rng, random_query(rng, db, depth + 1, fresh), op
    )


def row_multiset(relation: Relation) -> Counter:
    """Order-independent, identity-aware row multiset of a relation."""
    return Counter(
        tuple(Relation._cell_key(cell) for cell in row) for row in relation.rows
    )
