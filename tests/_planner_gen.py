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
    ObjectPredicate,
    both,
    name_prefix,
    participates_in,
    value_is,
)
from repro.spades.tool import SpadesTool
from repro.workloads.drivers import load_into_spades
from repro.workloads.specgen import SpecShape, generate_spec

CLASS_CHOICES = ("Thing", "Data", "InputData", "OutputData", "Action", "Module")
ASSOC_CHOICES = ("Access", "Read", "Write", "Contained", "Triggers", "AllocatedTo")
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


@dataclass(frozen=True)
class Not(ObjectPredicate):
    """Negation, opaque to the planner (the product builds none)."""

    part: Callable[[object], object]

    def __call__(self, obj) -> bool:
        return not self.part(obj)

    def describe(self) -> str:
        return f"not {self.part.describe()}"


def in_class(class_name: str) -> FunctionPredicate:
    """Instances of *class_name*, specializations included (opaque)."""

    def test(obj) -> bool:
        wanted = obj._database.schema.entity_class(class_name)  # noqa: SLF001
        return obj.entity_class.is_kind_of(wanted)

    return FunctionPredicate(test, f"in_class({class_name})")


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

    def __init__(self, relation: Relation, planned):
        self.relation = relation
        self.plan = planned

    @property
    def columns(self):
        return self.relation.columns


def _short_name(obj) -> bool:
    return len(obj.simple_name) <= 7


def _object_predicate(rng: random.Random):
    roll = rng.randrange(7)
    if roll == 0:
        return name_prefix(rng.choice(NAME_PREFIXES))
    if roll == 1:
        return in_class(rng.choice(CLASS_CHOICES))
    if roll == 2:
        return participates_in(rng.choice(ASSOC_CHOICES))
    if roll == 3:
        return value_is(rng.choice(("Representation", "Summary")))
    if roll == 4:
        return FunctionPredicate(_short_name, "short_name")
    if roll == 5:  # conjunction with an indexable part: exercises the
        # optimizer's And-splitting during scan rewrites
        return both(
            name_prefix(rng.choice(NAME_PREFIXES)), _object_predicate(rng)
        )
    return rng.choice(
        (
            Not(name_prefix(rng.choice(NAME_PREFIXES))),
            Not(in_class(rng.choice(CLASS_CHOICES))),
        )
    )


def _leaf(rng: random.Random, db, fresh) -> BothWays:
    if rng.random() < 0.45:
        class_name = rng.choice(CLASS_CHOICES)
        column = f"c{next(fresh)}"
        return BothWays(
            extent(db, class_name, column=column),
            plan(db).extent(class_name, column=column),
        )
    return _leaf_of(db, rng.choice(ASSOC_CHOICES))


def _leaf_of(db, association: str) -> BothWays:
    return BothWays(
        relationship_relation(db, association), plan(db).relationship(association)
    )


def _apply_select(rng: random.Random, query: BothWays) -> BothWays:
    predicate = on(rng.choice(sorted(query.columns)), _object_predicate(rng))
    return BothWays(query.relation.select(predicate), query.plan.select(predicate))


def _apply_project(rng: random.Random, query: BothWays) -> BothWays:
    columns = list(query.columns)
    kept = rng.sample(columns, rng.randrange(1, len(columns) + 1))
    return BothWays(query.relation.project(*kept), query.plan.project(*kept))


def _apply_rename(rng: random.Random, query: BothWays, fresh) -> BothWays:
    old = rng.choice(sorted(query.columns))
    new = f"n{next(fresh)}"
    return BothWays(
        query.relation.rename(**{old: new}), query.plan.rename(**{old: new})
    )


def _apply_join(left: BothWays, right: BothWays) -> BothWays:
    return BothWays(left.relation.join(right.relation), left.plan.join(right.plan))


def _role_prefix_query(rng: random.Random, db) -> BothWays:
    """A name-prefix selection on a role column of an association,
    alone or joined with an extent written on either side of it.

    These are the shapes the optimizer serves from the name index and
    the incidence index (``IndexJoin``): the prefix is cut from a name
    the role really binds, so it is selective often enough for the
    index path to win, and the association is the left factor as often
    as the right one.
    """
    query = _leaf_of(db, rng.choice(ASSOC_CHOICES))
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
        return BothWays(query.relation.select(predicate), query.plan.select(predicate))
    class_name = rng.choice(CLASS_CHOICES)
    extent_side = BothWays(
        extent(db, class_name, column=role), plan(db).extent(class_name, column=role)
    )
    if shape == 1:  # selection below the join, association on the right
        selected = BothWays(
            query.relation.select(predicate), query.plan.select(predicate)
        )
        return _apply_join(extent_side, selected)
    joined = (
        _apply_join(extent_side, query) if shape == 2 else _apply_join(query, extent_side)
    )
    return BothWays(joined.relation.select(predicate), joined.plan.select(predicate))


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
            "join",
            "join",
            "chain_join",
            "role_prefix",
        )
    )
    if op == "select":
        return _apply_select(rng, random_query(rng, db, depth + 1, fresh))
    if op == "project":
        return _apply_project(rng, random_query(rng, db, depth + 1, fresh))
    if op == "rename":
        return _apply_rename(rng, random_query(rng, db, depth + 1, fresh), fresh)
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
    return _role_prefix_query(rng, db)


def row_multiset(relation: Relation) -> Counter:
    """Order-independent, identity-aware row multiset of a relation."""
    return Counter(
        tuple(Relation._cell_key(cell) for cell in row) for row in relation.rows
    )
