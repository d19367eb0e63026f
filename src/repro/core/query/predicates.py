"""Predicate combinators over objects and relationships.

The SEED prototype only offered retrieval by name; this module is part
of the query extension (the paper cites Parent & Spaccapietra's
entity-relationship algebra as the natural next step). Predicates are
small composable callables used by :mod:`repro.core.query.retrieval`
selections, :mod:`repro.core.query.algebra` operations, and the
cost-based planner in :mod:`repro.core.query.planner`.

Predicates are *structured*: each factory returns an
:class:`ObjectPredicate` — still a plain callable ``obj -> bool``, but
one the planner can inspect. :class:`NamePrefix` carries enough
metadata to be rewritten into an indexed scan
(``objects_by_name_prefix``); :class:`ValueEquals` and
:class:`ParticipatesIn` carry enough to be costed from the index
layer's value and participation histograms (selection selectivity
instead of a fixed heuristic); and :class:`And` keeps a conjunction's
parts apart, so it can be split into an indexable part and a residual
filter.
Every predicate renders a deterministic :meth:`~ObjectPredicate.describe`
string, which keeps ``explain()`` output stable across runs.

Per the paper's stated semantics for incomplete data, "an undefined
object matches nothing": value predicates are false for undefined
values rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.objects import SeedObject

__all__ = [
    "Predicate",
    "ObjectPredicate",
    "And",
    "NamePrefix",
    "ValueEquals",
    "ParticipatesIn",
    "describe_predicate",
    "both",
    "name_prefix",
    "value_is",
    "participates_in",
]

#: a predicate over objects (any callable works; structured ones optimize)
Predicate = Callable[[SeedObject], bool]


class ObjectPredicate:
    """A callable object predicate the planner can inspect.

    Subclasses implement ``__call__`` (the test) and :meth:`describe`
    (a deterministic rendering used by ``explain()`` and golden plan
    snapshots — never ``repr`` a closure, addresses vary per run).
    """

    def __call__(self, obj: SeedObject) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


def describe_predicate(predicate: Any) -> str:
    """Deterministic description of any predicate-like callable."""
    if isinstance(predicate, ObjectPredicate):
        return predicate.describe()
    if hasattr(predicate, "describe"):
        return predicate.describe()
    name = getattr(predicate, "__name__", None)
    return name if name else "predicate"


@dataclass(frozen=True)
class And(ObjectPredicate):
    """Conjunction; the planner splits it into indexable + residual parts."""

    parts: tuple[Predicate, ...]

    def __call__(self, obj: SeedObject) -> bool:
        return all(part(obj) for part in self.parts)

    def describe(self) -> str:
        return "(" + " and ".join(describe_predicate(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class NamePrefix(ObjectPredicate):
    """Match objects whose full dotted name starts with *prefix*.

    Recognized by the planner: a selection with this predicate over an
    extent of independent classes becomes a bisected name-index scan.
    """

    prefix: str

    def __call__(self, obj: SeedObject) -> bool:
        return str(obj.name).startswith(self.prefix)

    def describe(self) -> str:
        return f"name^={self.prefix!r}"


@dataclass(frozen=True)
class ValueEquals(ObjectPredicate):
    """Match defined values equal to *expected* (undefined matches nothing).

    Recognized by the planner's cost model: selectivity comes from the
    class's maintained (exact) count of objects holding the value.
    """

    expected: Any

    def __call__(self, obj: SeedObject) -> bool:
        return obj.value is not None and obj.value == self.expected

    def describe(self) -> str:
        return f"value=={self.expected!r}"


@dataclass(frozen=True)
class ParticipatesIn(ObjectPredicate):
    """Match objects bound in at least one *association* relationship.

    With *role*, the object must be bound in that role. Effective
    (pattern-expanded) relationships count. Recognized by the planner's
    cost model: selectivity is the distinct-participant count over the
    extent size.
    """

    association: str
    role: Optional[str] = None

    def __call__(self, obj: SeedObject) -> bool:
        db = obj._database  # noqa: SLF001 - query-internal access
        wanted = db.schema.association(self.association)
        for rel in db.patterns.effective_relationships(obj, wanted):
            if self.role is None:
                return True
            bound = rel.bound(self.role)  # type: ignore[union-attr]
            if bound is obj:
                return True
        return False

    def describe(self) -> str:
        at_role = f", {self.role}" if self.role else ""
        return f"participates_in({self.association}{at_role})"


def both(*predicates: Predicate) -> And:
    """Conjunction of *predicates*."""
    return And(tuple(predicates))


def name_prefix(prefix: str) -> NamePrefix:
    """Match objects whose full dotted name starts with *prefix*."""
    return NamePrefix(prefix)


def value_is(expected: Any) -> ObjectPredicate:
    """Match defined values equal to *expected* (undefined matches nothing)."""
    return ValueEquals(expected)


def participates_in(association: str, role: Optional[str] = None) -> ParticipatesIn:
    """Match objects bound in at least one *association* relationship.

    With *role*, the object must be bound in that role. Effective
    (pattern-expanded) relationships count.
    """
    return ParticipatesIn(association, role)
