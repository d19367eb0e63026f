"""Predicate combinators over objects and relationships.

The SEED prototype only offered retrieval by name; this module is part
of the query extension (the paper cites Parent & Spaccapietra's
entity-relationship algebra as the natural next step). Predicates are
small composable callables used by :mod:`repro.core.query.retrieval`
selections, :mod:`repro.core.query.algebra` operations, and the
cost-based planner in :mod:`repro.core.query.planner`.

Predicates are *structured*: each factory returns an
:class:`ObjectPredicate` — still a plain callable ``obj -> bool``, but
one the planner can inspect. :class:`NamePrefix` and :class:`InClass`
carry enough metadata to be rewritten into indexed scans
(``objects_by_name_prefix`` / ``extent_oids``); :class:`HasValue`,
:class:`ValueEquals`, and :class:`ParticipatesIn` carry enough to be
costed from the index layer's value and participation histograms
(selection selectivity instead of a fixed heuristic); and :class:`And`
/ :class:`Or` / :class:`Not` preserve the boolean structure so a
conjunction can be split into an indexable part and a residual filter.
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
    "Or",
    "Not",
    "NamePrefix",
    "InClass",
    "HasValue",
    "ValueEquals",
    "ParticipatesIn",
    "describe_predicate",
    "narrowed_class",
    "both",
    "either",
    "name_prefix",
    "has_value",
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
class Or(ObjectPredicate):
    """Disjunction."""

    parts: tuple[Predicate, ...]

    def __call__(self, obj: SeedObject) -> bool:
        return any(part(obj) for part in self.parts)

    def describe(self) -> str:
        return "(" + " or ".join(describe_predicate(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Not(ObjectPredicate):
    """Negation."""

    part: Predicate

    def __call__(self, obj: SeedObject) -> bool:
        return not self.part(obj)

    def describe(self) -> str:
        return f"not {describe_predicate(self.part)}"


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
class InClass(ObjectPredicate):
    """Match instances of *class_name* (specializations by default).

    Recognized by the planner: a selection with this predicate over an
    extent scan narrows the scanned extent (``extent_oids``) instead of
    testing every row.
    """

    class_name: str
    include_specials: bool = True

    def __call__(self, obj: SeedObject) -> bool:
        schema = obj._database.schema  # noqa: SLF001 - query-internal access
        wanted = schema.entity_class(self.class_name)
        if self.include_specials:
            return obj.entity_class.is_kind_of(wanted)
        return obj.entity_class is wanted

    def describe(self) -> str:
        exact = "" if self.include_specials else ", exact"
        return f"InClass({self.class_name}{exact})"


@dataclass(frozen=True)
class HasValue(ObjectPredicate):
    """Match objects whose value is defined.

    Recognized by the planner's cost model: selectivity is the class's
    defined-value fraction read from the value histogram.
    """

    def __call__(self, obj: SeedObject) -> bool:
        return obj.value is not None

    def describe(self) -> str:
        return "has_value"


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


def narrowed_class(db: Any, base_name: str, predicate: InClass) -> Optional[str]:
    """Class the extent of *base_name* narrows to under *predicate*.

    Returns the narrower class name when the predicate implies a
    sub-extent, *base_name* itself when the scanned class already
    implies the predicate (the test can be dropped), or None when the
    classes are unrelated and the predicate must stay a filter. Shared
    by the planner's scan rewrite and ``Retrieval``'s fast paths so the
    narrowing semantics cannot drift apart.
    """
    wanted = db.schema.entity_class(predicate.class_name)
    base = db.schema.entity_class(base_name)
    if wanted.is_kind_of(base):
        return predicate.class_name
    if base.is_kind_of(wanted):
        return base_name
    return None


def both(*predicates: Predicate) -> And:
    """Conjunction of *predicates*."""
    return And(tuple(predicates))


def either(*predicates: Predicate) -> Or:
    """Disjunction of *predicates*."""
    return Or(tuple(predicates))


def name_prefix(prefix: str) -> NamePrefix:
    """Match objects whose full dotted name starts with *prefix*."""
    return NamePrefix(prefix)


def has_value(_obj: Optional[SeedObject] = None) -> Any:
    """Match objects whose value is defined.

    Usable directly (``has_value`` as a predicate) or called with no
    argument to obtain the structured predicate explicitly.
    """
    if _obj is None:
        return HasValue()
    return _obj.value is not None


def value_is(expected: Any) -> ObjectPredicate:
    """Match defined values equal to *expected* (undefined matches nothing)."""
    return ValueEquals(expected)


def participates_in(association: str, role: Optional[str] = None) -> ParticipatesIn:
    """Match objects bound in at least one *association* relationship.

    With *role*, the object must be bound in that role. Effective
    (pattern-expanded) relationships count.
    """
    return ParticipatesIn(association, role)
