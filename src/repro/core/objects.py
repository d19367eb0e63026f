"""Instance objects: independent objects and dependent sub-objects.

An object is an instance of an :class:`~repro.core.schema.entity_class.
EntityClass`. Independent objects carry a user-given name (``Alarms``);
dependent objects live inside a parent object and are named by their
role — the dependent class's name — plus an index when several siblings
of that class exist (figure 1's ``Alarms.Text.Body.Keywords[1]``).

Objects are *owned by the database*: all mutation goes through
:class:`~repro.core.database.SeedDatabase` so that consistency checking,
rollback, dirty tracking for versions, and pattern propagation stay
centralised. The convenience mutators on :class:`SeedObject` delegate to
the owning database.

The module also defines :class:`ObjectState`, the immutable snapshot of
an object's fields that :meth:`SeedObject.freeze` takes and
:meth:`SeedObject.thaw` writes back. The version store keeps the states
of changed items only, a unit of work keeps the before-image of each
item it changes (its rollback thaws them), and images and journal
deltas encode them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, TYPE_CHECKING

from repro.core.errors import SeedError
from repro.core.identifiers import DottedName, NamePart
from repro.core.schema.entity_class import EntityClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import SeedDatabase
    from repro.core.relationships import SeedRelationship

__all__ = ["SeedObject", "ObjectState"]


@dataclass(frozen=True, slots=True)
class ObjectState:
    """Immutable snapshot of an object's mutable fields.

    The version store keeps one ``ObjectState`` per (object, version)
    pair for objects changed in that version's interval. ``deleted``
    states are the paper's tombstones ("marking items as deleted instead
    of removing them physically").
    """

    class_name: str
    name: str
    index: Optional[int]
    parent_oid: Optional[int]
    value: Any
    deleted: bool
    is_pattern: bool
    inherited_pattern_oids: tuple[int, ...]

    def differs_from(self, other: "ObjectState") -> bool:
        """True when any persistent field differs (used by delta tests)."""
        return self != other


class SeedObject:
    """A live object in the database's current version.

    Attributes (read-only from user code; mutate via the database):
        oid: stable surrogate identifier, unique within the database and
            stable across versions — the version store keys on it.
        entity_class: current classification; changes on re-classification.
        parent: owning object for dependent objects, else None.
        index: sibling index for dependent objects whose class admits
            several instances per parent, else None.
        value: the typed value for instances of value-typed classes;
            ``None`` means *undefined* (incomplete information).
        deleted: tombstone flag; deleted objects are invisible to
            retrieval but kept for version history.
        is_pattern: pattern flag (paper, "Patterns and Variants").
    """

    __slots__ = (
        "oid",
        "entity_class",
        "_name",
        "index",
        "parent",
        "value",
        "deleted",
        "is_pattern",
        "inherited_patterns",
        "_children",
        "_database",
    )

    def __init__(
        self,
        database: "SeedDatabase",
        oid: int,
        entity_class: EntityClass,
        name: str,
        *,
        parent: Optional["SeedObject"] = None,
        index: Optional[int] = None,
    ) -> None:
        self._database = database
        self.oid = oid
        self.entity_class = entity_class
        self._name = name
        self.parent = parent
        self.index = index
        self.value: Any = None
        self.deleted = False
        self.is_pattern = False
        #: oids of patterns this object inherits, in inheritance order;
        #: immutable — an inherits-link change assigns a new tuple, so
        #: :meth:`freeze` and :meth:`thaw` share it with the state
        self.inherited_patterns: tuple[int, ...] = ()
        #: role name -> list of child objects (including tombstones)
        self._children: dict[str, list[SeedObject]] = {}

    # -- naming ---------------------------------------------------------------

    @property
    def own_part(self) -> NamePart:
        """This object's own name component (role/user name plus index)."""
        return NamePart(self._name, self.index)

    @property
    def name(self) -> DottedName:
        """The full composed dotted name (paper, figure 1 explanation)."""
        if self.parent is None:
            return DottedName((self.own_part,))
        return DottedName(self.parent.name.parts + (self.own_part,))

    @property
    def simple_name(self) -> str:
        """The object's own name text without parent path or index."""
        return self._name

    @property
    def is_independent(self) -> bool:
        """True for top-level objects with a user-given name."""
        return self.parent is None

    @property
    def root(self) -> "SeedObject":
        """The independent ancestor of this object (itself if independent)."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    # -- classification ---------------------------------------------------------

    @property
    def class_name(self) -> str:
        """Name of the current class (``OutputData`` etc.)."""
        return self.entity_class.name

    def is_instance_of(self, class_name: str) -> bool:
        """True when the object's class is (a specialization of) *class_name*."""
        schema = self._database.schema
        return self.entity_class.is_kind_of(schema.entity_class(class_name))

    # -- pattern status -----------------------------------------------------------

    @property
    def in_pattern_context(self) -> bool:
        """True when this object or any ancestor is marked as a pattern.

        Sub-objects of a pattern belong to the pattern's context: they
        share its invisibility and its exemption from consistency checks.
        """
        node: Optional[SeedObject] = self
        while node is not None:
            if node.is_pattern:
                return True
            node = node.parent
        return False

    # -- structure access ----------------------------------------------------------

    @property
    def is_defined(self) -> bool:
        """False for value-typed objects whose value is still undefined."""
        if self.entity_class.has_value:
            return self.value is not None
        return True

    def sub_objects(self, role: Optional[str] = None) -> list["SeedObject"]:
        """Live (non-deleted) sub-objects, optionally only of *role*.

        This is the *raw* structure; pattern-inherited sub-objects are
        visible through :meth:`effective_sub_objects` instead.
        """
        if role is not None:
            return [c for c in self._children.get(role, ()) if not c.deleted]
        return [
            child
            for children in self._children.values()
            for child in children
            if not child.deleted
        ]

    def sub_object(self, role: str, index: Optional[int] = None) -> "SeedObject":
        """The live sub-object in *role* (with *index* when several exist).

        Raises :class:`SeedError` when no such sub-object exists; use
        :meth:`find_sub_object` for an optional lookup.
        """
        found = self.find_sub_object(role, index)
        if found is None:
            raise SeedError(
                f"object {self.name} has no sub-object {role!r}"
                + (f"[{index}]" if index is not None else "")
            )
        return found

    def find_sub_object(
        self, role: str, index: Optional[int] = None
    ) -> Optional["SeedObject"]:
        """Like :meth:`sub_object` but returns None when absent."""
        candidates = [c for c in self._children.get(role, ()) if not c.deleted]
        if not candidates:
            return None
        if index is None:
            return candidates[0]
        for child in candidates:
            if child.index == index:
                return child
        return None

    def effective_sub_objects(self, role: Optional[str] = None) -> list["SeedObject"]:
        """Sub-objects including those inherited from patterns.

        Retrieval views pattern content "as if it were inserted in the
        context of the inheritors" (paper). Inherited sub-objects are the
        pattern's own objects; they must not be updated from here.
        """
        return self._database.patterns.effective_sub_objects(self, role)

    def walk(self) -> Iterator["SeedObject"]:
        """Yield this object and all live descendants, parents first."""
        yield self
        for child in self.sub_objects():
            yield from child.walk()

    def descendant(self, *path: object) -> "SeedObject":
        """Resolve a chain of (role, index) steps below this object.

        Steps are role-name strings or ``(role, index)`` tuples:
        ``alarms.descendant("Text", ("Keywords", 1))``.
        """
        node = self
        for step in path:
            if isinstance(step, tuple):
                role, index = step
                node = node.sub_object(role, index)
            else:
                node = node.sub_object(str(step))
        return node

    # -- relationships -----------------------------------------------------------------

    def relationships(
        self, association: Optional[str] = None, role: Optional[str] = None
    ) -> list["SeedRelationship"]:
        """Live relationships this object participates in (raw, no patterns)."""
        return self._database.relationships_of_object(
            self, association=association, role=role
        )

    def related(self, association: str, role: str) -> list["SeedObject"]:
        """Objects reachable over *association*, bound at *role* there.

        ``handler.related("Read", "from")`` returns the data objects the
        handler reads from.
        """
        return self._database.navigate(self, association, role)

    # -- delegated mutators ---------------------------------------------------------------

    def set_value(self, value: Any) -> "SeedObject":
        """Set this (value-typed) object's value via the database."""
        self._database.set_value(self, value)
        return self

    def add_sub_object(
        self, role: str, value: Any = None, *, index: Optional[int] = None
    ) -> "SeedObject":
        """Create a sub-object of this object via the database."""
        return self._database.create_sub_object(self, role, value, index=index)

    def delete(self) -> None:
        """Tombstone this object (and its sub-tree) via the database."""
        self._database.delete(self)

    def reclassify(self, new_class: str, *, allow_generalize: bool = False) -> "SeedObject":
        """Move this object within its generalization hierarchy."""
        self._database.reclassify(self, new_class, allow_generalize=allow_generalize)
        return self

    # -- versioning support --------------------------------------------------------------------

    def freeze(self) -> ObjectState:
        """Snapshot the persistent fields into an immutable state.

        ``class_name`` uses the class's *full* (dotted) name so dependent
        classes resolve unambiguously on restore.
        """
        return ObjectState(
            class_name=self.entity_class.full_name,
            name=self._name,
            index=self.index,
            parent_oid=self.parent.oid if self.parent is not None else None,
            value=self.value,
            deleted=self.deleted,
            is_pattern=self.is_pattern,
            inherited_pattern_oids=self.inherited_patterns,
        )

    def thaw(self, state: ObjectState) -> None:
        """Assign every field of *state* — the inverse of :meth:`freeze`.

        The only code that writes a state onto a live object. Derived
        structure (the parent's child list, the name index) is wired
        by :func:`repro.core.bulk.wire_item_states`.
        """
        database = self._database
        self.entity_class = database.schema.entity_class(state.class_name)
        self._name = state.name
        self.index = state.index
        self.parent = (
            database._objects[state.parent_oid]  # noqa: SLF001
            if state.parent_oid is not None
            else None
        )
        self.value = state.value
        self.deleted = state.deleted
        self.is_pattern = state.is_pattern
        self.inherited_patterns = state.inherited_pattern_oids

    # -- internal hooks for the database -------------------------------------------------------

    def _attach_child(self, child: "SeedObject") -> None:
        self._children.setdefault(child.simple_name, []).append(child)

    def _detach_child(self, child: "SeedObject") -> None:
        """The inverse of :meth:`_attach_child` (a rolled-back creation)."""
        siblings = self._children[child.simple_name]
        siblings.remove(child)
        if not siblings:
            del self._children[child.simple_name]

    def _children_of_role(self, role: str) -> list["SeedObject"]:
        return self._children.get(role, [])

    def _all_children(self) -> Iterator["SeedObject"]:
        for children in self._children.values():
            yield from children

    def _rename(self, new_name: str) -> None:
        self._name = new_name

    def __repr__(self) -> str:  # pragma: no cover - trivial
        flags = "".join(
            flag
            for flag, present in (("†", self.deleted), ("℗", self.is_pattern))
            if present
        )
        return f"<SeedObject {self.name}:{self.entity_class.name}{flags} #{self.oid}>"
