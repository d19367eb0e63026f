"""Read-only views of saved database versions.

"The view to a version with number n consists of the objects and
relationships having the greatest version number that is less than or
equal to n (provided that they are not marked as deleted)." (paper,
"Versions"; figures 4b/4c show the current and 1.0 views of the
example.)

A :class:`VersionView` holds exactly that — for every visible item, the
latest state on the ancestry chain of the requested version — and
exposes the same retrieval operations the live database offers:
"retrieval of data from an old version is performed in the same way as
retrieval from the current version."

**Tables, not wrappers.** A view is five tables: the frozen object and
relationship *states* by id, and three maps derived from them (children
by parent, the root-name index, incidence by endpoint).
:class:`ViewObject` / :class:`ViewRelationship` are flyweights — an
``(id, state, view)`` triple minted when a retrieval hands an item out,
per view because ``parent`` / ``sub_objects`` / ``relationships``
resolve through the view that produced them. Two flyweights of the same
item in the same view compare equal.

**One builder.** :meth:`VersionView._apply` lays a run of (key, state)
pairs over the tables and is the only code that writes them. A *cold*
view applies the whole resolved chain
(:meth:`~repro.core.versions.store.VersionStore.resolve_chain`, O(states
stored on the chain)) to empty tables; a *successor* view copies the
tables of its parent version's view (five ``dict.copy()`` calls) and
applies only the version's own delta
(:meth:`~repro.core.versions.store.VersionStore.states_at`), so it costs
O(change) Python-level work. States are immutable and shared between
the two views; a child or incidence list the delta touches is replaced
in the successor, never mutated, so the base view — which may be a
reader's pin — does not change. Every ordered container is kept in
ascending id order, whichever way the view was built: a successor
answers every retrieval with the same items in the same order as the
cold view of the same version.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Iterable, Iterator, Optional, TYPE_CHECKING

from repro.core.errors import VersionError
from repro.core.identifiers import DottedName, NamePart
from repro.core.objects import ObjectState
from repro.core.relationships import RelationshipState
from repro.core.versions.store import ItemKey, ItemState
from repro.core.versions.version_id import VersionId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schema.element import SchemaElement
    from repro.core.schema.schema import Schema

__all__ = ["ViewObject", "ViewRelationship", "VersionView"]


class ViewObject:
    """A read-only object as it existed in a saved version."""

    __slots__ = ("oid", "state", "_view")

    def __init__(self, oid: int, state: ObjectState, view: "VersionView") -> None:
        self.oid = oid
        self.state = state
        self._view = view

    @property
    def class_name(self) -> str:
        """Name of the class the object was classified in."""
        return self.state.class_name

    @property
    def value(self) -> Any:
        """The stored value (None when undefined)."""
        return self.state.value

    @property
    def is_pattern(self) -> bool:
        """Pattern flag as of this version."""
        return self.state.is_pattern

    @property
    def parent(self) -> Optional["ViewObject"]:
        """The owning object, reconstructed from the same view."""
        if self.state.parent_oid is None:
            return None
        return self._view.object_by_oid(self.state.parent_oid)

    @property
    def own_part(self) -> NamePart:
        """The object's own name component."""
        return NamePart(self.state.name, self.state.index)

    @property
    def name(self) -> DottedName:
        """The composed dotted name as of this version."""
        parent = self.parent
        if parent is None:
            return DottedName((self.own_part,))
        return DottedName(parent.name.parts + (self.own_part,))

    def sub_objects(self, role: Optional[str] = None) -> list["ViewObject"]:
        """Live sub-objects in this version, optionally of one role."""
        return self._view.children_of(self.oid, role)

    def sub_object(self, role: str, index: Optional[int] = None) -> "ViewObject":
        """One sub-object by role and optional index (raises when absent)."""
        for child in self.sub_objects(role):
            if index is None or child.state.index == index:
                return child
        raise VersionError(
            f"object {self.name} has no sub-object {role!r} in version "
            f"{self._view.version}"
        )

    def relationships(self, association: Optional[str] = None) -> list["ViewRelationship"]:
        """Relationships binding this object in this version."""
        return self._view.relationships_of(self.oid, association)

    def related(self, association: str, role: str) -> list["ViewObject"]:
        """Objects bound at *role* in this object's *association* rels."""
        results = []
        for rel in self.relationships(association):
            bound = rel.bound(role)
            if bound.oid != self.oid:
                results.append(bound)
        return results

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ViewObject):
            return NotImplemented
        return self.oid == other.oid and self._view is other._view

    def __hash__(self) -> int:
        return hash((self.oid, id(self._view)))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<ViewObject {self.name}:{self.class_name} @{self._view.version}>"


class ViewRelationship:
    """A read-only relationship as it existed in a saved version."""

    __slots__ = ("rid", "state", "_view")

    def __init__(self, rid: int, state: RelationshipState, view: "VersionView") -> None:
        self.rid = rid
        self.state = state
        self._view = view

    @property
    def association_name(self) -> str:
        """Name of the association (as classified in this version)."""
        return self.state.association_name

    def bound(self, role: str) -> ViewObject:
        """The object bound in *role*."""
        for role_name, oid in self.state.bindings:
            if role_name == role:
                obj = self._view.object_by_oid(oid)
                if obj is None:
                    raise VersionError(
                        f"relationship #{self.rid} binds object #{oid} "
                        f"which is not visible in version {self._view.version}"
                    )
                return obj
        raise VersionError(
            f"relationship #{self.rid} of {self.association_name!r} has "
            f"no role {role!r}"
        )

    def endpoints(self) -> tuple[ViewObject, ViewObject]:
        """Both bound objects in positional order."""
        return tuple(self.bound(role) for role, __ in self.state.bindings)  # type: ignore[return-value]

    def attribute(self, name: str, default: Any = None) -> Any:
        """Attribute value as of this version."""
        for attr_name, value in self.state.attributes:
            if attr_name == name:
                return value
        return default

    def attributes(self) -> dict[str, Any]:
        """All attribute values as of this version."""
        return dict(self.state.attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ViewRelationship):
            return NotImplemented
        return self.rid == other.rid and self._view is other._view

    def __hash__(self) -> int:
        return hash((self.rid, id(self._view)))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<ViewRelationship {self.association_name}#{self.rid} "
            f"@{self._view.version}>"
        )


def _link(
    table: dict[int, list[int]], owner: int, member: int, owned: set[int]
) -> None:
    """Add *member* to *owner*'s id list, keeping it ascending.

    A list not in *owned* may be shared with the view the tables were
    copied from, so it is replaced by a copy on first touch.
    """
    members = table.get(owner)
    if members is None:
        table[owner] = [member]
        owned.add(owner)
        return
    if owner not in owned:
        members = table[owner] = list(members)
        owned.add(owner)
    if members[-1] > member:
        insort(members, member)
    else:
        members.append(member)


def _unlink(
    table: dict[int, list[int]], owner: int, member: int, owned: set[int]
) -> None:
    """Remove *member* from *owner*'s id list (copy on first touch)."""
    members = table[owner]
    if owner not in owned:
        members = table[owner] = list(members)
        owned.add(owner)
    members.remove(member)
    if not members:
        del table[owner]


def _kinds(wanted: "SchemaElement", include_specials: bool) -> list["SchemaElement"]:
    """The schema elements whose instances a retrieval of *wanted* lists."""
    return [wanted, *wanted.all_specials()] if include_specials else [wanted]


class VersionView:
    """All items of one saved version, with retrieval operations.

    *states* are the (key, state) pairs to lay over the tables of
    *base* (empty tables when None): the resolved chain for a cold
    view, the version's own delta for a successor of *base*. Callers
    get views from :meth:`VersionManager.view
    <repro.core.versions.manager.VersionManager.view>`, which decides
    which of the two applies.
    """

    def __init__(
        self,
        version: VersionId,
        schema: "Schema",
        states: Iterable[tuple[ItemKey, ItemState]],
        base: Optional["VersionView"] = None,
    ) -> None:
        self.version = version
        self.schema = schema
        if base is None:
            self._object_states: dict[int, ObjectState] = {}
            self._relationship_states: dict[int, RelationshipState] = {}
            self._children: dict[int, list[int]] = {}
            self._name_index: dict[str, int] = {}
            self._incidence: dict[int, list[int]] = {}
        else:
            self._object_states = base._object_states.copy()
            self._relationship_states = base._relationship_states.copy()
            self._children = base._children.copy()
            self._name_index = base._name_index.copy()
            self._incidence = base._incidence.copy()
        self._apply(states)

    def _apply(self, states: Iterable[tuple[ItemKey, ItemState]]) -> None:
        """Lay *states* over the tables — the only builder of a view.

        A tombstone removes the item; a state of a known item replaces
        it in place and re-links it only when what the derived maps are
        keyed on changed (parent, name and pattern flag; bound oids); a
        new item is appended. Lists reached through the derived maps are
        copied before their first change, so tables copied from a base
        view never write through to it.
        """
        objects = self._object_states
        relationships = self._relationship_states
        children = self._children
        names = self._name_index
        incidence = self._incidence
        owned_children: set[int] = set()
        owned_incidence: set[int] = set()
        top_oid = next(reversed(objects), 0)
        top_rid = next(reversed(relationships), 0)
        ascending = True
        for (kind, item_id), state in states:
            if kind == "o":
                old = objects.get(item_id)
                if state is old:
                    continue  # a snapshot's materialized copy
                if old is not None:
                    if (
                        not state.deleted
                        and old.parent_oid == state.parent_oid
                        and old.name == state.name
                        and old.is_pattern == state.is_pattern
                    ):
                        objects[item_id] = state
                        continue
                    if old.parent_oid is not None:
                        _unlink(children, old.parent_oid, item_id, owned_children)
                    elif names.get(old.name) == item_id:
                        del names[old.name]
                if state.deleted:
                    objects.pop(item_id, None)
                    continue
                if old is None:
                    if item_id < top_oid:
                        ascending = False
                    else:
                        top_oid = item_id
                objects[item_id] = state
                if state.parent_oid is not None:
                    _link(children, state.parent_oid, item_id, owned_children)
                elif not state.is_pattern:
                    names[state.name] = item_id
            else:
                old = relationships.get(item_id)
                if state is old:
                    continue
                if old is not None:
                    if not state.deleted and [oid for __, oid in old.bindings] == [
                        oid for __, oid in state.bindings
                    ]:
                        relationships[item_id] = state
                        continue
                    for __, oid in old.bindings:
                        _unlink(incidence, oid, item_id, owned_incidence)
                if state.deleted:
                    relationships.pop(item_id, None)
                    continue
                if old is None:
                    if item_id < top_rid:
                        ascending = False
                    else:
                        top_rid = item_id
                relationships[item_id] = state
                for __, oid in state.bindings:
                    _link(incidence, oid, item_id, owned_incidence)
        if not ascending:
            self._object_states = dict(sorted(objects.items()))
            self._relationship_states = dict(sorted(relationships.items()))

    # -- retrieval (mirrors the live database's interface) ---------------------

    def find(self, name: str | DottedName) -> Optional[ViewObject]:
        """Resolve a dotted name in this version (None when absent)."""
        # indexed names are simple: a hit on the text as given is exact
        oid = self._name_index.get(name) if isinstance(name, str) else None
        path = ()
        if oid is None:
            dotted = DottedName.parse(name) if isinstance(name, str) else name
            oid = self._name_index.get(str(dotted.root))
            if oid is None:
                return None
            path = dotted.parts[1:]
        states = self._object_states
        for part in path:
            for child in self._children.get(oid, ()):
                state = states[child]
                if state.name == part.name and (
                    part.index is None or state.index == part.index
                ):
                    oid = child
                    break
            else:
                return None
        return ViewObject(oid, states[oid], self)

    def get(self, name: str | DottedName) -> ViewObject:
        """Like :meth:`find` but raises :class:`VersionError` when absent."""
        obj = self.find(name)
        if obj is None:
            raise VersionError(
                f"no object named {name!s} in version {self.version}"
            )
        return obj

    def object_by_oid(self, oid: int) -> Optional[ViewObject]:
        """The object with *oid* if visible in this version."""
        state = self._object_states.get(oid)
        return None if state is None else ViewObject(oid, state, self)

    def objects(
        self,
        class_name: Optional[str] = None,
        *,
        include_specials: bool = True,
        include_patterns: bool = False,
    ) -> list[ViewObject]:
        """All visible objects, optionally filtered by class."""
        names = None
        if class_name:
            wanted = self.schema.entity_class(class_name)
            names = {c.full_name for c in _kinds(wanted, include_specials)}
        return [
            ViewObject(oid, state, self)
            for oid, state in self._object_states.items()
            if (include_patterns or not state.is_pattern)
            and (names is None or state.class_name in names)
        ]

    def relationships(
        self, association: Optional[str] = None, *, include_specials: bool = True
    ) -> list[ViewRelationship]:
        """All visible relationships, optionally filtered by association."""
        names = None
        if association:
            wanted = self.schema.association(association)
            names = {a.name for a in _kinds(wanted, include_specials)}
        return [
            ViewRelationship(rid, state, self)
            for rid, state in self._relationship_states.items()
            if names is None or state.association_name in names
        ]

    def children_of(self, oid: int, role: Optional[str] = None) -> list[ViewObject]:
        """Live sub-objects of the object with *oid* in this version."""
        states = self._object_states
        return [
            ViewObject(child, states[child], self)
            for child in self._children.get(oid, ())
            if role is None or states[child].name == role
        ]

    def relationships_of(
        self, oid: int, association: Optional[str] = None
    ) -> list[ViewRelationship]:
        """Relationships binding the object with *oid* in this version."""
        names = None
        if association:
            wanted = self.schema.association(association)
            names = {a.name for a in _kinds(wanted, True)}
        states = self._relationship_states
        return [
            ViewRelationship(rid, states[rid], self)
            for rid in self._incidence.get(oid, ())
            if names is None or states[rid].association_name in names
        ]

    def object_count(self) -> int:
        """Number of visible objects."""
        return len(self._object_states)

    def relationship_count(self) -> int:
        """Number of visible relationships."""
        return len(self._relationship_states)

    def states(self) -> tuple[Iterable[tuple[int, object]], ...]:
        """``(oid, state)`` of every visible object (parents first) and
        ``(rid, state)`` of every visible relationship: what a restore
        loads."""
        return self._object_states.items(), self._relationship_states.items()

    def item_states(self) -> Iterator[tuple[ItemKey, object]]:
        """(key, state) pairs of every visible item — for oracles/tests."""
        for oid, state in self._object_states.items():
            yield ("o", oid), state
        for rid, state in self._relationship_states.items():
            yield ("r", rid), state

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<VersionView {self.version}: {len(self._object_states)} objects, "
            f"{len(self._relationship_states)} relationships>"
        )
