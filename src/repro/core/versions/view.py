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

**Pages.** Each id-keyed table is a directory of pages: page
``id >> PAGE_SHIFT`` holds the entries of 2 ** ``PAGE_SHIFT`` consecutive
ids in ascending order, so walking the pages in turn walks the table in
ascending id order. The name index, keyed by text, is a fixed directory
of ``NAME_BUCKETS`` buckets by hash. A lookup is two subscripts
(``pages[oid >> PAGE_SHIFT][oid]``).

**One builder.** :meth:`VersionView._apply` lays a run of (key, state)
pairs over the tables and is the only code that writes them. A *cold*
view applies the whole resolved chain
(:meth:`~repro.core.versions.store.VersionStore.resolve_chain`, O(states
stored on the chain)) to empty tables; a *successor* view copies the
page directories of its parent version's view and applies only the
version's own delta
(:meth:`~repro.core.versions.store.VersionStore.states_at`), copying a
page on its first write. It costs O(pages + change): every page the
delta does not write is shared with the base, and so are the frozen
states. A page, child list or incidence list that came from the base
is never written — the delta's changes go to copies — so the base view,
which may be a reader's pin read on another thread, does not change.
Every ordered container is kept in ascending id order, whichever way
the view was built: a successor answers every retrieval with the same
items in the same order as the cold view of the same version.
"""

from __future__ import annotations

from bisect import insort
from itertools import chain
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

    def sub_object(self, role: str) -> "ViewObject":
        """The first sub-object in *role* (raises when absent)."""
        children = self.sub_objects(role)
        if children:
            return children[0]
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


#: an id-keyed table is a directory of pages, page ``id >> PAGE_SHIFT``
#: holding the entries of 2 ** PAGE_SHIFT consecutive ids in ascending
#: order. 256 ids: deriving a successor per check-in on team masters of
#: 8 k and 113 k items, 64–512 ids a page cost the same within noise,
#: while 32 (longer directories) and 1 024 (more copied per page
#: written) cost more
PAGE_SHIFT = 8
#: the name index is a fixed directory of buckets, bucket
#: ``hash(name) % NAME_BUCKETS``: a check-in that creates a root copies
#: one bucket, ≈ 100 names on a master of 25 k roots
NAME_BUCKETS = 256
#: what a page past the end of a directory reads as (never written)
_NO_PAGE: dict = {}


class _Writes:
    """Write access to one paged table while a view is derived.

    When *derived*, the directory's pages came from the base view and
    are reachable from it, so each is copied before its first write
    (*writable* names the pages this derivation made or copied).
    The same holds one level down for the id lists of the children and
    incidence tables: a list in a page that came from the base is
    replaced by a copy before its first change (*lists* names the
    owners whose list this derivation made).
    """

    __slots__ = ("pages", "shared", "writable", "lists")

    def __init__(self, pages: list[dict], derived: bool) -> None:
        self.pages = pages
        #: pages below this number came from the base
        self.shared = len(pages) if derived else 0
        self.writable = set(range(self.shared, len(pages)))
        self.lists: set[int] = set()

    def page(self, number: int) -> dict:
        """Page *number*, made or copied so that it may be written."""
        pages = self.pages
        if number not in self.writable:
            if number < len(pages):
                self.writable.add(number)
                pages[number] = pages[number].copy()
            else:
                self.writable.update(range(len(pages), number + 1))
                pages.extend([{} for __ in range(number + 1 - len(pages))])
        return pages[number]

    def link(self, owner: int, member: int) -> None:
        """Add *member* to *owner*'s id list, keeping it ascending."""
        number = owner >> PAGE_SHIFT
        page = self.page(number)
        members = page.get(owner)
        if members is None:
            page[owner] = [member]
            if number < self.shared:
                self.lists.add(owner)
            return
        if number < self.shared and owner not in self.lists:
            members = page[owner] = members.copy()
            self.lists.add(owner)
        if members[-1] > member:
            insort(members, member)
        else:
            members.append(member)

    def unlink(self, owner: int, member: int) -> None:
        """Remove *member* from *owner*'s id list."""
        number = owner >> PAGE_SHIFT
        page = self.page(number)
        members = page[owner]
        if number < self.shared and owner not in self.lists:
            members = page[owner] = members.copy()
            self.lists.add(owner)
        members.remove(member)
        if not members:
            del page[owner]


def _top(pages: list[dict]) -> int:
    """The largest id in a paged table (0 when it is empty)."""
    for page in reversed(pages):
        if page:
            return next(reversed(page))
    return 0


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
            self._object_pages: list[dict[int, ObjectState]] = []
            self._relationship_pages: list[dict[int, RelationshipState]] = []
            self._child_pages: list[dict[int, list[int]]] = []
            self._incidence_pages: list[dict[int, list[int]]] = []
            self._name_buckets: list[dict[str, int]] = [
                {} for __ in range(NAME_BUCKETS)
            ]
        else:
            self._object_pages = base._object_pages.copy()
            self._relationship_pages = base._relationship_pages.copy()
            self._child_pages = base._child_pages.copy()
            self._incidence_pages = base._incidence_pages.copy()
            self._name_buckets = base._name_buckets.copy()
        self._apply(states, base is not None)

    def _apply(self, states: Iterable[tuple[ItemKey, ItemState]], derived: bool) -> None:
        """Lay *states* over the tables — the only builder of a view.

        A tombstone removes the item; a state of a known item replaces
        it in place and re-links it only when what the derived maps are
        keyed on changed (parent, name and pattern flag; bound oids); a
        new item is appended, and a page it was not appended to the end
        of is re-sorted. Only pages and lists this derivation made or
        copied are written (*derived*: the directories came from a base
        view, whose pages are never changed).
        """
        shift = PAGE_SHIFT
        object_pages = self._object_pages
        relationship_pages = self._relationship_pages
        name_buckets = self._name_buckets
        objects = _Writes(object_pages, derived)
        relationships = _Writes(relationship_pages, derived)
        children = _Writes(self._child_pages, derived)
        incidence = _Writes(self._incidence_pages, derived)
        names = _Writes(name_buckets, derived)
        # a link to a page this derivation made runs inline: such a page
        # holds only lists this derivation made (any other goes through
        # _Writes.link, which copies what came from the base)
        child_pages, child_shared = children.pages, children.shared
        incidence_pages, incidence_shared = incidence.pages, incidence.shared
        own_buckets = names.writable
        top_oid = _top(object_pages)
        top_rid = _top(relationship_pages)
        unsorted_objects: set[int] = set()
        unsorted_relationships: set[int] = set()
        # the page of the last object / relationship id, and whether it
        # may be written: a run of ids on one page looks it up once
        o_number = r_number = -1
        o_page = r_page = _NO_PAGE
        o_mine = r_mine = False
        for (kind, item_id), state in states:
            number = item_id >> shift
            if kind == "o":
                if number != o_number:
                    o_number = number
                    o_page = (
                        object_pages[number]
                        if number < len(object_pages)
                        else _NO_PAGE
                    )
                    o_mine = number in objects.writable
                old = o_page.get(item_id)
                if old is None:
                    if state.deleted:
                        continue
                    if item_id < top_oid:
                        unsorted_objects.add(number)
                    else:
                        top_oid = item_id
                elif state is old:
                    continue  # a snapshot's materialized copy
                elif (
                    not state.deleted
                    and old.parent_oid == state.parent_oid
                    and old.name == state.name
                    and old.is_pattern == state.is_pattern
                ):
                    if not o_mine:
                        o_page, o_mine = objects.page(number), True
                    o_page[item_id] = state
                    continue
                else:
                    if old.parent_oid is not None:
                        children.unlink(old.parent_oid, item_id)
                    else:
                        bucket = hash(old.name) % NAME_BUCKETS
                        if name_buckets[bucket].get(old.name) == item_id:
                            del names.page(bucket)[old.name]
                    if state.deleted:
                        if not o_mine:
                            o_page, o_mine = objects.page(number), True
                        del o_page[item_id]
                        continue
                if not o_mine:
                    o_page, o_mine = objects.page(number), True
                o_page[item_id] = state
                owner = state.parent_oid
                if owner is not None:
                    page_number = owner >> shift
                    if page_number >= child_shared and page_number in children.writable:
                        page = child_pages[page_number]
                        members = page.get(owner)
                        if members is None:
                            page[owner] = [item_id]
                        elif members[-1] < item_id:
                            members.append(item_id)
                        else:
                            insort(members, item_id)
                    else:
                        children.link(owner, item_id)
                elif not state.is_pattern:
                    bucket = hash(state.name) % NAME_BUCKETS
                    if bucket in own_buckets:
                        name_buckets[bucket][state.name] = item_id
                    else:
                        names.page(bucket)[state.name] = item_id
            else:
                if number != r_number:
                    r_number = number
                    r_page = (
                        relationship_pages[number]
                        if number < len(relationship_pages)
                        else _NO_PAGE
                    )
                    r_mine = number in relationships.writable
                old = r_page.get(item_id)
                if old is None:
                    if state.deleted:
                        continue
                    if item_id < top_rid:
                        unsorted_relationships.add(number)
                    else:
                        top_rid = item_id
                elif state is old:
                    continue
                elif not state.deleted and [oid for __, oid in old.bindings] == [
                    oid for __, oid in state.bindings
                ]:
                    if not r_mine:
                        r_page, r_mine = relationships.page(number), True
                    r_page[item_id] = state
                    continue
                else:
                    for __, oid in old.bindings:
                        incidence.unlink(oid, item_id)
                    if state.deleted:
                        if not r_mine:
                            r_page, r_mine = relationships.page(number), True
                        del r_page[item_id]
                        continue
                if not r_mine:
                    r_page, r_mine = relationships.page(number), True
                r_page[item_id] = state
                for __, oid in state.bindings:
                    page_number = oid >> shift
                    if page_number >= incidence_shared and page_number in incidence.writable:
                        page = incidence_pages[page_number]
                        members = page.get(oid)
                        if members is None:
                            page[oid] = [item_id]
                        elif members[-1] < item_id:
                            members.append(item_id)
                        else:
                            insort(members, item_id)
                    else:
                        incidence.link(oid, item_id)
        for number in unsorted_objects:
            object_pages[number] = dict(sorted(object_pages[number].items()))
        for number in unsorted_relationships:
            relationship_pages[number] = dict(
                sorted(relationship_pages[number].items())
            )
        self._object_count = sum(map(len, object_pages))
        self._relationship_count = sum(map(len, relationship_pages))

    # -- retrieval (mirrors the live database's interface) ---------------------

    def find(self, name: str | DottedName) -> Optional[ViewObject]:
        """Resolve a dotted name in this version (None when absent)."""
        buckets = self._name_buckets
        # indexed names are simple: a hit on the text as given is exact
        oid = (
            buckets[hash(name) % NAME_BUCKETS].get(name)
            if isinstance(name, str)
            else None
        )
        path = ()
        if oid is None:
            dotted = DottedName.parse(name) if isinstance(name, str) else name
            root = str(dotted.root)
            oid = buckets[hash(root) % NAME_BUCKETS].get(root)
            if oid is None:
                return None
            path = dotted.parts[1:]
        shift = PAGE_SHIFT
        object_pages = self._object_pages
        child_pages = self._child_pages
        for part in path:
            try:
                members = child_pages[oid >> shift].get(oid, ())
            except IndexError:  # past the last page: no sub-objects
                return None
            for child in members:
                state = object_pages[child >> shift][child]
                if state.name == part.name and (
                    part.index is None or state.index == part.index
                ):
                    oid = child
                    break
            else:
                return None
        return ViewObject(oid, object_pages[oid >> shift][oid], self)

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
        try:
            state = self._object_pages[oid >> PAGE_SHIFT].get(oid)
        except IndexError:  # past the last page
            return None
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
            for page in self._object_pages
            for oid, state in page.items()
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
            for page in self._relationship_pages
            for rid, state in page.items()
            if names is None or state.association_name in names
        ]

    def children_of(self, oid: int, role: Optional[str] = None) -> list[ViewObject]:
        """Live sub-objects of the object with *oid* in this version."""
        shift = PAGE_SHIFT
        object_pages = self._object_pages
        try:
            members = self._child_pages[oid >> shift].get(oid, ())
        except IndexError:  # past the last page
            return []
        result = []
        for child in members:
            state = object_pages[child >> shift][child]
            if role is None or state.name == role:
                result.append(ViewObject(child, state, self))
        return result

    def relationships_of(
        self, oid: int, association: Optional[str] = None
    ) -> list[ViewRelationship]:
        """Relationships binding the object with *oid* in this version."""
        names = None
        if association:
            wanted = self.schema.association(association)
            names = {a.name for a in _kinds(wanted, True)}
        shift = PAGE_SHIFT
        relationship_pages = self._relationship_pages
        try:
            members = self._incidence_pages[oid >> shift].get(oid, ())
        except IndexError:  # past the last page
            return []
        result = []
        for rid in members:
            state = relationship_pages[rid >> shift][rid]
            if names is None or state.association_name in names:
                result.append(ViewRelationship(rid, state, self))
        return result

    def object_count(self) -> int:
        """Number of visible objects."""
        return self._object_count

    def relationship_count(self) -> int:
        """Number of visible relationships."""
        return self._relationship_count

    def states(self) -> tuple[Iterable[tuple[int, object]], ...]:
        """``(oid, state)`` of every visible object (parents first) and
        ``(rid, state)`` of every visible relationship: what a restore
        loads."""
        return (
            chain.from_iterable(page.items() for page in self._object_pages),
            chain.from_iterable(page.items() for page in self._relationship_pages),
        )

    def item_states(self) -> Iterator[tuple[ItemKey, object]]:
        """(key, state) pairs of every visible item — for oracles/tests."""
        for page in self._object_pages:
            for oid, state in page.items():
                yield ("o", oid), state
        for page in self._relationship_pages:
            for rid, state in page.items():
                yield ("r", rid), state

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<VersionView {self.version}: {self._object_count} objects, "
            f"{self._relationship_count} relationships>"
        )
