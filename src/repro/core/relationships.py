"""Relationship instances: typed, role-labelled links between objects.

A relationship is an instance of an :class:`~repro.core.schema.
association.Association`; it binds exactly two objects, each in one of
the association's named roles (figure 1's relationship (2): ``Read``
relating ``AlarmHandler`` and ``Alarms`` in roles ``by`` and ``from``).
Relationships may carry attribute values for the attributes declared on
their association or its generals (figure 3's ``NumberOfWrites``).

As with objects, all mutation is mediated by the database; this module
defines the record and its frozen :class:`RelationshipState` for the
version store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, TYPE_CHECKING

from repro.core.errors import SeedError
from repro.core.schema.association import Association

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import SeedDatabase
    from repro.core.objects import SeedObject

__all__ = ["SeedRelationship", "RelationshipState"]


@dataclass(frozen=True, slots=True)
class RelationshipState:
    """Immutable snapshot of a relationship for the version store."""

    association_name: str
    bindings: tuple[tuple[str, int], ...]  # (role name, oid) pairs, positional order
    attributes: tuple[tuple[str, Any], ...]  # sorted (name, value) pairs
    deleted: bool
    is_pattern: bool


class SeedRelationship:
    """A live relationship in the database's current version."""

    __slots__ = (
        "rid",
        "association",
        "_bindings",
        "_attributes",
        "deleted",
        "is_pattern",
        "_database",
    )

    def __init__(
        self,
        database: "SeedDatabase",
        rid: int,
        association: Association,
        bindings: dict[str, "SeedObject"],
    ) -> None:
        self._database = database
        self.rid = rid
        self.association = association
        # normalise to positional order so iteration is deterministic
        self._bindings: dict[str, "SeedObject"] = {
            role.name: bindings[role.name] for role in association.roles
        }
        self._attributes: dict[str, Any] = {}
        self.deleted = False
        self.is_pattern = False

    # -- bindings ------------------------------------------------------------

    @property
    def association_name(self) -> str:
        """Name of the association this relationship instantiates."""
        return self.association.name

    def bound(self, role: str) -> "SeedObject":
        """The object bound in *role* (raises for unknown roles)."""
        try:
            return self._bindings[role]
        except KeyError:
            roles = ", ".join(self._bindings)
            raise SeedError(
                f"relationship #{self.rid} of {self.association.name!r} "
                f"has no role {role!r} (roles: {roles})"
            ) from None

    def bound_at(self, position: int) -> "SeedObject":
        """The object bound at role *position* (0 or 1)."""
        return self._bindings[self.association.role_at(position).name]

    def role_of(self, obj: "SeedObject") -> Optional[str]:
        """The role *obj* is bound in, or None when not bound here."""
        for role_name, bound in self._bindings.items():
            if bound is obj:
                return role_name
        return None

    def other(self, obj: "SeedObject") -> "SeedObject":
        """The endpoint opposite to *obj*."""
        first, second = self.endpoints()
        if first is obj:
            return second
        if second is obj:
            return first
        raise SeedError(
            f"object {obj.name} is not bound in relationship #{self.rid}"
        )

    def endpoints(self) -> tuple["SeedObject", "SeedObject"]:
        """Both bound objects in positional role order."""
        # the binding dict is kept in that order (constructor, thaw,
        # reclassification), so no role lookup is needed
        return tuple(self._bindings.values())  # type: ignore[return-value]

    def bound_objects(self) -> Iterator["SeedObject"]:
        """Iterate the bound objects in positional role order."""
        yield from self.endpoints()

    def bindings(self) -> dict[str, "SeedObject"]:
        """A copy of the role → object mapping."""
        return dict(self._bindings)

    # -- pattern status ----------------------------------------------------------

    @property
    def in_pattern_context(self) -> bool:
        """True when the relationship is a pattern relationship.

        A relationship belongs to the pattern world when it is marked as
        a pattern itself or binds an object in a pattern context
        (figure 5's PR1/PR2 bind pattern objects PO1/PO2).
        """
        if self.is_pattern:
            return True
        # inline slot loads: bound objects overwhelmingly have no parent
        # and are no patterns, and this runs once per relationship in
        # every incidence walk (navigation, index-join probes)
        for obj in self._bindings.values():
            if obj.is_pattern or obj.parent is not None and obj.in_pattern_context:
                return True
        return False

    # -- attributes ------------------------------------------------------------------

    def attribute(self, name: str, default: Any = None) -> Any:
        """The value of attribute *name*, or *default* when unset."""
        return self._attributes.get(name, default)

    def attributes(self) -> dict[str, Any]:
        """A copy of all set attribute values."""
        return dict(self._attributes)

    def has_attribute(self, name: str) -> bool:
        """True when attribute *name* has been given a value."""
        return name in self._attributes

    # -- delegated mutators -----------------------------------------------------------

    def set_attribute(self, name: str, value: Any) -> "SeedRelationship":
        """Set an attribute value via the database (checked against schema)."""
        self._database.set_attribute(self, name, value)
        return self

    def delete(self) -> None:
        """Tombstone this relationship via the database."""
        self._database.delete(self)

    def reclassify(self, new_association: str, *, allow_generalize: bool = False) -> "SeedRelationship":
        """Move this relationship within its generalization hierarchy.

        The paper's example specializes an ``Access`` relationship to a
        ``Write`` relationship once the dataflow direction is known.
        """
        self._database.reclassify(
            self, new_association, allow_generalize=allow_generalize
        )
        return self

    # -- versioning support ----------------------------------------------------------------

    def freeze(self) -> RelationshipState:
        """Snapshot the persistent fields into an immutable state."""
        return RelationshipState(
            association_name=self.association.name,
            bindings=tuple(
                (role.name, self._bindings[role.name].oid)
                for role in self.association.roles
            ),
            attributes=tuple(sorted(self._attributes.items())),
            deleted=self.deleted,
            is_pattern=self.is_pattern,
        )

    def thaw(self, state: RelationshipState) -> None:
        """Assign every field of *state* — the inverse of :meth:`freeze`.

        The only code that writes a state onto a live relationship —
        role bindings included, so a replayed re-classification binds
        under the new role names. Incidence lists are wired by
        :func:`repro.core.bulk.wire_item_states`.
        """
        database = self._database
        objects = database._objects  # noqa: SLF001
        self.association = database.schema.association(state.association_name)
        # a state lists its bindings in positional role order already
        self._bindings = {role: objects[oid] for role, oid in state.bindings}
        self._attributes = dict(state.attributes)
        self.deleted = state.deleted
        self.is_pattern = state.is_pattern

    def __repr__(self) -> str:  # pragma: no cover - trivial
        ends = ", ".join(
            f"{role}={obj.name}" for role, obj in self._bindings.items()
        )
        flags = "".join(
            flag
            for flag, present in (("†", self.deleted), ("℗", self.is_pattern))
            if present
        )
        return f"<SeedRelationship {self.association.name}({ends}){flags} #{self.rid}>"
