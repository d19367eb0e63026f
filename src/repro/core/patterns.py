"""Patterns and the inherits-relationship (paper, "Patterns and Variants").

Any data item can be marked as a **pattern**. Patterns are invisible to
retrieval and exempt from consistency checking until a *normal* item
inherits them. Inheritance semantics, quoted from the paper:

    "all retrieval operations view patterns as if they were inserted in
    the context of the inheritors. However, instead of a real insertion
    we establish a special inherits-relationship between a pattern and
    any of its inheritors. Thus pattern information cannot be updated in
    the context of the inheritors, but only in the pattern itself.
    Conversely, any update of a pattern automatically propagates to all
    inheritors of that pattern."

The manager therefore never copies pattern content: it computes
*effective* views on demand —

* :meth:`effective_sub_objects` — an inheritor's sub-objects plus the
  sub-objects of every pattern it inherits (the deadline example);
* :meth:`effective_relationships` — an object's own relationships plus
  virtual :class:`InheritedRelationship` records obtained by substituting
  the inheritor for the pattern in the pattern's relationships (this is
  what makes figure 5's variants share their relationships to the common
  part);
* :meth:`count_participations` / :meth:`effective_edges` — the counting
  and graph primitives the consistency and completeness engines use, so
  inherited structure is checked *in the context of each inheritor*.

Because views are computed, propagation of pattern updates is automatic
and write-protection of inherited information holds by construction:
there is no operation that could override inherited content on the
inheritor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, TYPE_CHECKING

from repro.core.errors import PatternError
from repro.core.schema.association import Association

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import SeedDatabase
    from repro.core.objects import SeedObject
    from repro.core.relationships import SeedRelationship

__all__ = ["InheritedRelationship", "PatternManager", "pattern_root"]


@dataclass(frozen=True)
class InheritedRelationship:
    """A virtual relationship produced by pattern inheritance.

    ``base`` is the stored pattern relationship; ``pattern`` the pattern
    object bound in it; ``inheritor`` the normal object substituted for
    the pattern. ``role_of_inheritor`` names the role the inheritor
    (virtually) occupies. Virtual relationships are read-only — update
    the pattern relationship instead.
    """

    base: "SeedRelationship"
    pattern: "SeedObject"
    inheritor: "SeedObject"
    role_of_inheritor: str

    @property
    def association(self) -> Association:
        """The association of the underlying pattern relationship."""
        return self.base.association

    def bound(self, role: str) -> "SeedObject":
        """The (virtual) binding of *role* after substitution."""
        stored = self.base.bound(role)
        if stored is self.pattern:
            return self.inheritor
        return stored

    def bindings(self) -> dict[str, "SeedObject"]:
        """Role → object mapping after substitution."""
        return {
            role.name: self.bound(role.name) for role in self.association.roles
        }

    def other(self, obj: "SeedObject") -> "SeedObject":
        """The endpoint opposite *obj* in the substituted binding."""
        first = self.bound(self.association.roles[0].name)
        second = self.bound(self.association.roles[1].name)
        if first is obj:
            return second
        if second is obj:
            return first
        raise PatternError(
            f"object {obj.name} is not bound in inherited relationship "
            f"of {self.association.name!r}"
        )

    def attribute(self, name: str, default: object = None) -> object:
        """Attribute values come unchanged from the pattern relationship."""
        return self.base.attribute(name, default)


class PatternManager:
    """Pattern bookkeeping and effective-view computation."""

    def __init__(self, database: "SeedDatabase") -> None:
        self._db = database
        #: pattern oid -> oids of normal objects inheriting it
        self._inheritors: dict[int, list[int]] = {}

    # -- bookkeeping (called by the database's mutation ops) -----------------

    def register_inheritance(self, pattern_oid: int, inheritor_oid: int) -> None:
        """Record an inherits link (database-internal)."""
        self._inheritors.setdefault(pattern_oid, []).append(inheritor_oid)

    def unregister_inheritance(self, pattern_oid: int, inheritor_oid: int) -> None:
        """Remove an inherits link (database-internal)."""
        inheritors = self._inheritors.get(pattern_oid, [])
        if inheritor_oid in inheritors:
            inheritors.remove(inheritor_oid)
            if not inheritors:
                del self._inheritors[pattern_oid]

    def rebuild_index(self) -> None:
        """Recompute the reverse index from object state (after version ops)."""
        self._inheritors.clear()
        for obj in self._db.all_objects_raw():
            if obj.deleted:
                continue
            for pattern_oid in obj.inherited_patterns:
                self.register_inheritance(pattern_oid, obj.oid)

    # -- queries -----------------------------------------------------------------

    def inheritors_of(self, pattern: "SeedObject") -> list["SeedObject"]:
        """Live normal objects inheriting *pattern* (directly)."""
        result = []
        for oid in self._inheritors.get(pattern.oid, ()):
            obj = self._db.object_by_oid(oid)
            if not obj.deleted:
                result.append(obj)
        return result

    def patterns_of(self, obj: "SeedObject") -> list["SeedObject"]:
        """Live patterns *obj* inherits, in inheritance order."""
        result = []
        for oid in obj.inherited_patterns:
            pattern = self._db.object_by_oid(oid)
            if not pattern.deleted:
                result.append(pattern)
        return result

    def has_inheritors(self, pattern: "SeedObject") -> bool:
        """True when at least one live object inherits *pattern*."""
        return bool(self.inheritors_of(pattern))

    # -- effective structure ---------------------------------------------------------

    def effective_sub_objects(
        self, obj: "SeedObject", role: Optional[str] = None
    ) -> list["SeedObject"]:
        """Own live sub-objects plus those of every inherited pattern.

        The returned pattern sub-objects are the pattern's actual
        objects (no copies): updating them updates the pattern and hence
        every inheritor — the paper's propagation rule.
        """
        result = obj.sub_objects(role)
        for pattern in self.patterns_of(obj):
            result.extend(pattern.sub_objects(role))
        return result

    def effective_relationships(
        self,
        obj: "SeedObject",
        association: Optional[Association] = None,
    ) -> list[object]:
        """Own normal relationships plus virtual inherited ones.

        Three sources contribute:

        1. *own* relationships of *obj* that are not pattern
           relationships;
        2. relationships of every pattern *obj* inherits, with *obj*
           substituted for the pattern (the deadline/variant case);
        3. pattern relationships directly bound to *obj* whose opposite
           endpoint is a pattern with inheritors — one virtual
           relationship per inheritor (this is how figure 5's *common
           part* sees a relationship to every variant).
        """
        results: list[object] = []
        for rel in self._db.relationships_of_object(
            obj, include_patterns=True
        ):
            if association is not None and not rel.association.is_kind_of(association):
                continue
            if not rel.in_pattern_context:
                results.append(rel)
                continue
            # source 3: expand pattern relationships touching obj
            if obj.in_pattern_context:
                continue
            other = rel.other(obj)
            if other.in_pattern_context:
                # substitution happens at the pattern object itself; only
                # relationships bound directly to an inherited pattern expand
                for inheritor in self.inheritors_of(other):
                    results.append(
                        InheritedRelationship(
                            base=rel,
                            pattern=other,
                            inheritor=inheritor,
                            role_of_inheritor=rel.role_of(other) or "",
                        )
                    )
        # source 2: relationships of inherited patterns, re-bound to obj
        for pattern in self.patterns_of(obj):
            for rel in self._db.relationships_of_object(
                pattern, include_patterns=True
            ):
                if association is not None and not rel.association.is_kind_of(
                    association
                ):
                    continue
                results.append(
                    InheritedRelationship(
                        base=rel,
                        pattern=pattern,
                        inheritor=obj,
                        role_of_inheritor=rel.role_of(pattern) or "",
                    )
                )
        return results

    def count_participations(
        self, obj: "SeedObject", association: Association, position: int
    ) -> int:
        """Effective participation count of *obj* at a positional role.

        Counts relationships (own and virtual) whose association is a
        kind of *association* and where *obj* is (virtually) bound at
        role *position*. Used for maximum-cardinality enforcement and
        minimum-cardinality completeness alike.

        Objects without pattern influence (no inherited patterns, no
        incident pattern relationships) are answered from the
        participation counters in O(1); the enumeration below remains
        the reference (and the pattern-aware fallback).
        """
        indexes = self._db.indexes
        if not indexes.pattern_influenced(obj):
            return indexes.participations(association.name, obj.oid, position)
        return self.count_participations_scan(obj, association, position)

    def count_participations_scan(
        self, obj: "SeedObject", association: Association, position: int
    ) -> int:
        """Brute-force participation count over effective relationships."""
        count = 0
        for rel in self.effective_relationships(obj, association):
            rel_association: Association = rel.association  # type: ignore[attr-defined]
            role_name = rel_association.role_at(position).name
            if rel.bound(role_name) is obj:  # type: ignore[union-attr]
                count += 1
        return count

    def expand_edges(self, rel: object) -> Iterator[tuple[int, int]]:
        """Effective edges of one relationship, pattern-substituted.

        Normal relationships contribute their endpoints directly;
        pattern relationships contribute one edge per substitution of an
        inherited pattern endpoint by an inheritor. Edges with a pattern
        endpoint left over (uninherited patterns) are *not* emitted —
        uninherited pattern content is not consistency-checked.
        """
        endpoints = rel.endpoints()  # type: ignore[attr-defined]
        substitutions: list[list["SeedObject"]] = []
        for endpoint in endpoints:
            if endpoint.in_pattern_context:
                if endpoint.is_pattern and self.has_inheritors(endpoint):
                    substitutions.append(self.inheritors_of(endpoint))
                else:
                    substitutions.append([])
            else:
                substitutions.append([endpoint])
        for source in substitutions[0]:
            for target in substitutions[1]:
                yield (source.oid, target.oid)

    def effective_edges(
        self, association: Association, *, use_index: bool = True
    ) -> Iterator[tuple[int, int]]:
        """Effective edges (oid → oid) of an association family's graph.

        For a family root the indexed normal relationships supply the edges
        and only the family's pattern relationships are expanded; the
        full relationship scan remains for non-root associations and as
        the reference implementation (``use_index=False``).
        """
        root = association.family_root()
        if use_index and association is root:
            yield from self._db.indexes.normal_edges(root.name)
            for rel in self._db.indexes.pattern_relationships(root.name):
                yield from self.expand_edges(rel)
            return
        yield from self.effective_edges_scan(association)

    def effective_edges_scan(
        self, association: Association
    ) -> Iterator[tuple[int, int]]:
        """Brute-force effective edges via a full relationship scan."""
        from repro.core.indexes import brute_relationships

        for rel in brute_relationships(
            self._db,
            association.name,
            include_specials=True,
            include_patterns=True,
        ):
            yield from self.expand_edges(rel)

    # -- validation helpers -------------------------------------------------------------

    def check_inheritance_allowed(
        self, pattern: "SeedObject", inheritor: "SeedObject"
    ) -> None:
        """Raise :class:`PatternError` when the inherits link is illegal."""
        if not pattern.is_pattern:
            raise PatternError(
                f"object {pattern.name} is not a pattern; only patterns "
                "can be inherited"
            )
        if inheritor.in_pattern_context:
            raise PatternError(
                f"object {inheritor.name} is a pattern; patterns are "
                "inherited by 'normal' data items only"
            )
        if pattern.oid == inheritor.oid:
            raise PatternError("an object cannot inherit itself")
        if pattern.oid in inheritor.inherited_patterns:
            raise PatternError(
                f"object {inheritor.name} already inherits pattern "
                f"{pattern.name}"
            )


def pattern_root(obj: "SeedObject") -> "SeedObject":
    """The outermost pattern-marked ancestor of *obj* (or obj itself).

    The returned object is the pattern whose inheritors see *obj*'s
    content; callers check ``is_pattern`` (or ``in_pattern_context``)
    to distinguish "obj is pattern content" from the identity result.
    Shared by consistency validation and the completeness engine's
    dirty fan-out so both agree on what a pattern root is.
    """
    root = obj
    node = obj
    while node is not None:
        if node.is_pattern:
            root = node
        node = node.parent
    return root
