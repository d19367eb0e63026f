"""Variant families built on the pattern mechanism (paper, figure 5).

"We define a variants family to be some sets of objects [that] have a
part of their information in common, [but] differ in some other parts."
The common part is connected to *pattern objects* by *pattern
relationships*; every variant inherits those patterns, so "all variant
parts have the same relationships to the common part. This could not be
assured with ordinary relationships."

:class:`VariantFamily` packages that construction: it owns the pattern
objects/relationships, registers variants as inheritors, and offers the
uniformity check the paper argues for. Variants are different from
*alternatives* (coexisting database versions, see the version
subsystem): a variants family coexists inside one database state.
"""

from __future__ import annotations

from repro.core.database import SeedDatabase
from repro.core.errors import VariantError
from repro.core.objects import SeedObject
from repro.core.patterns import InheritedRelationship
from repro.core.relationships import SeedRelationship

__all__ = ["VariantFamily"]


class VariantFamily:
    """A common part shared by several variants via pattern inheritance.

    Example — system configurations sharing most software modules::

        family = VariantFamily(db, "Configurations", variant_class="Action")
        family.add_shared_relationship(
            "Contained", {"contained": kernel_module}, variant_role="container")
        alpine = family.add_variant(db.create_object("Action", "AlpineConfig"))
        desert = family.add_variant(db.create_object("Action", "DesertConfig"))
        # both configurations now contain the kernel module, provably alike

    Args:
        db: the database the family lives in.
        name: family name; pattern objects are named ``<name>_P1``, ...
        variant_class: class of the pattern objects (and hence the class
            the variants must be instances of, or specialize).
    """

    def __init__(self, db: SeedDatabase, name: str, variant_class: str) -> None:
        self._db = db
        self.name = name
        self.variant_class = variant_class
        self._pattern_objects: list[SeedObject] = []
        self._pattern_relationships: list[SeedRelationship] = []
        self._variants: list[SeedObject] = []

    # -- construction ------------------------------------------------------

    def add_shared_relationship(
        self,
        association: str,
        common_bindings: dict[str, SeedObject],
        *,
        variant_role: str,
    ) -> SeedRelationship:
        """Declare a relationship every variant must share.

        *common_bindings* binds the role(s) on the common-part side;
        *variant_role* names the role the variants will occupy. A fresh
        pattern object stands in for "any variant" and a pattern
        relationship connects it to the common part (figure 5's PO/PR
        pairs); existing variants inherit the new pattern immediately.
        """
        assoc = self._db.schema.association(association)
        if not assoc.has_role(variant_role):
            raise VariantError(
                f"association {association!r} has no role {variant_role!r}"
            )
        other_role = assoc.other_role(variant_role)
        if set(common_bindings) != {other_role.name}:
            raise VariantError(
                f"common bindings must bind exactly role {other_role.name!r}, "
                f"got {sorted(common_bindings)}"
            )
        pattern = self._db.create_object(
            self.variant_class,
            f"{self.name}_P{len(self._pattern_objects) + 1}",
            pattern=True,
        )
        bindings = dict(common_bindings)
        bindings[variant_role] = pattern
        relationship = self._db.relate(association, bindings, pattern=True)
        self._pattern_objects.append(pattern)
        self._pattern_relationships.append(relationship)
        for variant in self._variants:
            self._db.inherit(pattern, variant)
        return relationship

    def add_shared_sub_object(
        self, role: str, value: object = None
    ) -> SeedObject:
        """Give every variant a shared sub-object (the deadline example).

        The sub-object lives on a dedicated pattern object; since
        retrieval views pattern content in the inheritors' context, every
        variant sees it, and a single update of the pattern value
        propagates to all variants.
        """
        pattern = self._db.create_object(
            self.variant_class,
            f"{self.name}_P{len(self._pattern_objects) + 1}",
            pattern=True,
        )
        sub_object = self._db.create_sub_object(pattern, role, value)
        self._pattern_objects.append(pattern)
        for variant in self._variants:
            self._db.inherit(pattern, variant)
        return sub_object

    def add_variant(self, variant: SeedObject) -> SeedObject:
        """Register *variant*: it inherits every pattern of the family."""
        if variant in self._variants:
            raise VariantError(
                f"object {variant.name} is already a variant of family "
                f"{self.name!r}"
            )
        if not variant.is_instance_of(self.variant_class):
            raise VariantError(
                f"variants of family {self.name!r} must be instances of "
                f"{self.variant_class!r}; {variant.name} is a "
                f"{variant.class_name!r}"
            )
        for pattern in self._pattern_objects:
            self._db.inherit(pattern, variant)
        self._variants.append(variant)
        return variant

    # -- queries ----------------------------------------------------------------

    @property
    def variants(self) -> list[SeedObject]:
        """The registered variants."""
        return list(self._variants)

    @property
    def pattern_objects(self) -> list[SeedObject]:
        """The family's pattern objects (PO1, PO2, ... of figure 5)."""
        return list(self._pattern_objects)

    def shared_relationships_of(self, variant: SeedObject) -> list[InheritedRelationship]:
        """The inherited relationships *variant* has through the family."""
        results = []
        for rel in self._db.patterns.effective_relationships(variant):
            if isinstance(rel, InheritedRelationship) and rel.base in self._pattern_relationships:
                results.append(rel)
        return results

    def check_uniformity(self) -> list[str]:
        """Verify all variants share identical relationships to the common part.

        Returns a list of problems (empty when the family is uniform).
        With the pattern construction this holds by design; the check
        exists so tests and benchmarks can *demonstrate* the paper's
        claim rather than assume it.
        """
        problems: list[str] = []
        expected = set()
        for rel in self._pattern_relationships:
            first, second = rel.endpoints()
            common_end = second if first.is_pattern else first
            expected.add((rel.association.name, common_end.oid))
        for variant in self._variants:
            actual = {
                (ir.association.name, ir.other(variant).oid)
                for ir in self.shared_relationships_of(variant)
            }
            if actual != expected:
                problems.append(
                    f"variant {variant.name} shares {sorted(actual)} "
                    f"instead of {sorted(expected)}"
                )
        return problems

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<VariantFamily {self.name!r}: {len(self._variants)} variants, "
            f"{len(self._pattern_objects)} patterns>"
        )
