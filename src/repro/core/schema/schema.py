"""The :class:`Schema` aggregate: all classes, associations, hierarchies.

A schema is the well-formed collection of independent classes (each
owning a tree of dependent classes), associations, generalization links,
covering conditions, and attached procedures. Databases are created
*against* a schema; the consistency and completeness engines interpret
instance data relative to it.

Schemas are built with :class:`repro.core.schema.builder.SchemaBuilder`
and printed as DDL text by :mod:`repro.core.schema.ddl`; direct use of
the mutation methods here is possible but the builder is friendlier.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.errors import SchemaError
from repro.core.schema.association import Association, Attribute, Role
from repro.core.schema.element import (
    SchemaElement,
    schema_changed,
    schema_generation,
)
from repro.core.schema.entity_class import EntityClass
from repro.core.schema.generalization import validate_hierarchy

__all__ = ["Schema"]


class Schema:
    """A complete SEED schema.

    Attributes:
        name: schema name, used in reports and persistence headers.
    """

    def __init__(self, name: str = "schema") -> None:
        self.name = name
        self._classes: dict[str, EntityClass] = {}
        self._associations: dict[str, Association] = {}
        #: the schema generation a :meth:`check` last passed at
        self._checked_at: Optional[int] = None

    # -- population -----------------------------------------------------

    def add_class(self, entity_class: EntityClass) -> EntityClass:
        """Register a top-level class (dependents come along implicitly)."""
        if entity_class.is_dependent:
            raise SchemaError(
                f"only independent classes are registered on the schema; "
                f"{entity_class.full_name!r} is dependent"
            )
        self._check_name_free(entity_class.name)
        self._classes[entity_class.name] = entity_class
        schema_changed()  # validate() reads the registered classes
        return entity_class

    def add_association(self, association: Association) -> Association:
        """Register an association; its role targets must be known classes."""
        self._check_name_free(association.name)
        for role in association.roles:
            root = role.target
            if self._classes.get(root.name) is not root:
                raise SchemaError(
                    f"association {association.name!r} role {role.name!r} "
                    f"targets class {root.name!r}, which is not in schema "
                    f"{self.name!r}"
                )
        self._associations[association.name] = association
        schema_changed()
        return association

    def _check_name_free(self, name: str) -> None:
        # Classes and associations share one namespace: the DDL and the
        # operational interface address both by bare name.
        if name in self._classes:
            raise SchemaError(f"schema already has a class named {name!r}")
        if name in self._associations:
            raise SchemaError(f"schema already has an association named {name!r}")

    # -- lookup -----------------------------------------------------------

    def entity_class(self, name: str) -> EntityClass:
        """Resolve a class by name; dotted names reach dependent classes.

        ``schema.entity_class("Data.Text.Body")`` resolves the dependent
        chain below the independent class ``Data``.
        """
        head, __, rest = name.partition(".")
        try:
            entity_class = self._classes[head]
        except KeyError:
            known = ", ".join(sorted(self._classes)) or "(none)"
            raise SchemaError(
                f"schema {self.name!r} has no class {head!r} (known: {known})"
            ) from None
        if rest:
            return entity_class.dependent_path(tuple(rest.split(".")))
        return entity_class

    def association(self, name: str) -> Association:
        """Resolve an association by name."""
        try:
            return self._associations[name]
        except KeyError:
            known = ", ".join(sorted(self._associations)) or "(none)"
            raise SchemaError(
                f"schema {self.name!r} has no association {name!r} "
                f"(known: {known})"
            ) from None

    def has_association(self, name: str) -> bool:
        """True when an association named *name* exists."""
        return name in self._associations

    def element(self, name: str) -> SchemaElement:
        """Resolve *name* as a class (dotted allowed) or an association."""
        if name in self._associations:
            return self._associations[name]
        return self.entity_class(name)

    @property
    def classes(self) -> list[EntityClass]:
        """Top-level classes in definition order."""
        return list(self._classes.values())

    @property
    def associations(self) -> list[Association]:
        """Associations in definition order."""
        return list(self._associations.values())

    def all_classes(self) -> Iterator[EntityClass]:
        """Yield every class, independent and dependent, parents first."""
        for entity_class in self._classes.values():
            yield from entity_class.walk()

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        """Return a list of well-formedness problems (empty when sound)."""
        problems: list[str] = []
        elements: list[SchemaElement] = [*self._classes.values(), *self._associations.values()]
        problems.extend(validate_hierarchy(elements))
        for entity_class in self.all_classes():
            if entity_class.has_value and entity_class.dependents:
                problems.append(
                    f"class {entity_class.full_name!r} is value-typed but "
                    "has dependent classes"
                )
            if entity_class.is_dependent and entity_class.cardinality is None:
                problems.append(
                    f"dependent class {entity_class.full_name!r} lacks a "
                    "cardinality"
                )
        for association in self._associations.values():
            for role in association.roles:
                root = role.target
                if self._classes.get(root.name) is not root:
                    problems.append(
                        f"association {association.name!r} role "
                        f"{role.name!r} targets a foreign class object"
                    )
        return problems

    def check(self) -> "Schema":
        """Raise :class:`SchemaError` when :meth:`validate` finds problems.

        A check that passed holds until a mutator advances
        :func:`~repro.core.schema.element.schema_generation` (every one
        whose effect :meth:`validate` reads does), so the database a
        check-out materializes does not validate the same schema again.
        """
        generation = schema_generation()
        if self._checked_at == generation:
            return self
        problems = self.validate()
        if problems:
            raise SchemaError(
                f"schema {self.name!r} is ill-formed:\n  " + "\n  ".join(problems)
            )
        self._checked_at = generation
        return self

    # -- copying --------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Schema":
        """Deep-copy the schema (for schema evolution).

        The copy shares no mutable state with the original, so editing it
        (adding classes, generalizing, ...) leaves databases bound to the
        original untouched. Attached procedures are shared by reference —
        they are immutable descriptors.
        """
        from repro.core.schema.generalization import specialize

        clone = Schema(name or self.name)
        mapping: dict[int, EntityClass] = {}

        def deep_clone(source: EntityClass) -> EntityClass:
            copied = EntityClass(
                source.name, value_sort=source.value_sort, doc=source.doc
            )
            copied.covering = source.covering
            copied.attached_procedures = list(source.attached_procedures)
            mapping[id(source)] = copied
            _copy_children(source, copied)
            return copied

        def _copy_children(source: EntityClass, target: EntityClass) -> None:
            for dependent in source.dependents:
                child = target.add_dependent(
                    dependent.name,
                    dependent.cardinality,
                    value_sort=dependent.value_sort,
                    doc=dependent.doc,
                )
                child.covering = dependent.covering
                child.attached_procedures = list(dependent.attached_procedures)
                mapping[id(dependent)] = child
                _copy_children(dependent, child)

        for entity_class in self._classes.values():
            clone.add_class(deep_clone(entity_class))

        for association in self._associations.values():
            roles = tuple(
                Role(
                    role.name,
                    mapping[id(role.target)],
                    role.cardinality,
                )
                for role in association.roles
            )
            copied = Association(
                association.name,
                roles[0],
                roles[1],
                acyclic=association.acyclic,
                doc=association.doc,
            )
            copied.covering = association.covering
            copied.attached_procedures = list(association.attached_procedures)
            for attribute in association.attributes:
                copied.add_attribute(
                    Attribute(
                        attribute.name,
                        attribute.sort,
                        attribute.cardinality,
                        doc=attribute.doc,
                    )
                )
            clone.add_association(copied)

        # re-create generalization links
        for entity_class in self._classes.values():
            if entity_class.general is not None:
                specialize(
                    mapping[id(entity_class.general)], mapping[id(entity_class)]
                )
        for association in self._associations.values():
            if association.general is not None:
                specialize(
                    clone.association(association.general.name),
                    clone.association(association.name),
                )
        return clone

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<Schema {self.name!r}: {len(self._classes)} classes, "
            f"{len(self._associations)} associations>"
        )
