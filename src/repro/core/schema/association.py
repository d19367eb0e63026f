"""Associations (relationship classes) with named roles and cardinalities.

An association relates instances of two independent classes through two
named roles. Figure 2's ``Read`` association relates ``Data`` in role
``from`` (cardinality ``1..*``) and ``Action`` in role ``by``
(``0..*``): the role cardinality bounds in how many relationships of the
association an instance of that role's class participates — ``1..*`` on
``from`` means every ``Data`` object must eventually be read at least
once. As everywhere in SEED, the maximum is enforced on every update
(consistency) while the minimum is only checked on demand
(completeness).

The ``ACYCLIC`` attribute (figure 2's ``Contained`` association on
``Action``) declares that the relationship graph spanned by the
association's instances must stay acyclic; together with a ``0..1``
maximum on one role this imposes a tree structure.

Associations participate in generalization hierarchies just like
classes (figure 3 generalizes ``Read`` and ``Write`` to ``Access``).
Roles of a specialized association correspond *positionally* to the
roles of its general — names may differ (``Write`` uses ``to`` where
``Read`` uses ``from``) but each role's target class must stay within
the family of the corresponding general role's target class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.cardinality import Cardinality
from repro.core.errors import SchemaError
from repro.core.identifiers import check_simple_name
from repro.core.schema.element import SchemaElement, _Facts
from repro.core.schema.entity_class import EntityClass
from repro.core.values import ValueSort

__all__ = ["Role", "Attribute", "Association"]


@dataclass
class Role:
    """One end of an association.

    Attributes:
        name: the role name (``from``, ``by``, ``container`` ...);
            unique within the association.
        target: the class whose instances may be bound in this role
            (instances of specializations qualify too).
        cardinality: participation bound for instances of *target*.
        position: 0 or 1; set by :class:`Association`, used to match
            corresponding roles across a generalization hierarchy.
    """

    name: str
    target: EntityClass
    cardinality: Cardinality
    position: int = -1

    def __post_init__(self) -> None:
        check_simple_name(self.name, "role name")
        if not isinstance(self.target, EntityClass):
            raise SchemaError(f"role {self.name!r}: target must be a class")
        if self.target.is_dependent:
            raise SchemaError(
                f"role {self.name!r}: associations relate independent "
                f"classes, not dependent class {self.target.full_name!r}"
            )
        self.cardinality = Cardinality.parse(self.cardinality)

    def accepts(self, entity_class: EntityClass) -> bool:
        """True when instances of *entity_class* may be bound here."""
        return entity_class.is_kind_of(self.target)

    def __str__(self) -> str:
        return f"{self.name}: {self.target.name} [{self.cardinality}]"


@dataclass
class Attribute:
    """A typed attribute of an association (figure 3: ``NumberOfWrites``).

    Relationship instances of the association may carry a value for each
    attribute. ``cardinality`` is ``1..1`` (mandatory — a completeness
    condition) or ``0..1`` (optional); multi-valued relationship
    attributes do not occur in the paper and are not supported.
    """

    name: str
    sort: "ValueSort"
    cardinality: Cardinality = Cardinality(0, 1)
    doc: str = ""

    def __post_init__(self) -> None:
        check_simple_name(self.name, "attribute name")
        self.cardinality = Cardinality.parse(self.cardinality)
        if self.cardinality.maximum != 1:
            raise SchemaError(
                f"attribute {self.name!r}: cardinality must be 0..1 or "
                f"1..1, got {self.cardinality}"
            )

    @property
    def mandatory(self) -> bool:
        """True when a value is eventually required (completeness info)."""
        return self.cardinality.is_mandatory


class Association(SchemaElement):
    """A binary relationship class with two named roles."""

    kind = "association"

    def __init__(
        self,
        name: str,
        first: Role,
        second: Role,
        *,
        acyclic: bool = False,
        doc: str = "",
    ) -> None:
        super().__init__(name, doc=doc)
        if first.name == second.name:
            raise SchemaError(
                f"association {name!r}: role names must differ "
                f"(both are {first.name!r})"
            )
        first.position = 0
        second.position = 1
        self.roles: tuple[Role, Role] = (first, second)
        self._attributes: dict[str, Attribute] = {}
        #: when True, the instance graph of this association (plus its
        #: specializations) must remain acyclic
        self.acyclic = acyclic
        if acyclic and first.target.family_root() is not second.target.family_root():
            raise SchemaError(
                f"association {name!r}: ACYCLIC requires both roles to "
                f"target the same class family, got "
                f"{first.target.name!r} and {second.target.name!r}"
            )

    # -- role access ---------------------------------------------------------

    def role(self, name: str) -> Role:
        """Return the role named *name* (raises SchemaError when absent)."""
        for role in self.roles:
            if role.name == name:
                return role
        names = ", ".join(role.name for role in self.roles)
        raise SchemaError(
            f"association {self.name!r} has no role {name!r} (roles: {names})"
        )

    def has_role(self, name: str) -> bool:
        """True when a role named *name* exists."""
        return any(role.name == name for role in self.roles)

    def other_role(self, name: str) -> Role:
        """Return the role opposite to the one named *name*."""
        first, second = self.roles
        if first.name == name:
            return second
        if second.name == name:
            return first
        raise SchemaError(f"association {self.name!r} has no role {name!r}")

    def role_names(self) -> tuple[str, str]:
        """The two role names in positional order."""
        return (self.roles[0].name, self.roles[1].name)

    def role_at(self, position: int) -> Role:
        """The role at *position* (0 or 1)."""
        if position not in (0, 1):
            raise SchemaError(f"role position must be 0 or 1, got {position}")
        return self.roles[position]

    # -- attributes ------------------------------------------------------------

    def add_attribute(self, attribute: Attribute) -> Attribute:
        """Declare a typed attribute on this association."""
        if attribute.name in self._attributes:
            raise SchemaError(
                f"association {self.name!r} already has an attribute "
                f"{attribute.name!r}"
            )
        self._attributes[attribute.name] = attribute
        return attribute

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute, searching the generalization chain too.

        An instance of ``Write`` may of course also carry attributes
        declared on ``Access``.
        """
        for element in self.kinds():
            if isinstance(element, Association) and name in element._attributes:
                return element._attributes[name]
        known = ", ".join(sorted(self.attribute_names())) or "(none)"
        raise SchemaError(
            f"association {self.name!r} has no attribute {name!r} "
            f"(known: {known})"
        )

    def has_attribute(self, name: str) -> bool:
        """True when *name* resolves on this association or a general."""
        return any(
            isinstance(element, Association) and name in element._attributes
            for element in self.kinds()
        )

    @property
    def attributes(self) -> list[Attribute]:
        """Attributes declared directly on this association."""
        return list(self._attributes.values())

    def attribute_names(self) -> list[str]:
        """Names of all attributes, including inherited ones."""
        names: list[str] = []
        for element in self.kinds():
            if isinstance(element, Association):
                names.extend(element._attributes)
        return names

    def all_attributes(self) -> list[Attribute]:
        """All attributes, own and inherited from generals."""
        return [self.attribute(name) for name in self.attribute_names()]

    # -- generalization-aware queries -----------------------------------------

    def _compile(self, generation: int) -> _Facts:
        facts = super()._compile(generation)
        facts.acyclic = any(element.acyclic for element in facts.chain)
        facts.maxima = tuple(
            (element.name, role.position, role.cardinality.maximum)
            for element in facts.chain
            for role in element.roles
            if not role.cardinality.is_unbounded
        )
        return facts

    def effective_acyclic(self) -> bool:
        """True when this association or any of its generals is ACYCLIC.

        An instance of a specialization contributes an edge to the
        general association's graph, so a general ACYCLIC constraint
        binds the specialization too.
        """
        return self._facts().acyclic

    def participation_maxima(self) -> tuple[tuple[str, int, int], ...]:
        """``(element name, position, maximum)`` per bounded role of this
        association and its generals (a relationship counts toward all)."""
        return self._facts().maxima

    def describe(self) -> str:
        """One-line human description (used by reports and DDL printing)."""
        roles = ", ".join(str(role) for role in self.roles)
        suffix = " ACYCLIC" if self.acyclic else ""
        return f"{self.name}({roles}){suffix}"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<Association {self.describe()}>"
