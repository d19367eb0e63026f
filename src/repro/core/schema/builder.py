"""Fluent construction of SEED schemas.

:class:`SchemaBuilder` is the recommended way to define a schema in
Python code. The figure-2 schema of the paper looks like this::

    builder = SchemaBuilder("spec")
    builder.entity_class("Data")
    builder.dependent("Data", "Text", "0..16")
    builder.dependent("Data.Text", "Body")
    builder.dependent("Data.Text.Body", "Contents", "1..1", sort="STRING")
    builder.dependent("Data.Text.Body", "Keywords", "0..*", sort="STRING")
    builder.dependent("Data.Text", "Selector", "0..1", sort="STRING")
    builder.entity_class("Action")
    builder.dependent("Action", "Description", "1..1", sort="STRING")
    builder.association(
        "Read", ("from", "Data", "1..*"), ("by", "Action", "0..*"))
    builder.association(
        "Write", ("to", "Data", "1..*"), ("by", "Action", "0..*"))
    builder.association(
        "Contained",
        ("contained", "Action", "0..1"),
        ("container", "Action", "0..*"),
        acyclic=True)
    schema = builder.build()

``build()`` validates and returns the finished :class:`Schema`. All
methods return the builder so calls can be chained.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.cardinality import Cardinality
from repro.core.errors import SchemaError
from repro.core.schema.association import Association, Attribute, Role
from repro.core.schema.attached import AttachedProcedure, ProcedureRegistry, default_registry
from repro.core.schema.entity_class import EntityClass
from repro.core.schema.generalization import set_covering, specialize
from repro.core.schema.schema import Schema
from repro.core.values import ValueSort, sort_by_name

__all__ = ["SchemaBuilder", "RoleSpec", "figure2_schema", "figure3_schema"]

#: a role specification: (role name, class name, cardinality text)
RoleSpec = tuple[str, str, str]


def _resolve_sort(sort: Union[str, ValueSort, None]) -> Optional[ValueSort]:
    if sort is None or isinstance(sort, ValueSort):
        return sort
    return sort_by_name(sort)


class SchemaBuilder:
    """Incremental schema definition with validation at :meth:`build`."""

    def __init__(self, name: str = "schema") -> None:
        self._schema = Schema(name)
        self._built = False

    # -- classes -----------------------------------------------------------

    def entity_class(
        self,
        name: str,
        *,
        specializes: Optional[str] = None,
        sort: Union[str, ValueSort, None] = None,
        doc: str = "",
    ) -> "SchemaBuilder":
        """Add an independent class.

        ``specializes`` names an already-defined class this one
        specializes (figure 3's ``class Data : Thing``); ``sort`` makes
        the class value-typed.
        """
        entity_class = EntityClass(name, value_sort=_resolve_sort(sort), doc=doc)
        self._schema.add_class(entity_class)
        if specializes is not None:
            specialize(self._schema.entity_class(specializes), entity_class)
        return self

    def dependent(
        self,
        parent: str,
        name: str,
        cardinality: Union[str, Cardinality] = "1..1",
        *,
        sort: Union[str, ValueSort, None] = None,
        doc: str = "",
    ) -> "SchemaBuilder":
        """Add a dependent class under *parent* (dotted names allowed).

        ``builder.dependent("Data.Text", "Selector", "0..1",
        sort="STRING")`` defines figure 2's selector leaf.
        """
        parent_class = self._schema.entity_class(parent)
        parent_class.add_dependent(
            name, cardinality, value_sort=_resolve_sort(sort), doc=doc
        )
        return self

    # -- associations --------------------------------------------------------

    def association(
        self,
        name: str,
        first: RoleSpec,
        second: RoleSpec,
        *,
        acyclic: bool = False,
        specializes: Optional[str] = None,
        doc: str = "",
    ) -> "SchemaBuilder":
        """Add a binary association from two ``(role, class, card)`` specs."""
        roles = []
        for spec in (first, second):
            if len(spec) != 3:
                raise SchemaError(
                    f"association {name!r}: role spec must be "
                    f"(role, class, cardinality), got {spec!r}"
                )
            role_name, class_name, cardinality = spec
            roles.append(
                Role(
                    role_name,
                    self._schema.entity_class(class_name),
                    Cardinality.parse(cardinality),
                )
            )
        association = Association(name, roles[0], roles[1], acyclic=acyclic, doc=doc)
        self._schema.add_association(association)
        if specializes is not None:
            specialize(self._schema.association(specializes), association)
        return self

    def attribute(
        self,
        association: str,
        name: str,
        sort: Union[str, ValueSort],
        cardinality: Union[str, Cardinality] = "0..1",
        *,
        doc: str = "",
    ) -> "SchemaBuilder":
        """Declare a typed attribute on an association.

        Figure 3 attaches ``NumberOfWrites [1..1]`` and
        ``ErrorHandling [0..1]`` to the ``Write`` association.
        """
        resolved_sort = _resolve_sort(sort)
        if resolved_sort is None:
            raise SchemaError(f"attribute {name!r} needs a value sort")
        self._schema.association(association).add_attribute(
            Attribute(name, resolved_sort, Cardinality.parse(cardinality), doc=doc)
        )
        return self

    # -- hierarchies -----------------------------------------------------------

    def covering(self, general: str) -> "SchemaBuilder":
        """Mark the generalization rooted at *general* as covering."""
        set_covering(self._schema.element(general))
        return self

    # -- attached procedures ------------------------------------------------------

    def attach(
        self,
        element: str,
        procedure: Union[str, AttachedProcedure],
        *,
        registry: Optional[ProcedureRegistry] = None,
    ) -> "SchemaBuilder":
        """Attach a procedure (by object or registry name) to *element*."""
        if isinstance(procedure, str):
            procedure = (registry or default_registry()).get(procedure)
        self._schema.element(element).attach(procedure)
        return self

    # -- finishing -------------------------------------------------------------------

    def build(self) -> Schema:
        """Validate and return the schema. A builder builds exactly once."""
        if self._built:
            raise SchemaError("this builder has already built its schema")
        self._built = True
        return self._schema.check()

def figure2_schema() -> Schema:
    """The paper's figure-2 schema, exactly as printed.

    Classes ``Data`` (with the ``Text``/``Body``/``Selector`` dependent
    tree) and ``Action`` (with a ``Description`` leaf), associations
    ``Read``, ``Write`` and the ACYCLIC ``Contained``.
    """
    builder = SchemaBuilder("figure2")
    builder.entity_class("Data", doc="passive data objects of the target system")
    builder.dependent("Data", "Text", "0..16", doc="textual annotations")
    builder.dependent("Data.Text", "Body", "1..1")
    builder.dependent("Data.Text.Body", "Contents", "1..1", sort="STRING")
    builder.dependent("Data.Text.Body", "Keywords", "0..*", sort="STRING")
    builder.dependent("Data.Text", "Selector", "0..1", sort="STRING")
    builder.entity_class("Action", doc="active components of the target system")
    builder.dependent("Action", "Description", "1..1", sort="STRING")
    builder.association(
        "Read",
        ("from", "Data", "1..*"),
        ("by", "Action", "0..*"),
        doc="reading dataflow: from Data by Action",
    )
    builder.association(
        "Write",
        ("to", "Data", "1..*"),
        ("by", "Action", "0..*"),
        doc="writing dataflow: to Data by Action",
    )
    builder.association(
        "Contained",
        ("contained", "Action", "0..1"),
        ("container", "Action", "0..*"),
        acyclic=True,
        doc="tree structure on actions",
    )
    return builder.build()


def figure3_schema() -> Schema:
    """The paper's figure-3 schema: figure 2 plus generalizations.

    ``Data`` and ``Action`` are generalized to ``Thing``; ``Data`` is
    specialized to ``OutputData`` and ``InputData``; ``Read`` and
    ``Write`` are generalized to ``Access``. ``Write`` carries the
    ``NumberOfWrites``/``ErrorHandling`` refinement leaves from the
    figure, and ``Thing`` the ``Revised`` DATE leaf.
    """
    builder = SchemaBuilder("figure3")
    builder.entity_class("Thing", doc="most general category for vague items")
    builder.dependent("Thing", "Revised", "0..1", sort="DATE")
    builder.entity_class("Data", specializes="Thing")
    builder.dependent("Data", "Text", "0..16")
    builder.dependent("Data.Text", "Body", "1..1")
    builder.dependent("Data.Text.Body", "Contents", "1..1", sort="STRING")
    builder.dependent("Data.Text.Body", "Keywords", "0..*", sort="STRING")
    builder.dependent("Data.Text", "Selector", "0..1", sort="STRING")
    builder.entity_class("OutputData", specializes="Data")
    builder.entity_class("InputData", specializes="Data")
    builder.entity_class("Action", specializes="Thing")
    builder.dependent("Action", "Description", "1..1", sort="STRING")
    builder.association(
        "Access",
        ("data", "Data", "1..*"),
        ("by", "Action", "1..*"),
        doc="some dataflow between Data and Action; direction unknown",
    )
    builder.association(
        "Read",
        ("from", "InputData", "1..*"),
        ("by", "Action", "0..*"),
        specializes="Access",
    )
    builder.association(
        "Write",
        ("to", "OutputData", "1..*"),
        ("by", "Action", "0..*"),
        specializes="Access",
    )
    builder.attribute(
        "Write", "NumberOfWrites", "INTEGER", "1..1",
        doc="how many times the action writes the data",
    )
    builder.attribute(
        "Write", "ErrorHandling", "STRING", "0..1",
        doc="behaviour on error: abort or repeat",
    )
    builder.association(
        "Contained",
        ("contained", "Action", "0..1"),
        ("container", "Action", "0..*"),
        acyclic=True,
    )
    # Vague categories must eventually be refined: every Thing must end
    # up a Data or an Action, every Access a Read or a Write.
    builder.covering("Thing")
    builder.covering("Access")
    return builder.build()
