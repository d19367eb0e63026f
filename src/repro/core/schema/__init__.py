"""Schema metamodel: classes, associations, generalization, procedures.

The public surface of the schema layer:

* :class:`~repro.core.schema.schema.Schema` — the aggregate;
* :class:`~repro.core.schema.builder.SchemaBuilder` — fluent definition;
* :class:`~repro.core.schema.entity_class.EntityClass` — object classes
  with dependent sub-class trees;
* :class:`~repro.core.schema.association.Association` / ``Role`` /
  ``Attribute`` — relationship classes;
* :mod:`~repro.core.schema.generalization` — hierarchy operations;
* :class:`~repro.core.schema.attached.AttachedProcedure` — update
  triggers expressing complex constraints;
* :mod:`~repro.core.schema.ddl` — the schema printed as DDL text;
* :class:`~repro.core.schema.catalog.SchemaCatalog` — schema versions.
"""

from repro.core.schema.association import Association, Attribute, Role
from repro.core.schema.attached import (
    AttachedProcedure,
    ProcedureRegistry,
    UpdateContext,
    attached_procedure,
    default_registry,
)
from repro.core.schema.builder import SchemaBuilder, figure2_schema, figure3_schema
from repro.core.schema.ddl import print_ddl
from repro.core.schema.element import SchemaElement
from repro.core.schema.entity_class import EntityClass
from repro.core.schema.generalization import (
    check_reclassification,
    set_covering,
    specialize,
)
from repro.core.schema.schema import Schema

__all__ = [
    "Association",
    "Attribute",
    "Role",
    "AttachedProcedure",
    "ProcedureRegistry",
    "UpdateContext",
    "attached_procedure",
    "default_registry",
    "SchemaBuilder",
    "figure2_schema",
    "figure3_schema",
    "print_ddl",
    "SchemaElement",
    "EntityClass",
    "Schema",
    "check_reclassification",
    "set_covering",
    "specialize",
]
