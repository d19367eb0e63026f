"""SEED core: the entity-relationship DBMS of Glinz & Ludewig (ICDE 1986).

The central entry point is :class:`~repro.core.database.SeedDatabase`,
created against a :class:`~repro.core.schema.Schema` (usually built with
:class:`~repro.core.schema.SchemaBuilder`). ``examples/quickstart.py``
walks through it.
"""

from repro.core.cardinality import Cardinality
from repro.core.completeness import CompletenessReport, Gap
from repro.core.consistency import Violation
from repro.core.database import SeedDatabase
from repro.core.errors import (
    CheckInError,
    ClassificationError,
    CompletenessError,
    ConsistencyError,
    IdentifierError,
    LockError,
    PatternError,
    QueryError,
    RecoveryWarning,
    SchemaError,
    SeedError,
    SessionError,
    StorageError,
    TransactionError,
    ValueTypeError,
    VariantError,
    VersionError,
)
from repro.core.identifiers import DottedName, NamePart
from repro.core.objects import ObjectState, SeedObject
from repro.core.patterns import InheritedRelationship
from repro.core.relationships import RelationshipState, SeedRelationship
from repro.core.schema import (
    Association,
    AttachedProcedure,
    Attribute,
    EntityClass,
    Role,
    Schema,
    SchemaBuilder,
    attached_procedure,
    figure2_schema,
    figure3_schema,
)
from repro.core.versions import VersionId, VersionView

__all__ = [
    "Cardinality",
    "CompletenessReport",
    "Gap",
    "Violation",
    "SeedDatabase",
    "CheckInError",
    "ClassificationError",
    "CompletenessError",
    "ConsistencyError",
    "IdentifierError",
    "LockError",
    "PatternError",
    "QueryError",
    "RecoveryWarning",
    "SchemaError",
    "SeedError",
    "SessionError",
    "StorageError",
    "TransactionError",
    "ValueTypeError",
    "VariantError",
    "VersionError",
    "DottedName",
    "NamePart",
    "ObjectState",
    "SeedObject",
    "InheritedRelationship",
    "RelationshipState",
    "SeedRelationship",
    "Association",
    "AttachedProcedure",
    "Attribute",
    "EntityClass",
    "Role",
    "Schema",
    "SchemaBuilder",
    "attached_procedure",
    "figure2_schema",
    "figure3_schema",
    "VersionId",
    "VersionView",
]
