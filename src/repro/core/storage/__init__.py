"""Persistence: canonical serialisation, record files, storage engine."""

from repro.core.storage.engine import (
    JournaledDatabase,
    RecoveryInfo,
    load_database,
    save_database,
)
from repro.core.storage.recordfile import (
    CorruptRange,
    IntegrityReport,
    RecordFile,
)
from repro.core.storage.serialize import (
    database_from_dict,
    database_from_records,
    database_to_dict,
    iter_image_records,
    schema_from_dict,
    schema_to_dict,
)

__all__ = [
    "JournaledDatabase",
    "RecoveryInfo",
    "load_database",
    "save_database",
    "RecordFile",
    "CorruptRange",
    "IntegrityReport",
    "database_from_dict",
    "database_from_records",
    "database_to_dict",
    "iter_image_records",
    "schema_from_dict",
    "schema_to_dict",
]
