"""An entity-relationship algebra over SEED databases (query extension).

The prototype did not support complex queries; the paper points to
Parent & Spaccapietra's *entity-relationship algebra* (reference [10])
as the suitable formalism. This module implements a compact ER algebra:

* a :class:`Relation` is a named-column table whose cells are objects or
  values;
* :func:`extent` builds a one-column relation from a class extent;
* :func:`relationship_relation` builds a two-column relation from an
  association's instances (columns named by the roles);
* relations compose with ``select``, ``project``, ``rename``, ``join``
  (natural join on shared columns, by object identity), ``union`` and
  ``difference``.

The planner (:mod:`repro.core.query.planner`) builds ``select``,
``project``, ``rename`` and ``join``; this eager algebra is the
reference it is checked against.

The paper's incomplete-data semantics hold: "Taking joins or cartesian
products is not affected by undefined items. This is due to the fact
that entity-relationship based models define these operations on
existing relationships only" — relationship relations contain exactly
the existing (effective) relationships, and undefined values never
satisfy a selection predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.core.database import SeedDatabase
from repro.core.errors import QueryError
from repro.core.objects import SeedObject

__all__ = [
    "Relation",
    "extent",
    "relationship_relation",
    "relationship_row",
]


def relationship_row(rel: Any, attributes: Sequence[str]) -> tuple:
    """The relation row of one relationship: both bindings + attributes.

    Used by :func:`relationship_relation`.
    """
    if not attributes:
        return rel.endpoints()
    return rel.endpoints() + tuple(rel.attribute(attr) for attr in attributes)


@dataclass(frozen=True)
class Relation:
    """An immutable named-column table of query results.

    Rows are tuples aligned with :attr:`columns`. Cells hold
    :class:`SeedObject` instances (for entity columns) or plain values
    (for value columns). Equality of object cells is object identity —
    two rows join on a shared column when they reference the same
    object.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise QueryError(f"duplicate column names: {self.columns}")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise QueryError(
                    f"row width {len(row)} does not match columns "
                    f"{self.columns}"
                )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def of(cls, columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> "Relation":
        """Build a relation from loose sequences."""
        return cls(tuple(columns), tuple(tuple(row) for row in rows))

    # -- algebra ----------------------------------------------------------------

    def select(self, predicate: Callable[[dict[str, Any]], bool]) -> "Relation":
        """Keep rows whose column dict satisfies *predicate*."""
        kept = tuple(
            row for row in self.rows if predicate(dict(zip(self.columns, row)))
        )
        return Relation(self.columns, kept)

    def project(self, *columns: str) -> "Relation":
        """Keep only *columns* (duplicates removed)."""
        indices = [self._index(column) for column in columns]
        seen: set[tuple] = set()
        rows = []
        for row in self.rows:
            projected = tuple(self._cell_key(row[i]) for i in indices)
            if projected in seen:
                continue
            seen.add(projected)
            rows.append(tuple(row[i] for i in indices))
        return Relation(tuple(columns), tuple(rows))

    def rename(self, **renames: str) -> "Relation":
        """Rename columns: ``relation.rename(by="reader")``."""
        for old in renames:
            self._index(old)  # validate
        new_columns = tuple(renames.get(column, column) for column in self.columns)
        return Relation(new_columns, self.rows)

    def join(self, other: "Relation") -> "Relation":
        """Natural join on all shared columns (object identity / equality).

        With no shared columns this degenerates to a cartesian product,
        mirroring classical relational algebra.
        """
        shared = [column for column in self.columns if column in other.columns]
        other_only = [column for column in other.columns if column not in shared]
        result_columns = self.columns + tuple(other_only)
        index: dict[tuple, list[tuple]] = {}
        shared_other_indices = [other._index(column) for column in shared]
        for row in other.rows:
            key = tuple(self._cell_key(row[i]) for i in shared_other_indices)
            index.setdefault(key, []).append(row)
        shared_self_indices = [self._index(column) for column in shared]
        other_only_indices = [other._index(column) for column in other_only]
        rows = []
        for row in self.rows:
            key = tuple(self._cell_key(row[i]) for i in shared_self_indices)
            for match in index.get(key, ()):
                rows.append(row + tuple(match[i] for i in other_only_indices))
        return Relation(result_columns, tuple(rows))

    def union(self, other: "Relation") -> "Relation":
        """Set union (columns must match)."""
        self._require_same_columns(other)
        seen: set[tuple] = set()
        rows = []
        for row in self.rows + other.rows:
            key = tuple(self._cell_key(cell) for cell in row)
            if key not in seen:
                seen.add(key)
                rows.append(row)
        return Relation(self.columns, tuple(rows))

    def difference(self, other: "Relation") -> "Relation":
        """Set difference (columns must match).

        Set semantics, symmetric with :meth:`union`: duplicate kept rows
        collapse to their first occurrence (previously duplicates leaked
        through, making ``r.difference(empty)`` disagree with
        ``r.union(empty)`` on relations holding duplicate rows).
        """
        self._require_same_columns(other)
        exclude = {
            tuple(self._cell_key(cell) for cell in row) for row in other.rows
        }
        rows = []
        for row in self.rows:
            key = tuple(self._cell_key(cell) for cell in row)
            if key not in exclude:
                exclude.add(key)
                rows.append(row)
        return Relation(self.columns, tuple(rows))

    # -- inspection --------------------------------------------------------------------

    def column(self, name: str) -> list[Any]:
        """All cells of one column, in row order."""
        index = self._index(name)
        return [row[index] for row in self.rows]

    def distinct_objects(self, column: str) -> list[SeedObject]:
        """Distinct objects of an object column (stable order)."""
        seen: set[int] = set()
        result = []
        for cell in self.column(column):
            if isinstance(cell, SeedObject) and cell.oid not in seen:
                seen.add(cell.oid)
                result.append(cell)
        return result

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        for row in self.rows:
            yield dict(zip(self.columns, row))

    # -- internals ------------------------------------------------------------------------

    def _index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise QueryError(
                f"no column {column!r} (columns: {', '.join(self.columns)})"
            ) from None

    @staticmethod
    def _cell_key(cell: Any) -> Any:
        if isinstance(cell, SeedObject):
            return ("oid", cell.oid)
        # type-aware: SEED values are typed, so BOOLEAN false must not
        # collapse with INTEGER 0 (Python's `0 == False`) in set
        # operations or join matching
        return ("val", type(cell).__name__, cell)

    def _require_same_columns(self, other: "Relation") -> None:
        if self.columns != other.columns:
            raise QueryError(
                f"column mismatch: {self.columns} vs {other.columns}"
            )


def extent(
    db: SeedDatabase, class_name: str, *, column: Optional[str] = None
) -> Relation:
    """One-column relation of a class's live instances."""
    name = column or class_name.lower()
    rows = tuple((obj,) for obj in db.iter_objects(class_name))
    return Relation((name,), rows)


def relationship_relation(
    db: SeedDatabase, association: str, *, with_attributes: Sequence[str] = ()
) -> Relation:
    """Two-column relation of an association's instances.

    Columns carry the association's role names; optional attribute
    columns append attribute values (rows with the attribute unset get
    None — attribute presence is completeness, not existence).
    Only *existing* relationships produce rows, which is exactly why
    undefined items cannot disturb joins (paper, "Manipulating vague and
    incomplete data").
    """
    assoc = db.schema.association(association)
    first_role, second_role = assoc.role_names()
    columns = (first_role, second_role) + tuple(with_attributes)
    rows = tuple(
        relationship_row(rel, with_attributes)
        for rel in db.iter_relationships(association)
    )
    return Relation(columns, rows)
