"""Attached procedures: user code expressing complex integrity constraints.

The paper: "Attached procedures may be attached to any SEED schema
element. They are executed when an item of the corresponding schema
element is updated. Attached procedures are used to express complex
integrity constraints." Attached procedures belong to the *consistency*
half of the schema information, so a failing procedure vetoes the update.

A procedure is a Python callable receiving an :class:`UpdateContext`.
It may:

* return ``None`` / an empty list — the update is acceptable;
* return a list of message strings — each becomes a consistency
  violation and the update is rejected;
* raise :class:`~repro.core.errors.ConsistencyError` — equivalent veto.

Procedures are registered in a :class:`ProcedureRegistry` under a stable
name so that schemas can be serialised: the persistent form stores only
the name, and loading re-binds it against the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, TYPE_CHECKING

from repro.core.errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schema.element import SchemaElement

__all__ = [
    "UpdateContext",
    "AttachedProcedure",
    "ProcedureRegistry",
    "default_registry",
    "attached_procedure",
]

#: operations a procedure can observe
OPERATIONS = ("create", "update", "delete", "reclassify")


@dataclass
class UpdateContext:
    """Everything an attached procedure may inspect about an update.

    Attributes:
        database: the database being updated (read access only; mutating
            the database from inside a procedure is undefined behaviour).
        operation: one of ``create``, ``update``, ``delete``,
            ``reclassify``.
        item: the object or relationship being updated (post-state for
            create/update, pre-state for delete).
        element: the schema element the procedure is attached to.
    """

    database: Any
    operation: str
    item: Any
    element: "SchemaElement"


@dataclass
class AttachedProcedure:
    """A named integrity procedure attachable to any schema element.

    Attributes:
        name: stable registry name (used for (de)serialisation).
        func: the callable ``func(context) -> None | Sequence[str]``.
        operations: which operations trigger the procedure; defaults to
            all of them.
        doc: human description, carried through DDL round-trips.
    """

    name: str
    func: Callable[[UpdateContext], Optional[Sequence[str]]]
    operations: tuple[str, ...] = OPERATIONS
    doc: str = ""

    def __post_init__(self) -> None:
        unknown = set(self.operations) - set(OPERATIONS)
        if unknown:
            raise SchemaError(
                f"attached procedure {self.name!r}: unknown operations {sorted(unknown)}"
            )

    def applies_to(self, operation: str) -> bool:
        """True when the procedure observes *operation*."""
        return operation in self.operations

    def run(self, context: UpdateContext) -> list[str]:
        """Execute the procedure; return violation messages (possibly empty)."""
        result = self.func(context)
        if result is None:
            return []
        return [str(message) for message in result]


class ProcedureRegistry:
    """Name → procedure mapping used to rebind procedures after loading."""

    def __init__(self) -> None:
        self._procedures: dict[str, AttachedProcedure] = {}

    def register(self, procedure: AttachedProcedure) -> AttachedProcedure:
        """Add *procedure*; re-registering the same name is an error."""
        if procedure.name in self._procedures:
            raise SchemaError(f"procedure {procedure.name!r} already registered")
        self._procedures[procedure.name] = procedure
        return procedure

    def replace(self, procedure: AttachedProcedure) -> AttachedProcedure:
        """Add or overwrite *procedure* (for test fixtures and reloads)."""
        self._procedures[procedure.name] = procedure
        return procedure

    def get(self, name: str) -> AttachedProcedure:
        """Look a procedure up by name; raise SchemaError if unknown."""
        try:
            return self._procedures[name]
        except KeyError:
            known = ", ".join(sorted(self._procedures)) or "(none)"
            raise SchemaError(
                f"unknown attached procedure {name!r} (registered: {known})"
            ) from None

    def known(self, name: str) -> bool:
        """True when *name* is registered."""
        return name in self._procedures

    def names(self) -> list[str]:
        """All registered names, sorted."""
        return sorted(self._procedures)


#: process-wide default registry; schema loading falls back to it
_DEFAULT_REGISTRY = ProcedureRegistry()


def default_registry() -> ProcedureRegistry:
    """Return the process-wide default procedure registry."""
    return _DEFAULT_REGISTRY


def attached_procedure(
    name: str,
    operations: tuple[str, ...] = OPERATIONS,
    doc: str = "",
    registry: Optional[ProcedureRegistry] = None,
):
    """Decorator registering a function as an attached procedure.

    >>> @attached_procedure("no_self_containment")
    ... def no_self_containment(context):
    ...     rel = context.item
    ...     ends = list(rel.bound_objects())
    ...     if len(ends) == 2 and ends[0] is ends[1]:
    ...         return ["an action must not contain itself"]
    """

    def decorate(func: Callable[[UpdateContext], Optional[Sequence[str]]]):
        procedure = AttachedProcedure(name=name, func=func, operations=operations, doc=doc)
        (registry or _DEFAULT_REGISTRY).replace(procedure)
        return procedure

    return decorate
