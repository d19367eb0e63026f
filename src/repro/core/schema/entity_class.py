"""Object classes, including hierarchically structured (dependent) classes.

Figure 2 of the paper shows the two structuring mechanisms this module
implements:

* **independent classes** such as ``Data`` and ``Action`` — top-level
  classes whose instances are independent objects with user-given names;
* **dependent classes** (sub-classes in the paper's terminology, not to
  be confused with generalization) such as ``Data.Text`` and
  ``Data.Text.Body`` — classes whose instances exist only as sub-objects
  of a parent instance. A dependent class carries a *cardinality*
  bounding how many sub-objects of it a single parent may own
  (``Data.Text`` has ``0..16``).

Leaf dependent classes may be typed with a value sort (``Data.Text.
Selector`` has instances of type ``STRING``); instances of such classes
carry values.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.cardinality import Cardinality
from repro.core.errors import SchemaError
from repro.core.identifiers import check_simple_name
from repro.core.schema.element import SchemaElement, _Facts, schema_changed
from repro.core.values import ValueSort

__all__ = ["EntityClass"]


class EntityClass(SchemaElement):
    """An object class; independent (top-level) or dependent (sub-class).

    Dependent classes are created through :meth:`add_dependent` on their
    parent, never directly. The full name of a dependent class is the
    dotted path from its independent ancestor (``Data.Text.Body``).
    """

    kind = "class"

    def __init__(
        self,
        name: str,
        *,
        value_sort: Optional[ValueSort] = None,
        doc: str = "",
    ) -> None:
        super().__init__(name, doc=doc)
        #: parent class when this is a dependent class, else None;
        #: assigned once, by the parent's :meth:`add_dependent`
        self.parent: Optional[EntityClass] = None
        #: dotted path from the independent ancestor (``Data.Text.Body``);
        #: fixed where :attr:`parent` is — every ``freeze()`` reads it
        self.full_name = name
        #: per-parent instance count bound; None for independent classes
        self.cardinality: Optional[Cardinality] = None
        #: value sort for leaf classes whose instances carry values
        self.value_sort = value_sort
        self._dependents: dict[str, EntityClass] = {}

    # -- structure ---------------------------------------------------------

    @property
    def is_dependent(self) -> bool:
        """True for sub-classes (instances exist only inside a parent)."""
        return self.parent is not None

    @property
    def is_independent(self) -> bool:
        """True for top-level classes (instances are independent objects)."""
        return self.parent is None

    @property
    def has_value(self) -> bool:
        """True when instances of this class carry a typed value."""
        return self.value_sort is not None

    def add_dependent(
        self,
        name: str,
        cardinality: Cardinality | str = "1..1",
        *,
        value_sort: Optional[ValueSort] = None,
        doc: str = "",
    ) -> "EntityClass":
        """Create and attach a dependent class named *name*.

        *cardinality* bounds the number of sub-objects of this class per
        parent object (figure 2 uses ``0..16`` for ``Data.Text``).
        Returns the new dependent class so definitions can be chained
        downward.
        """
        check_simple_name(name, "dependent class name")
        if name in self._dependents:
            raise SchemaError(
                f"class {self.full_name!r} already has a dependent {name!r}"
            )
        if self.has_value:
            raise SchemaError(
                f"value-typed class {self.full_name!r} cannot have dependents"
            )
        dependent = EntityClass(name, value_sort=value_sort, doc=doc)
        dependent.parent = self
        dependent.full_name = f"{self.full_name}.{name}"
        dependent.cardinality = Cardinality.parse(cardinality)
        self._dependents[name] = dependent
        schema_changed()  # the specials of this class resolve the role too
        return dependent

    def dependent(self, name: str) -> "EntityClass":
        """Return the direct dependent class named *name*.

        Raises :class:`SchemaError` when absent, listing the available
        dependents for debuggability.
        """
        try:
            return self._dependents[name]
        except KeyError:
            available = ", ".join(sorted(self._dependents)) or "(none)"
            raise SchemaError(
                f"class {self.full_name!r} has no dependent {name!r} "
                f"(available: {available})"
            ) from None

    def _compile(self, generation: int) -> _Facts:
        facts = super()._compile(generation)
        for element in reversed(facts.chain):  # the most special wins
            facts.dependents.update(element._dependents)
        return facts

    def resolve_dependent(self, role: str) -> Optional["EntityClass"]:
        """The dependent class *role* resolves to along the kind chain.

        An ``OutputData`` object owns ``Text`` sub-objects because its
        general ``Data`` declares them; the nearest declaration wins.
        """
        return self._facts().dependents.get(role)

    @property
    def dependents(self) -> list["EntityClass"]:
        """Direct dependent classes in definition order."""
        return list(self._dependents.values())

    def dependent_path(self, path: tuple[str, ...]) -> "EntityClass":
        """Resolve a chain of dependent names starting below this class.

        ``data.dependent_path(("Text", "Body"))`` returns the class
        ``Data.Text.Body``. An empty path returns this class itself.
        """
        node = self
        for name in path:
            node = node.dependent(name)
        return node

    def walk(self) -> Iterator["EntityClass"]:
        """Yield this class and all transitive dependents, parents first."""
        yield self
        for dependent in self._dependents.values():
            yield from dependent.walk()

    # -- instance-facing helpers -------------------------------------------

    def accepts_value(self, value: object) -> object:
        """Coerce *value* for storage on an instance of this class.

        Raises :class:`SchemaError` when the class is not value-typed and
        :class:`~repro.core.errors.ValueTypeError` when the value does
        not fit the sort.
        """
        if self.value_sort is None:
            raise SchemaError(
                f"class {self.full_name!r} is not value-typed; "
                "values may only be set on leaf classes with a sort"
            )
        return self.value_sort.coerce(value)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        sort = f" : {self.value_sort.name}" if self.value_sort else ""
        card = f" [{self.cardinality}]" if self.cardinality else ""
        return f"<EntityClass {self.full_name}{sort}{card}>"
