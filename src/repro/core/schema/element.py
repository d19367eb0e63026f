"""Common base for schema elements (classes and associations).

Both object classes and associations participate in generalization
hierarchies and may carry attached procedures (paper: "Attached
procedures may be attached to any SEED schema element"), so the shared
state lives here.

Generalization links are doubly linked: a specialized element knows its
``general`` and a generalized element lists its ``specials``. The links
are maintained by :class:`repro.core.schema.builder.SchemaBuilder` /
:class:`repro.core.schema.schema.Schema`; elements only store them.

What the links imply — the kind chain, the kind-of set, the family root
and, for a class, the dependent class each role resolves to, for an
association the ACYCLIC flag and the role maxima along the chain — is
compiled once from :meth:`SchemaElement.kind_chain` and reused until
:func:`schema_changed` is called, which every in-place link change does.
"""

from __future__ import annotations

from typing import Iterator, Optional, TYPE_CHECKING

from repro.core.errors import SchemaError
from repro.core.identifiers import check_simple_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schema.attached import AttachedProcedure

__all__ = ["SchemaElement", "schema_changed", "schema_generation"]

#: advanced by every ``specialize``, ``set_covering``,
#: ``add_dependent``, ``Schema.add_class`` and
#: ``Schema.add_association``; facts compiled and schema checks passed
#: under an older value are stale
_generation = 0


def schema_changed() -> None:
    """Drop every element's compiled facts (they recompile on next use)."""
    global _generation
    _generation += 1


def schema_generation() -> int:
    """The current generation (what was compiled under another is stale)."""
    return _generation


class _Facts:
    """What an element's kind chain implies, as of one generation."""

    __slots__ = ("generation", "chain", "kinds", "root", "dependents", "acyclic", "maxima")

    def __init__(self, generation: int, chain: tuple["SchemaElement", ...]) -> None:
        self.generation = generation
        self.chain = chain
        self.kinds = frozenset(chain)
        self.root = chain[-1]
        #: role -> dependent class, filled for classes only
        self.dependents: dict[str, "SchemaElement"] = {}
        #: associations only: the chain holds an ACYCLIC element, and its
        #: bounded roles as ``(element name, position, maximum)``
        self.acyclic = False
        self.maxima: tuple[tuple[str, int, int], ...] = ()


class SchemaElement:
    """A named schema element with generalization links and procedures."""

    #: "class" or "association"; set by subclasses, used in messages
    kind: str = "element"

    def __init__(self, name: str, doc: str = "") -> None:
        check_simple_name(name, f"{self.kind} name")
        self._name = name
        #: human documentation string (kept through DDL round-trips)
        self.doc = doc
        #: the more general element this one specializes, if any
        self.general: Optional["SchemaElement"] = None
        #: elements that specialize this one (insertion order)
        self.specials: list["SchemaElement"] = []
        #: covering condition: every instance must eventually be
        #: specialized into one of :attr:`specials` (completeness info)
        self.covering: bool = False
        #: attached procedures, run on updates of instances of this element
        self.attached_procedures: list["AttachedProcedure"] = []
        self._compiled: Optional[_Facts] = None

    @property
    def name(self) -> str:
        """The element's simple name (unique per kind within a schema)."""
        return self._name

    # -- generalization navigation ---------------------------------------

    def kind_chain(self) -> Iterator["SchemaElement"]:
        """Yield this element, its general, its general's general, ...

        The chain enumerates every element an instance of this element
        is also an instance of (transitive 'is-a'). It is walked only to
        compile the facts :meth:`kinds`, :meth:`is_kind_of` and
        :meth:`family_root` answer from.
        """
        element: Optional[SchemaElement] = self
        seen: set[int] = set()
        while element is not None:
            if id(element) in seen:
                raise SchemaError(
                    f"generalization cycle through {self.kind} {self._name!r}"
                )
            seen.add(id(element))
            yield element
            element = element.general

    def _facts(self) -> _Facts:
        facts = self._compiled
        if facts is None or facts.generation != _generation:
            facts = self._compiled = self._compile(_generation)
        return facts

    def _compile(self, generation: int) -> _Facts:
        return _Facts(generation, tuple(self.kind_chain()))

    def kinds(self) -> tuple["SchemaElement", ...]:
        """The :meth:`kind_chain` as a tuple, compiled once."""
        return self._facts().chain

    def is_kind_of(self, other: "SchemaElement") -> bool:
        """True when instances of this element are also instances of *other*.

        Every element is a kind of itself; otherwise *other* must be on
        the generalization chain (``OutputData.is_kind_of(Thing)``).
        """
        if self is other:
            return True
        return other in self._facts().kinds

    def all_specials(self) -> Iterator["SchemaElement"]:
        """Yield all transitive specializations (excluding this element)."""
        stack = list(self.specials)
        while stack:
            element = stack.pop()
            yield element
            stack.extend(element.specials)

    def family(self) -> list["SchemaElement"]:
        """All elements connected to this one via generalization edges.

        The family is the root of this element's chain plus every
        transitive specialization of that root — the set within which
        re-classification is meaningful.
        """
        root = self.family_root()
        return [root, *root.all_specials()]

    def family_root(self) -> "SchemaElement":
        """The most general element of this element's hierarchy."""
        return self._facts().root

    # -- attached procedures ----------------------------------------------

    def attach(self, procedure: "AttachedProcedure") -> None:
        """Register *procedure* to run on updates of this element's items."""
        if any(existing.name == procedure.name for existing in self.attached_procedures):
            raise SchemaError(
                f"procedure {procedure.name!r} already attached to "
                f"{self.kind} {self._name!r}"
            )
        self.attached_procedures.append(procedure)

    def procedures_including_inherited(self) -> Iterator["AttachedProcedure"]:
        """Yield procedures of this element and of all its generals.

        An instance of ``Read`` is also an instance of ``Access``, so
        procedures attached to ``Access`` fire for ``Read`` updates too.
        """
        for element in self.kinds():
            yield from element.attached_procedures

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self._name}>"
