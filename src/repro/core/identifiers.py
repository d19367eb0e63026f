"""Names and identifiers.

SEED composes the name of a dependent object from the name of its parent
and its role in the context of the parent (paper, explanation of figure
1): ``Alarms.Text.Body.Keywords[1]`` is the second ``Keywords`` sub-object
of the ``Body`` of the (first) ``Text`` of the independent object
``Alarms``.

This module provides:

* :func:`is_simple_name` / :func:`check_simple_name` — validation of a
  single name component (class names, role names, object names);
* :class:`NamePart` — one component of a dotted name, with an optional
  integer index;
* :class:`DottedName` — a parsed dotted name with index suffixes,
  supporting composition, parsing, parent/child navigation and ordering.

Dotted names are pure values (immutable, hashable); the instance layer
maps them to live objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator, Optional

from repro.core.errors import IdentifierError

__all__ = [
    "is_simple_name",
    "check_simple_name",
    "NamePart",
    "DottedName",
]

# used with ``fullmatch``: a ``$`` anchor also matches before a final "\n"
_SIMPLE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PART_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)(?:\[(?P<index>\d+)\])?")


def is_simple_name(text: str) -> bool:
    """Return True if *text* is a legal single name component.

    Legal components match ``[A-Za-z_][A-Za-z0-9_]*`` — the identifier
    shape used throughout the paper's examples (``Alarms``,
    ``AlarmHandler``, ``Keywords``).
    """
    return isinstance(text, str) and bool(_SIMPLE_NAME_RE.fullmatch(text))


def check_simple_name(text: str, what: str = "name") -> str:
    """Validate *text* as a simple name and return it.

    Raises :class:`IdentifierError` with a message mentioning *what*
    (e.g. ``"class name"``) when the text is not a legal component.
    """
    if not is_simple_name(text):
        raise IdentifierError(f"illegal {what}: {text!r}")
    return text


@total_ordering
@dataclass(frozen=True)
class NamePart:
    """One component of a dotted name: a simple name plus optional index.

    The index distinguishes siblings of the same dependent class when
    the class cardinality allows several (``Keywords[0]``,
    ``Keywords[1]`` in figure 1). ``index`` is ``None`` for unindexed
    components; for ordering purposes ``None`` sorts before ``0``.
    """

    name: str
    index: Optional[int] = None

    def __post_init__(self) -> None:
        check_simple_name(self.name, "name part")
        if self.index is not None and (not isinstance(self.index, int) or self.index < 0):
            raise IdentifierError(f"illegal index {self.index!r} in name part {self.name!r}")

    def __lt__(self, other: "NamePart") -> bool:
        if not isinstance(other, NamePart):
            return NotImplemented
        return self._key() < other._key()

    def _key(self) -> tuple:
        return (self.name, -1 if self.index is None else self.index)

    @classmethod
    def parse(cls, text: str) -> "NamePart":
        """Parse ``"Keywords[1]"`` or ``"Body"`` into a NamePart."""
        match = _PART_RE.fullmatch(text)
        if not match:
            raise IdentifierError(f"illegal name part: {text!r}")
        index = match.group("index")
        return cls(match.group("name"), int(index) if index is not None else None)

    def __str__(self) -> str:
        if self.index is None:
            return self.name
        return f"{self.name}[{self.index}]"


@dataclass(frozen=True)
class DottedName:
    """A full composed name such as ``Alarms.Text.Body.Keywords[1]``.

    The first part names an independent object; each further part names
    the role (dependent class) of a sub-object within its parent, with
    an index when several siblings of that class exist.
    """

    parts: tuple[NamePart, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise IdentifierError("a dotted name needs at least one part")
        for part in self.parts:
            if not isinstance(part, NamePart):
                raise IdentifierError(f"not a NamePart: {part!r}")

    @classmethod
    def parse(cls, text: str) -> "DottedName":
        """Parse a dotted textual name into its parts.

        >>> DottedName.parse("Alarms.Text.Body.Keywords[1]").depth
        4
        """
        if not isinstance(text, str) or not text:
            raise IdentifierError(f"illegal dotted name: {text!r}")
        return cls(tuple(NamePart.parse(chunk) for chunk in text.split(".")))

    @classmethod
    def of(cls, *components: object) -> "DottedName":
        """Build a name from loose components.

        Components may be strings (parsed as single parts, index suffix
        allowed), :class:`NamePart` instances, or ``(name, index)``
        tuples.
        """
        parts: list[NamePart] = []
        for component in components:
            if isinstance(component, NamePart):
                parts.append(component)
            elif isinstance(component, str):
                parts.append(NamePart.parse(component))
            elif isinstance(component, tuple) and len(component) == 2:
                parts.append(NamePart(component[0], component[1]))
            else:
                raise IdentifierError(f"cannot build name component from {component!r}")
        return cls(tuple(parts))

    # -- structure -------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of parts; 1 for the name of an independent object."""
        return len(self.parts)

    @property
    def is_independent(self) -> bool:
        """True when the name refers to an independent (top-level) object."""
        return len(self.parts) == 1

    @property
    def root(self) -> NamePart:
        """The component naming the independent ancestor object."""
        return self.parts[0]

    @property
    def leaf(self) -> NamePart:
        """The last component (the object's own role and index)."""
        return self.parts[-1]

    @property
    def parent(self) -> Optional["DottedName"]:
        """The name of the parent object, or None for independent names."""
        if len(self.parts) == 1:
            return None
        return DottedName(self.parts[:-1])

    def child(self, name: str, index: Optional[int] = None) -> "DottedName":
        """Compose the name of a sub-object in role *name* (with *index*)."""
        return DottedName(self.parts + (NamePart(name, index),))

    # -- protocol --------------------------------------------------------

    def __iter__(self) -> Iterator[NamePart]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __lt__(self, other: "DottedName") -> bool:
        if not isinstance(other, DottedName):
            return NotImplemented
        return tuple(p._key() for p in self.parts) < tuple(p._key() for p in other.parts)

    def __str__(self) -> str:
        return ".".join(str(part) for part in self.parts)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DottedName({str(self)!r})"
