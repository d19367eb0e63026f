"""Decimal version identifiers ("Versions are identified by a decimal
classification. The classification tree reflects the version history.").

A :class:`VersionId` is a dotted tuple of non-negative integers:
``1.0``, ``2.0``, ``1.0.1``, ``2.1.3``. Ordering is lexicographic on the
component tuple, which makes "the greatest version number that is less
than or equal to n" (the paper's view rule) well defined; on branched
histories the version *tree* (see :mod:`repro.core.versions.tree`)
restricts the comparison to the ancestry chain.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import total_ordering

from repro.core.errors import VersionError

__all__ = ["VersionId"]

_VERSION_RE = re.compile(r"^\d+(\.\d+)*$")


@total_ordering
@dataclass(frozen=True)
class VersionId:
    """An immutable decimal-classification version identifier."""

    parts: tuple[int, ...]
    #: the dotted text, joined once: an image prints an id per stored state
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.parts:
            raise VersionError("a version id needs at least one component")
        for part in self.parts:
            if not isinstance(part, int) or part < 0:
                raise VersionError(f"illegal version component {part!r}")
        object.__setattr__(self, "_text", ".".join(map(str, self.parts)))

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, text: str | "VersionId") -> "VersionId":
        """Parse ``"2.0"``-style text (idempotent on instances)."""
        if isinstance(text, VersionId):
            return text
        if not isinstance(text, str) or not _VERSION_RE.match(text):
            raise VersionError(f"illegal version id: {text!r}")
        return cls(tuple(int(part) for part in text.split(".")))

    @classmethod
    def initial(cls) -> "VersionId":
        """The conventional first version, ``1.0``."""
        return cls((1, 0))

    # -- derivation --------------------------------------------------------

    def next_major(self) -> "VersionId":
        """The next version on the same level: ``2.0`` after ``1.3``."""
        return VersionId((self.parts[0] + 1,) + (0,) * (len(self.parts) - 1))

    def next_minor(self) -> "VersionId":
        """Increment the last component: ``1.1`` after ``1.0``."""
        return VersionId(self.parts[:-1] + (self.parts[-1] + 1,))

    def child(self, number: int = 1) -> "VersionId":
        """A classification child: ``1.0.1`` below ``1.0``."""
        if number < 0:
            raise VersionError(f"illegal child number {number}")
        return VersionId(self.parts + (number,))

    # -- queries ------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of components (2 for the usual ``major.minor``)."""
        return len(self.parts)

    def __lt__(self, other: "VersionId") -> bool:
        if not isinstance(other, VersionId):
            return NotImplemented
        return self.parts < other.parts

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"VersionId.parse({str(self)!r})"
