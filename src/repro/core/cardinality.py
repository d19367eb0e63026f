"""Cardinality specifications (``min .. max`` with ``*`` = unlimited).

Cardinalities appear in two places in a SEED schema (paper, figure 2):

* on a **dependent class**, bounding how many sub-objects of that class
  a parent object may/must have (``Data.Text`` has ``0..16``);
* on an **association role**, bounding in how many relationships of the
  association an instance of the role's class may/must participate
  (``Read from`` has ``1..*``: every ``Data`` object must eventually be
  read by at least one ``Action``).

The *maximum* is consistency information (enforced on every update);
the *minimum* is completeness information (checked on demand). The
:class:`Cardinality` value object carries both; the consistency and
completeness engines each read their half.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import CardinalityError

__all__ = ["Cardinality", "UNBOUNDED"]

#: sentinel meaning "no upper bound" (the paper's ``*``)
UNBOUNDED: None = None

_CARD_RE = re.compile(r"^\s*(?P<min>\d+)\s*\.\.\s*(?P<max>\d+|\*)\s*$")


@dataclass(frozen=True)
class Cardinality:
    """An immutable ``minimum..maximum`` cardinality.

    ``maximum`` is ``None`` for the paper's ``*`` (unlimited). Common
    instances: ``Cardinality(0, None)`` = ``0..*``, ``Cardinality(1, 1)``
    = ``1..1``.
    """

    minimum: int
    maximum: Optional[int]

    def __post_init__(self) -> None:
        if not isinstance(self.minimum, int) or self.minimum < 0:
            raise CardinalityError(f"illegal minimum {self.minimum!r}")
        if self.maximum is not None:
            if not isinstance(self.maximum, int) or self.maximum < 0:
                raise CardinalityError(f"illegal maximum {self.maximum!r}")
            if self.maximum < self.minimum:
                raise CardinalityError(
                    f"maximum {self.maximum} below minimum {self.minimum}"
                )

    # -- construction ----------------------------------------------------

    @classmethod
    def parse(cls, text: str | "Cardinality") -> "Cardinality":
        """Parse ``"0..16"``, ``"1..*"``-style text (idempotent on instances)."""
        if isinstance(text, Cardinality):
            return text
        if not isinstance(text, str):
            raise CardinalityError(f"cannot parse cardinality from {text!r}")
        match = _CARD_RE.match(text)
        if not match:
            raise CardinalityError(f"illegal cardinality syntax: {text!r}")
        maximum_text = match.group("max")
        maximum = None if maximum_text == "*" else int(maximum_text)
        return cls(int(match.group("min")), maximum)

    @classmethod
    def exactly(cls, n: int) -> "Cardinality":
        """``n..n``."""
        return cls(n, n)

    # -- queries ---------------------------------------------------------

    @property
    def is_unbounded(self) -> bool:
        """True when there is no upper bound (``*``)."""
        return self.maximum is None

    @property
    def is_mandatory(self) -> bool:
        """True when at least one item is eventually required (min >= 1)."""
        return self.minimum >= 1

    def allows_more(self, count: int) -> bool:
        """True when one more item may be added to *count* existing ones.

        This is the consistency half: only the maximum matters.
        """
        return self.maximum is None or count < self.maximum

    def __str__(self) -> str:
        maximum = "*" if self.maximum is None else str(self.maximum)
        return f"{self.minimum}..{maximum}"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Cardinality.parse({str(self)!r})"
