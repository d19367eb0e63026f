"""Value sorts: the typed value domain of SEED leaf objects.

The paper's schemas type leaf classes with sorts such as ``STRING`` (the
``Contents``/``Selector``/``Description`` classes of figures 2 and 3) and
``DATE`` (the ``Revised`` class of figure 3). This module provides the
sort objects, a registry keyed by sort name, and conversion/validation
between Python values and the canonical stored representation.

Canonical representations are plain, JSON-serialisable Python values:

========  ==========================  =======================
sort      canonical Python type        example
========  ==========================  =======================
STRING    ``str``                      ``"Alarms"``
TEXT      ``str`` (multi-line)         ``"Handles alarms"``
INTEGER   ``int``                      ``2``
REAL      ``float``                    ``0.5``
BOOLEAN   ``bool``                     ``True``
DATE      ``datetime.date``            ``date(1986, 2, 5)``
========  ==========================  =======================

Use :func:`sort_by_name` to resolve a sort named in a schema, and
``sort.coerce(value)`` to validate/normalise a user-supplied value.
"""

from __future__ import annotations

import datetime
from typing import Any

from repro.core.errors import ValueTypeError

__all__ = [
    "ValueSort",
    "STRING",
    "TEXT",
    "INTEGER",
    "REAL",
    "BOOLEAN",
    "DATE",
    "sort_by_name",
]


class ValueSort:
    """A sort (type) of values storable on leaf objects.

    Instances are immutable singletons; compare them with ``is`` or by
    :attr:`name`. Subclasses implement coercion, parsing from text, and
    formatting to text.
    """

    #: upper-case sort name as used in schemas, e.g. ``"STRING"``
    name: str = "ABSTRACT"

    def coerce(self, value: Any) -> Any:
        """Validate *value* and return its canonical representation.

        Raises :class:`ValueTypeError` if the value does not belong to
        this sort. Coercion is strict: no silent cross-type conversion
        (an ``int`` is not a valid ``STRING``), with the single exception
        that ``int`` is accepted for ``REAL`` (widening is lossless).
        """
        raise NotImplementedError

    def parse(self, text: str) -> Any:
        """Parse a textual representation into a canonical value."""
        raise NotImplementedError

    def format(self, value: Any) -> str:
        """Render a canonical value as text (inverse of :meth:`parse`)."""
        return str(value)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<ValueSort {self.name}>"

    def __str__(self) -> str:
        return self.name


class _StringSort(ValueSort):
    name = "STRING"

    def coerce(self, value: Any) -> str:
        if isinstance(value, str):
            return value
        raise ValueTypeError(f"{self.name} requires str, got {type(value).__name__}")

    def parse(self, text: str) -> str:
        return text


class _TextSort(_StringSort):
    """Multi-line text; same domain as STRING but documents intent."""

    name = "TEXT"


class _IntegerSort(ValueSort):
    name = "INTEGER"

    def coerce(self, value: Any) -> int:
        # bool is a subclass of int but is not an INTEGER in SEED terms.
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueTypeError(
                f"{self.name} requires int, got {type(value).__name__}"
            )
        return value

    def parse(self, text: str) -> int:
        try:
            return int(text.strip())
        except ValueError as exc:
            raise ValueTypeError(f"not an INTEGER: {text!r}") from exc


class _RealSort(ValueSort):
    name = "REAL"

    def coerce(self, value: Any) -> float:
        if isinstance(value, bool):
            raise ValueTypeError(f"{self.name} requires float, got bool")
        if isinstance(value, (int, float)):
            return float(value)
        raise ValueTypeError(
            f"{self.name} requires float, got {type(value).__name__}"
        )

    def parse(self, text: str) -> float:
        try:
            return float(text.strip())
        except ValueError as exc:
            raise ValueTypeError(f"not a REAL: {text!r}") from exc


class _BooleanSort(ValueSort):
    name = "BOOLEAN"

    _TRUE = frozenset({"true", "yes", "1"})
    _FALSE = frozenset({"false", "no", "0"})

    def coerce(self, value: Any) -> bool:
        if isinstance(value, bool):
            return value
        raise ValueTypeError(
            f"{self.name} requires bool, got {type(value).__name__}"
        )

    def parse(self, text: str) -> bool:
        lowered = text.strip().lower()
        if lowered in self._TRUE:
            return True
        if lowered in self._FALSE:
            return False
        raise ValueTypeError(f"not a BOOLEAN: {text!r}")

    def format(self, value: Any) -> str:
        return "true" if value else "false"


class _DateSort(ValueSort):
    name = "DATE"

    def coerce(self, value: Any) -> datetime.date:
        if isinstance(value, datetime.datetime):
            raise ValueTypeError(f"{self.name} requires a date, got datetime")
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            return self.parse(value)
        raise ValueTypeError(
            f"{self.name} requires datetime.date or ISO string, "
            f"got {type(value).__name__}"
        )

    def parse(self, text: str) -> datetime.date:
        try:
            return datetime.date.fromisoformat(text.strip())
        except ValueError as exc:
            raise ValueTypeError(f"not a DATE (expected ISO yyyy-mm-dd): {text!r}") from exc

    def format(self, value: Any) -> str:
        return value.isoformat()


STRING = _StringSort()
TEXT = _TextSort()
INTEGER = _IntegerSort()
REAL = _RealSort()
BOOLEAN = _BooleanSort()
DATE = _DateSort()

_REGISTRY: dict[str, ValueSort] = {
    sort.name: sort for sort in (STRING, TEXT, INTEGER, REAL, BOOLEAN, DATE)
}


def sort_by_name(name: str) -> ValueSort:
    """Return the sort registered under *name* (case-insensitive).

    Raises :class:`ValueTypeError` for unknown sort names, listing the
    known ones to ease schema debugging.
    """
    try:
        return _REGISTRY[name.upper()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueTypeError(f"unknown value sort {name!r} (known: {known})") from None
