"""A hand-coded, schema-specific specification store ("SPADES before SEED").

"The first experiences with SPADES using SEED show that SPADES has
become considerably slower, but much more flexible" — to measure both
halves of that sentence, this module is the pre-SEED data layer: plain
Python dicts and dataclasses hard-wired to one fixed specification
model. No generic object graph, no consistency engine, no versions, no
patterns — just the fastest straightforward implementation of the same
operations the SPADES tool performs.

The *slower* half (benchmark C1) compares identical workloads against
:class:`~repro.spades.tool.SpadesTool`. The *more flexible* half is
structural and equally measurable: extending the model by a new item
kind or a new flow kind requires **new code here** (see
``SUPPORTED_KINDS`` — anything else raises), whereas the SEED-backed
tool takes a schema object, so the same change is a data change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["HandCodedSpecStore", "SpecAction", "SpecData", "SpecFlow"]

#: item kinds this implementation was written for; adding one means
#: writing and shipping new tool code (the inflexibility under test)
SUPPORTED_KINDS = ("action", "data")

#: flow kinds hard-wired into the update and report paths
SUPPORTED_FLOWS = ("read", "write")


@dataclass
class SpecAction:
    """An action record (fixed fields, no generic structure)."""

    name: str
    description: Optional[str] = None
    container: Optional[str] = None
    notes: list[str] = field(default_factory=list)


@dataclass
class SpecData:
    """A data record; direction is a plain string, not a classification."""

    name: str
    direction: Optional[str] = None  # None | "input" | "output"
    notes: list[str] = field(default_factory=list)


@dataclass
class SpecFlow:
    """A dataflow record; vague flows are inexpressible by construction."""

    kind: str  # "read" | "write"
    data: str
    action: str
    times: Optional[int] = None


class HandCodedSpecStore:
    """The fixed-schema, no-DBMS specification store."""

    def __init__(self) -> None:
        self._actions: dict[str, SpecAction] = {}
        self._data: dict[str, SpecData] = {}
        self._flows: list[SpecFlow] = []

    # -- updates -----------------------------------------------------------

    def declare_action(self, name: str, description: Optional[str] = None) -> SpecAction:
        """Create an action record."""
        if name in self._actions or name in self._data:
            raise ValueError(f"name {name!r} already used")
        action = SpecAction(name, description)
        self._actions[name] = action
        return action

    def declare_data(
        self, name: str, direction: Optional[str] = None
    ) -> SpecData:
        """Create a data record."""
        if name in self._actions or name in self._data:
            raise ValueError(f"name {name!r} already used")
        data = SpecData(name, direction)
        self._data[name] = data
        return data

    def declare(self, kind: str, name: str) -> object:
        """Generic-looking entry point that is not generic at all.

        This is where the hand-coded approach shows its cost: every new
        kind is another elif, written, reviewed, and shipped.
        """
        if kind == "action":
            return self.declare_action(name)
        if kind == "data":
            return self.declare_data(name)
        raise NotImplementedError(
            f"item kind {kind!r} requires a tool change "
            f"(supported: {', '.join(SUPPORTED_KINDS)})"
        )

    def add_flow(
        self, kind: str, data_name: str, action_name: str, times: Optional[int] = None
    ) -> SpecFlow:
        """Add a read/write flow; vague flows have no representation."""
        if kind not in SUPPORTED_FLOWS:
            raise NotImplementedError(
                f"flow kind {kind!r} requires a tool change "
                f"(supported: {', '.join(SUPPORTED_FLOWS)})"
            )
        if data_name not in self._data:
            raise ValueError(f"unknown data {data_name!r}")
        if action_name not in self._actions:
            raise ValueError(f"unknown action {action_name!r}")
        flow = SpecFlow(kind, data_name, action_name, times)
        self._flows.append(flow)
        return flow

    def contain(self, container: str, contained: str) -> None:
        """Set an action's container (single-parent, cycle-checked)."""
        if container not in self._actions or contained not in self._actions:
            raise ValueError("both actions must exist")
        node: Optional[str] = container
        while node is not None:
            if node == contained:
                raise ValueError("containment cycle")
            node = self._actions[node].container
        self._actions[contained].container = container

    def annotate(self, name: str, note: str) -> None:
        """Attach a note to an action or data record."""
        record = self._actions.get(name) or self._data.get(name)
        if record is None:
            raise ValueError(f"unknown item {name!r}")
        record.notes.append(note)

    # -- retrieval ------------------------------------------------------------------

    def find(self, name: str) -> Optional[object]:
        """Look an item up by name."""
        return self._actions.get(name) or self._data.get(name)

    def actions(self) -> list[SpecAction]:
        """All actions."""
        return list(self._actions.values())

    def data(self) -> list[SpecData]:
        """All data records."""
        return list(self._data.values())

    def flows_of(self, name: str) -> list[SpecFlow]:
        """Flows touching the named item."""
        return [
            flow
            for flow in self._flows
            if flow.data == name or flow.action == name
        ]

    def dataflow_report(self) -> list[str]:
        """Same shape as the SPADES tool's report, for output parity."""
        lines = []
        for flow in self._flows:
            marker = "R" if flow.kind == "read" else "W"
            verb = "reads" if flow.kind == "read" else "writes"
            suffix = f" x{flow.times}" if flow.times is not None else ""
            lines.append(f"{marker} {flow.action} {verb} {flow.data}{suffix}")
        return sorted(lines)

    def statistics(self) -> dict[str, int]:
        """Counters matching the SEED database's statistics keys loosely."""
        return {
            "objects": len(self._actions) + len(self._data),
            "relationships": len(self._flows),
        }
