"""A miniature SPADES: the specification tool driving the SEED database.

This is the application layer the paper's "State of work" section talks
about ("A prototype of SEED is operational. It is currently being
integrated into the specification system SPADES"). The tool exposes the
operations a specification analyst performs, each mapped onto the SEED
operational interface:

* **vague entry** — :meth:`note_thing`, :meth:`note_dataflow` store
  statements as imprecise as "there is a thing called Alarms" /
  "AlarmHandler accesses Alarms somehow";
* **refinement** — :meth:`refine_to_data`, :meth:`refine_to_output`,
  :meth:`refine_flow_to_write`, ... move items down the generalization
  hierarchies as knowledge firms up;
* **structure** — declare actions/data/modules, decompose actions,
  connect dataflows and control flow, annotate;
* **sessions** — :meth:`begin_session` / :meth:`end_session` snapshot
  the database before and after a working session ("short term
  logging, e.g. saving the database state before and after a session");
* **exploration** — :meth:`explore_alternative` rebases on a historical
  version; :meth:`release` requires completeness and snapshots a
  long-term version;
* **reporting** — :meth:`completeness_report`, :meth:`dataflow_report`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.completeness import CompletenessReport
from repro.core.database import SeedDatabase
from repro.core.errors import SeedError
from repro.core.objects import SeedObject
from repro.core.relationships import SeedRelationship
from repro.core.versions.version_id import VersionId
from repro.spades.model import spades_schema

__all__ = ["SpadesTool"]


class SpadesTool:
    """A specification workspace backed by a SEED database."""

    def __init__(self, name: str = "spec", db: Optional[SeedDatabase] = None) -> None:
        self.db = db if db is not None else SeedDatabase(spades_schema(), name)
        self._session_open = False

    # ------------------------------------------------------------------
    # vague entry
    # ------------------------------------------------------------------

    def note_thing(self, name: str, note: Optional[str] = None) -> SeedObject:
        """Record "there is a thing called *name*" — maximal vagueness."""
        thing = self.db.create_object("Thing", name)
        if note:
            thing.add_sub_object("Note", note)
        return thing

    def note_dataflow(self, data_name: str, action_name: str) -> SeedRelationship:
        """Record "there is *some* dataflow between data and action".

        This is exactly the paper's motivating example (1): without the
        generalized ``Access`` association, this vague statement could
        not be stored at all. Naming an item as the data (or action) side
        of a flow is itself information, so endpoints still classified as
        plain ``Thing`` are refined to ``Data``/``Action`` in the same
        transaction — the paper's "re-classifying 'Alarms' in class
        'Data' and introducing an 'Access'-relationship" step.
        """
        data = self.db.get_object(data_name)
        action = self.db.get_object(action_name)
        with self.db.transaction():
            if data.class_name == "Thing":
                data.reclassify("Data")
            if action.class_name == "Thing":
                action.reclassify("Action")
            return self.db.relate("Access", data=data, by=action)

    # ------------------------------------------------------------------
    # precise entry
    # ------------------------------------------------------------------

    def declare_action(self, name: str, description: Optional[str] = None) -> SeedObject:
        """Create an ``Action``; its description may arrive later."""
        action = self.db.create_object("Action", name)
        if description is not None:
            action.add_sub_object("Description", description)
        return action

    def declare_data(self, name: str, *, direction: Optional[str] = None) -> SeedObject:
        """Create a ``Data`` object (or ``InputData``/``OutputData``).

        *direction* is ``None``, ``"input"``, or ``"output"``.
        """
        class_name = {
            None: "Data",
            "input": "InputData",
            "output": "OutputData",
        }.get(direction)
        if class_name is None:
            raise SeedError(f"unknown data direction {direction!r}")
        return self.db.create_object(class_name, name)

    def declare_module(self, name: str, language: Optional[str] = None) -> SeedObject:
        """Create a design ``Module``."""
        module = self.db.create_object("Module", name)
        if language is not None:
            module.add_sub_object("Language", language)
        return module

    def read_flow(self, data_name: str, action_name: str) -> SeedRelationship:
        """Record that *action* reads *data* (data must be input-capable)."""
        return self.db.relate(
            "Read",
            {
                "from": self.db.get_object(data_name),
                "by": self.db.get_object(action_name),
            },
        )

    def write_flow(
        self,
        data_name: str,
        action_name: str,
        *,
        times: Optional[int] = None,
        error_handling: Optional[str] = None,
    ) -> SeedRelationship:
        """Record that *action* writes *data*, with optional refinements."""
        rel = self.db.relate(
            "Write",
            {
                "to": self.db.get_object(data_name),
                "by": self.db.get_object(action_name),
            },
        )
        if times is not None:
            rel.set_attribute("NumberOfWrites", times)
        if error_handling is not None:
            rel.set_attribute("ErrorHandling", error_handling)
        return rel

    def decompose(self, container_name: str, *contained_names: str) -> list[SeedRelationship]:
        """Place actions inside a container action (ACYCLIC tree)."""
        container = self.db.get_object(container_name)
        return [
            self.db.relate(
                "Contained",
                contained=self.db.get_object(name),
                container=container,
            )
            for name in contained_names
        ]

    def trigger(self, trigger_name: str, triggered_name: str) -> SeedRelationship:
        """Record control flow: *trigger* activates *triggered*."""
        return self.db.relate(
            "Triggers",
            trigger=self.db.get_object(trigger_name),
            triggered=self.db.get_object(triggered_name),
        )

    def allocate(self, action_name: str, module_name: str) -> SeedRelationship:
        """Allocate an action to a design module."""
        return self.db.relate(
            "AllocatedTo",
            action=self.db.get_object(action_name),
            module=self.db.get_object(module_name),
        )

    def annotate(self, name: str, note: str) -> SeedObject:
        """Attach a free-text note to any specification item."""
        return self.db.get_object(name).add_sub_object("Note", note)

    # ------------------------------------------------------------------
    # refinement (vague -> precise)
    # ------------------------------------------------------------------

    def refine_to_data(self, name: str) -> SeedObject:
        """A ``Thing`` turns out to be data."""
        return self.db.get_object(name).reclassify("Data")

    def refine_to_action(self, name: str, description: Optional[str] = None) -> SeedObject:
        """A ``Thing`` turns out to be an action."""
        action = self.db.get_object(name).reclassify("Action")
        if description is not None:
            action.add_sub_object("Description", description)
        return action

    def refine_to_input(self, name: str) -> SeedObject:
        """``Data`` (or ``Thing``) turns out to be an input."""
        obj = self.db.get_object(name)
        flows = self._access_flows_of(obj)
        with self.db.transaction():
            obj.reclassify("InputData")
            for flow in flows:
                if flow.association_name == "Access":
                    flow.reclassify("Read")
        return obj

    def refine_to_output(self, name: str) -> SeedObject:
        """``Data`` (or ``Thing``) turns out to be an output.

        Vague ``Access`` flows on the object become ``Write`` flows in
        the same transaction — the combination is only consistent as a
        unit (``Write.to`` requires an ``OutputData``).
        """
        obj = self.db.get_object(name)
        flows = self._access_flows_of(obj)
        with self.db.transaction():
            obj.reclassify("OutputData")
            for flow in flows:
                if flow.association_name == "Access":
                    flow.reclassify("Write")
        return obj

    def refine_flow_to_read(self, flow: SeedRelationship) -> SeedRelationship:
        """An ``Access`` turns out to be a read."""
        return flow.reclassify("Read")

    def refine_flow_to_write(
        self,
        flow: SeedRelationship,
        *,
        times: Optional[int] = None,
        error_handling: Optional[str] = None,
    ) -> SeedRelationship:
        """An ``Access`` turns out to be a write (with optional detail)."""
        flow.reclassify("Write")
        if times is not None:
            flow.set_attribute("NumberOfWrites", times)
        if error_handling is not None:
            flow.set_attribute("ErrorHandling", error_handling)
        return flow

    def _access_flows_of(self, obj: SeedObject) -> list[SeedRelationship]:
        return self.db.relationships_of_object(obj, association="Access")

    # ------------------------------------------------------------------
    # sessions, versions, exploration
    # ------------------------------------------------------------------

    def begin_session(self) -> Optional[VersionId]:
        """Snapshot the state before a working session (when dirty)."""
        if self._session_open:
            raise SeedError("a session is already open")
        self._session_open = True
        if self.db.has_unsaved_changes():
            return self.db.create_version()
        return None

    def end_session(self) -> Optional[VersionId]:
        """Snapshot the state after the session (when changed)."""
        if not self._session_open:
            raise SeedError("no session is open")
        self._session_open = False
        if self.db.has_unsaved_changes():
            return self.db.create_version()
        return None

    def explore_alternative(self, version: str | VersionId) -> VersionId:
        """Rebase the workspace on a historical version (design space
        exploration / undoing errors).

        Unsaved work is snapshotted first so nothing is lost.
        """
        if self.db.has_unsaved_changes():
            self.db.create_version()
        return self.db.select_version(version)

    def release(self, version: Optional[str] = None) -> VersionId:
        """Long-term snapshot of a *complete* specification.

        Raises :class:`~repro.core.errors.CompletenessError` while the
        specification still has gaps — "eventually, the result must be
        sufficiently formal, complete, and precise".
        """
        self.db.require_complete()
        return self.db.create_version(version)

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------

    def completeness_report(self) -> CompletenessReport:
        """What is still missing before the spec can be released?"""
        return self.db.check_completeness()

    def dataflow_report(self) -> list[str]:
        """One line per dataflow, vague flows marked as such."""
        lines = []
        for rel in self.db.relationships("Access"):
            kind = rel.association_name
            data, action = rel.bound_at(0), rel.bound_at(1)
            if kind == "Access":
                lines.append(f"? {action.simple_name} accesses {data.simple_name}")
            elif kind == "Read":
                lines.append(f"R {action.simple_name} reads {data.simple_name}")
            else:
                times = rel.attribute("NumberOfWrites")
                suffix = f" x{times}" if times is not None else ""
                lines.append(
                    f"W {action.simple_name} writes {data.simple_name}{suffix}"
                )
        return sorted(lines)

    def structure_report(self) -> list[str]:
        """The action decomposition tree as indented lines."""
        contained_by: dict[int, list[SeedObject]] = {}
        roots = []
        for action in self.db.objects("Action"):
            containers = action.related("Contained", "container")
            if containers:
                contained_by.setdefault(containers[0].oid, []).append(action)
            else:
                roots.append(action)
        lines: list[str] = []

        def walk(action: SeedObject, depth: int) -> None:
            lines.append("  " * depth + action.simple_name)
            for child in sorted(
                contained_by.get(action.oid, ()), key=lambda a: a.simple_name
            ):
                walk(child, depth + 1)

        for root in sorted(roots, key=lambda a: a.simple_name):
            walk(root, 0)
        return lines
