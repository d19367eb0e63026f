"""History retrieval and navigation operations.

"SEED defines additional operations for history retrieval and
navigation, e.g. 'find all versions of object AlarmHandler, beginning
with version 2.0'." This module implements those operations on top of
the version manager: per-item version histories, version-to-version
diffs, and history-line queries.

Compaction (:mod:`repro.core.versions.compaction`) cooperates with
history retrieval: states materialized by snapshot consolidation are
filtered out of :meth:`VersionStore.states_of`, so ``versions_of_item``
keeps listing *changes* only, and a squashed version's surviving states
surface at the descendant they were folded into — the answer an
observer restricted to the surviving versions would always have seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.core.errors import VersionError
from repro.core.versions.store import ItemKey, ItemState
from repro.core.versions.version_id import VersionId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.versions.manager import VersionManager

__all__ = ["ItemHistoryEntry", "VersionDiff", "HistoryNavigator"]


@dataclass(frozen=True)
class ItemHistoryEntry:
    """One stored state of one item, annotated with its version."""

    version: VersionId
    state: ItemState

    @property
    def deleted(self) -> bool:
        """True when this entry is a tombstone."""
        return self.state.deleted


@dataclass
class VersionDiff:
    """Differences between two version views.

    ``added``/``removed``/``changed`` hold item keys; for ``changed``
    items, ``before`` and ``after`` give the two states.
    """

    from_version: VersionId
    to_version: VersionId
    added: list[ItemKey] = field(default_factory=list)
    removed: list[ItemKey] = field(default_factory=list)
    changed: list[tuple[ItemKey, ItemState, ItemState]] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True when the two versions are identical."""
        return not (self.added or self.removed or self.changed)

    def summary(self) -> str:
        """One-line summary for reports."""
        return (
            f"{self.from_version} -> {self.to_version}: "
            f"+{len(self.added)} -{len(self.removed)} ~{len(self.changed)}"
        )


class HistoryNavigator:
    """Navigation and retrieval over a database's version history."""

    def __init__(self, manager: "VersionManager") -> None:
        self._manager = manager

    # -- per-item histories ---------------------------------------------------

    def versions_of_item(
        self,
        key: ItemKey,
        *,
        beginning_with: Optional[str | VersionId] = None,
    ) -> list[ItemHistoryEntry]:
        """All stored versions of one item, oldest first, tombstones
        included.

        ``beginning_with`` implements the paper's "find all versions of
        object 'AlarmHandler', beginning with version 2.0": entries with
        a version id ordered before it are dropped.
        """
        threshold = (
            VersionId.parse(beginning_with) if beginning_with is not None else None
        )
        return [
            ItemHistoryEntry(version, state)
            for version, state in self._manager.states_of_item(key)
            if threshold is None or not version < threshold
        ]

    def versions_of_object_named(
        self, name: str, *, beginning_with: Optional[str | VersionId] = None
    ) -> list[ItemHistoryEntry]:
        """Version history of the independent object named *name*.

        The object is located by name in any saved version (names are
        stable identifiers for independent objects across versions).
        """
        for version in self._manager.versions():
            view = self._manager.view(version)
            obj = view.find(name)
            if obj is not None:
                return self.versions_of_item(
                    ("o", obj.oid), beginning_with=beginning_with
                )
        raise VersionError(f"no saved version contains an object named {name!r}")

    # -- history lines -------------------------------------------------------------

    def line_of(self, version: str | VersionId) -> list[VersionId]:
        """The full history line (root ... version)."""
        return self._manager.tree.chain(VersionId.parse(version))

    def successors(self, version: str | VersionId) -> list[VersionId]:
        """Versions directly evolved from *version* (>1 = alternatives)."""
        return self._manager.tree.children(VersionId.parse(version))

    def predecessor(self, version: str | VersionId) -> Optional[VersionId]:
        """The version *version* evolved from."""
        return self._manager.tree.parent(VersionId.parse(version))

    def alternatives_of(self, version: str | VersionId) -> list[VersionId]:
        """Sibling versions sharing *version*'s predecessor."""
        vid = VersionId.parse(version)
        parent = self._manager.tree.parent(vid)
        return [
            sibling
            for sibling in self._manager.tree.children(parent)
            if sibling != vid
        ]

    # -- diffs ----------------------------------------------------------------------

    def diff(
        self, from_version: str | VersionId, to_version: str | VersionId
    ) -> VersionDiff:
        """Item-level differences between two saved versions."""
        from_view = self._manager.view(from_version)
        to_view = self._manager.view(to_version)
        before = dict(from_view.item_states())
        after = dict(to_view.item_states())
        diff = VersionDiff(
            VersionId.parse(from_version), VersionId.parse(to_version)
        )
        for key, state in after.items():
            if key not in before:
                diff.added.append(key)
            elif before[key] != state:
                diff.changed.append((key, before[key], state))  # type: ignore[arg-type]
        diff.removed.extend(key for key in before if key not in after)
        return diff
