"""Full-copy snapshot versioning: the baseline SEED's delta scheme beats.

"When creating a version we do not save the complete database" — this
module is the version manager that *does*: every snapshot stores the
frozen state of **every** live item, regardless of what changed. Views
are trivial (one lookup); storage grows with ``versions × database
size`` instead of SEED's ``versions × change size``. Benchmark C2
measures exactly that trade-off.

The copier wraps a live :class:`SeedDatabase`; it deliberately ignores
the database's own delta version manager so the two schemes can be
driven side by side from one update script.
"""

from __future__ import annotations

from typing import Optional

from repro.core.database import SeedDatabase
from repro.core.errors import VersionError
from repro.core.versions.store import ItemKey, ItemState
from repro.core.versions.version_id import VersionId

__all__ = ["FullCopyVersioning"]


class FullCopyVersioning:
    """Snapshot-by-copying version management for one database."""

    def __init__(self, db: SeedDatabase) -> None:
        self._db = db
        self._snapshots: dict[VersionId, dict[ItemKey, ItemState]] = {}
        self._order: list[VersionId] = []

    # -- snapshots ---------------------------------------------------------

    def create_version(self, version: Optional[str | VersionId] = None) -> VersionId:
        """Store a complete copy of the live state."""
        if version is None:
            vid = (
                self._order[-1].next_major()
                if self._order
                else VersionId.initial()
            )
        else:
            vid = VersionId.parse(version)
        if vid in self._snapshots:
            raise VersionError(f"version {vid} already exists")
        snapshot: dict[ItemKey, ItemState] = {}
        for obj in self._db.all_objects_raw():
            if not obj.deleted:
                snapshot[("o", obj.oid)] = obj.freeze()
        for rel in self._db.all_relationships_raw():
            if not rel.deleted:
                snapshot[("r", rel.rid)] = rel.freeze()
        self._snapshots[vid] = snapshot
        self._order.append(vid)
        return vid

    # -- access -------------------------------------------------------------------

    def snapshot(self, version: str | VersionId) -> dict[ItemKey, ItemState]:
        """The complete item-state map of one version."""
        vid = VersionId.parse(version)
        try:
            return dict(self._snapshots[vid])
        except KeyError:
            raise VersionError(f"version {vid} does not exist") from None

    def state_of(self, version: str | VersionId, key: ItemKey) -> Optional[ItemState]:
        """One item's state in one version (None when not present)."""
        return self.snapshot(version).get(key)

    def versions(self) -> list[VersionId]:
        """All snapshots in creation order."""
        return list(self._order)

    # -- cost metrics ----------------------------------------------------------------

    def stored_state_count(self) -> int:
        """Total stored item states — compare with the delta store's."""
        return sum(len(snapshot) for snapshot in self._snapshots.values())
