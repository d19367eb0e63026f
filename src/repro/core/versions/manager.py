"""The version manager: snapshots, alternatives, rollback, schema versions.

Responsibilities (paper, "Versions"):

* **Explicit snapshots** — ``create_version`` freezes the states of all
  items changed since the previous snapshot into the delta store and
  registers the new version in the history tree. "Additionally, there is
  always a current version representing the current state of the
  database": the live database *is* the current version; the manager
  only records its base.
* **Alternatives** — ``select_version`` makes a historical version the
  basis of the current state; subsequent updates then save as a child of
  that version, branching the classification tree.
* **Immutability** — saved versions cannot be modified, only deleted
  (leaf versions only).
* **Schema versions** — "when the schema is modified ... we must
  generate schema versions, too": every data version records the schema
  version it was created under, and views interpret items under that
  schema.
* **Compaction** — :meth:`compact` squashes unreferenced chain runs and
  consolidates snapshots under a
  :class:`~repro.core.versions.compaction.RetentionPolicy`, offline:
  ``create_version`` stores the delta only.
"""

from __future__ import annotations

from typing import Iterable, Optional, TYPE_CHECKING

from repro.core.errors import VersionError
from repro.core.versions.compaction import (
    CompactionStats,
    Compactor,
    RetentionPolicy,
)
from repro.core.versions.store import ItemKey, ItemState, VersionStore
from repro.core.versions.tree import VersionTree
from repro.core.versions.version_id import VersionId
from repro.core.versions.view import GONE, VersionView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import SeedDatabase
    from repro.core.schema.schema import Schema

__all__ = ["VersionManager"]


class VersionManager:
    """Version bookkeeping for one database."""

    def __init__(self, database: "SeedDatabase") -> None:
        self._db = database
        self.store = VersionStore()
        self.tree = VersionTree()
        #: the saved version the current state evolved from (None before
        #: the first snapshot)
        self.current_base: Optional[VersionId] = None
        #: schema versions; index 0 is the schema the database was created with
        self.schema_versions: list["Schema"] = [database.schema]
        #: data version -> index into :attr:`schema_versions`
        self.schema_version_of: dict[VersionId, int] = {}

    # -- snapshots ---------------------------------------------------------

    def create_version(
        self, version: Optional[str | VersionId] = None
    ) -> VersionId:
        """Take a snapshot of the current state.

        Only items changed since the previous snapshot are stored (delta
        storage). *version* may give an explicit decimal id; by default
        the id is derived from the history position (``1.0``, ``2.0``,
        ... on the main line; ``1.0.1`` when branching off version
        ``1.0``).
        """
        if version is None:
            vid = self.tree.next_id(self.current_base)
        else:
            vid = VersionId.parse(version)
        self.add_version(
            vid, self.current_base, self._db.collect_dirty_states(),
            len(self.schema_versions) - 1,
        )
        return vid

    def add_version(
        self,
        vid: VersionId,
        parent: Optional[VersionId],
        states: Iterable[tuple[ItemKey, ItemState]],
        schema_version: int,
        materialized: Iterable[ItemKey] = (),
        snapshot: bool = False,
    ) -> None:
        """Enter *vid* as a child of *parent*, holding *states* — the
        one way a version enters the history, for ``create_version``
        and the replay of a ``version`` record. The current state is
        then based on it, with nothing unsaved. *materialized* keys and
        the *snapshot* mark restore what a consolidation did."""
        self.tree.add(vid, parent)
        self.store.record_many(vid, states)
        for key in materialized:
            self.store.mark_materialized(vid, key)
        if snapshot:
            self.store.mark_snapshot(vid)
        self.schema_version_of[vid] = schema_version
        self._db.clear_dirty()
        self.current_base = vid

    # -- compaction --------------------------------------------------------

    def compact(self, policy: RetentionPolicy) -> CompactionStats:
        """Squash unreferenced chains and consolidate snapshots under *policy*.

        Every surviving version's view is unchanged; only squashed
        versions (which the policy guarantees nobody references)
        disappear from the history. Safe at any time outside a
        transaction — the entry point used by applications is
        :meth:`repro.core.database.SeedDatabase.compact`.
        """
        return Compactor(self, policy).run()

    # -- selection / alternatives ------------------------------------------------

    def select_version(
        self, version: str | VersionId, *, discard_changes: bool = False
    ) -> VersionId:
        """Make a saved version the basis of the current state.

        Unsaved changes are refused unless ``discard_changes=True`` —
        the paper requires an explicit version generation before updates
        that should be preserved. Afterwards the live database equals the
        view of *version*, and the next snapshot becomes its child (an
        alternative when the version already has successors).
        """
        vid = VersionId.parse(version)
        if vid not in self.tree:
            raise VersionError(f"version {vid} does not exist")
        if self._db.has_unsaved_changes() and not discard_changes:
            raise VersionError(
                "the current state has unsaved changes; save a version "
                "first or pass discard_changes=True"
            )
        self._db._restore(*self.view(vid).states(), vid)  # noqa: SLF001
        return vid

    # -- views -----------------------------------------------------------------------

    def view(
        self,
        version: str | VersionId,
        base: Optional[VersionView] = None,
        changed: Optional[Iterable[ItemKey]] = None,
    ) -> VersionView:
        """A read-only view of a saved version, or of the current state.

        With *base* the view of the version's parent (under the same
        schema version), the result is derived from it at O(pages +
        change): the base's page directories are copied, only the
        states stored at *version* applied, and only the pages they
        write copied; every other page is shared with *base*. Any
        other *base* — another branch, a parent since squashed away, a
        schema boundary, None — is ignored and the view is built cold
        from the resolved chain. Both ways give the same view, and
        *base* itself is never modified. (*base* is matched by version
        id: pass only views this manager built, and not one held across
        a ``delete_version`` of its own version.)

        With *changed* given, the view is of the current state, labelled
        *version*: the live states of the items *changed* names are laid
        over *base*, an earlier current-state view under the same
        schema, at O(pages + change); without such a base it is built
        cold from every live item.
        """
        if changed is not None:
            db = self._db
            tables = {"o": db._objects, "r": db._relationships}  # noqa: SLF001
            if base is None or base.schema is not db.schema:
                base = None
                changed = [(kind, item_id) for kind in tables for item_id in tables[kind]]
            states = (
                # an item a restore dropped is gone from the view
                (key, GONE if item is None else item.freeze())
                for key in sorted(changed)
                for item in (tables[key[0]].get(key[1]),)
            )
            return VersionView(version, db.schema, states, base)
        vid = VersionId.parse(version)
        if vid not in self.tree:
            raise VersionError(f"version {vid} does not exist")
        schema = self.schema_versions[self.schema_version_of[vid]]
        if (
            base is not None
            and base.version == self.tree.parent(vid)
            and base.schema is schema
        ):
            delta = ((key, state) for key, state, __ in self.store.states_at(vid))
            return VersionView(vid, schema, delta, base)
        resolved = self.store.resolve_chain(self.tree.chain(vid))
        return VersionView(vid, schema, resolved.items())

    # -- deletion ------------------------------------------------------------------------

    def delete_version(self, version: str | VersionId) -> None:
        """Delete a leaf version ("Versions cannot be modified, except
        for deletion").

        The version the current state is based on cannot be deleted.
        """
        vid = VersionId.parse(version)
        if vid == self.current_base:
            raise VersionError(
                f"version {vid} is the basis of the current state and "
                "cannot be deleted"
            )
        self.tree.remove(vid)  # raises for non-leaf / unknown versions
        self.store.drop_version(vid)
        self.schema_version_of.pop(vid, None)

    # -- schema versions --------------------------------------------------------------------

    def register_schema_version(self, schema: "Schema") -> int:
        """Record a schema modification; returns the new schema version index."""
        self.schema_versions.append(schema)
        return len(self.schema_versions) - 1

    @property
    def current_schema_index(self) -> int:
        """Index of the schema version the current state uses."""
        return len(self.schema_versions) - 1

    # -- queries ----------------------------------------------------------------------------------

    def versions(self) -> list[VersionId]:
        """All saved versions in creation order."""
        return self.tree.in_creation_order()

    def exists(self, version: str | VersionId) -> bool:
        """True when the version has been saved."""
        return VersionId.parse(version) in self.tree

    def states_of_item(self, key: ItemKey) -> list[tuple[VersionId, object]]:
        """(version, state) pairs of one item, sorted by version id."""
        return sorted(self.store.states_of(key).items(), key=lambda pair: pair[0])

    def delta_size(self, version: str | VersionId) -> int:
        """Number of item states stored for *version*.

        For plain versions this is the delta size; squashed-into and
        snapshot versions also hold folded/materialized states.
        """
        vid = VersionId.parse(version)
        return sum(1 for __ in self.store.keys_in_version(vid))

    def total_stored_states(self) -> int:
        """Total states across all versions (the storage-cost metric)."""
        return self.store.stored_state_count()

    def snapshot_count(self) -> int:
        """Number of snapshot-consolidated versions."""
        return len(self.store.snapshot_versions())
