"""The version history tree.

Every saved version records the version it evolved from (its parent in
the classification tree); alternatives arise when a historical version
is selected as the basis for new work, giving that version a second
child. The tree provides the ancestry chains version views are computed
over and the navigation operations of the history interface.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import VersionError
from repro.core.versions.version_id import VersionId

__all__ = ["VersionTree"]


class VersionTree:
    """Parent/child structure over the saved versions of a database."""

    def __init__(self) -> None:
        self._parent: dict[VersionId, Optional[VersionId]] = {}
        self._children: dict[Optional[VersionId], list[VersionId]] = {}
        self._creation_order: list[VersionId] = []

    # -- mutation ----------------------------------------------------------

    def add(self, version: VersionId, parent: Optional[VersionId]) -> None:
        """Record a newly created *version* evolving from *parent*."""
        if version in self._parent:
            raise VersionError(f"version {version} already exists")
        if parent is not None and parent not in self._parent:
            raise VersionError(f"parent version {parent} does not exist")
        self._parent[version] = parent
        self._children.setdefault(parent, []).append(version)
        self._creation_order.append(version)

    def remove(self, version: VersionId) -> None:
        """Remove a *leaf* version (the paper allows deleting versions)."""
        if version not in self._parent:
            raise VersionError(f"version {version} does not exist")
        if self._children.get(version):
            children = ", ".join(str(child) for child in self._children[version])
            raise VersionError(
                f"version {version} has successors ({children}); only leaf "
                "versions can be deleted"
            )
        parent = self._parent.pop(version)
        self._children[parent].remove(version)
        self._children.pop(version, None)
        self._creation_order.remove(version)

    def splice(self, version: VersionId) -> VersionId:
        """Remove an *interior* version with exactly one child.

        The child is reattached to the version's parent in the same
        sibling position, so ancestry chains through the child simply
        lose one element. This is the tree half of chain squashing
        (:mod:`repro.core.versions.compaction`); the store half folds
        the squashed version's states into the child. Returns the child.
        """
        if version not in self._parent:
            raise VersionError(f"version {version} does not exist")
        children = self._children.get(version, [])
        if len(children) != 1:
            raise VersionError(
                f"version {version} has {len(children)} successors; only "
                "versions with exactly one successor can be spliced out"
            )
        child = children[0]
        parent = self._parent.pop(version)
        siblings = self._children[parent]
        siblings[siblings.index(version)] = child
        self._parent[child] = parent
        del self._children[version]
        self._creation_order.remove(version)
        return child

    # -- queries -------------------------------------------------------------

    def __contains__(self, version: VersionId) -> bool:
        return version in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def parent(self, version: VersionId) -> Optional[VersionId]:
        """The version *version* evolved from (None for the first one)."""
        try:
            return self._parent[version]
        except KeyError:
            raise VersionError(f"version {version} does not exist") from None

    def children(self, version: Optional[VersionId]) -> list[VersionId]:
        """Versions directly evolved from *version* (creation order)."""
        if version is not None and version not in self._parent:
            raise VersionError(f"version {version} does not exist")
        return list(self._children.get(version, ()))

    def roots(self) -> list[VersionId]:
        """Versions without a parent (normally exactly one)."""
        return list(self._children.get(None, ()))

    def chain(self, version: VersionId) -> list[VersionId]:
        """Ancestry chain from the root down to *version* (inclusive).

        The view of *version* is computed over this chain: for each
        item, the state stored at the latest chain position holds.
        """
        if version not in self._parent:
            raise VersionError(f"version {version} does not exist")
        chain: list[VersionId] = []
        node: Optional[VersionId] = version
        while node is not None:
            chain.append(node)
            node = self._parent[node]
        chain.reverse()
        return chain

    def in_creation_order(self) -> list[VersionId]:
        """All versions in the order they were created."""
        return list(self._creation_order)

    def is_leaf(self, version: VersionId) -> bool:
        """True when no version evolved from *version*."""
        return not self._children.get(version)

    def next_id(self, base: Optional[VersionId]) -> VersionId:
        """Derive an unused id for a version evolving from *base*.

        Conventions (matching the paper's examples): the first version is
        ``1.0``; saving on the tip of a line continues it (``2.0`` after
        ``1.0``); saving on a historical version opens a classification
        branch below it (``1.0.1`` below ``1.0``), numbering alternatives
        ``1.0.1``, ``1.0.2``, ...
        """
        if base is None:
            candidate = VersionId.initial()
            while candidate in self._parent:
                candidate = candidate.next_major()
            return candidate
        if self.is_leaf(base):
            candidate = base.next_major() if base.depth == 2 else base.next_minor()
            if candidate not in self._parent:
                return candidate
        number = 1
        while base.child(number) in self._parent:
            number += 1
        return base.child(number)

    def render(self) -> str:
        """ASCII rendering of the tree (for reports and debugging)."""
        lines: list[str] = []

        def walk(version: VersionId, depth: int) -> None:
            lines.append("  " * depth + str(version))
            for child in self.children(version):
                walk(child, depth + 1)

        for root in self.roots():
            walk(root, 0)
        return "\n".join(lines)
