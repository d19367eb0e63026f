"""Reports over a SPADES workspace: history, structure, figures.

These renderers produce the human-readable artefacts an analyst asks a
specification tool for — and they double as the figure re-generators of
the benchmark harness (figure 1's object/relationship structure, figure
4's version clusters).
"""

from __future__ import annotations

from typing import Optional

from repro.core.database import SeedDatabase
from repro.core.objects import SeedObject
from repro.core.versions.version_id import VersionId
from repro.spades.tool import SpadesTool

__all__ = [
    "render_object_tree",
    "render_database_figure",
    "render_version_history",
    "render_workspace_summary",
]


def render_object_tree(obj: SeedObject) -> str:
    """Indented rendering of one object with all its sub-objects.

    Reproduces the containment half of figure 1: the object, its
    dependent objects, and their values.
    """
    lines: list[str] = []

    def walk(node: SeedObject, depth: int) -> None:
        label = str(node.own_part) if depth else str(node.name)
        suffix = ""
        if node.value is not None:
            rendered = node.entity_class.value_sort.format(node.value)
            suffix = f' = "{rendered}"'
        lines.append("  " * depth + f"{label}: {node.entity_class.full_name}{suffix}")
        for child in sorted(
            node.sub_objects(), key=lambda c: (c.simple_name, c.index or 0)
        ):
            walk(child, depth + 1)

    walk(obj, 0)
    return "\n".join(lines)


def render_database_figure(db: SeedDatabase) -> str:
    """Objects and relationships of the whole database, figure-1 style."""
    sections: list[str] = []
    for obj in sorted(
        db.objects(independent_only=True), key=lambda o: o.simple_name
    ):
        sections.append(render_object_tree(obj))
    relationship_lines = []
    for rel in db.relationships():
        bindings = ", ".join(
            f"{role}: {bound.simple_name}" for role, bound in rel.bindings().items()
        )
        attributes = rel.attributes()
        suffix = f" {attributes}" if attributes else ""
        relationship_lines.append(f"{rel.association_name}({bindings}){suffix}")
    if relationship_lines:
        sections.append("\n".join(sorted(relationship_lines)))
    return "\n\n".join(sections)


def render_version_history(
    db: SeedDatabase, name: Optional[str] = None
) -> str:
    """The version tree, or one object's version cluster (figure 4a).

    With *name*, each stored version of the object and its sub-objects
    is listed — the "cluster of ovals" of figure 4a.
    """
    if name is None:
        return db.versions.tree.render()
    lines: list[str] = [f"versions of {name}:"]
    obj = db.find_object(name)
    oids: list[tuple[str, int]] = []
    if obj is not None:
        oids = [(str(node.name), node.oid) for node in obj.walk()]
    else:  # search saved versions for a deleted/renamed object
        for version in db.saved_versions():
            view = db.version_view(version)
            found = view.find(name)
            if found is not None:
                oids = [(str(found.name), found.oid)]
                break
    for item_name, oid in oids:
        entries = db.history.versions_of_item(("o", oid))
        for entry in entries:
            marker = " (deleted)" if entry.deleted else ""
            value = getattr(entry.state, "value", None)
            rendered = f' = "{value}"' if value is not None else ""
            lines.append(f"  {item_name} @ {entry.version}{rendered}{marker}")
        if db.has_unsaved_changes():
            live = db.object_by_oid(oid)
            if not live.deleted:
                rendered = f' = "{live.value}"' if live.value is not None else ""
                lines.append(f"  {item_name} @ Current{rendered}")
    return "\n".join(lines)


def render_workspace_summary(tool: SpadesTool) -> str:
    """One-screen summary: statistics, gaps, flows, structure."""
    db = tool.db
    stats = db.statistics()
    report = tool.completeness_report()
    parts = [
        f"workspace {db.name!r}: {stats['objects']} objects, "
        f"{stats['relationships']} relationships, "
        f"{stats['saved_versions']} saved versions",
        f"completeness: {report.summary()}",
    ]
    flows = tool.dataflow_report()
    if flows:
        parts.append("dataflows:")
        parts.extend(f"  {line}" for line in flows)
    structure = tool.structure_report()
    if structure:
        parts.append("action structure:")
        parts.extend(f"  {line}" for line in structure)
    return "\n".join(parts)
