"""Every function and class under ``src/repro`` is referenced somewhere.

A definition whose name no file in ``src/``, ``tests/``, ``bench/``,
``benchmarks/`` or ``examples/`` uses as an identifier — a ``Name``, an
``Attribute``, an import alias or a keyword argument — is dead code:
delete it together with its ``__all__`` entry. Dunders are exempt
(Python calls them), and so are the ``_op_*`` wire handlers, which
``SeedService._dispatch`` reaches through ``getattr``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "bench", "benchmarks", "examples")


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _referenced() -> set[str]:
    names: set[str] = set()
    for top in SCANNED:
        for _, tree in _trees(ROOT / top):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                    if node.asname:
                        names.add(node.asname)
                elif isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
    return names


def _exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) or name.startswith("_op_")


def test_every_definition_is_referenced():
    referenced = _referenced()
    defined = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in _trees(ROOT / "src" / "repro")
        for node in ast.walk(tree)
        if isinstance(node, defined)
        and not _exempt(node.name)
        and node.name not in referenced
    ]
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)
