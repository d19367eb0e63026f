"""Every entry point the traced benchmark wraps still exists.

``bench/trace.py`` wraps the callables ``bench/layers.py`` names —
``"module:Owner.attr"`` or ``"module:function"`` — by resolving them
with ``importlib.import_module`` and ``vars(owner)[attr]``. A refactor
that deletes or renames one of them would only surface as a
``KeyError`` in the traced benchmark run; this test resolves every
target the same way, so it fails here first.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.layers import _points  # noqa: E402


def resolves(target: str) -> bool:
    """True when ``bench.trace.Tracer.patch`` finds something to wrap."""
    module_name, __, path = target.partition(":")
    module = importlib.import_module(module_name)
    try:
        if "." not in path:
            return callable(getattr(module, path))
        class_name, attr = path.split(".")
        raw = vars(getattr(module, class_name))[attr]
    except (AttributeError, KeyError):
        return False
    return callable(getattr(raw, "__func__", raw))


TARGETS = sorted({target for __, target, __ in _points()})


def test_every_trace_target_resolves():
    assert [target for target in TARGETS if not resolves(target)] == []


def test_the_rollback_seams_are_traced():
    """The names a rollback refactor is most tempted to fold away."""
    targets = set(TARGETS)
    database = "repro.core.database:SeedDatabase."
    assert {
        database + "transaction",
        database + "bulk",
        database + "_finalize_bulk",
        "repro.core.indexes:IndexLayer.set_relationship_status",
        "repro.core.indexes:IndexLayer.refresh_relationship",
        "repro.multiuser.server:SeedServer.apply_check_in",
    } <= targets
