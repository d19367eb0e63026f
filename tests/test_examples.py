"""Every script under ``examples/`` runs to a clean exit in dev mode.

Each example runs in a child interpreter under ``-X dev -W
error::ResourceWarning`` (in a temporary working directory), so a socket
or file an example leaves open fails it, also one only the garbage
collector or interpreter exit would close: such a warning raised in a
finalizer is only printed, which is why stderr is searched as well.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_an_example_runs_without_leaking(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr, done.stderr
