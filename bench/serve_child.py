"""``python -m repro serve`` for ``team_service``, with the flush counter.

Runs the program's own CLI entry point unchanged; the only addition is
the benchmark's :class:`~bench.harness.FlushCounter` in place of
``os.fsync``, as in the benchmark process itself.

    python3 bench/serve_child.py serve JOURNAL --port 0
"""

import sys

from bench.harness import FlushCounter
from repro.cli import main

if __name__ == "__main__":
    FlushCounter().install()
    sys.exit(main(sys.argv[1:]))
