"""The plans the product builds, pinned: optimized tree and rows.

Two front ends build planned queries: the ``query_mix`` benchmark
(``bench/workloads/query_mix.py::_plans``: three join shapes and a
value scan) and the ``repro query`` command (an extent with
``--prefix`` and ``--via``, or an association). Each shape runs here on
one small seeded SPADES specification, and both its ``explain()`` text
and its rows are compared with the committed text. A change to the
planner that alters a plan the product builds fails here, whatever the
equivalence suites (which compare planner and eager algebra on random
queries) make of it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads.query_mix import _plans  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.core.query import ParallelConfig, Retrieval  # noqa: E402
from repro.spades.textio import print_spec  # noqa: E402
from repro.spades.tool import SpadesTool  # noqa: E402
from repro.workloads.drivers import load_into_spades  # noqa: E402
from repro.workloads.specgen import SpecShape, generate_spec  # noqa: E402

SHAPE = SpecShape(
    actions=30, data=10, flows=40, notes_per_item=0.0, keywords_per_data=0.0
)
SEED = 7
MODULES = 3


@pytest.fixture(scope="module")
def tool():
    """The specification, with modules and every third action allocated
    (``query_mix`` allocates at random; here the pattern is fixed)."""
    spec = generate_spec(SHAPE, SEED)
    tool = SpadesTool(name="released")
    load_into_spades(spec, tool)
    for index in range(MODULES):
        tool.declare_module(f"Module{index}", "Ada")
    for index, action in enumerate(spec.action_names[::3]):
        tool.allocate(action, f"Module{index % MODULES}")
    return tool


def _names(rows) -> list[tuple]:
    return [
        tuple(getattr(cell, "simple_name", cell) for cell in row) for row in rows
    ]


QUERY_MIX = {
    ("join_data", "Threshold"): (
        "IndexJoin Access.data filter data: name^='Threshold'  est~2\n"
        "└─ ExtentScan Data as data prefix='Threshold'  est~2",
        [
            ("Threshold0", "Collect23"),
            ("Threshold0", "Monitor14"),
            ("Threshold0", "Update18"),
            ("Threshold1", "Update18"),
            ("Threshold1", "Filter16"),
            ("Threshold1", "Monitor24"),
            ("Threshold1", "Alert11"),
        ],
    ),
    ("join_action", "Handl"): (
        "Reorder [from, by, to]  est~1\n"
        "└─ IndexJoin Write.by filter by: name^='Handl'  est~1\n"
        "   └─ IndexJoin Read.by filter by: name^='Handl'  est~1\n"
        "      └─ ExtentScan Action as by prefix='Handl'  est~5",
        [
            ("Status2", "Handle22", "Alarm5"),
            ("Status2", "Handle22", "Display4"),
            ("Status2", "Handle29", "Status9"),
            ("Event6", "Handle29", "Status9"),
        ],
    ),
    ("join_module", "Module1"): (
        "Reorder [contained, container, module]  est~3\n"
        "└─ IndexJoin Contained.contained  est~3\n"
        "   └─ Rename action->contained  est~3\n"
        "      └─ Reorder [action, module]  est~3\n"
        "         └─ IndexJoin AllocatedTo.module  est~3\n"
        "            └─ ExtentScan Module as module prefix='Module1'  est~1",
        [("Convert3", "Check1", "Module1")],
    ),
    ("scan_select", "performs Monitor5"): (
        "Select d: value=='performs Monitor5'  est~1\n"
        "└─ ExtentScan Action.Description as d  est~30",
        [("Description",)],
    ),
}


@pytest.mark.parametrize("shape, parameter", sorted(QUERY_MIX))
def test_a_query_mix_shape_plans_and_answers_as_pinned(tool, shape, parameter):
    retrieval = Retrieval(tool.db)
    # query_mix runs the joins serially and the value scan pooled
    front = (
        retrieval.plan(ParallelConfig(shards=2))
        if shape == "scan_select"
        else retrieval.plan()
    )
    query = _plans(tool.db)[shape](front, parameter)
    explained, rows = QUERY_MIX[shape, parameter]
    assert query.explain() == explained
    assert _names(query.execute().rows) == rows


@pytest.fixture(scope="module")
def db_file(tool, tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli")
    spec_path = directory / "released.spades"
    spec_path.write_text(print_spec(tool))
    db_path = directory / "released.seed"
    assert main(["load", str(spec_path), "-o", str(db_path)]) == 0
    return db_path


CLI = {
    ("--extent", "Data", "--prefix", "Alarm"): (
        "ExtentScan Data as data prefix='Alarm'  est~2\n"
        "\n"
        "data\n"
        "Alarm3\n"
        "Alarm5\n"
        "(2 rows)\n"
    ),
    ("--extent", "Data", "--prefix", "Status", "--via", "Access"): (
        "IndexJoin Access.data  est~8\n"
        "└─ ExtentScan Data as data prefix='Status'  est~2\n"
        "\n"
        "data\tby\n"
        "Status2\tMonitor17\n"
        "Status2\tHandle29\n"
        "Status2\tMonitor14\n"
        "Status2\tConvert26\n"
        "Status2\tMonitor7\n"
        "Status2\tHandle22\n"
        "Status9\tCheck1\n"
        "Status9\tHandle29\n"
        "Status9\tUpdate25\n"
        "(9 rows)\n"
    ),
    ("--extent", "Data", "--via", "Write"): (
        "IndexJoin Write.to  est~18\n"
        "└─ ExtentScan Data as to  est~10\n"
        "\n"
        "to\tby\n"
        "Threshold0\tCollect23\n"
        "Threshold1\tFilter16\n"
        "Threshold1\tMonitor24\n"
        "Status2\tMonitor14\n"
        "Status2\tConvert26\n"
        "Alarm3\tFilter2\n"
        "Alarm3\tMonitor19\n"
        "Display4\tHandle22\n"
        "Display4\tHandle4\n"
        "Alarm5\tHandle22\n"
        "Event6\tAlert11\n"
        "Event6\tUpdate12\n"
        "Process7\tConvert26\n"
        "Process7\tCollect28\n"
        "Report8\tHandle13\n"
        "Report8\tAlert11\n"
        "Status9\tCheck1\n"
        "Status9\tHandle29\n"
        "(18 rows)\n"
    ),
    ("--association", "Read"): (
        "RelScan Read (from, by)  est~12\n"
        "\n"
        "from\tby\n"
        "Display4\tMonitor17\n"
        "Threshold1\tUpdate18\n"
        "Alarm5\tConvert3\n"
        "Alarm5\tCollect23\n"
        "Status2\tHandle29\n"
        "Status9\tUpdate25\n"
        "Display4\tFilter15\n"
        "Threshold0\tMonitor14\n"
        "Event6\tHandle29\n"
        "Status2\tMonitor7\n"
        "Status2\tHandle22\n"
        "Threshold1\tAlert11\n"
        "(12 rows)\n"
    ),
}


@pytest.mark.parametrize("arguments", sorted(CLI))
def test_a_query_command_plans_and_answers_as_pinned(db_file, capsys, arguments):
    capsys.readouterr()
    assert main(["query", str(db_file), *arguments, "--explain"]) == 0
    assert capsys.readouterr().out == CLI[arguments]
