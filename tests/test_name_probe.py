"""A plain name is answered by a dictionary probe; the parser is the oracle.

``SeedDatabase.find_object`` / ``get_object`` and ``VersionView.find``
look the text up in their name index as given and parse it as a dotted
name only on a miss. That is exact because only validated simple names
are ever indexed. The reference is the parser path itself: the same
lookups handed an already parsed :class:`DottedName`. Every answer, or
every raised error with its message, must agree over generated
histories — indexed and pattern objects; deleted, renamed and
reclassified ones; dotted and indexed names; illegal and random text —
on the live database, on a cold version view and on a successor view.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SeedDatabase, figure3_schema
from repro.core.errors import SeedError
from repro.core.identifiers import DottedName

#: "K2\n" must be refused: indexed, the probe would answer for it
NAMES = ["A", "B", "Alarms", "_x", "K2", "K2\n"]
CLASSES = ["Thing", "Data", "InputData", "OutputData", "Action"]
#: the dependent role each class family owns in figure 3
ROLES = {"Thing": "Revised", "Action": "Description"}
OPS = ["create", "pattern", "sub", "delete", "rename", "reclassify", "inherit"]
SUFFIXES = [
    "", "\n", "[0]", "[1]", ".Text", ".Text[0]", ".Text[1]", ".Text[01]",
    ".Text.Body", ".Description", ".Revised[0]", ".", " ", "..Text", "[x]",
]
TEXTS = st.one_of(
    st.sampled_from(["", ".", "[0]", "a b", "2K", "a-b", "\n", "A\n", "\U0010FFFF"]),
    st.text(max_size=8),
)
STEPS = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.sampled_from(CLASSES),
        st.sampled_from(NAMES),
        st.sampled_from(NAMES),
    ),
    max_size=14,
)


def _apply(db: SeedDatabase, op: str, cls: str, first: str, second: str) -> None:
    if op in ("create", "pattern"):
        db.create_object(cls, first, pattern=op == "pattern")
        return
    obj = db.find_object(first, include_patterns=True)
    if obj is None:
        return
    if op == "sub":
        obj.add_sub_object(ROLES.get(obj.entity_class.name, "Text"))
    elif op == "delete":
        db.delete(obj)
    elif op == "rename":
        db.rename(obj, second)
    elif op == "reclassify":
        db.reclassify(obj, cls, allow_generalize=True)
    else:
        inheritor = db.find_object(second, include_patterns=True)
        if inheritor is not None:
            db.inherit(obj, inheritor)


def _history(db: SeedDatabase, steps: list) -> None:
    for step in steps:
        try:
            _apply(db, *step)
        except SeedError:
            pass  # a refused update leaves no trace


def _outcome(call):
    try:
        return ("answer", call())
    except SeedError as error:
        return (type(error), str(error))


def _queries(db: SeedDatabase, texts: list[str]) -> list[str]:
    names = set(NAMES)
    for obj in db.all_objects_raw():  # tombstones and patterns included
        names.add(str(obj.name))
    return sorted({name + suffix for name in names for suffix in SUFFIXES} | set(texts))


def _check_database(db: SeedDatabase, name: str) -> None:
    for include in (False, True):
        parsed = _outcome(
            lambda: db.find_object(DottedName.parse(name), include_patterns=include)
        )
        assert _outcome(lambda: db.find_object(name, include_patterns=include)) == parsed
        if parsed == ("answer", None):
            parsed = (SeedError, f"no object named {name}")
        assert _outcome(lambda: db.get_object(name, include_patterns=include)) == parsed


def _check_view(view, name: str) -> None:
    parsed = _outcome(lambda: view.find(DottedName.parse(name)))
    assert _outcome(lambda: view.find(name)) == parsed


@settings(max_examples=60, deadline=None)
@given(before=STEPS, after=STEPS, texts=st.lists(TEXTS, max_size=6))
def test_the_probe_answers_what_the_parser_answers(before, after, texts):
    db = SeedDatabase(figure3_schema(), "probe")
    _history(db, before)
    first = db.create_version()
    _history(db, after)
    second = db.create_version()
    views = [
        db.version_view(first),
        db.version_view(second),
        db.version_view(second, base=db.version_view(first)),
    ]
    for name in _queries(db, texts):
        _check_database(db, name)
        for view in views:
            _check_view(view, name)


def test_a_probe_hit_is_the_indexed_object(fig1_db):
    alarms = fig1_db.find_object(DottedName.parse("Alarms"))
    assert fig1_db.find_object("Alarms") is alarms
    assert fig1_db.get_object("Alarms") is alarms
    fig1_db.rename(alarms, "Alerts")
    assert fig1_db.find_object("Alarms") is None
    assert fig1_db.find_object("Alerts.Text[0].Body") is not None
    pattern = fig1_db.create_object("Data", "Template", pattern=True)
    assert fig1_db.find_object("Template") is None
    assert fig1_db.find_object("Template", include_patterns=True) is pattern
