"""Unit tests for the value sorts."""

import datetime

import pytest

from repro.core.errors import ValueTypeError
from repro.core.values import (
    BOOLEAN,
    DATE,
    INTEGER,
    REAL,
    STRING,
    TEXT,
    sort_by_name,
)


class TestStringSorts:
    def test_string_accepts_str(self):
        assert STRING.coerce("Alarms") == "Alarms"

    def test_string_rejects_int(self):
        with pytest.raises(ValueTypeError):
            STRING.coerce(3)

    def test_string_rejects_none(self):
        with pytest.raises(ValueTypeError):
            STRING.coerce(None)

    def test_text_is_distinct_sort_with_same_domain(self):
        assert TEXT.name == "TEXT"
        assert TEXT.coerce("multi\nline") == "multi\nline"

    def test_string_parse_is_identity(self):
        assert STRING.parse("x y") == "x y"


class TestIntegerSort:
    def test_accepts_int(self):
        assert INTEGER.coerce(2) == 2

    def test_rejects_bool(self):
        with pytest.raises(ValueTypeError):
            INTEGER.coerce(True)

    def test_rejects_float(self):
        with pytest.raises(ValueTypeError):
            INTEGER.coerce(2.0)

    def test_parse(self):
        assert INTEGER.parse(" 42 ") == 42

    def test_parse_garbage(self):
        with pytest.raises(ValueTypeError):
            INTEGER.parse("two")


class TestRealSort:
    def test_accepts_float(self):
        assert REAL.coerce(0.5) == 0.5

    def test_widens_int(self):
        value = REAL.coerce(2)
        assert value == 2.0
        assert isinstance(value, float)

    def test_rejects_bool(self):
        with pytest.raises(ValueTypeError):
            REAL.coerce(True)

    def test_rejects_str(self):
        with pytest.raises(ValueTypeError):
            REAL.coerce("0.5")

    def test_parse(self):
        assert REAL.parse("3.25") == 3.25


class TestBooleanSort:
    def test_accepts_bool(self):
        assert BOOLEAN.coerce(True) is True

    def test_rejects_int(self):
        with pytest.raises(ValueTypeError):
            BOOLEAN.coerce(1)

    @pytest.mark.parametrize(
        "text,expected",
        [("true", True), ("YES", True), ("1", True), ("false", False), ("No", False)],
    )
    def test_parse_variants(self, text, expected):
        assert BOOLEAN.parse(text) is expected

    def test_parse_garbage(self):
        with pytest.raises(ValueTypeError):
            BOOLEAN.parse("maybe")

    def test_format(self):
        assert BOOLEAN.format(True) == "true"
        assert BOOLEAN.format(False) == "false"


class TestDateSort:
    def test_accepts_date(self):
        day = datetime.date(1986, 2, 5)
        assert DATE.coerce(day) == day

    def test_accepts_iso_string(self):
        assert DATE.coerce("1986-02-05") == datetime.date(1986, 2, 5)

    def test_rejects_datetime(self):
        with pytest.raises(ValueTypeError):
            DATE.coerce(datetime.datetime(1986, 2, 5, 12, 0))

    def test_rejects_bad_string(self):
        with pytest.raises(ValueTypeError):
            DATE.coerce("05.02.1986")

    def test_format_roundtrip(self):
        day = datetime.date(1986, 2, 5)
        assert DATE.parse(DATE.format(day)) == day


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert sort_by_name("string") is STRING
        assert sort_by_name("DATE") is DATE

    def test_unknown_sort_lists_known(self):
        with pytest.raises(ValueTypeError, match="STRING"):
            sort_by_name("BLOB")
