"""Unit tests for cardinality specifications."""

import pytest

from repro.core.cardinality import Cardinality
from repro.core.errors import CardinalityError


class TestConstruction:
    def test_parse_bounded(self):
        card = Cardinality.parse("0..16")
        assert (card.minimum, card.maximum) == (0, 16)

    def test_parse_unbounded(self):
        card = Cardinality.parse("1..*")
        assert card.minimum == 1
        assert card.is_unbounded

    def test_parse_whitespace(self):
        assert Cardinality.parse(" 2 .. 5 ") == Cardinality(2, 5)

    def test_parse_idempotent_on_instances(self):
        card = Cardinality(1, 1)
        assert Cardinality.parse(card) is card

    @pytest.mark.parametrize("text", ["", "1", "*..1", "1..", "a..b", "1-2"])
    def test_parse_rejects_bad_syntax(self, text):
        with pytest.raises(CardinalityError):
            Cardinality.parse(text)

    def test_max_below_min_rejected(self):
        with pytest.raises(CardinalityError):
            Cardinality(3, 2)

    def test_negative_min_rejected(self):
        with pytest.raises(CardinalityError):
            Cardinality(-1, 2)

    def test_helpers(self):
        assert str(Cardinality.exactly(1)) == "1..1"


class TestSemantics:
    def test_allows_more_is_max_only(self):
        card = Cardinality.parse("2..3")
        # consistency half: minimum is irrelevant here
        assert card.allows_more(0)
        assert card.allows_more(2)
        assert not card.allows_more(3)

    def test_allows_more_unbounded(self):
        assert Cardinality.parse("0..*").allows_more(10**9)

    def test_mandatory(self):
        assert Cardinality.parse("1..*").is_mandatory
        assert not Cardinality.parse("0..1").is_mandatory

    def test_str_roundtrip(self):
        for text in ("0..16", "1..*", "0..1", "3..3"):
            assert str(Cardinality.parse(text)) == text
