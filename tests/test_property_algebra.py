"""Property-based tests for the ER algebra (relational laws).

The algebra must satisfy the classical laws on arbitrary relations;
hypothesis generates small relations over synthetic value cells (object
identity semantics are covered by the integration tests — the laws here
hold for any cell type because keys are computed uniformly).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.query.algebra import Relation

cells = st.one_of(st.integers(-5, 5), st.text(max_size=3), st.booleans())


def relations(columns: tuple[str, ...]):
    row = st.tuples(*(cells for __ in columns))
    return st.builds(
        lambda rows: Relation(columns, tuple(rows)),
        st.lists(row, max_size=8),
    )


AB = ("a", "b")
BC = ("b", "c")


def row_set(relation: Relation) -> set:
    return {tuple(map(repr, row)) for row in relation.rows}


class TestSetLaws:
    @settings(max_examples=60)
    @given(relations(AB), relations(AB))
    def test_union_commutative(self, r, s):
        assert row_set(r.union(s)) == row_set(s.union(r))

    @settings(max_examples=60)
    @given(relations(AB))
    def test_union_idempotent(self, r):
        assert row_set(r.union(r)) == row_set(r)

    @settings(max_examples=60)
    @given(relations(AB), relations(AB), relations(AB))
    def test_union_associative(self, r, s, t):
        assert row_set(r.union(s).union(t)) == row_set(r.union(s.union(t)))

    @settings(max_examples=60)
    @given(relations(AB), relations(AB))
    def test_difference_disjoint_from_subtrahend(self, r, s):
        assert row_set(r.difference(s)).isdisjoint(row_set(s))

    @settings(max_examples=60)
    @given(relations(AB))
    def test_difference_self_empty(self, r):
        assert len(r.difference(r)) == 0


class TestJoinLaws:
    @settings(max_examples=60)
    @given(relations(AB), relations(BC))
    def test_join_commutative_up_to_column_order(self, r, s):
        left = r.join(s)
        right = s.join(r)
        # same rows when both projected to a canonical column order
        canon = ("a", "b", "c")
        assert row_set(left.project(*canon)) == row_set(right.project(*canon))

    @settings(max_examples=60)
    @given(relations(AB))
    def test_self_join_is_identity_on_rowset(self, r):
        joined = r.join(r)
        assert row_set(joined) == row_set(r)

    @settings(max_examples=60)
    @given(relations(AB), relations(BC))
    def test_join_rows_match_on_shared_column(self, r, s):
        for row in r.join(s):
            assert any(row["b"] == other["b"] for other in s)
            assert any(row["b"] == other["b"] for other in r)


class TestSelectProjectLaws:
    @settings(max_examples=60)
    @given(relations(AB))
    def test_select_true_is_identity(self, r):
        assert row_set(r.select(lambda row: True)) == row_set(r)

    @settings(max_examples=60)
    @given(relations(AB))
    def test_select_conjunction_equals_chained_select(self, r):
        def p(row):
            return not isinstance(row["a"], str)

        def q(row):
            return row["b"] != 0

        combined = r.select(lambda row: p(row) and q(row))
        chained = r.select(p).select(q)
        assert row_set(combined) == row_set(chained)

    @settings(max_examples=60)
    @given(relations(AB))
    def test_project_idempotent(self, r):
        once = r.project("a")
        twice = once.project("a")
        assert row_set(once) == row_set(twice)

    @settings(max_examples=60)
    @given(relations(AB))
    def test_project_removes_duplicates(self, r):
        projected = r.project("a")
        keys = [repr(row[0]) for row in projected.rows]
        assert len(keys) == len(set(keys))

    @settings(max_examples=60)
    @given(relations(AB))
    def test_rename_preserves_rows(self, r):
        renamed = r.rename(a="x")
        assert renamed.columns == ("x", "b")
        assert row_set(renamed) == row_set(r)


class TestSetOperationDuplicates:
    """Regressions: duplicate-row handling in union/difference.

    ``difference`` used to keep duplicate left rows while ``union``
    deduplicated, so the two "set" operations disagreed on relations
    holding duplicate rows (which select/join legitimately produce).
    """

    EMPTY = Relation(AB, ())
    DUPES = Relation(AB, ((1, 2), (1, 2), (3, 4)))

    def test_difference_deduplicates_kept_rows(self):
        kept = self.DUPES.difference(Relation(AB, ((3, 4),)))
        assert kept.rows == ((1, 2),)

    def test_difference_of_empty_agrees_with_union_of_empty(self):
        assert (
            self.DUPES.difference(self.EMPTY).rows
            == self.DUPES.union(self.EMPTY).rows
            == ((1, 2), (3, 4))
        )

    @settings(max_examples=60)
    @given(relations(AB), relations(AB))
    def test_difference_output_has_no_duplicates(self, r, s):
        result = r.difference(s)
        keys = [tuple(map(repr, row)) for row in result.rows]
        assert len(keys) == len(set(keys))

    @settings(max_examples=60)
    @given(relations(AB), relations(AB))
    def test_union_of_difference_and_intersection_rebuilds_left(self, r, s):
        # (r − s) ∪ (r − (r − s)) == dedup(r): the set laws now hold
        minus = r.difference(s)
        inter = r.difference(minus)
        assert row_set(minus.union(inter)) == row_set(r)


class TestJoinEdgeCases:
    """Regressions: empty and degenerate relation joins."""

    def test_join_with_empty_is_empty(self):
        filled = Relation(AB, ((1, 2),))
        empty_same = Relation(AB, ())
        empty_other = Relation(("c",), ())
        assert filled.join(empty_same).rows == ()
        assert empty_same.join(filled).rows == ()
        # no shared columns: the cartesian product with nothing is nothing
        assert filled.join(empty_other).rows == ()
        assert filled.join(empty_other).columns == ("a", "b", "c")

    def test_join_with_zero_column_relation_is_identity(self):
        filled = Relation(AB, ((1, 2), (3, 4)))
        unit = Relation((), ((),))  # the algebra's unit: one empty row
        assert filled.join(unit).rows == filled.rows
        assert unit.join(filled).rows == filled.rows
        void = Relation((), ())
        assert filled.join(void).rows == ()

    def test_join_on_fully_shared_columns_multiplies_duplicates(self):
        # bag semantics: duplicates multiply — documented behaviour the
        # planner's streaming join must reproduce exactly
        dupes = Relation(("a",), ((1,), (1,)))
        assert dupes.join(dupes).rows == ((1,), (1,), (1,), (1,))
