"""Tests for FactTable and ViewTable."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.view import View
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.table import FactTable, ViewTable


@pytest.fixture
def schema():
    return CubeSchema([Dimension("a", 5), Dimension("b", 3)])


class TestFactTable:
    def test_construction(self, schema):
        fact = FactTable(
            schema,
            {"a": np.array([0, 1, 2]), "b": np.array([0, 1, 2])},
            np.array([1.0, 2.0, 3.0]),
        )
        assert fact.n_rows == 3

    def test_missing_column_rejected(self, schema):
        with pytest.raises(ValueError, match="missing"):
            FactTable(schema, {"a": np.array([0])}, np.array([1.0]))

    def test_length_mismatch_rejected(self, schema):
        with pytest.raises(ValueError, match="lengths"):
            FactTable(
                schema,
                {"a": np.array([0, 1]), "b": np.array([0])},
                np.array([1.0, 2.0]),
            )

    def test_out_of_domain_rejected(self, schema):
        with pytest.raises(ValueError, match="outside"):
            FactTable(
                schema,
                {"a": np.array([7]), "b": np.array([0])},
                np.array([1.0]),
            )

    def test_negative_value_rejected(self, schema):
        with pytest.raises(ValueError, match="outside"):
            FactTable(
                schema,
                {"a": np.array([-1]), "b": np.array([0])},
                np.array([1.0]),
            )

    def test_distinct_count(self, schema):
        fact = FactTable(
            schema,
            {"a": np.array([0, 0, 1, 1]), "b": np.array([0, 0, 0, 1])},
            np.zeros(4),
        )
        assert fact.distinct_count(["a"]) == 2
        assert fact.distinct_count(["a", "b"]) == 3
        assert fact.distinct_count([]) == 1

    @staticmethod
    def _row_wise_count(fact, attrs):
        stacked = np.stack([fact.column(a) for a in attrs], axis=1)
        return int(np.unique(stacked, axis=0).shape[0])

    @given(
        cards=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        n_rows=st.integers(0, 200),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_count_matches_row_wise(self, cards, n_rows, seed):
        names = [f"d{i}" for i in range(len(cards))]
        schema = CubeSchema([Dimension(n, c) for n, c in zip(names, cards)])
        rng = np.random.default_rng(seed)
        fact = FactTable(
            schema,
            {n: rng.integers(0, c, size=n_rows) for n, c in zip(names, cards)},
            np.zeros(n_rows),
        )
        for width in range(1, len(names) + 1):
            attrs = names[-width:]
            assert fact.distinct_count(attrs) == self._row_wise_count(
                fact, attrs
            )

    def test_distinct_count_wide_domains_fall_back(self):
        """Domains whose product overflows int64 cannot be mixed-radix
        coded; the row-wise count answers instead."""
        cards = [2**40, 2**40, 3]
        names = ["x", "y", "z"]
        schema = CubeSchema([Dimension(n, c) for n, c in zip(names, cards)])
        rng = np.random.default_rng(4)
        columns = {
            "x": rng.integers(2**40 - 3, 2**40, size=300),
            "y": rng.integers(0, 2, size=300) * (2**40 - 1),
            "z": rng.integers(0, 3, size=300),
        }
        fact = FactTable(schema, columns, np.zeros(300))
        for attrs in (["x", "y"], ["x", "y", "z"], ["y", "z"]):
            assert fact.distinct_count(attrs) == self._row_wise_count(
                fact, attrs
            )
        assert fact.distinct_count(["x", "y", "z"]) == 3 * 2 * 3


class TestViewTable:
    def test_construction_and_rows(self):
        table = ViewTable(
            View.of("a"),
            ("a",),
            {"a": np.array([0, 1, 2])},
            np.array([1.0, 2.0, 3.0]),
        )
        assert table.n_rows == 3

    def test_attrs_must_match_view(self):
        with pytest.raises(ValueError, match="do not match"):
            ViewTable(View.of("a"), ("b",), {"b": np.array([0])}, np.array([1.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            ViewTable(
                View.of("a"), ("a",), {"a": np.array([0, 1])}, np.array([1.0])
            )

    def test_row_key(self):
        table = ViewTable(
            View.of("a", "b"),
            ("a", "b"),
            {"a": np.array([3, 4]), "b": np.array([5, 6])},
            np.array([1.0, 2.0]),
        )
        assert table.row_key(1, ("b", "a")) == (6, 4)

    def test_iter_rows(self):
        table = ViewTable(
            View.of("a", "b"),
            ("a", "b"),
            {"a": np.array([1, 2]), "b": np.array([3, 4])},
            np.array([10.0, 20.0]),
        )
        assert list(table.iter_rows()) == [((1, 3), 10.0), ((2, 4), 20.0)]
