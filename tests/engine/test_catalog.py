"""Tests for the engine catalog."""

import pytest

from repro.core.index import Index
from repro.core.view import View
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog


@pytest.fixture
def fact():
    schema = CubeSchema([Dimension("a", 8), Dimension("b", 5)])
    return generate_fact_table(schema, 200, rng=0)


@pytest.fixture
def catalog(fact):
    return Catalog(fact)


class TestViews:
    def test_materialize(self, catalog):
        table = catalog.materialize(View.of("a"))
        assert catalog.has_view(View.of("a"))
        assert table.n_rows == catalog.view_rows(View.of("a"))

    def test_materialize_idempotent(self, catalog):
        t1 = catalog.materialize(View.of("a"))
        t2 = catalog.materialize(View.of("a"))
        assert t1 is t2

    def test_total_rows_counts_views(self, catalog):
        catalog.materialize(View.of("a"))
        catalog.materialize(View.of("b"))
        assert catalog.total_rows() == (
            catalog.view_rows(View.of("a")) + catalog.view_rows(View.of("b"))
        )


class TestIndexes:
    def test_index_requires_materialized_view(self, catalog):
        idx = Index(View.of("a"), ("a",))
        with pytest.raises(ValueError, match="not materialized"):
            catalog.build_index(idx)

    def test_build_index(self, catalog):
        catalog.materialize(View.of("a", "b"))
        idx = Index(View.of("a", "b"), ("b", "a"))
        built = catalog.build_index(idx)
        assert catalog.has_index(idx)
        assert len(built) == catalog.view_rows(View.of("a", "b"))

    def test_index_size_model_is_physical(self, catalog):
        """index rows == view rows: the paper's size model, literally."""
        view = View.of("a", "b")
        catalog.materialize(view)
        idx = Index(view, ("a", "b"))
        catalog.build_index(idx)
        assert catalog.index_rows(idx) == catalog.view_rows(view)

    def test_build_index_idempotent(self, catalog):
        catalog.materialize(View.of("a"))
        idx = Index(View.of("a"), ("a",))
        t1 = catalog.build_index(idx)
        t2 = catalog.build_index(idx)
        assert t1 is t2

    def test_indexes_on(self, catalog):
        view = View.of("a", "b")
        catalog.materialize(view)
        i1 = Index(view, ("a", "b"))
        i2 = Index(view, ("b", "a"))
        catalog.build_index(i1)
        catalog.build_index(i2)
        assert set(catalog.indexes_on(view)) == {i1, i2}
        assert catalog.indexes_on(View.of("a")) == []

    def test_index_entries_sorted_by_key(self, catalog):
        view = View.of("a", "b")
        catalog.materialize(view)
        idx = Index(view, ("b", "a"))
        built = catalog.build_index(idx)
        keys = list(
            zip(*(column.tolist() for column in built.keys), built.perm.tolist())
        )
        assert keys == sorted(keys)

    def test_index_values_carry_row_and_measure(self, catalog):
        view = View.of("a")
        table = catalog.materialize(view)
        idx = Index(view, ("a",))
        built = catalog.build_index(idx)
        # every view row appears exactly once, so each measure is reached
        assert sorted(built.perm.tolist()) == list(range(table.n_rows))
        for key, row in zip(built.keys[0].tolist(), built.perm.tolist()):
            assert key == int(table.key_columns["a"][row])
        assert table.values[built.perm].sum() == pytest.approx(
            table.values.sum()
        )
