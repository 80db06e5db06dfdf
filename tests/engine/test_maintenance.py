"""Tests for incremental view/index maintenance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import Index
from repro.core.view import View
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.maintenance import (
    apply_delta,
    estimate_refresh_cost,
    merge_view_tables,
)
from repro.engine.materialize import materialize_view
from repro.engine.table import FactTable
from tests.engine.test_sorted_index import reference_rows


@pytest.fixture
def schema():
    return CubeSchema([Dimension("a", 10), Dimension("b", 6)])


def make_catalog(schema, n_rows=300, rng=0) -> Catalog:
    fact = generate_fact_table(schema, n_rows, rng=rng)
    catalog = Catalog(fact)
    for attrs in ((), ("a",), ("b",), ("a", "b")):
        catalog.materialize(View(attrs))
    catalog.build_index(Index(View.of("a", "b"), ("a", "b")))
    catalog.build_index(Index(View.of("a", "b"), ("b", "a")))
    return catalog


def make_delta(schema, n_rows=50, rng=99):
    fact = generate_fact_table(schema, n_rows, rng=rng)
    return fact.columns, fact.measures


class TestMergeViewTables:
    def test_merge_sums_shared_keys(self, schema):
        fact_a = FactTable(
            schema, {"a": np.array([1, 2]), "b": np.array([0, 0])}, np.array([1.0, 2.0])
        )
        fact_b = FactTable(
            schema, {"a": np.array([1, 3]), "b": np.array([0, 0])}, np.array([10.0, 5.0])
        )
        t1 = materialize_view(fact_a, View.of("a"))
        t2 = materialize_view(fact_b, View.of("a"))
        merged = merge_view_tables(t1, t2)
        assert dict(merged.iter_rows()) == {(1,): 11.0, (2,): 2.0, (3,): 5.0}

    def test_merge_keeps_sorted_keys(self, schema):
        cat = make_catalog(schema)
        table = cat.view_table(View.of("a", "b"))
        merged = merge_view_tables(table, table)
        keys = [k for k, __ in merged.iter_rows()]
        assert keys == sorted(keys)

    def test_view_mismatch_rejected(self, schema):
        cat = make_catalog(schema)
        with pytest.raises(ValueError, match="cannot merge"):
            merge_view_tables(
                cat.view_table(View.of("a")), cat.view_table(View.of("b"))
            )

    def test_grand_total_merge(self, schema):
        cat = make_catalog(schema)
        total = cat.view_table(View.none())
        merged = merge_view_tables(total, total)
        assert merged.values[0] == pytest.approx(2 * total.values[0])


class TestApplyDelta:
    def test_views_match_full_recompute(self, schema):
        """Incremental refresh must equal recomputation from scratch —
        the defining correctness property."""
        catalog = make_catalog(schema)
        delta_cols, delta_measures = make_delta(schema)
        apply_delta(catalog, delta_cols, delta_measures)

        for attrs in ((), ("a",), ("b",), ("a", "b")):
            view = View(attrs)
            recomputed = materialize_view(catalog.fact, view)
            incremental = catalog.view_table(view)
            got = dict(incremental.iter_rows())
            expected = dict(recomputed.iter_rows())
            assert got.keys() == expected.keys()
            for key in expected:
                assert got[key] == pytest.approx(expected[key])

    def test_fact_table_extended(self, schema):
        catalog = make_catalog(schema, n_rows=300)
        delta_cols, delta_measures = make_delta(schema, n_rows=50)
        apply_delta(catalog, delta_cols, delta_measures)
        assert catalog.fact.n_rows == 350

    def test_indexes_rebuilt_consistently(self, schema):
        catalog = make_catalog(schema)
        delta_cols, delta_measures = make_delta(schema)
        apply_delta(catalog, delta_cols, delta_measures)
        view = View.of("a", "b")
        table = catalog.view_table(view)
        for index in catalog.indexes_on(view):
            built = catalog.sorted_index(index)
            assert len(built) == table.n_rows
            # the rebuild sorts the merged table's rows, not stale ones
            assert built.perm.tolist() == reference_rows(table, index.key)
            for attr, column in zip(index.key, built.keys):
                assert np.array_equal(
                    column, table.key_columns[attr][built.perm]
                )

    def test_report_accounting(self, schema):
        catalog = make_catalog(schema)
        before_rows = {
            str(v): catalog.view_table(v).n_rows for v in catalog.views()
        }
        delta_cols, delta_measures = make_delta(schema, n_rows=40)
        report = apply_delta(catalog, delta_cols, delta_measures)
        assert report.delta_rows == 40
        assert len(report.views_refreshed) == 4
        assert len(report.indexes_rebuilt) == 2
        assert report.view_rows_scanned >= sum(before_rows.values())
        assert report.total_rows_touched > 0

    def test_count_views_maintainable(self, schema):
        fact = generate_fact_table(schema, 100, rng=1)
        catalog = Catalog(fact)
        catalog.materialize(View.of("a"), agg="count")
        delta_cols, delta_measures = make_delta(schema, n_rows=20)
        apply_delta(catalog, delta_cols, delta_measures)
        recomputed = materialize_view(catalog.fact, View.of("a"), agg="count")
        assert dict(catalog.view_table(View.of("a")).iter_rows()) == dict(
            recomputed.iter_rows()
        )

    def test_min_views_rejected(self, schema):
        fact = generate_fact_table(schema, 100, rng=1)
        catalog = Catalog(fact)
        catalog.materialize(View.of("a"), agg="min")
        delta_cols, delta_measures = make_delta(schema, n_rows=20)
        with pytest.raises(ValueError, match="not.*self-maintainable"):
            apply_delta(catalog, delta_cols, delta_measures)

    def test_invalid_delta_rejected(self, schema):
        catalog = make_catalog(schema)
        with pytest.raises(ValueError):
            apply_delta(
                catalog,
                {"a": np.array([999]), "b": np.array([0])},
                np.array([1.0]),
            )

    def test_repeated_deltas_accumulate(self, schema):
        catalog = make_catalog(schema, n_rows=100)
        for seed in (7, 8, 9):
            cols, measures = make_delta(schema, n_rows=30, rng=seed)
            apply_delta(catalog, cols, measures)
        assert catalog.fact.n_rows == 190
        recomputed = materialize_view(catalog.fact, View.of("a", "b"))
        got = dict(catalog.view_table(View.of("a", "b")).iter_rows())
        for key, value in recomputed.iter_rows():
            assert got[key] == pytest.approx(value)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10_000))
    def test_property_incremental_equals_recompute(self, delta_rows, seed):
        schema = CubeSchema([Dimension("x", 7), Dimension("y", 4)])
        catalog = Catalog(generate_fact_table(schema, 80, rng=seed))
        catalog.materialize(View.of("x"))
        catalog.materialize(View.of("x", "y"))
        delta = generate_fact_table(schema, delta_rows, rng=seed + 1)
        apply_delta(catalog, delta.columns, delta.measures)
        for view in (View.of("x"), View.of("x", "y")):
            expected = dict(materialize_view(catalog.fact, view).iter_rows())
            got = dict(catalog.view_table(view).iter_rows())
            assert got.keys() == expected.keys()
            for key in expected:
                assert got[key] == pytest.approx(expected[key])


class TestEstimateRefreshCost:
    def test_estimate_upper_bounds_view_scan(self, schema):
        catalog = make_catalog(schema)
        view_rows = {
            **{str(v): catalog.view_table(v).n_rows for v in catalog.views()},
            **{
                str(i): catalog.view_table(i.view).n_rows
                for i in catalog.indexes()
            },
        }
        selection = {
            **{str(v): False for v in catalog.views()},
            **{str(i): True for i in catalog.indexes()},
        }
        estimate = estimate_refresh_cost(view_rows, selection, delta_rows=40)
        report = apply_delta(catalog, *make_delta(schema, n_rows=40))
        assert estimate <= report.total_rows_touched + 1e-9 or estimate >= (
            report.view_rows_scanned
        )

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            estimate_refresh_cost({}, {}, -1)

    def test_index_cheaper_than_view_in_model(self):
        view_rows = {"v": 100.0, "i": 100.0}
        view_only = estimate_refresh_cost(view_rows, {"v": False}, 50)
        index_only = estimate_refresh_cost(view_rows, {"i": True}, 50)
        assert index_only < view_only
