"""Tests for catalog persistence (save/load round trip)."""

import json

import numpy as np
import pytest

from repro.core.index import Index
from repro.core.query import SliceQuery
from repro.core.view import View
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.storage import load_catalog, save_catalog


@pytest.fixture
def catalog():
    schema = CubeSchema(
        [Dimension("a", 15), Dimension("b", 9), Dimension("c", 4)],
        measure="revenue",
    )
    fact = generate_fact_table(schema, 600, rng=8)
    catalog = Catalog(fact)
    for attrs in ((), ("a",), ("a", "b"), ("a", "b", "c")):
        catalog.materialize(View(attrs))
    catalog.materialize(View.of("b"), agg="count")
    catalog.build_index(Index(View.of("a", "b"), ("b", "a")))
    catalog.build_index(Index(View.of("a", "b", "c"), ("c", "a", "b")))
    return catalog


class TestRoundTrip:
    def test_fact_table_preserved(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.fact.n_rows == catalog.fact.n_rows
        for name in catalog.fact.schema.names:
            assert np.array_equal(loaded.fact.column(name), catalog.fact.column(name))
        assert np.array_equal(loaded.fact.measures, catalog.fact.measures)

    def test_schema_preserved(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.fact.schema.names == catalog.fact.schema.names
        assert loaded.fact.schema.measure == "revenue"

    def test_views_preserved(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert set(loaded.views()) == set(catalog.views())
        for view in catalog.views():
            original = list(catalog.view_table(view).iter_rows())
            restored = list(loaded.view_table(view).iter_rows())
            assert original == restored

    def test_aggregate_kind_preserved(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.view_table(View.of("b")).agg == "count"

    def test_indexes_rebuilt(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert set(loaded.indexes()) == set(catalog.indexes())
        for index in catalog.indexes():
            before = catalog.sorted_index(index)
            after = loaded.sorted_index(index)
            assert np.array_equal(after.perm, before.perm)
            assert len(after.keys) == len(before.keys) == len(index.key)
            for restored, original in zip(after.keys, before.keys):
                assert np.array_equal(restored, original)

    def test_query_results_identical(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        query = SliceQuery(groupby=("a",), selection=("b",))
        value = int(catalog.fact.column("b")[0])
        before = Executor(catalog).execute(query, {"b": value})
        after = Executor(loaded).execute(query, {"b": value})
        assert before.groups == after.groups
        assert before.rows_processed == after.rows_processed

    def test_space_accounting_identical(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.total_rows() == catalog.total_rows()


class TestFormat:
    def test_manifest_is_json(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        with open(tmp_path / "manifest.json") as f:
            manifest = json.load(f)
        assert manifest["format_version"] == 1
        assert len(manifest["views"]) == 5
        assert len(manifest["indexes"]) == 2

    def test_unknown_format_version_rejected(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported"):
            load_catalog(tmp_path)

    def test_save_creates_directory(self, catalog, tmp_path):
        target = tmp_path / "nested" / "catalog"
        save_catalog(catalog, target)
        assert (target / "manifest.json").exists()

    def test_save_load_after_maintenance(self, catalog, tmp_path):
        """Persistence composes with the refresh path."""
        from repro.engine.maintenance import apply_delta

        schema = catalog.fact.schema
        delta = generate_fact_table(schema, 50, rng=99)
        # only sum/count views survive refresh; this catalog qualifies
        apply_delta(catalog, delta.columns, delta.measures)
        save_catalog(catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.fact.n_rows == catalog.fact.n_rows
        for view in catalog.views():
            assert list(loaded.view_table(view).iter_rows()) == list(
                catalog.view_table(view).iter_rows()
            )
