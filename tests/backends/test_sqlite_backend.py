"""SqliteBackend: mirror fidelity, differential identity, invalidation.

The headline differential assertion: for every slice-query pattern of
the dense d=3..5 serving fixtures, the row engine and the SQLite mirror
return *identical* group dictionaries and identical rows-processed
accounting — on the routed plan and on the raw fallback alike.
"""

import numpy as np
import pytest

from repro.backends import BackendError, SqliteBackend
from repro.backends.sqlite import FACT_TABLE, index_name, view_table_name
from repro.core.costmodel import LinearCostModel
from repro.core.index import Index
from repro.core.query import SliceQuery, enumerate_slice_queries
from repro.core.view import View
from repro.cube.query_log import LogEntry
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.pipeline import materialize_selection
from repro.engine.maintenance import apply_delta
from repro.engine.table import FactTable
from repro.serve.batch import execute_raw, raw_plan

from .conftest import build_bundle


def all_pattern_entries(schema, per_pattern=2, rng=0):
    """Concrete entries covering every slice-query pattern."""
    generator = np.random.default_rng(rng)
    entries = []
    for query in enumerate_slice_queries(schema.names):
        for _ in range(per_pattern):
            values = tuple(
                sorted(
                    (attr, int(generator.integers(0, schema.cardinality(attr))))
                    for attr in query.selection
                )
            )
            entries.append(LogEntry(query=query, values=values))
    return entries


class TestNaming:
    def test_view_table_name(self):
        assert view_table_name(("p", "s")) == "view_p_s"
        assert view_table_name(()) == "view_total"

    def test_index_name(self):
        idx = Index(View.of("p", "s"), ("s", "p"))
        assert index_name(idx, "view_p_s") == "idx_view_p_s__s_p"


class TestMirror:
    def test_ddl_mirrors_catalog(self, dense4):
        ddl = dense4.backend.ddl()
        tables = [s for s in ddl if s.startswith("CREATE TABLE")]
        indexes = [s for s in ddl if s.startswith("CREATE INDEX")]
        assert any(f"CREATE TABLE {FACT_TABLE} " in s for s in tables)
        # one table per materialized view, one CREATE INDEX per index
        assert len(tables) == 1 + len(list(dense4.catalog.views()))
        assert len(indexes) == len(list(dense4.catalog.indexes()))
        for index in dense4.catalog.indexes():
            table = view_table_name(dense4.catalog.view_table(index.view).attrs)
            assert any(index_name(index, table) in s for s in indexes)

    def test_rejects_non_identifier_column(self):
        schema = CubeSchema(
            [Dimension("a", 3), Dimension("b", 3)], measure="two words"
        )
        fact = FactTable(
            schema,
            {"a": np.array([0, 1]), "b": np.array([1, 2])},
            np.array([1.0, 2.0]),
        )
        with pytest.raises(BackendError, match="not a SQL identifier"):
            SqliteBackend(Catalog(fact))

    def test_context_manager_closes(self, dense3):
        with SqliteBackend(dense3.catalog, cost_model=dense3.model) as backend:
            assert backend.ddl()
        import sqlite3

        with pytest.raises(sqlite3.ProgrammingError):
            backend.ddl()


class TestExecuteErrors:
    def test_requires_loaded_catalog(self):
        backend = SqliteBackend()
        query = SliceQuery(groupby=["a"])
        with pytest.raises(BackendError, match="no catalog loaded"):
            backend.execute(query, {})
        with pytest.raises(BackendError, match="no catalog loaded"):
            backend.execute_raw(query, {})

    def test_missing_selection_values(self, dense4):
        query = SliceQuery(groupby=["p"], selection=["s"])
        with pytest.raises(ValueError, match="missing selection values"):
            dense4.backend.execute(query, {})
        with pytest.raises(ValueError, match="missing selection values"):
            dense4.backend.execute_raw(query, {})

    def test_plan_view_cannot_answer(self, dense4):
        views = sorted(dense4.catalog.views(), key=lambda v: len(v.attrs))
        small = views[0]
        missing = sorted(set(dense4.fact.schema.names) - small.attrs)[0]
        query = SliceQuery(groupby=[missing])
        with pytest.raises(ValueError, match="cannot answer"):
            dense4.backend.execute(query, {}, plan=(small, None))

    def test_plan_index_not_on_view(self, dense4):
        top = max(dense4.catalog.views(), key=lambda v: len(v.attrs))
        other = View.of(*sorted(top.attrs)[:2])
        stray = Index(other, tuple(sorted(other.attrs)))
        query = SliceQuery(groupby=sorted(top.attrs))
        with pytest.raises(ValueError, match="not on view"):
            dense4.backend.execute(query, {}, plan=(top, stray))


class TestDifferentialIdentity:
    """Engine vs SQLite, byte-identical, every pattern, d=3..5."""

    @pytest.mark.parametrize("bundle", [3, 4, 5], indirect=True)
    def test_routed_plans_identical(self, bundle):
        for entry in all_pattern_entries(bundle.fact.schema):
            bound = dict(entry.bound_values)
            try:
                plan = bundle.executor.choose_plan(entry.query)
            except LookupError:
                continue
            engine = bundle.executor.execute(entry.query, bound, plan=plan)
            mirror = bundle.backend.execute(entry.query, bound, plan=plan)
            assert mirror.groups == engine.groups, str(entry.query)
            assert mirror.rows_processed == engine.rows_processed, str(entry.query)
            assert mirror.view == plan[0] and mirror.index == plan[1]

    @pytest.mark.parametrize("bundle", [3, 4, 5], indirect=True)
    def test_raw_fallback_identical(self, bundle):
        for entry in all_pattern_entries(bundle.fact.schema, per_pattern=1):
            bound = dict(entry.bound_values)
            engine = execute_raw(
                bundle.fact, entry, raw_plan(bundle.model, entry.query)
            )
            mirror = bundle.backend.execute_raw(entry.query, bound)
            assert mirror.groups == engine.groups, str(entry.query)
            assert mirror.rows_processed == engine.actual_rows == bundle.fact.n_rows
            assert mirror.view is None and mirror.index is None

    def test_unplanned_execute_routes_like_engine(self, dense4):
        """Without an explicit plan, the internal planner picks the
        engine's choice, so results still match."""
        for entry in all_pattern_entries(dense4.fact.schema, per_pattern=1):
            bound = dict(entry.bound_values)
            try:
                plan = dense4.executor.choose_plan(entry.query)
            except LookupError:
                with pytest.raises(LookupError):
                    dense4.backend.execute(entry.query, bound)
                continue
            engine = dense4.executor.execute(entry.query, bound, plan=plan)
            mirror = dense4.backend.execute(entry.query, bound)
            assert mirror.groups == engine.groups
            assert mirror.rows_processed == engine.rows_processed


class TestSqlitePlans:
    def test_prefix_plan_uses_created_index(self, dense4):
        """On a bound index prefix SQLite's own planner picks the
        mirrored CREATE INDEX — the backend reports which."""
        hits = 0
        for entry in all_pattern_entries(dense4.fact.schema, per_pattern=1):
            try:
                view, index = dense4.executor.choose_plan(entry.query)
            except LookupError:
                continue
            if index is None or not index.usable_prefix(entry.query):
                continue
            result = dense4.backend.execute(
                entry.query, dict(entry.bound_values), plan=(view, index)
            )
            assert result.explain, "EXPLAIN QUERY PLAN returned nothing"
            if result.used_index:
                assert result.used_index.startswith("idx_view_")
                hits += 1
        assert hits > 0, "no prefix plan ever used a mirrored index"

    def test_result_carries_sql_and_timing(self, dense3):
        entry = all_pattern_entries(dense3.fact.schema, per_pattern=1)[-1]
        plan = dense3.executor.choose_plan(entry.query)
        result = dense3.backend.execute(
            entry.query, dict(entry.bound_values), plan=plan
        )
        assert result.sql.startswith("SELECT ")
        assert result.wall_s >= 0.0
        assert result.n_groups == len(result.groups)


class EmptySliceSetup:
    """A sparse cube where ``a`` never takes its top value (3)."""

    def build(self):
        schema = CubeSchema(
            [Dimension("a", 4), Dimension("b", 4), Dimension("c", 3)]
        )
        rng = np.random.default_rng(7)
        n = 40
        columns = {
            "a": rng.integers(0, 2, size=n),  # a in {0, 1}: a=3 slices empty
            "b": rng.integers(0, 4, size=n),
            "c": rng.integers(0, 3, size=n),
        }
        measures = rng.integers(0, 100, size=n).astype(np.float64)
        fact = FactTable(schema, columns, measures)
        catalog = Catalog(fact)
        ab = View.of("a", "b")
        materialize_selection(
            catalog,
            [View.of("a", "b", "c"), ab],
            [Index(ab, ("a", "b"))],
        )
        model = LinearCostModel.from_fact(fact)
        return fact, model, catalog, Executor(catalog, model)


class TestEmptyResultSlices(EmptySliceSetup):
    def test_grouped_empty_slice(self):
        fact, model, catalog, executor = self.build()
        with SqliteBackend(catalog, cost_model=model) as backend:
            query = SliceQuery(groupby=["b"], selection=["a"])
            plan = executor.choose_plan(query)
            engine = executor.execute(query, {"a": 3}, plan=plan)
            mirror = backend.execute(query, {"a": 3}, plan=plan)
            assert engine.groups == mirror.groups == {}
            assert engine.rows_processed == mirror.rows_processed

    def test_ungrouped_empty_slice_is_no_groups(self):
        """SUM over zero rows is NULL in SQLite; the backend maps it to
        the engine's 'no groups' answer, not ``{(): 0.0}``."""
        fact, model, catalog, executor = self.build()
        with SqliteBackend(catalog, cost_model=model) as backend:
            query = SliceQuery(selection=["a", "b"])
            plan = executor.choose_plan(query)
            bound = {"a": 3, "b": 0}
            engine = executor.execute(query, bound, plan=plan)
            mirror = backend.execute(query, bound, plan=plan)
            assert engine.groups == mirror.groups == {}

    def test_raw_empty_slice(self):
        fact, model, catalog, executor = self.build()
        with SqliteBackend(catalog, cost_model=model) as backend:
            query = SliceQuery(groupby=["c"], selection=["a"])
            entry = LogEntry(query=query, values=(("a", 3),))
            engine = execute_raw(fact, entry, raw_plan(model, query))
            mirror = backend.execute_raw(query, {"a": 3})
            assert engine.groups == mirror.groups == {}
            assert mirror.rows_processed == fact.n_rows

    def test_nonempty_slices_still_match(self):
        fact, model, catalog, executor = self.build()
        with SqliteBackend(catalog, cost_model=model) as backend:
            for query in enumerate_slice_queries(fact.schema.names):
                bound = {a: 0 for a in query.selection}
                try:
                    plan = executor.choose_plan(query)
                except LookupError:
                    engine_groups = execute_raw(
                        fact,
                        LogEntry(query=query, values=tuple(sorted(bound.items()))),
                        raw_plan(model, query),
                    ).groups
                    mirror_groups = backend.execute_raw(query, bound).groups
                else:
                    engine_groups = executor.execute(query, bound, plan=plan).groups
                    mirror_groups = backend.execute(query, bound, plan=plan).groups
                assert engine_groups == mirror_groups, str(query)


class TestSyncInvalidation:
    def test_sync_is_noop_on_same_token(self):
        bundle = build_bundle(3)
        assert bundle.backend.reloads == 1
        assert bundle.backend.sync(bundle.catalog) is False
        assert bundle.backend.reloads == 1

    def test_generation_bump_reloads(self):
        bundle = build_bundle(3)
        assert bundle.backend.sync(bundle.catalog, generation=1) is True
        assert bundle.backend.reloads == 2
        assert bundle.backend.sync(bundle.catalog, generation=1) is False

    def test_apply_delta_invalidates_and_refreshes(self):
        """A fact delta bumps catalog.version; the next sync must
        rebuild the mirror and post-delta answers must match a fresh
        engine executor byte-for-byte."""
        bundle = build_bundle(3)
        schema = bundle.fact.schema
        query = SliceQuery(groupby=[schema.names[0]])
        stale = bundle.backend.execute(query, {}).groups

        rng = np.random.default_rng(11)
        n_delta = 25
        delta_columns = {
            name: rng.integers(0, schema.cardinality(name), size=n_delta)
            for name in schema.names
        }
        delta_measures = rng.integers(1, 1000, size=n_delta).astype(np.float64)
        apply_delta(bundle.catalog, delta_columns, delta_measures)

        # before sync the mirror still answers from pre-delta tables
        assert bundle.backend.execute(query, {}).groups == stale
        assert bundle.backend.sync(bundle.catalog) is True
        assert bundle.backend.reloads == 1
        assert bundle.backend.delta_syncs == 1

        executor = Executor(bundle.catalog, bundle.model)
        for entry in all_pattern_entries(schema, per_pattern=1):
            bound = dict(entry.bound_values)
            try:
                plan = executor.choose_plan(entry.query)
            except LookupError:
                continue
            engine = executor.execute(entry.query, bound, plan=plan)
            mirror = bundle.backend.execute(entry.query, bound, plan=plan)
            assert mirror.groups == engine.groups, str(entry.query)
            assert mirror.rows_processed == engine.rows_processed
        assert bundle.backend.execute(query, {}).groups != stale


class TestAnswerDecoding:
    """Group dicts come straight from sqlite3's decoding: every key a
    tuple of ``int`` (the INTEGER key columns), every sum a ``float``
    (SUM over the REAL measure) — the types the row engine returns."""

    @pytest.mark.parametrize("bundle", [3, 4, 5], indirect=True)
    def test_keys_are_int_tuples_and_sums_are_floats(self, bundle):
        for entry in all_pattern_entries(bundle.fact.schema, per_pattern=1):
            bound = dict(entry.bound_values)
            results = [bundle.backend.execute_raw(entry.query, bound)]
            try:
                plan = bundle.executor.choose_plan(entry.query)
            except LookupError:
                plan = None
            if plan is not None:
                results.append(bundle.backend.execute(entry.query, bound, plan=plan))
            for result in results:
                for key, value in result.groups.items():
                    assert type(key) is tuple, str(entry.query)
                    assert all(type(v) is int for v in key), str(entry.query)
                    assert type(value) is float, str(entry.query)

    def test_seeded_diff_reports_no_mismatches(self, capsys):
        from repro.backends.diff import main

        assert main(["--dims", "3,4,5", "--seed", "7"]) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert summary.endswith(", 0 mismatches")
