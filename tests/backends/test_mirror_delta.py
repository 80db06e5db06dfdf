"""The SQLite mirror's incremental sync against a fresh rebuild.

Random fact deltas (hitting both existing and new groups) interleave
with generation bumps, selection swaps and index-set changes.  After
every sync the mirror must hold, table by table and rowid by rowid,
exactly what a fresh :meth:`SqliteBackend.load` of the same catalog
builds, with the same DDL; its answers must equal the row engine's;
and ``reloads`` may move only where a delta cannot express the change.
"""

import itertools

import numpy as np
import pytest

from repro.backends import SqliteBackend
from repro.backends.diff import advise_selection, random_fact, random_schema
from repro.backends.sqlite import view_rowids
from repro.core.costmodel import LinearCostModel
from repro.core.query import enumerate_slice_queries
from repro.core.view import View
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.maintenance import apply_delta
from repro.engine.pipeline import materialize_selection
from repro.engine.table import FactTable, ViewTable
from repro.serve.structures import resolve_selection


def mirror_rows(backend: SqliteBackend) -> dict:
    """Every mirrored table's rows, with rowids, in rowid order."""
    conn = backend._conn
    tables = [
        name
        for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
        )
    ]
    return {
        name: conn.execute(f"SELECT rowid, * FROM {name} ORDER BY rowid").fetchall()
        for name in tables
    }


def assert_matches_fresh_load(backend: SqliteBackend, catalog, generation):
    with SqliteBackend() as fresh:
        fresh.load(catalog, generation=generation)
        assert backend.ddl() == fresh.ddl()
        assert mirror_rows(backend) == mirror_rows(fresh)


def assert_answers_match(backend: SqliteBackend, catalog, model, rng):
    executor = Executor(catalog, model)
    schema = catalog.fact.schema
    for query in enumerate_slice_queries(schema.names):
        try:
            plan = executor.choose_plan(query)
        except LookupError:
            continue
        bound = {
            a: int(rng.integers(0, schema.cardinality(a))) for a in query.selection
        }
        engine = executor.execute(query, bound, plan=plan)
        mirror = backend.execute(query, bound, plan=plan)
        assert mirror.groups == engine.groups, str(query)
        assert mirror.rows_processed == engine.rows_processed, str(query)


def random_delta(fact: FactTable, rng: np.random.Generator):
    """A delta of rows copied from existing facts (existing groups) and
    fresh random rows (new groups in a sparse cube)."""
    schema = fact.schema
    n_old = int(rng.integers(1, 6))
    n_new = int(rng.integers(1, 6))
    picks = rng.integers(0, fact.n_rows, size=n_old)
    columns = {
        name: np.concatenate(
            [
                fact.column(name)[picks],
                rng.integers(0, schema.cardinality(name), size=n_new),
            ]
        )
        for name in schema.names
    }
    measures = rng.integers(0, 1000, size=n_old + n_new).astype(np.float64)
    return columns, measures


def change_structure_set(catalog: Catalog) -> None:
    """Drop an index, or without one materialize a view not yet there."""
    index = next(iter(catalog.indexes()), None)
    if index is not None:
        catalog.drop_index(index)
        return
    names = catalog.fact.schema.names
    for k in range(len(names) + 1):
        for attrs in itertools.combinations(names, k):
            if not catalog.has_view(View.of(*attrs)):
                catalog.materialize(View.of(*attrs))
                return
    raise AssertionError("every view is already materialized")


def build_catalog(fact: FactTable, selection) -> Catalog:
    views, indexes = resolve_selection(selection)
    catalog = Catalog(fact)
    materialize_selection(catalog, views, indexes)
    return catalog


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_interleaving_matches_fresh_load(seed):
    rng = np.random.default_rng(seed)
    schema = random_schema(4, rng)
    fact = random_fact(schema, rng, density=0.3)
    model = LinearCostModel.from_fact(fact)
    selection = advise_selection(fact, model)
    # a second selection to swap to: the views alone, no indexes
    views_only = tuple(map(str, resolve_selection(selection)[0]))
    catalog = build_catalog(fact, selection)
    generation = 0

    backend = SqliteBackend(cost_model=model)
    assert backend.sync(catalog, generation) is True
    reloads, deltas, groups_added = 1, 0, 0
    for _ in range(14):
        step = rng.choice(
            ["delta", "delta", "delta", "generation", "swap", "reindex", "steady"]
        )
        if step == "delta":
            before = sum(catalog.view_rows(v) for v in catalog.views())
            apply_delta(catalog, *random_delta(catalog.fact, rng))
            groups_added += sum(catalog.view_rows(v) for v in catalog.views()) - before
            deltas += 1
        elif step == "generation":
            generation += 1
            reloads += 1
        elif step == "swap":
            generation += 1
            current = views_only if len(list(catalog.indexes())) else selection
            catalog = build_catalog(catalog.fact, current)
            reloads += 1
        elif step == "reindex":
            # the same catalog and generation, another structure set
            change_structure_set(catalog)
            catalog.version += 1
            reloads += 1
        changed = backend.sync(catalog, generation)
        assert changed is (step != "steady")
        assert backend.reloads == reloads, step
        assert backend.delta_syncs == deltas, step
        assert_matches_fresh_load(backend, catalog, generation)
        assert_answers_match(backend, catalog, model, rng)
    backend.close()
    assert deltas and groups_added, "the run never applied a delta with new groups"


class TestDeltaFallbacks:
    """Each change a delta cannot express rebuilds the mirror."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.rng = rng
        schema = random_schema(3, rng)
        self.fact = random_fact(schema, rng, density=0.4)
        model = LinearCostModel.from_fact(self.fact)
        self.catalog = build_catalog(self.fact, advise_selection(self.fact, model))
        self.backend = SqliteBackend(self.catalog)

    def teardown_method(self):
        self.backend.close()

    def resync(self):
        self.catalog.version += 1
        assert self.backend.sync(self.catalog) is True
        assert_matches_fresh_load(self.backend, self.catalog, 0)

    def test_delta_is_incremental(self):
        apply_delta(self.catalog, *random_delta(self.catalog.fact, self.rng))
        assert self.backend.sync(self.catalog) is True
        assert (self.backend.reloads, self.backend.delta_syncs) == (1, 1)
        assert_matches_fresh_load(self.backend, self.catalog, 0)

    def test_vanished_group_rebuilds(self):
        view = next(iter(self.catalog.views()))
        table = self.catalog.view_table(view)
        keep = np.arange(1, table.n_rows)
        self.catalog.add_view(
            ViewTable(
                view,
                table.attrs,
                {a: table.key_columns[a][keep] for a in table.attrs},
                table.values[keep],
                measure=table.measure,
            )
        )
        for index in list(self.catalog.indexes()):
            self.catalog.drop_index(index)
            self.catalog.build_index(index)
        self.resync()
        assert (self.backend.reloads, self.backend.delta_syncs) == (2, 0)

    def test_rewritten_fact_prefix_rebuilds(self):
        fact = self.catalog.fact
        measures = fact.measures.copy()
        measures[0] += 1.0
        columns = {name: fact.column(name) for name in fact.schema.names}
        self.catalog.fact = FactTable(fact.schema, columns, measures)
        self.resync()
        assert (self.backend.reloads, self.backend.delta_syncs) == (2, 0)

    def test_changed_measure_set_rebuilds(self):
        fact = self.catalog.fact
        columns = {name: fact.column(name) for name in fact.schema.names}
        self.catalog.fact = FactTable(
            fact.schema, columns, fact.measures, extra_measures={"qty": fact.measures}
        )
        self.resync()
        assert (self.backend.reloads, self.backend.delta_syncs) == (2, 0)

    def test_new_catalog_rebuilds(self):
        self.catalog = build_catalog(self.catalog.fact, ())
        self.resync()
        assert (self.backend.reloads, self.backend.delta_syncs) == (2, 0)


def test_view_rowids_are_key_codes_in_row_order():
    rng = np.random.default_rng(9)
    schema = random_schema(3, rng)
    fact = random_fact(schema, rng, density=0.5)
    catalog = Catalog(fact)
    table = catalog.materialize(View.of(*schema.names[1:]))
    rowids = view_rowids(table, schema)
    assert (np.diff(rowids) > 0).all()
    b, c = schema.names[1:]
    expected = (
        table.key_columns[b] * schema.cardinality(c) + table.key_columns[c]
    )
    assert rowids.tolist() == expected.tolist()
    total = catalog.materialize(View.of())
    assert view_rowids(total, schema).tolist() == [0]
    # unsorted rows cannot keep rowid order = row order
    backwards = ViewTable(
        table.view,
        table.attrs,
        {a: table.key_columns[a][::-1] for a in table.attrs},
        table.values[::-1],
    )
    assert view_rowids(backwards, schema) is None


def test_overflowing_codes_rebuild_on_every_delta():
    schema = CubeSchema([Dimension("a", 2**32), Dimension("b", 2**32)])
    rng = np.random.default_rng(4)
    columns = {name: rng.integers(0, 5, size=30) for name in schema.names}
    fact = FactTable(schema, columns, rng.integers(0, 9, size=30).astype(float))
    catalog = Catalog(fact)
    table = catalog.materialize(View.of("a", "b"))
    assert view_rowids(table, schema) is None
    with SqliteBackend(catalog) as backend:
        delta = {name: np.array([7]) for name in schema.names}
        apply_delta(catalog, delta, np.array([3.0]))
        assert backend.sync(catalog) is True
        assert (backend.reloads, backend.delta_syncs) == (2, 0)
        assert_matches_fresh_load(backend, catalog, 0)
