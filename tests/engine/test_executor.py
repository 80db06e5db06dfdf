"""Tests for the query executor: correctness of results and of the
rows-processed accounting the cost model is validated against."""

import numpy as np
import pytest

from repro.core.costmodel import LinearCostModel
from repro.core.index import Index, enumerate_fat_indexes
from repro.core.lattice import CubeLattice
from repro.core.query import SliceQuery
from repro.core.view import View
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.maintenance import apply_delta
from repro.engine.table import FactTable
from repro.estimation.sizes import exact_sizes_from_rows


@pytest.fixture(scope="module")
def setup():
    schema = CubeSchema([Dimension("a", 10), Dimension("b", 6), Dimension("c", 4)])
    fact = generate_fact_table(schema, 800, rng=5)
    lattice = CubeLattice.from_estimator(
        schema, exact_sizes_from_rows(schema, fact.columns)
    )
    catalog = Catalog(fact)
    for view in lattice.views():
        catalog.materialize(view)
    for index in enumerate_fat_indexes(View.of("a", "b", "c")):
        catalog.build_index(index)
    catalog.build_index(Index(View.of("a", "b"), ("a", "b")))
    executor = Executor(catalog, cost_model=LinearCostModel(lattice))
    return schema, fact, lattice, catalog, executor


def brute_force(fact, query, values):
    """Reference evaluation straight off the fact table."""
    mask = np.ones(fact.n_rows, dtype=bool)
    for attr, val in values.items():
        mask &= fact.column(attr) == val
    groups = {}
    gb = sorted(query.groupby, key=lambda a: fact.schema.names.index(a))
    for row in np.flatnonzero(mask):
        key = tuple(int(fact.column(a)[row]) for a in gb)
        groups[key] = groups.get(key, 0.0) + float(fact.measures[row])
    return groups


class TestCorrectness:
    @pytest.mark.parametrize(
        "groupby,selection",
        [
            (("a",), ("b",)),
            (("b",), ("a",)),
            ((), ("a", "b")),
            (("a", "b"), ("c",)),
            (("c",), ("a", "b")),
            ((), ("a", "b", "c")),
        ],
    )
    def test_results_match_brute_force(self, setup, groupby, selection):
        schema, fact, lattice, catalog, executor = setup
        query = SliceQuery(groupby=groupby, selection=selection)
        rng = np.random.default_rng(0)
        for __ in range(5):
            row = int(rng.integers(0, fact.n_rows))
            values = {a: int(fact.column(a)[row]) for a in selection}
            result = executor.execute(query, values)
            expected = brute_force(fact, query, values)
            assert set(result.groups) == set(expected)
            for key in expected:
                assert result.groups[key] == pytest.approx(expected[key])

    def test_subcube_query_full_scan(self, setup):
        __, fact, lattice, catalog, executor = setup
        query = SliceQuery(groupby=("a",))
        result = executor.execute(query, {})
        assert result.rows_processed == lattice.size(View.of("a"))
        assert len(result.groups) == lattice.size(View.of("a"))

    def test_missing_selection_values_rejected(self, setup):
        *__, executor = setup
        query = SliceQuery(groupby=("a",), selection=("b",))
        with pytest.raises(ValueError, match="missing selection values"):
            executor.execute(query, {})

    def test_plan_view_must_answer(self, setup):
        *__, executor = setup
        query = SliceQuery(groupby=("a",), selection=("b",))
        with pytest.raises(ValueError, match="cannot answer"):
            executor.execute(query, {"b": 0}, plan=(View.of("a"), None))

    def test_plan_index_must_match_view(self, setup):
        *__, executor = setup
        query = SliceQuery(groupby=("a",), selection=("b",))
        idx = Index(View.of("a", "b"), ("b", "a"))
        with pytest.raises(ValueError, match="not on view"):
            executor.execute(query, {"b": 0}, plan=(View.of("a", "b", "c"), idx))


class TestRowsProcessed:
    def test_scan_plan_counts_whole_view(self, setup):
        __, fact, lattice, catalog, executor = setup
        query = SliceQuery(groupby=("a",), selection=("b",))
        view = View.of("a", "b")
        result = executor.execute(query, {"b": 1}, plan=(view, None))
        assert result.rows_processed == lattice.size(view)

    def test_index_plan_counts_only_matching_prefix(self, setup):
        __, fact, lattice, catalog, executor = setup
        view = View.of("a", "b")
        idx = Index(view, ("a", "b"))
        query = SliceQuery(groupby=("b",), selection=("a",))
        table = catalog.view_table(view)
        value = int(table.key_columns["a"][0])
        result = executor.execute(query, {"a": value}, plan=(view, idx))
        expected = int((table.key_columns["a"] == value).sum())
        assert result.rows_processed == expected

    def test_index_with_no_usable_prefix_falls_back_to_scan(self, setup):
        __, fact, lattice, catalog, executor = setup
        view = View.of("a", "b")
        idx = Index(view, ("a", "b"))
        query = SliceQuery(groupby=("a",), selection=("b",))  # b is not a prefix
        result = executor.execute(query, {"b": 0}, plan=(view, idx))
        assert result.rows_processed == lattice.size(view)

    def test_same_answer_via_index_and_scan(self, setup):
        __, fact, lattice, catalog, executor = setup
        view = View.of("a", "b", "c")
        idx = Index(view, ("a", "b", "c"))
        query = SliceQuery(groupby=("c",), selection=("a", "b"))
        values = {"a": int(fact.column("a")[0]), "b": int(fact.column("b")[0])}
        via_index = executor.execute(query, values, plan=(view, idx))
        via_scan = executor.execute(query, values, plan=(view, None))
        assert via_index.groups.keys() == via_scan.groups.keys()
        for key in via_scan.groups:
            assert via_index.groups[key] == pytest.approx(via_scan.groups[key])
        assert via_index.rows_processed <= via_scan.rows_processed


class TestPlanning:
    def test_chooses_cheapest_plan(self, setup):
        __, fact, lattice, catalog, executor = setup
        query = SliceQuery(groupby=("b",), selection=("a",))
        view, index = executor.choose_plan(query)
        # ab with the ab-index beats any scan
        assert view == View.of("a", "b")
        assert index == Index(View.of("a", "b"), ("a", "b"))

    def test_subcube_query_prefers_smallest_view(self, setup):
        *__, executor = setup
        view, index = executor.choose_plan(SliceQuery(groupby=("a",)))
        assert view == View.of("a")
        assert index is None

    def test_no_plan_raises(self):
        schema = CubeSchema([Dimension("a", 4)])
        fact = generate_fact_table(schema, 10, rng=0)
        executor = Executor(Catalog(fact))
        with pytest.raises(LookupError):
            executor.choose_plan(SliceQuery(groupby=("a",)))

    def test_planning_without_cost_model_uses_statistics(self, setup):
        schema, fact, lattice, catalog, __ = setup
        executor = Executor(catalog)  # no cost model: actual statistics
        query = SliceQuery(groupby=("b",), selection=("a",))
        view, index = executor.choose_plan(query)
        assert index is not None
        assert index.usable_prefix(query)


class TestExplain:
    def test_head_matches_choose_plan(self, setup):
        *__, executor = setup
        query = SliceQuery(groupby=("b",), selection=("a",))
        choices = executor.explain(query)
        view, index = executor.choose_plan(query)
        assert choices[0].view == view
        assert choices[0].index == index

    def test_sorted_by_cost(self, setup):
        *__, executor = setup
        choices = executor.explain(SliceQuery(groupby=("b",), selection=("a",)))
        costs = [c.estimated_cost for c in choices]
        assert costs == sorted(costs)

    def test_includes_scan_and_index_alternatives(self, setup):
        *__, executor = setup
        choices = executor.explain(SliceQuery(groupby=("c",), selection=("a", "b")))
        kinds = {c.index is None for c in choices}
        assert kinds == {True, False}

    def test_usable_prefix_recorded(self, setup):
        *__, executor = setup
        query = SliceQuery(groupby=("c",), selection=("a", "b"))
        for choice in executor.explain(query):
            if choice.index is not None:
                assert choice.usable_prefix == choice.index.usable_prefix(query)

    def test_str_rendering(self, setup):
        *__, executor = setup
        choices = executor.explain(SliceQuery(groupby=("b",), selection=("a",)))
        assert "rows" in str(choices[0])

    def test_unanswerable_query_has_no_choices(self):
        schema = CubeSchema([Dimension("a", 4), Dimension("b", 4)])
        fact = generate_fact_table(schema, 20, rng=0)
        catalog = Catalog(fact)
        catalog.materialize(View.of("a"))
        executor = Executor(catalog)
        assert executor.explain(SliceQuery(groupby=("b",))) == []


class TestEstimatesAfterDelta:
    def test_distinct_counts_refreshed_by_delta(self):
        """Statistics-based estimates follow the fact table a maintenance
        delta installs: the distinct-prefix count cached before the
        delta must not price plans after it."""
        schema = CubeSchema([Dimension("a", 10), Dimension("b", 5)])
        fact = FactTable(
            schema,
            {"a": np.array([0, 0, 1, 1]), "b": np.array([0, 1, 0, 1])},
            np.ones(4),
        )
        catalog = Catalog(fact)
        view = View.of("a", "b")
        catalog.materialize(view)
        index = Index(view, ("a", "b"))
        catalog.build_index(index)
        executor = Executor(catalog)
        query = SliceQuery(groupby=("b",), selection=("a",))

        def index_cost(ex):
            (choice,) = [c for c in ex.explain(query) if c.index == index]
            return choice.estimated_cost

        assert index_cost(executor) == 2.0  # 4 rows / 2 distinct a
        apply_delta(
            catalog,
            {"a": np.arange(2, 8), "b": np.zeros(6, dtype=np.int64)},
            np.ones(6),
        )
        assert index_cost(Executor(catalog)) == 1.25  # 10 rows / 8 a
        assert index_cost(executor) == 1.25
