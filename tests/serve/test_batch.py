"""Batched execution: byte-identical to per-query serial execution.

The acceptance bar for the batched path is *bit-for-bit* equality with
the engine executor on every slice-query pattern of the d=4 and d=5
fixtures — same groups (float accumulation order preserved), same rows
processed, same predictions — plus the structural properties batching
adds: in-batch deduplication and plan memoization.
"""

import numpy as np
import pytest

from repro.core.costmodel import LinearCostModel
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.table import FactTable
from repro.core.query import enumerate_slice_queries
from repro.cube.query_log import LogEntry, generate_query_log
from repro.serve import DEFAULT_BATCH_SIZE, QueryServer, RAW_LABEL
from repro.serve.batch import plan_for

from tests.serve.test_server import advise_selection, all_pattern_entries


class TestByteIdentity:
    """serve_batch answers == Executor.execute answers, exactly."""

    def _assert_identical(self, fact, schema, model):
        selection = advise_selection(model.lattice)
        server = QueryServer(fact, selection, cost_model=model)
        entries = all_pattern_entries(schema, per_pattern=2)
        outcomes = server.serve_batch(entries)
        executor = server.state.executor
        for entry, outcome in zip(entries, outcomes):
            view, index, predicted = executor.plan_with_cost(entry.query)
            reference = executor.execute(
                entry.query, entry.bound_values, plan=(view, index)
            )
            # == on floats: byte-identity, not approximate equality
            assert outcome.groups == reference.groups, str(entry.query)
            assert outcome.actual_rows == reference.rows_processed
            assert outcome.predicted_rows == predicted
            assert not outcome.fallback

    def test_d4_batch_matches_executor(
        self, serve_fact4, serve_schema4, serve_model4
    ):
        self._assert_identical(serve_fact4, serve_schema4, serve_model4)

    def test_d5_batch_matches_executor(
        self, serve_fact5, serve_schema5, serve_model5
    ):
        self._assert_identical(serve_fact5, serve_schema5, serve_model5)

    def test_prefix_plan_with_residual_and_extra_measures(self, serve_fact4):
        """Index plans whose prefix leaves a residual selection attribute,
        on a fact table with a non-default primary measure plus extra
        measures: the batch range + mask + grouped sum aggregates the
        primary measure exactly as the executor's per-row loop does."""
        rng = np.random.default_rng(11)
        schema = CubeSchema(
            [Dimension(n, serve_fact4.schema.cardinality(n))
             for n in serve_fact4.schema.names],
            measure="revenue",
        )
        fact = FactTable(
            schema,
            serve_fact4.columns,
            serve_fact4.measures,
            extra_measures={
                "quantity": rng.uniform(0, 50, size=serve_fact4.n_rows)
            },
        )
        model = LinearCostModel.from_fact(fact)
        server = QueryServer(
            fact, ["pscd", "I_sp(pscd)", "I_cd(pscd)"], cost_model=model
        )
        executor = server.state.executor
        entries = [
            e
            for e in all_pattern_entries(schema, per_pattern=3, rng=5)
            if len(e.query.selection) >= 2
        ]
        outcomes = server.serve_batch(entries)
        residual_prefix_plans = 0
        for entry, outcome in zip(entries, outcomes):
            view, index, __ = executor.plan_with_cost(entry.query)
            prefix = index.usable_prefix(entry.query) if index else ()
            if prefix and entry.query.selection - set(prefix):
                residual_prefix_plans += 1
            reference = executor.execute(
                entry.query, entry.bound_values, plan=(view, index)
            )
            assert outcome.groups == reference.groups, str(entry.query)
            assert outcome.actual_rows == reference.rows_processed
            quantity = executor.execute(
                entry.query, entry.bound_values, plan=(view, index),
                measure="quantity",
            )
            if reference.groups:
                assert outcome.groups != quantity.groups
        assert residual_prefix_plans > 0

    def test_raw_fallback_matches_serial(self, serve_fact4, serve_model4):
        """The vectorized raw path reproduces the raw-scan outcome the
        unbatched server reported (ungrouped sums use the same pairwise
        summation)."""
        server = QueryServer(serve_fact4, ["none"], cost_model=serve_model4)
        entries = [
            e
            for e in all_pattern_entries(serve_fact4.schema, per_pattern=1, rng=7)
            if e.query.view.attrs  # γ()σ() is answerable by the none view
        ]
        outcomes = server.serve_batch(entries)
        for entry, outcome in zip(entries, outcomes):
            assert outcome.fallback
            assert outcome.structure == RAW_LABEL
            assert outcome.actual_rows == serve_fact4.n_rows
            single = QueryServer(
                serve_fact4, ["none"], cost_model=serve_model4
            ).serve(entry)
            assert outcome.groups == single.groups

    def test_batch_of_one_equals_serve(self, serve_fact4, serve_model4):
        selection = advise_selection(serve_model4.lattice)
        server = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        entry = all_pattern_entries(serve_fact4.schema, per_pattern=1)[5]
        a = server.serve(entry)
        [b] = server.serve_batch([entry])
        assert a.groups == b.groups
        assert a.structure == b.structure
        assert a.actual_rows == b.actual_rows


class TestDeduplication:
    def test_duplicate_queries_execute_once(self, serve_fact4, serve_model4):
        """Identical concrete queries in one batch collapse to a single
        execution but still produce one outcome (and one telemetry
        record) each."""
        selection = advise_selection(serve_model4.lattice)
        server = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        entry = all_pattern_entries(serve_fact4.schema, per_pattern=1)[3]
        outcomes = server.serve_batch([entry] * 5)
        assert len(outcomes) == 5
        assert len({id(o.groups) for o in outcomes}) == 1  # shared result
        assert server.telemetry.queries == 5

    def test_dedup_does_not_conflate_different_values(
        self, serve_fact4, serve_schema4, serve_model4
    ):
        """Same pattern, different bindings: distinct executions."""
        query = next(
            q
            for q in enumerate_slice_queries(serve_schema4.names)
            if q.selection and q.groupby
        )
        attr = next(iter(query.selection))
        a = LogEntry(query=query, values=((attr, 0),))
        b = LogEntry(query=query, values=((attr, 1),))
        server = QueryServer(
            serve_fact4,
            advise_selection(serve_model4.lattice),
            cost_model=serve_model4,
        )
        oa, ob = server.serve_batch([a, b])
        assert oa.groups != ob.groups or oa.actual_rows != ob.actual_rows


class TestPlanMemoization:
    def test_plans_cached_per_pattern(self, serve_fact4, serve_model4):
        selection = advise_selection(serve_model4.lattice)
        server = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        entries = all_pattern_entries(serve_fact4.schema, per_pattern=2)
        assert not server.state.plan_cache
        server.serve_batch(entries)
        patterns = {e.query for e in entries}
        assert set(server.state.plan_cache) == patterns
        # memoized plan is the router's plan
        for entry in entries:
            info = plan_for(server.state, server.cost_model, entry.query)
            assert info is server.state.plan_cache[entry.query]

    def test_swap_resets_plan_cache(self, serve_fact4, serve_model4):
        server = QueryServer(
            serve_fact4,
            advise_selection(serve_model4.lattice),
            cost_model=serve_model4,
        )
        server.serve_batch(all_pattern_entries(serve_fact4.schema, 1))
        assert server.state.plan_cache
        server._swap(("pscd",), {})
        assert not server.state.plan_cache


class TestReplayParity:
    """repro replay and live serving share one execution path: replayed
    telemetry counters match the live session's exactly."""

    def test_replay_matches_live_serving(
        self, serve_fact4, serve_schema4, serve_model4
    ):
        selection = advise_selection(serve_model4.lattice)
        log = generate_query_log(serve_schema4, 120, rng=11)
        live = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        for entry in log:  # a live session: queries arrive one by one
            live.serve(entry)
        replayed = QueryServer(serve_fact4, selection, cost_model=serve_model4)
        report = replayed.replay(log)
        assert report.batch_size == DEFAULT_BATCH_SIZE
        a, b = live.telemetry_snapshot(), replayed.telemetry_snapshot()
        assert a["queries"] == b["queries"] == 120
        assert a["hits"] == b["hits"]
        assert a["fallbacks"] == b["fallbacks"]
        assert a["cost"]["predicted_rows"] == b["cost"]["predicted_rows"]
        assert a["cost"]["actual_rows"] == b["cost"]["actual_rows"]
        assert a["cost"]["exact_matches"] == b["cost"]["exact_matches"]
        # identical per-query records, in the same order
        strip = lambda recs: [dict(r) for r in recs]
        assert strip(a["records"]) == strip(b["records"])

    def test_replay_batch_size_does_not_change_counters(
        self, serve_fact4, serve_schema4, serve_model4
    ):
        selection = advise_selection(serve_model4.lattice)
        log = generate_query_log(serve_schema4, 90, rng=13)
        snapshots = []
        for size in (1, 7, 64):
            server = QueryServer(
                serve_fact4, selection, cost_model=serve_model4
            )
            report = server.replay(log, batch_size=size)
            assert report.batch_size == size
            snap = server.telemetry_snapshot()
            snapshots.append(
                (snap["hits"], snap["cost"]["actual_rows"], snap["queries"])
            )
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_replay_rejects_bad_batch_size(self, serve_fact4, serve_model4):
        server = QueryServer(serve_fact4, ["pscd"], cost_model=serve_model4)
        with pytest.raises(ValueError, match="batch_size"):
            server.replay([], batch_size=0)


class TestGroupedSumsWideKeys:
    def test_key_space_beyond_bincount_matches_serial_loop(self):
        from repro.serve.batch import MAX_CODED_KEY_SPACE, _grouped_sums

        rng = np.random.default_rng(3)
        columns = [rng.integers(0, 2000, 400), rng.integers(0, 2000, 400)]
        assert 2000 * 2000 > MAX_CODED_KEY_SPACE
        values = rng.random(400)
        expected = {}
        for a, b, value in zip(*columns, values):
            key = (int(a), int(b))
            expected[key] = expected.get(key, 0.0) + value
        got = _grouped_sums(columns, values)
        assert got == expected
        assert list(got) == sorted(expected)
