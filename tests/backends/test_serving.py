"""Serving through ``QueryServer(backend=...)``: SQLite answers, engine parity."""

import numpy as np
import pytest

from repro.backends import SqliteBackend
from repro.cube.query_log import generate_query_log
from repro.serve import QueryServer

from .conftest import build_bundle


def serve_all(server, entries):
    return [server.serve(entry) for entry in entries]


class TestBackendServing:
    @pytest.fixture(scope="class")
    def setup(self):
        bundle = build_bundle(3)
        entries = generate_query_log(
            bundle.fact.schema, 120, rng=np.random.default_rng(4)
        )
        golden = QueryServer(
            bundle.fact, bundle.selection, cost_model=bundle.model
        )
        backend = SqliteBackend()
        server = QueryServer(
            bundle.fact,
            bundle.selection,
            cost_model=bundle.model,
            backend=backend,
        )
        return bundle, entries, golden, server, backend

    def test_outcomes_match_engine_serving(self, setup):
        bundle, entries, golden, server, backend = setup
        for expected, got in zip(serve_all(golden, entries), serve_all(server, entries)):
            assert got.groups == expected.groups, str(expected.entry.query)
            assert got.actual_rows == expected.actual_rows
            assert got.structure == expected.structure
            assert got.fallback == expected.fallback
            assert not got.rescued

    def test_mirror_built_once_for_steady_batches(self, setup):
        bundle, entries, golden, server, backend = setup
        assert backend.reloads == 1  # first batch loaded it, then no-ops
        server.serve_batch(entries[:10])
        assert backend.reloads == 1

    def test_telemetry_cost_fidelity_survives_backend(self, setup):
        """SQLite-side rows_processed feeds the same exact-cost
        accounting the engine path reports on dense cubes."""
        bundle, entries, golden, server, backend = setup
        snap = server.telemetry_snapshot()
        assert snap["queries"] >= len(entries)
        assert snap["cost"]["exact_matches"] == snap["queries"]
        assert snap["cost"]["max_abs_error"] == 0.0


class TestBackendFallback:
    def test_unanswerable_queries_fall_back_and_match(self):
        """With only a 2-attr view materialized most queries raw-fall
        back; the SQLite fact table must answer them like the engine."""
        bundle = build_bundle(3)
        lattice = bundle.model.lattice
        small = min(
            (v for v in lattice.views() if len(v.attrs) == 2),
            key=lambda v: lattice.size(v),
        )
        selection = (lattice.label(small),)
        entries = generate_query_log(
            bundle.fact.schema, 80, rng=np.random.default_rng(9)
        )
        golden = QueryServer(bundle.fact, selection, cost_model=bundle.model)
        server = QueryServer(
            bundle.fact,
            selection,
            cost_model=bundle.model,
            backend=SqliteBackend(),
        )
        fallbacks = 0
        for expected, got in zip(serve_all(golden, entries), serve_all(server, entries)):
            assert got.groups == expected.groups
            assert got.fallback == expected.fallback
            fallbacks += got.fallback
        assert fallbacks > 0, "workload never exercised the raw fallback"


class TestBackendDeltaInvalidation:
    def test_apply_delta_rebuilds_mirror_and_refreshes_answers(self):
        bundle = build_bundle(3)
        backend = SqliteBackend()
        server = QueryServer(
            bundle.fact,
            bundle.selection,
            cost_model=bundle.model,
            backend=backend,
        )
        schema = bundle.fact.schema
        entries = generate_query_log(schema, 60, rng=np.random.default_rng(2))
        server.serve_batch(entries)
        assert backend.reloads == 1

        rng = np.random.default_rng(3)
        n_delta = 30
        delta_columns = {
            name: rng.integers(0, schema.cardinality(name), size=n_delta)
            for name in schema.names
        }
        delta_measures = rng.integers(1, 1000, size=n_delta).astype(np.float64)
        server.apply_delta(delta_columns, delta_measures)

        outcomes = serve_all(server, entries)
        assert backend.reloads == 1
        assert backend.delta_syncs == 1, "version bump did not sync the mirror"

        golden = QueryServer(
            server.fact, bundle.selection, cost_model=bundle.model
        )
        for expected, got in zip(serve_all(golden, entries), outcomes):
            assert got.groups == expected.groups, str(expected.entry.query)
            assert got.actual_rows == expected.actual_rows
