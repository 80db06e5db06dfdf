"""The maintained singles over the live-edge store, bit for bit.

After the first full pass, :class:`~repro.core.benefit.BenefitEngine`
re-scores stale rows over a :class:`~repro.core.benefit.LiveEdges` copy
of the CSR rows that keeps only edges whose contribution is positive.
On random small graphs, both cost stores, and a random sequence of
admissible commits interleaved with ``reset``, ``snapshot``/``restore``
and ``invalidate``, every commit must leave:

* the maintained singles ``np.array_equal`` to a from-scratch
  ``_eager_singles_sparse(None)``;
* the store holding fewer edges than the graph, every positive edge
  among them (in CSR order, with its cost), and less than
  :data:`~repro.core.benefit.SHED_FRACTION` of it dead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.benefit import SHED_FRACTION, BenefitEngine
from repro.core.qvgraph import QueryViewGraph


def random_graph(rng) -> QueryViewGraph:
    """Costs of mixed magnitude (float sums are then order-sensitive),
    frequencies that include zeros, and at least one edge that costs
    more than its query's default (so it is dead from the start)."""
    g = QueryViewGraph()
    structures = []
    for v in range(int(rng.integers(1, 6))):
        view = f"v{v}"
        g.add_view(view, float(rng.uniform(1.0, 20.0)))
        structures.append(view)
        for i in range(int(rng.integers(0, 5))):
            index = f"i{v}.{i}"
            g.add_index(view, index, float(rng.uniform(1.0, 20.0)))
            structures.append(index)
    g.add_view("never", 1.0)
    for q in range(int(rng.integers(2, 30))):
        default = float(rng.uniform(1.0, 10.0) * 10.0 ** rng.integers(0, 4))
        frequency = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.01, 10.0))
        g.add_query(f"q{q}", default, frequency=frequency)
        for s in structures:
            if rng.random() < 0.5:
                g.add_edge(f"q{q}", s, default * float(rng.uniform(0.001, 1.0)))
        if q == 0:
            g.add_edge("q0", "never", 2.0 * default)
    return g


def admissible_commit(rng, engine: BenefitEngine):
    """A random non-empty admissible set of unselected structures, or
    ``None`` when everything is selected."""
    selected = engine.selected_mask
    open_ids = np.flatnonzero(~selected)
    if open_ids.size == 0:
        return None
    sid = int(rng.choice(open_ids))
    view = int(engine.view_id_of[sid])
    ids = {sid} if selected[view] else {sid, view}
    if engine.is_view[sid]:
        extra = [int(i) for i in engine.index_ids_of(sid) if rng.random() < 0.3]
        ids.update(extra)
    return sorted(ids)


def check_store(engine: BenefitEngine) -> None:
    """The live store against the full CSR rows and the current best."""
    live = engine._live
    n_q = engine.n_queries
    row_ptr, row_cols, row_vals = engine._row_ptr, engine._row_cols, engine._row_vals
    full_rows = np.repeat(np.arange(engine.n_structures), np.diff(row_ptr))
    full_keys = full_rows * n_q + row_cols
    live_rows = np.repeat(np.arange(engine.n_structures), np.diff(live.ptr))
    live_keys = live_rows * n_q + live.cols
    # a subsequence of the CSR store, in its order, costs included
    assert np.all(np.diff(live_keys) > 0)
    at = np.searchsorted(full_keys, live_keys)
    assert np.array_equal(full_keys[at], live_keys)
    assert np.array_equal(row_vals[at], live.vals)
    # no edge that still contributes has been shed
    best = engine.best_costs
    freq = engine.frequencies
    full_contrib = np.maximum(best[row_cols] - row_vals, 0.0) * freq[row_cols]
    assert np.isin(full_keys[full_contrib > 0.0], live_keys).all()
    # and it was compacted once a quarter of it died
    live_contrib = np.maximum(best[live.cols] - live.vals, 0.0) * freq[live.cols]
    dead = int(np.count_nonzero(live_contrib == 0.0))
    assert dead == 0 or dead < SHED_FRACTION * live.cols.size
    assert live.cols.size < engine.nnz


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 25))
def test_live_singles_equal_full_recompute(backend, seed, n_ops):
    rng = np.random.default_rng(seed)
    engine = BenefitEngine(random_graph(rng), backend=backend)
    snapshot = None
    for _ in range(n_ops):
        action = rng.choice(
            ["commit"] * 6 + ["reset", "snapshot", "restore", "invalidate", "drop"]
        )
        if action == "reset":
            engine.reset()
        elif action == "snapshot":
            snapshot = engine.snapshot()
        elif action == "restore" and snapshot is not None:
            engine.restore(snapshot)
        elif action == "invalidate":
            ids = rng.choice(engine.n_structures, size=int(rng.integers(1, 4)))
            engine.invalidate(ids.tolist())
        elif action == "drop":
            engine.invalidate()
        elif action == "commit":
            ids = admissible_commit(rng, engine)
            if ids is None:
                continue
            engine.single_benefits(lazy=True)  # what a stage loop reads
            engine.commit(ids)
            assert engine._singles_fresh
            expected = engine._eager_singles_sparse(None)
            assert np.array_equal(engine.single_benefits(lazy=True), expected)
            check_store(engine)


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_family_epochs(backend):
    rng = np.random.default_rng(5)
    engine = BenefitEngine(random_graph(rng), backend=backend)
    views = engine.view_ids()
    before = {int(v): engine.family_epoch(int(v)) for v in views}
    engine.single_benefits(lazy=True)
    old_best = engine.best_costs
    engine.commit([int(views[0])])
    stale = engine.stale_structures_after(old_best)
    touched = set(engine.view_id_of[stale].tolist())
    assert touched and len(touched) < len(views)
    for v in views:
        moved = engine.family_epoch(int(v)) != before[int(v)]
        assert moved == (int(v) in touched)
    # a change the engine cannot trace row by row moves every family
    for change in (engine.reset, engine.invalidate):
        epochs = [engine.family_epoch(int(v)) for v in views]
        change()
        assert all(
            engine.family_epoch(int(v)) > e for v, e in zip(views, epochs)
        )
    assert engine._live is None
