"""Self-tests of the benchmark's own helpers.

    python3 -m pytest olapbench -q
"""

import itertools
import json

import numpy as np
import pytest

import oracle
import run
import stats
import tracing
import workloads
from repro.core.query import SliceQuery
from repro.cube.query_log import LogEntry
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.table import FactTable


@pytest.fixture
def fact():
    schema = CubeSchema([Dimension("a", 3), Dimension("b", 4), Dimension("c", 5)])
    rng = np.random.default_rng(0)
    columns = {d.name: rng.integers(0, d.cardinality, 200) for d in schema}
    return FactTable(schema, columns, rng.integers(1, 100, 200).astype(float))


def brute_group_by(fact, query, bound):
    out = {}
    names = fact.schema.names
    for row in range(fact.n_rows):
        values = {a: int(fact.columns[a][row]) for a in names}
        if all(values[a] == v for a, v in bound.items()):
            key = tuple(values[a] for a in names if a in query.groupby)
            out[key] = out.get(key, 0.0) + float(fact.measures[row])
    return out


def all_concrete_queries(fact):
    names = fact.schema.names
    for groupby_mask, selection_mask in itertools.product(range(8), range(8)):
        if groupby_mask & selection_mask:
            continue
        groupby = [a for i, a in enumerate(names) if groupby_mask >> i & 1]
        selection = [a for i, a in enumerate(names) if selection_mask >> i & 1]
        yield SliceQuery(groupby, selection), {a: 1 for a in selection}


def test_group_by_matches_a_row_loop(fact):
    for query, bound in all_concrete_queries(fact):
        assert oracle.group_by(fact, query, bound) == brute_group_by(fact, query, bound)


def test_group_by_of_an_empty_slice_has_no_groups(fact):
    query = SliceQuery((), ("a",))
    assert oracle.group_by(fact, query, {"a": 7}) == {}


def test_oracle_rejects_a_perturbed_sum_and_a_missing_group(fact):
    query = SliceQuery(("a", "b"), ())
    entry = LogEntry(query=query, values=())
    right = oracle.group_by(fact, query, {})
    check = own_oracle(fact)
    assert check.check(entry, dict(right))

    perturbed = dict(right)
    key = next(iter(perturbed))
    perturbed[key] += 1.0
    assert not check.check(entry, perturbed)
    assert "differ" in check.problems[-1]

    missing = dict(right)
    del missing[key]
    assert not check.check(entry, missing)
    assert "1 groups missing" in check.problems[-1]
    assert check.checked == 3


def own_oracle(fact):
    return oracle.AnswerOracle(oracle.Facts(fact.schema, fact.columns, fact.measures))


def test_oracle_recomputes_after_a_delta(fact):
    query = SliceQuery(("a",), ())
    entry = LogEntry(query=query, values=())
    check = own_oracle(fact)
    before = oracle.group_by(fact, query, {})
    assert check.check(entry, before)
    check.append({a: np.array([0]) for a in fact.schema.names}, np.array([5.0]))
    # the old answer is now wrong: the delta adds 5 to group (0,)
    assert not check.check(entry, before)
    assert check.check(entry, {**before, (0,): before[(0,)] + 5.0})


def test_oracle_memo_stays_within_its_group_limit(fact, monkeypatch):
    monkeypatch.setattr(oracle.AnswerOracle, "MEMO_GROUPS", 30)
    check = own_oracle(fact)
    for query, bound in all_concrete_queries(fact):
        entry = LogEntry(query=query, values=tuple(sorted(bound.items())))
        answer = oracle.group_by(fact, query, bound)
        assert check.check(entry, answer)
        # the memo starts over rather than pass the limit, unless one
        # answer alone is larger
        assert sum(map(len, check._memo.values())) <= max(30, len(answer))
    assert check._memo_groups == sum(map(len, check._memo.values()))


@pytest.mark.parametrize(
    "n, label, above",
    [(1000, "p99", 10), (999, "p90", 99), (100, "p90", 10), (99, "p50", 49)],
)
def test_tail_picks_the_highest_percentile_with_ten_samples_above(n, label, above):
    samples = [float(i) for i in range(n)]
    value, got_label, got_above = stats.tail(samples)
    assert (got_label, got_above) == (label, above)
    assert sum(s > value for s in samples) == above


def test_percentile_is_nearest_rank():
    assert stats.percentile([3.0, 1.0, 2.0, 4.0], 0.5) == 2.0
    assert stats.percentile([5.0], 0.99) == 5.0


def test_spread_uses_statistics_quantiles():
    s = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["q1"], s["median"], s["q3"]) == (1.5, 3.0, 4.5)
    assert s["spread"] == 1.0


def span(id, parent, start, end, name="x"):
    return tracing.Span(id=id, name=name, parent=parent, start=start, end=end)


def test_self_time_subtracts_exactly_the_time_children_cover():
    spans = [
        span(0, None, 0.0, 10.0, "parent"),
        span(1, 0, 1.0, 3.0, "child"),
        span(2, 0, 2.0, 5.0, "child"),  # overlaps its sibling: [1, 5] once
        span(3, 0, 7.0, 8.0, "child"),
        span(4, 3, 7.25, 7.75, "grandchild"),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 3.0, 3: 0.5, 4: 0.5}
    summary = tracing.layer_summary(spans)
    assert summary["child"] == {"count": 3, "total_s": 6.0, "self_s": 5.5}


def test_tracer_nests_spans_and_exports_chrome_events():
    tracer = tracing.Tracer()
    with tracer.span("outer", k=1):
        with tracer.span("inner") as inner:
            inner.attrs["rows"] = 3
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, outer.id)
    assert outer.start <= inner.start <= inner.end <= outer.end
    doc = json.loads(json.dumps(tracing.chrome_trace(tracer.spans)))
    events = doc["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[1]["args"] == {"id": 1, "parent": 0, "rows": 3}
    assert events[0]["ts"] == 0.0 and events[0]["dur"] >= events[1]["dur"]


def test_null_tracer_records_nothing():
    with tracing.NULL_TRACER.span("x") as record:
        assert record is None
    assert not tracing.NULL_TRACER.spans


def test_selection_oracle_agrees_with_the_engine_and_catches_a_wrong_tau():
    from repro.algorithms.rgreedy import RGreedy
    from repro.core.benefit import BenefitEngine
    from repro.core.query import enumerate_slice_queries
    from repro.core.qvgraph import QueryViewGraph
    from repro.cube.workload import zipf_frequencies
    from repro.estimation.sizes import analytical_lattice

    schema = CubeSchema([Dimension("a", 4), Dimension("b", 6), Dimension("c", 8)])
    lattice = analytical_lattice(schema, 0.1 * schema.dense_cells)
    freqs = zipf_frequencies(list(enumerate_slice_queries(schema.names)), rng=1)
    graph = QueryViewGraph.from_cube(lattice, frequencies=freqs)
    budget = workloads.budget_for(lattice, graph)
    result = RGreedy(2).run(BenefitEngine(graph), budget)
    check = oracle.SelectionOracle(lattice)
    assert check.problems(result, freqs, budget) == []

    from dataclasses import replace

    assert "tau" in check.problems(replace(result, tau=result.tau * 1.01), freqs, budget)[0]
    assert "exceeds budget" in check.problems(result, freqs, result.space_used / 2)[0]


def test_a_wrong_answer_fails_the_run(monkeypatch, capsys):
    from repro.serve import QueryServer

    original = QueryServer.serve

    def wrong_once(self, entry):
        outcome = original(self, entry)
        if not getattr(self, "_corrupted", False) and outcome.groups:
            self._corrupted = True
            groups = dict(outcome.groups)
            key = next(iter(groups))
            groups[key] += 1.0
            outcome.groups = groups
        return outcome

    monkeypatch.setattr(QueryServer, "serve", wrong_once)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    code = run.main(["--workload", "serve-read", "--seed", "3", "--seconds", "0.5"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert line["correct"] is False and line["failed"] == 1
    assert line["attempted"] > 1


def test_host_speed_scales_timings_to_the_reference_loop():
    import hostspeed

    speed = hostspeed.HostSpeed()
    try:
        speed.sample(3)
        assert len(speed.samples) == 3 and all(s > 0 for s in speed.samples)
        speed.samples[:] = [hostspeed.REFERENCE_S * 2] * 3
        assert speed.scale == 0.5  # a host at half speed halves timings
        speed.maybe_sample()  # the last sample was just taken: no new one
        assert len(speed.samples) == 3
    finally:
        speed.close()


def test_host_speed_skips_samples_while_another_thread_is_alive(monkeypatch):
    import threading

    import hostspeed

    monkeypatch.setattr(hostspeed, "SAMPLE_EVERY_S", 0.0)
    speed = hostspeed.HostSpeed()
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        speed.maybe_sample()
        assert (len(speed.samples), speed.skipped) == (0, 1)
    finally:
        stop.set()
        other.join()
    speed.maybe_sample()
    assert (len(speed.samples), speed.skipped) == (1, 1)
    speed.close()


def test_a_dropped_delta_row_fails_the_run(monkeypatch, capsys):
    from repro.serve import QueryServer

    original = QueryServer.apply_delta

    def drop_last_row(self, columns, measures):
        return original(self, {a: v[:-1] for a, v in columns.items()}, measures[:-1])

    monkeypatch.setattr(QueryServer, "apply_delta", drop_last_row)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    code = run.main(["--workload", "serve-write", "--seed", "3", "--seconds", "0.1"])
    out = capsys.readouterr().out
    line = json.loads(out.strip().splitlines()[-1])
    assert code == 1 and line["correct"] is False
    assert "fact rows" in out
