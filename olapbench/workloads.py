"""The benchmark's workloads.

Each workload is one closed-loop client on one thread: it makes a call
into the library, waits for the answer, checks it against the oracle
(outside the timed region) and makes the next, until ``seconds`` of
wall time have passed.  Only calls into the library's public functions
are timed, from here; the library itself carries no instrumentation.

``advise-full``
    The paper's advisor alone: ``QueryViewGraph.from_cube`` on the
    analytical d=6 cube, the benefit engine, then 1-greedy, 2-greedy and
    inner-level greedy under a space budget.  No fact table, execution
    or cache.
``serve-read``
    An interactive reader: a sparse d=6 fact table, a mined and advised
    selection served by ``QueryServer`` on the row engine with the
    default result cache, one ``serve()`` per query.
``serve-write``
    The same set-up served through the SQLite backend, reads in
    ``serve_batch`` calls of 64 and one 1% fact delta before every 8th
    batch, each write synced to the mirror before the next read.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from hostspeed import HostSpeed
from oracle import AnswerOracle, Facts, SelectionOracle
from stats import median, tail
from tracing import NULL_TRACER

# ---------------------------------------------------------------- shapes

#: Dimensions of every workload's cube.
N_DIMS = 6
#: Zipf exponent of the query-pattern popularity.
ZIPF_EXPONENT = 1.0
#: advise-full: the budget is the top view plus this share of the rest.
ADVISE_SPACE_SHARE = 0.25
#: serve-*: fact rows, training-log entries, budget in top-view sizes.
FACT_ROWS = 20_000
TRAINING_ENTRIES = 5_000
SERVE_BUDGET_TOPS = 3.0
#: The popularity ranking of the 3^6 query patterns, and on serve-* the
#: training log mined from it, are part of each workload's definition:
#: they are drawn from this fixed seed.  Across rankings the advised
#: cost moves by a third and the read rate by half, which would bury
#: any change a commit makes.
WORKLOAD_SEED = 1997
#: advise-full: ``--seed`` draws this many observed queries from the
#: ranking; the frequencies are their counts, plus one so that every
#: query keeps a weight.
ADVISE_OBSERVED = 100_000
#: serve-write: reads per ``serve_batch``, batches per write, delta size.
BATCH_SIZE = 64
WRITE_EVERY = 8
DELTA_SHARE = 0.01
#: Set-ups per untraced serve run; ``setup_s`` is their median.  The
#: advise-full set-up takes milliseconds, so it is repeated before
#: every advise pass instead.
SETUP_REPEATS = 3
ADVISE_SETUPS_PER_PASS = 3
#: Reference-loop samples (see :mod:`hostspeed`) before each advise
#: pass, before each serve set-up, and after the serve phase: as many as
#: before the untraced set-ups, so both ends of the run weigh alike.  The
#: serve phase also samples every half second between calls.
PASS_REFERENCE_SAMPLES = 5
SETUP_REFERENCE_SAMPLES = 3
END_REFERENCE_SAMPLES = SETUP_REFERENCE_SAMPLES * SETUP_REPEATS


@dataclass
class Result:
    """What one workload run measured and checked."""

    #: End-to-end metrics but ``peak_rss_mb``, by the names
    #: ``BENCHMARK.json`` gives them; timings at reference host speed.
    metrics: Dict[str, float]
    #: Every metric the workload defines, for the human-readable report:
    #: ``(name, value, unit, note)``.
    report: List[Tuple[str, float, str, str]]
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    #: Reference-loop times, seconds (see :mod:`hostspeed`).
    reference_s: List[float] = field(default_factory=list)
    #: Reference-loop samples left out because another thread was alive.
    reference_skipped: int = 0


def cube_schema(first_cardinality: int):
    """d=6 schema ``a..f`` with cardinalities ``c, c+2, ..., c+10``."""
    from repro.cube.schema import CubeSchema, Dimension

    return CubeSchema(
        [
            Dimension(chr(ord("a") + i), first_cardinality + 2 * i)
            for i in range(N_DIMS)
        ]
    )


# ----------------------------------------------------------- advise-full


def advise_full(seed: int, seconds: float, tracer) -> Result:
    from repro.algorithms.base import FIT_STRICT
    from repro.algorithms.inner_level import InnerLevelGreedy
    from repro.algorithms.rgreedy import RGreedy
    from repro.core.benefit import BenefitEngine
    from repro.core.query import enumerate_slice_queries
    from repro.core.qvgraph import QueryViewGraph
    from repro.cube.workload import zipf_frequencies
    from repro.estimation.sizes import analytical_lattice

    def setup():
        schema = cube_schema(4)
        lattice = analytical_lattice(schema, 0.1 * schema.dense_cells)
        queries = list(enumerate_slice_queries(schema.names))
        ranking = zipf_frequencies(
            queries, ZIPF_EXPONENT, rng=np.random.default_rng(WORKLOAD_SEED)
        )
        counts = np.random.default_rng(seed).multinomial(
            ADVISE_OBSERVED, [ranking[q] for q in queries]
        )
        weights = (counts + 1) / (ADVISE_OBSERVED + len(queries))
        return lattice, dict(zip(queries, weights.tolist()))

    setup_times = []

    def timed_setup():
        with tracer.span("setup"):
            start = time.perf_counter()
            out = setup()
            setup_times.append(time.perf_counter() - start)
        return out

    lattice, frequencies = timed_setup()
    algorithms = (
        ("rgreedy1", RGreedy(1)),
        ("rgreedy2", RGreedy(2)),
        ("inner_level", InnerLevelGreedy(fit=FIT_STRICT)),
    )
    oracle = SelectionOracle(lattice)
    pass_times: List[float] = []
    layer_times: Dict[str, List[float]] = {}
    first: Optional[list] = None
    counts = {"edges": 0, "structures": 0, "stages": 0, "selected": 0}
    attempted = failed = 0
    problems: List[str] = []

    def timed(layer: str, fn, *args):
        with tracer.span(layer):
            start = time.perf_counter()
            out = fn(*args)
            layer_times.setdefault(layer, []).append(time.perf_counter() - start)
        return out

    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    while not pass_times or time.perf_counter() < deadline:
        speed.sample(PASS_REFERENCE_SAMPLES)
        if not tracer.enabled:
            # set-up samples spread over the run, not bunched at its start
            for _ in range(ADVISE_SETUPS_PER_PASS):
                lattice, frequencies = timed_setup()
        start = time.perf_counter()
        with tracer.span("advise"):
            graph = timed(
                "qvgraph.from_cube",
                lambda: QueryViewGraph.from_cube(lattice, frequencies=frequencies),
            )
            engine = timed("benefit.BenefitEngine", BenefitEngine, graph)
            budget = budget_for(lattice, graph)
            results = [
                timed(f"algorithms.{label}", algorithm.run, engine, budget)
                for label, algorithm in algorithms
            ]
        pass_times.append(time.perf_counter() - start)

        # --- checks, untimed: the first pass against the oracle, every
        # later one against the first
        counts["edges"] += graph.n_edges
        counts["structures"] += engine.n_structures
        for i, result in enumerate(results):
            counts["stages"] += len(result.stages)
            counts["selected"] += len(result.selected)
            attempted += 1
            if first is None:
                found = oracle.problems(result, frequencies, budget)
            elif (result.selected, result.tau) != (first[i].selected, first[i].tau):
                found = [f"{result.algorithm}: selected differently on a repeat"]
            else:
                found = []
            failed += bool(found)
            problems.extend(found)
        if first is None:
            first = results
        # the next request starts from a heap without this one's graph,
        # as a fresh advise would; the collection is not timed
        del graph, engine, results
        gc.collect()

    speed.sample(PASS_REFERENCE_SAMPLES)
    speed.close()
    scale = speed.scale  # set-ups run between the passes, at their speed
    busy = sum(pass_times)
    n_passes = len(pass_times)
    advise_s = median(pass_times)
    metrics = {
        "setup_s": median(setup_times) * scale,
        "advise_cost_rows": statistics.fmean(r.average_query_cost for r in first),
        "ops_per_s": n_passes / (busy * scale),
        "op_p50_ms": advise_s * scale * 1e3,
    }
    report = [
        ("setup_s", median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        ("advise_s", advise_s, "s", f"median of {n_passes} advise passes"),
        (
            "advise_cost_rows",
            metrics["advise_cost_rows"],
            "rows",
            f"mean over {len(algorithms)} algorithms",
        ),
    ]

    layers = {}
    if tracer.enabled:
        per_pass = {k: statistics.fmean(v) for k, v in layer_times.items()}
        algo_s = sum(per_pass[f"algorithms.{label}"] for label, _ in algorithms)
        stages = counts["stages"] / n_passes
        layers = {
            "qvgraph.compile_s": per_pass["qvgraph.from_cube"],
            "qvgraph.edges": counts["edges"] / n_passes,
            "benefit.build_s": per_pass["benefit.BenefitEngine"],
            "benefit.structures": counts["structures"] / n_passes,
            "algorithms.rgreedy1_s": per_pass["algorithms.rgreedy1"],
            "algorithms.rgreedy2_s": per_pass["algorithms.rgreedy2"],
            "algorithms.inner_level_s": per_pass["algorithms.inner_level"],
            "algorithms.stages": stages,
            "algorithms.stage_us": algo_s / stages * 1e6,
            "algorithms.selected": counts["selected"] / n_passes,
        }
        # tracing overhead: one pass again, untraced, against the median
        # traced pass after the first (which ran on a cold heap)
        start = time.perf_counter()
        graph = QueryViewGraph.from_cube(lattice, frequencies=frequencies)
        engine = BenefitEngine(graph)
        for _, algorithm in algorithms:
            algorithm.run(engine, budget_for(lattice, graph))
        untraced = time.perf_counter() - start
        layers.update(_overhead(median(pass_times[1:] or pass_times), untraced))
    return Result(
        metrics, report, layers, attempted, failed, problems, speed.samples, speed.skipped
    )


def budget_for(lattice, graph) -> float:
    """The top view plus :data:`ADVISE_SPACE_SHARE` of all other space."""
    top = lattice.size(lattice.top)
    return top + ADVISE_SPACE_SHARE * (graph.total_space() - top)


def _untimed(_layer: str, fn, *args):
    return fn(*args)


def _overhead(traced: float, untraced: float) -> Dict[str, float]:
    return {
        "trace.overhead_s": traced - untraced,
        "trace.overhead_frac": (traced - untraced) / untraced,
    }


# ------------------------------------------------------------- serve-*


class _ServeInputs:
    """Everything a serve run feeds the library, drawn from ``seed``."""

    def __init__(self, seed: int) -> None:
        from repro.core.query import enumerate_slice_queries
        from repro.cube.workload import zipf_frequencies

        self.schema = cube_schema(6)
        self.patterns = zipf_frequencies(
            list(enumerate_slice_queries(self.schema.names)),
            ZIPF_EXPONENT,
            rng=np.random.default_rng(WORKLOAD_SEED),
        )
        self._seeds = np.random.SeedSequence(seed).spawn(4)

    def fact_arrays(self) -> Tuple[dict, np.ndarray]:
        rng = np.random.default_rng(self._seeds[0])
        columns = {
            d.name: rng.integers(0, d.cardinality, FACT_ROWS) for d in self.schema
        }
        # whole-number measures: float sums are then exact in any order,
        # so the oracle can demand equality from SQLite as well
        return columns, self._measures(rng, FACT_ROWS)

    def fact(self):
        from repro.engine.table import FactTable

        return FactTable(self.schema, *self.fact_arrays())

    @staticmethod
    def _measures(rng, n: int):
        return rng.integers(1, 100, n).astype(np.float64)

    def training_log(self):
        from repro.cube.query_log import generate_query_log

        return generate_query_log(
            self.schema,
            TRAINING_ENTRIES,
            rng=np.random.default_rng([WORKLOAD_SEED, 1]),
            pattern_frequencies=self.patterns,
        )

    def queries(self) -> Iterator:
        """The serving stream, drawn in chunks outside any timed call."""
        from repro.cube.query_log import generate_query_log

        rng = np.random.default_rng(self._seeds[2])
        while True:
            yield from generate_query_log(
                self.schema, 1024, rng=rng, pattern_frequencies=self.patterns
            )

    def deltas(self) -> Iterator[Tuple[dict, np.ndarray]]:
        rng = np.random.default_rng(self._seeds[3])
        n = round(DELTA_SHARE * FACT_ROWS)
        while True:
            columns = {d.name: rng.integers(0, d.cardinality, n) for d in self.schema}
            yield columns, self._measures(rng, n)


@dataclass
class _Serving:
    """One set-up's products."""

    server: object
    backend: object
    model: object
    result: object
    budget: float
    #: per-layer times and counts of the set-up, by layer name
    setup_layers: Dict[str, float]
    mined: object


def _advise_mined(lattice, mined, timed):
    """``from_mined`` through 1-greedy seeded with the top view, each
    call made through ``timed(layer, fn, *args)``."""
    from repro.algorithms.rgreedy import RGreedy
    from repro.core.benefit import BenefitEngine
    from repro.core.qvgraph import QueryViewGraph

    top = lattice.label(lattice.top)
    budget = SERVE_BUDGET_TOPS * lattice.size(lattice.top)
    graph = timed("qvgraph.from_mined", QueryViewGraph.from_mined, lattice, mined)
    engine = timed("benefit.BenefitEngine", BenefitEngine, graph)
    result = timed(
        "algorithms.rgreedy1", lambda: RGreedy(1).run(engine, budget, seed=(top,))
    )
    return graph, engine, result, budget


def _serve_setup(inputs: _ServeInputs, sqlite: bool, tracer) -> Tuple[_Serving, float, float]:
    """Build the serving state; returns it with the set-up and advise
    wall times (advise: ``from_mined`` through the greedy run)."""
    from repro.core.costmodel import LinearCostModel
    from repro.cube.query_log import pattern_counts
    from repro.mining import compute_benefit_bound, mine_candidates

    times: Dict[str, float] = {}

    def timed(layer: str, fn, *args):
        with tracer.span(layer):
            start = time.perf_counter()
            out = fn(*args)
            times[layer] = time.perf_counter() - start
        return out

    start = time.perf_counter()
    with tracer.span("setup"):
        with tracer.span("inputs"):
            fact = inputs.fact()
            training = inputs.training_log()
        model = timed("costmodel.from_fact", LinearCostModel.from_fact, fact)
        lattice = model.lattice
        top = lattice.label(lattice.top)

        def mine():
            mined = mine_candidates(pattern_counts(training), inputs.schema.names)
            mined.ensure_structures([top])
            compute_benefit_bound(mined, lattice)
            return mined

        mined = timed("mining.mine", mine)
        advise_start = time.perf_counter()
        with tracer.span("advise"):
            graph, engine, result, budget = _advise_mined(lattice, mined, timed)
        advise_s = time.perf_counter() - advise_start
        server, backend = _make_server(fact, result.selected, model, sqlite, timed)
    setup_s = time.perf_counter() - start
    times["qvgraph.edges"] = graph.n_edges
    times["benefit.structures"] = engine.n_structures
    times["algorithms.stages"] = len(result.stages)
    times["algorithms.selected"] = len(result.selected)
    serving = _Serving(server, backend, model, result, budget, times, mined)
    return serving, setup_s, advise_s


def _make_server(fact, selection, model, sqlite: bool, timed):
    """A ``QueryServer`` with the default result cache, on the row engine
    or, synced before it is returned, on a SQLite mirror."""
    from repro.backends import SqliteBackend
    from repro.serve import QueryServer, ResultCache

    backend = SqliteBackend(cost_model=model) if sqlite else None
    server = timed(
        "server.QueryServer",
        lambda: QueryServer(
            fact,
            selection,
            cost_model=model,
            cache=ResultCache(),
            keep_records=False,
            backend=backend,
        ),
    )
    if backend is not None:
        timed("sqlite.sync", backend.sync, server.state.catalog, server.state.generation)
    return server, backend


def _rebuild(serving: _Serving, inputs: _ServeInputs, sqlite: bool) -> _Serving:
    """A fresh server over the same facts, selection and cost model."""
    server, backend = _make_server(
        inputs.fact(), serving.result.selected, serving.model, sqlite, _untimed
    )
    return _Serving(
        server, backend, serving.model, serving.result, serving.budget,
        serving.setup_layers, serving.mined,
    )


def _close(serving: _Serving) -> None:
    serving.server.close()
    if serving.backend is not None:
        serving.backend.close()


@dataclass
class _Phase:
    """What the serving loop observed."""

    calls: int = 0
    busy: float = 0.0
    #: ``busy`` after each call, so the first calls of two phases can be
    #: compared
    busy_after: List[float] = field(default_factory=list)
    reads: int = 0
    read_calls: List[float] = field(default_factory=list)
    after_write: List[float] = field(default_factory=list)
    kinds: Dict[str, int] = field(default_factory=dict)
    kind_calls: Dict[str, List[float]] = field(default_factory=dict)
    rows: int = 0
    predicted: float = 0.0
    executed: int = 0
    groups: int = 0
    unique_fracs: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    apply_s: List[float] = field(default_factory=list)
    sync_s: List[float] = field(default_factory=list)
    touched_per_delta_row: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def _kind(outcome) -> str:
    if outcome.cached:
        return "hit"
    if outcome.fallback:
        return "raw"
    return "index" if outcome.structure.startswith("I_") else "scan"


def _write(serving: _Serving, delta, oracle: AnswerOracle, phase: _Phase, tracer) -> None:
    """One write: ``apply_delta`` then the mirror sync that makes it
    visible to readers."""
    server = serving.server
    columns, measures = delta
    start = time.perf_counter()
    with tracer.span("write"):
        with tracer.span("maintenance.apply_delta"):
            report = server.apply_delta(columns, measures)
        applied = time.perf_counter()
        with tracer.span("sqlite.sync"):
            state = server.state
            serving.backend.sync(state.catalog, state.generation)
    end = time.perf_counter()
    phase.busy += end - start
    phase.writes.append(end - start)
    phase.apply_s.append(applied - start)
    phase.sync_s.append(end - applied)
    phase.touched_per_delta_row.append(
        (report.view_rows_scanned + report.index_entries_rebuilt) / report.delta_rows
    )
    if server.fact.n_rows != oracle.facts.n_rows:
        phase.failed += 1
        phase.problems.append(
            f"after a write the server holds {server.fact.n_rows} fact rows, "
            f"not {oracle.facts.n_rows}"
        )


def _read(serving: _Serving, entries, sqlite: bool, phase: _Phase, tracer):
    """One read call: ``serve_batch`` on serve-write, ``serve`` else."""
    server = serving.server
    start = time.perf_counter()
    if sqlite:
        with tracer.span("serve.serve_batch", size=len(entries)):
            outcomes = server.serve_batch(entries)
    else:
        with tracer.span("serve.serve"):
            outcomes = [server.serve(entries[0])]
    elapsed = time.perf_counter() - start
    phase.busy += elapsed
    phase.reads += len(entries)
    phase.read_calls.append(elapsed)
    if not sqlite:
        phase.kind_calls.setdefault(_kind(outcomes[0]), []).append(elapsed)
    return outcomes, elapsed


def _serve_phase(
    serving: _Serving,
    inputs: _ServeInputs,
    sqlite: bool,
    tracer,
    seconds: float,
    speed: Optional[HostSpeed] = None,
) -> _Phase:
    """Serve until ``seconds`` have passed; every answer is checked as it
    returns, and ``speed`` sampled between calls."""
    oracle = AnswerOracle(Facts(inputs.schema, *inputs.fact_arrays()))
    phase = _Phase()
    queries = inputs.queries()
    deltas = inputs.deltas()
    deadline = time.perf_counter() + seconds
    after_write = False
    while True:
        # serve-write stops only after whole cycles of batches and a write
        at_cycle = not sqlite or phase.calls % (WRITE_EVERY + 1) == 0
        if at_cycle and time.perf_counter() >= deadline:
            break
        if speed is not None:
            speed.maybe_sample()
        phase.calls += 1
        if sqlite and phase.calls % (WRITE_EVERY + 1) == 0:
            delta = next(deltas)
            phase.attempted += 1
            # later answers must include the delta the server is handed
            oracle.append(*delta)
            try:
                _write(serving, delta, oracle, phase, tracer)
            except Exception as exc:  # counted; the client carries on
                phase.failed += 1
                phase.problems.append(f"write failed: {exc!r}")
            phase.busy_after.append(phase.busy)
            after_write = True
            continue
        entries = [next(queries) for _ in range(BATCH_SIZE if sqlite else 1)]
        phase.attempted += len(entries)
        try:
            outcomes, elapsed = _read(serving, entries, sqlite, phase, tracer)
        except Exception as exc:
            phase.failed += len(entries)
            phase.problems.append(f"read failed: {exc!r}")
            continue
        finally:
            phase.busy_after.append(phase.busy)
        if after_write:
            phase.after_write.append(elapsed)
            after_write = False
        if sqlite:
            unique = len({(e.query, e.values) for e in entries})
            phase.unique_fracs.append(unique / len(entries))
        # --- checks and counts, untimed
        for entry, outcome in zip(entries, outcomes):
            kind = _kind(outcome)
            phase.kinds[kind] = phase.kinds.get(kind, 0) + 1
            phase.groups += len(outcome.groups)
            if not outcome.cached:
                phase.executed += 1
                phase.rows += outcome.actual_rows
                phase.predicted += outcome.predicted_rows
            if not oracle.check(entry, outcome.groups):
                phase.failed += 1
    phase.problems.extend(oracle.problems)
    return phase


def serve(seed: int, seconds: float, tracer, sqlite: bool) -> Result:
    inputs = _ServeInputs(seed)
    setup_times, advise_times = [], []
    serving = None
    attempted, failed, problems = 1, 0, []
    speed = HostSpeed()
    for _ in range(1 if tracer.enabled else SETUP_REPEATS):
        previous = None
        if serving is not None:
            previous = serving.result.selected
            _close(serving)
            serving = None  # one server alive at a time
        speed.sample(SETUP_REFERENCE_SAMPLES)  # with no server alive
        serving, setup_s, advise_s = _serve_setup(inputs, sqlite, tracer)
        setup_times.append(setup_s)
        advise_times.append(advise_s)
        if previous is not None:
            attempted += 1
            if previous != serving.result.selected:
                failed += 1
                problems.append("1-greedy selected differently on a repeated set-up")
    space = SelectionOracle(serving.model.lattice).space(serving.result.selected)
    if space > serving.budget:
        failed += 1
        problems.append(f"selection uses {space:g} rows of a {serving.budget:g} budget")

    if tracer.enabled:
        # tracing overhead, untraced half: a third of the measured time on
        # the set-up's server, before spans fill the heap; the traced
        # calls then start, as these did, on a fresh server with a cold
        # cache over the same facts and selection
        untraced = _serve_phase(serving, inputs, sqlite, NULL_TRACER, seconds / 3)
        attempted += untraced.attempted
        failed += untraced.failed
        problems += untraced.problems
        _close(serving)
        serving = _rebuild(serving, inputs, sqlite)
        gc.collect()
    with tracer.span("serve"):
        phase = _serve_phase(serving, inputs, sqlite, tracer, seconds, speed)
    attempted += phase.attempted
    failed += phase.failed
    problems += phase.problems
    cache = serving.server.cache.stats()
    catalog = serving.server.state.catalog
    view_rows = sum(catalog.view_rows(v) for v in catalog.views())
    index_entries = sum(catalog.index_rows(i) for i in catalog.indexes())
    reloads = serving.backend.reloads if sqlite else 0
    _close(serving)
    speed.sample(END_REFERENCE_SAMPLES)
    speed.close()
    scale = speed.scale

    reads = max(phase.reads, 1)  # every read failing still reports
    p50 = median(phase.read_calls)
    tail_value, tail_label, tail_above = tail(phase.read_calls)
    metrics = {
        "setup_s": median(setup_times) * scale,
        "advise_cost_rows": serving.result.average_query_cost,
        "ops_per_s": phase.reads / (phase.busy * scale) if phase.busy else 0.0,
        "op_p50_ms": p50 * scale * 1e3,
    }
    n_calls = len(phase.read_calls)
    call = "serve_batch of 64" if sqlite else "serve()"
    report = [
        ("setup_s", median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        ("advise_s", median(advise_times), "s",
         f"median of {len(advise_times)} from_mined + 1-greedy runs"),
        ("advise_cost_rows", metrics["advise_cost_rows"], "rows",
         "1-greedy selection over the mined workload"),
        ("serve_qps", phase.reads / phase.busy if phase.busy else 0.0, "queries/s",
         f"{phase.reads} reads / {phase.busy:.3f} s timed"
         + (" incl. writes" if sqlite else "")),
        ("serve_p50_ms", p50 * 1e3, "ms", f"p50 of {n_calls} {call} calls"),
        ("serve_tail_ms", tail_value * 1e3, "ms",
         f"{tail_label} of {n_calls} calls, {tail_above} samples above"),
    ]
    if sqlite:
        report.append(
            ("write_p50_ms", median(phase.writes) * 1e3, "ms",
             f"p50 of {len(phase.writes)} writes (apply_delta + sync)")
        )

    layers = {}
    if tracer.enabled:
        times = serving.setup_layers
        executed = max(phase.executed, 1)
        layers = {
            "qvgraph.compile_s": times["qvgraph.from_mined"],
            "qvgraph.edges": times["qvgraph.edges"],
            "benefit.build_s": times["benefit.BenefitEngine"],
            "benefit.structures": times["benefit.structures"],
            "algorithms.rgreedy1_s": times["algorithms.rgreedy1"],
            "algorithms.rgreedy2_s": 0.0,
            "algorithms.inner_level_s": 0.0,
            "algorithms.stages": times["algorithms.stages"],
            "algorithms.stage_us": times["algorithms.rgreedy1"]
            / times["algorithms.stages"] * 1e6,
            "algorithms.selected": times["algorithms.selected"],
            "costmodel.from_fact_s": times["costmodel.from_fact"],
            "mining.mine_s": times["mining.mine"],
            "mining.views": serving.mined.n_views,
            "mining.indexes": serving.mined.n_indexes,
            "server.materialize_s": times["server.QueryServer"],
            "engine.view_rows": view_rows,
            "engine.index_entries": index_entries,
            "sqlite.load_s": times.get("sqlite.sync", 0.0),
            "serve.hit_frac": phase.kinds.get("hit", 0) / reads,
            "cache.evictions": cache["evictions"],
            "cache.invalidations": cache["invalidations"],
            "cache.bytes": cache["bytes"],
            "serve.index_frac": phase.kinds.get("index", 0) / reads,
            "serve.scan_frac": phase.kinds.get("scan", 0) / reads,
            "serve.raw_frac": phase.kinds.get("raw", 0) / reads,
            "serve.rows_per_query": phase.rows / executed,
            "serve.predicted_rows_ratio": phase.predicted / max(phase.rows, 1),
            "serve.groups_per_query": phase.groups / reads,
            "serve.hit_p50_us": median(phase.kind_calls.get("hit", [])) * 1e6,
            "serve.scan_p50_us": median(phase.kind_calls.get("scan", [])) * 1e6,
            "serve.index_p50_us": median(phase.kind_calls.get("index", [])) * 1e6,
            "serve.unique_frac": statistics.fmean(phase.unique_fracs) if phase.unique_fracs else 0.0,
            "serve.after_write_p50_ms": median(phase.after_write) * 1e3,
            "maintenance.apply_ms": median(phase.apply_s) * 1e3,
            "maintenance.rows_per_delta_row": median(phase.touched_per_delta_row),
            "sqlite.sync_ms": median(phase.sync_s) * 1e3,
            "sqlite.reloads": reloads,
        }
        # the same calls, traced and untraced
        n = min(untraced.calls, phase.calls)
        layers.update(_overhead(phase.busy_after[n - 1], untraced.busy_after[n - 1]))
    return Result(
        metrics, report, layers, attempted, failed, problems, speed.samples, speed.skipped
    )
