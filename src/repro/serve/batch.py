"""Vectorized batch execution: answer query groups in one pass.

Per-query serving pays three Python taxes on every call: routing (a scan
over all materialized structures), mask evaluation (a Python loop over
every view row), and duplicate work (OLAP logs repeat queries).  The
batch executor removes all three:

* **routing is memoized** per serving state — two queries with the same
  generic pattern route identically, so the plan (and its predicted
  cost, and its structure label) is computed once per pattern per
  generation and reused from :attr:`ServingState.plan_cache`;
* **execution is grouped by routed plan** — all queries that full-scan
  the same view table are answered in one pass over its (already
  columnar) arrays with numpy masks instead of per-row Python loops;
* **duplicates collapse** — identical concrete queries inside a batch
  execute once and share the result.

Result fidelity is exact, not approximate: every vectorized path
accumulates measure values in the same left-to-right row order as
:meth:`repro.engine.executor.Executor.execute` (``np.bincount`` adds
weights sequentially, matching the serial ``groups[key] += value``
loop), so batched answers are byte-identical to per-query execution —
the serving test suite asserts this per query on the dense fixtures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.index import Index
from repro.core.query import SliceQuery
from repro.core.view import View
from repro.cube.query_log import LogEntry
from repro.engine.coding import group_rows, key_codes
from repro.serve.telemetry import RAW_LABEL

#: Default queries per batch for the chunked replay/serving drivers.
DEFAULT_BATCH_SIZE = 64


@dataclass(frozen=True)
class PlanInfo:
    """One pattern's routing decision, memoized per serving state."""

    kind: str  # "prefix" | "scan" | "raw"
    view: Optional[View]
    index: Optional[Index]
    prefix: tuple
    structure: str
    predicted: float


@dataclass
class ExecResult:
    """One unique concrete query's batched execution.

    ``rescued`` marks a structure execution that raised and was
    re-answered from the raw cube (``error_structure`` names the
    structure that failed); ``short_circuited`` marks an execution the
    circuit breaker skipped straight to raw without touching the
    tripped structure.
    """

    structure: str
    predicted_rows: float
    actual_rows: int
    groups: Dict[tuple, float]
    latency_us: float
    fallback: bool
    rescued: bool = False
    error_structure: str = ""
    short_circuited: bool = False


def plan_for(state, cost_model, query: SliceQuery) -> PlanInfo:
    """The memoized routing decision for a generic query pattern.

    Identical to :meth:`Executor.plan_with_cost` (it delegates to it),
    plus the structure label and the usable index prefix the executor
    would recompute per call.  The memo lives on the serving state, so a
    hot swap naturally starts from an empty plan cache.
    """
    cached = state.plan_cache.get(query)
    if cached is not None:
        return cached
    lattice = cost_model.lattice
    try:
        view, index, predicted = state.executor.plan_with_cost(query)
    except LookupError:
        info = PlanInfo(
            kind="raw",
            view=None,
            index=None,
            prefix=(),
            structure=RAW_LABEL,
            predicted=cost_model.default_cost(query),
        )
    else:
        prefix = index.usable_prefix(query) if index is not None else ()
        structure = (
            lattice.index_label(index) if index is not None else lattice.label(view)
        )
        info = PlanInfo(
            kind="prefix" if (index is not None and prefix) else "scan",
            view=view,
            index=index,
            prefix=prefix,
            structure=structure,
            predicted=predicted,
        )
    state.plan_cache[query] = info
    return info


def raw_plan(cost_model, query: SliceQuery) -> PlanInfo:
    """A raw-cube plan for one query (the fallback/rescue target).

    Predicted rows come from :meth:`LinearCostModel.default_cost` — the
    same number the router's memoized raw plans carry, so rescued
    answers keep the predicted-vs-actual accounting exact on dense
    fixtures."""
    return PlanInfo(
        kind="raw",
        view=None,
        index=None,
        prefix=(),
        structure=RAW_LABEL,
        predicted=cost_model.default_cost(query),
    )


#: Arithmetic-coded grouping is used while the key space stays below
#: this; degenerate (huge-domain) keys fall back to ``np.unique``.
MAX_CODED_KEY_SPACE = 1 << 20


def _grouped_sums(
    key_columns: Sequence[np.ndarray], values: np.ndarray
) -> Dict[tuple, float]:
    """Group-and-sum with the serial loop's exact accumulation order.

    ``np.bincount`` adds weights sequentially (index order), which is
    the same left-to-right order the per-row ``groups[key] += value``
    loop uses — so the floats match bit-for-bit regardless of how the
    group *labels* are derived.  Labels are the key tuples' mixed-radix
    codes (:func:`repro.engine.coding.key_codes`; no sort), decoded back
    for the populated codes only; a key space too large to ``bincount``
    over groups with :func:`repro.engine.coding.group_rows` instead.
    """
    if not len(values):
        return {}
    if not key_columns:
        sums = np.bincount(np.zeros(len(values), dtype=np.intp), weights=values)
        return {(): float(sums[0])}
    dims = tuple(int(column.max()) + 1 for column in key_columns)
    space = 1
    for dim in dims:
        space *= dim
    if space > MAX_CODED_KEY_SPACE:
        unique_cols, inverse, n_groups = group_rows(key_columns)
        sums = np.bincount(inverse, weights=values, minlength=n_groups)
        keys = zip(*(column.tolist() for column in unique_cols))
        return dict(zip(keys, sums.tolist()))
    codes = key_codes(key_columns, dims)
    sums = np.bincount(codes, weights=values, minlength=space)
    populated = np.nonzero(np.bincount(codes, minlength=space))[0]
    keys = np.stack(np.unravel_index(populated, dims), axis=1)
    return {
        tuple(row): total
        for row, total in zip(keys.tolist(), sums[populated].tolist())
    }


def execute_scan(table, entry: LogEntry, info: PlanInfo) -> ExecResult:
    """Answer one query by a vectorized pass over a view table.

    Mirrors the executor's full-scan path: the whole table counts as
    rows processed, residual selection attributes filter rows, groupby
    attributes key the aggregation.
    """
    query = entry.query
    bound = entry.bound_values
    groupby = tuple(a for a in table.attrs if a in query.groupby)
    residual = [a for a in table.attrs if a in query.selection]
    mask = None
    for attr in residual:
        comparison = table.key_columns[attr] == bound[attr]
        mask = comparison if mask is None else (mask & comparison)
    rows = slice(None) if mask is None else np.nonzero(mask)[0]
    values = table.values_for(None)[rows]
    groups = _grouped_sums([table.key_columns[a][rows] for a in groupby], values)
    return ExecResult(
        structure=info.structure,
        predicted_rows=info.predicted,
        actual_rows=table.n_rows,
        groups=groups,
        latency_us=0.0,
        fallback=False,
    )


def execute_prefix(catalog, table, entry: LogEntry, info: PlanInfo) -> ExecResult:
    """Answer one query through an index prefix range.

    The prefix values narrow the index's sorted leaf level to one
    contiguous ``[lo, hi)`` range (rows processed is ``hi - lo``, the
    entries a B+tree prefix scan would touch); the rows in that range
    then go through the same residual mask and grouped sum as
    :func:`execute_scan`.  They are summed in index order, the order the
    executor's per-row loop visits them, so answers stay byte-identical.
    """
    query = entry.query
    bound = entry.bound_values
    groupby = tuple(a for a in table.attrs if a in query.groupby)
    residual = [
        a for a in table.attrs if a in query.selection and a not in info.prefix
    ]
    prefix_key = tuple(int(bound[a]) for a in info.prefix)
    rows = catalog.sorted_index(info.index).prefix_rows(prefix_key)
    rows_processed = len(rows)
    for attr in residual:
        rows = rows[table.key_columns[attr][rows] == bound[attr]]
    values = table.values_for(None)[rows]
    groups = _grouped_sums([table.key_columns[a][rows] for a in groupby], values)
    return ExecResult(
        structure=info.structure,
        predicted_rows=info.predicted,
        actual_rows=rows_processed,
        groups=groups,
        latency_us=0.0,
        fallback=False,
    )


def execute_raw(fact, entry: LogEntry, info: PlanInfo) -> ExecResult:
    """Fallback: answer from the raw fact table (full scan).

    Matches :meth:`QueryServer` raw-serving semantics — the whole fact
    table counts as rows processed, the ungrouped total uses the same
    ``ndarray.sum`` the serial fallback used.
    """
    mask = np.ones(fact.n_rows, dtype=bool)
    for attr, value in entry.values:
        mask &= fact.columns[attr] == value
    groupby = fact.schema.sort_attrs(entry.query.groupby)
    measures = fact.measures[mask]
    if groupby:
        groups = _grouped_sums(
            [fact.columns[a][mask] for a in groupby], measures
        )
    elif len(measures):
        groups = {(): float(measures.sum())}
    else:
        groups = {}
    return ExecResult(
        structure=RAW_LABEL,
        predicted_rows=info.predicted,
        actual_rows=fact.n_rows,
        groups=groups,
        latency_us=0.0,
        fallback=True,
    )


def execute_backend(backend, entry: LogEntry, info: PlanInfo) -> ExecResult:
    """Answer one query through an execution backend (e.g. SQLite).

    The backend mirrors the serving catalog, so the routed plan carries
    over verbatim: prefix and scan plans execute against the mirrored
    view table with the plan's ``(view, index)`` pair, raw plans against
    the mirrored fact table.  The backend's rows-processed accounting
    matches the engine's, so telemetry invariants (exact
    predicted-vs-actual on dense fixtures) hold unchanged.
    """
    query = entry.query
    bound = entry.bound_values
    if info.kind == "raw":
        answer = backend.execute_raw(query, bound)
    else:
        answer = backend.execute(query, bound, plan=(info.view, info.index))
    return ExecResult(
        structure=info.structure,
        predicted_rows=info.predicted,
        actual_rows=answer.rows_processed,
        groups=answer.groups,
        latency_us=0.0,
        fallback=info.kind == "raw",
    )


def _execute_member(
    kind: str,
    catalog,
    table,
    fact,
    cost_model,
    entry: LogEntry,
    info: PlanInfo,
    breaker,
    fault_hook,
    backend=None,
) -> ExecResult:
    """One unique query's execution with the resilience layer applied.

    A tripped circuit short-circuits the structure straight to raw; an
    executor error against a structure records a breaker failure and is
    rescued from the raw cube (degraded-but-correct — the raw path
    answers every slice query).  Raw-path errors propagate: there is no
    cheaper-but-still-correct plan left to fall back to.

    With a ``backend``, every path executes there instead of on the row
    engine; the rescue path stays on the engine's raw scan, which keeps
    degraded-but-correct answers available even when the backend itself
    is the failing component.
    """
    if kind != "raw" and breaker is not None and not breaker.allow(info.structure):
        result = execute_raw(fact, entry, raw_plan(cost_model, entry.query))
        result.short_circuited = True
        return result
    try:
        if fault_hook is not None:
            fault_hook(info.structure, entry)
        if backend is not None:
            result = execute_backend(backend, entry, info)
        elif kind == "prefix":
            result = execute_prefix(catalog, table, entry, info)
        elif kind == "scan":
            result = execute_scan(table, entry, info)
        else:
            result = execute_raw(fact, entry, info)
    except Exception:
        if kind == "raw":
            raise
        if breaker is not None:
            breaker.record_failure(info.structure)
        rescue = execute_raw(fact, entry, raw_plan(cost_model, entry.query))
        rescue.rescued = True
        rescue.error_structure = info.structure
        return rescue
    if kind != "raw" and breaker is not None:
        breaker.record_success(info.structure)
    return result


def execute_unique(
    state,
    fact,
    cost_model,
    items: Sequence[Tuple[tuple, LogEntry]],
    breaker=None,
    fault_hook=None,
    backend=None,
) -> Dict[tuple, ExecResult]:
    """Execute each unique concrete query once, grouped by routed plan.

    ``items`` pairs a cache key with one representative entry.  Queries
    sharing a plan target are answered together (one timed pass per
    group); each result's ``latency_us`` is the group's elapsed time
    split evenly across its members.

    ``breaker`` (a :class:`~repro.serve.resilience.CircuitBreaker`) and
    ``fault_hook`` (``hook(structure, entry)``, called before each
    structure execution — the chaos harness's injection point) are
    consulted *per execution*, not per plan: the plan cache stays pure
    routing, so a circuit opening or closing takes effect on the very
    next batch without invalidating memoized plans.

    ``backend`` (a :class:`~repro.backends.sqlite.SqliteBackend`)
    redirects every execution to the mirrored database — the caller is
    responsible for having synced it to this serving state first.
    """
    plan_groups: Dict[tuple, List[Tuple[tuple, LogEntry, PlanInfo]]] = {}
    for key, entry in items:
        info = plan_for(state, cost_model, entry.query)
        group_key = (info.kind, info.view, info.index)
        plan_groups.setdefault(group_key, []).append((key, entry, info))

    results: Dict[tuple, ExecResult] = {}
    catalog = state.catalog
    for (kind, view, __index), members in plan_groups.items():
        table = catalog.view_table(view) if view is not None else None
        start = time.perf_counter()
        for key, entry, info in members:
            results[key] = _execute_member(
                kind, catalog, table, fact, cost_model, entry, info,
                breaker, fault_hook, backend,
            )
        shared_us = (time.perf_counter() - start) * 1e6 / len(members)
        for key, __entry, __info in members:
            results[key].latency_us = shared_us
    return results
