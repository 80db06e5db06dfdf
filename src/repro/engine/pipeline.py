"""Lattice-aware materialization: computing a selection at load time.

Materializing every selected view straight from the raw data scans the
fact table once per view.  The dependence lattice (Section 3.4) does
better: compute each view from its *smallest already-materialized
ancestor* — rolling ``p`` up from ``ps`` (0.8M rows) instead of from
``psc`` (6M rows).  This is the load-time counterpart of the paper's
space accounting ("there is not enough space (or equivalently load
time)", Example 2.1).

:func:`materialize_selection` topologically orders the requested views
(ancestors first), picks the cheapest available source for each, builds
the requested indexes, and returns a :class:`LoadReport` with the rows
processed — comparable against :func:`naive_load_cost`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.index import Index
from repro.core.view import View
from repro.engine.catalog import Catalog
from repro.engine.materialize import materialize_view, rollup_view


@dataclass
class LoadStep:
    """One materialization step: which source fed which view."""

    view: View
    source: Optional[View]  # None = computed from the raw fact table
    rows_scanned: int
    rows_produced: int


@dataclass
class LoadReport:
    """Everything the load pipeline did, with row accounting."""

    steps: List[LoadStep] = field(default_factory=list)
    index_entries_built: int = 0
    indexes_built: Tuple[str, ...] = ()

    @property
    def rows_scanned(self) -> int:
        """Total rows read while computing the views (the load cost)."""
        return sum(step.rows_scanned for step in self.steps)

    @property
    def total_cost(self) -> int:
        """Rows scanned plus index entries written."""
        return self.rows_scanned + self.index_entries_built

    def source_of(self, view: View) -> Optional[View]:
        for step in self.steps:
            if step.view == view:
                return step.source
        raise KeyError(f"{view} was not materialized by this load")


def materialize_selection(
    catalog: Catalog,
    views: Iterable[View],
    indexes: Iterable[Index] = (),
    agg: str = "sum",
    on_step: Optional[Callable[[LoadReport, Optional[LoadStep]], None]] = None,
    resume_from: Optional[LoadReport] = None,
    workers: Optional[int] = None,
) -> LoadReport:
    """Materialize views (ancestors first, rolled up from the smallest
    available source) and build indexes on them.

    Views already present in the catalog are reused as sources but not
    recomputed.  Index views must be in ``views`` or already
    materialized.

    ``on_step`` is invoked after every completed unit of work —
    ``(report, step)`` for a view, ``(report, None)`` for an index — so
    callers can checkpoint the load; an exception it raises aborts the
    load *between* units, never mid-build.  ``resume_from`` seeds the
    report with a prior partial run's accounting: its steps carry over
    (those views are already in the catalog, so they are skipped, not
    recomputed) and its indexes are neither rebuilt nor recounted, so a
    resumed load's row accounting matches an uninterrupted one.

    ``workers`` builds independent views of one dependence wave in a
    process pool (``None`` follows ``REPRO_WORKERS``, ``0`` auto-sizes,
    ``N >= 2`` forces a pool).  Waves are contiguous runs of the serial
    order in which no member can compute another, so every view reads
    the same source — the report is identical to a serial load, steps,
    order and all.
    """
    requested = list(dict.fromkeys(views))  # stable de-dup
    indexes = list(indexes)
    for index in indexes:
        if index.view not in requested and not catalog.has_view(index.view):
            raise ValueError(
                f"index {index} targets {index.view}, which is neither "
                "requested nor materialized"
            )

    report = LoadReport()
    done_indexes = set()
    if resume_from is not None:
        report.steps.extend(resume_from.steps)
        report.index_entries_built = resume_from.index_entries_built
        report.indexes_built = tuple(resume_from.indexes_built)
        done_indexes = set(resume_from.indexes_built)

    from repro.parallel import resolve_workers

    worker_count, __forced = resolve_workers(workers)

    # ancestors first: more attributes = potential source for the rest
    order = sorted(requested, key=lambda v: (-len(v), v.key))
    if worker_count > 1:
        _materialize_waves(catalog, order, agg, report, on_step, worker_count)
    else:
        for view in order:
            if catalog.has_view(view):
                continue
            source = _cheapest_source(catalog, view)
            if source is None:
                table = materialize_view(catalog.fact, view, agg)
                scanned = catalog.fact.n_rows
            else:
                source_table = catalog.view_table(source)
                table = rollup_view(
                    source_table, view, agg, schema=catalog.fact.schema
                )
                scanned = source_table.n_rows
            catalog.add_view(table)
            step = LoadStep(
                view=view,
                source=source,
                rows_scanned=scanned,
                rows_produced=table.n_rows,
            )
            report.steps.append(step)
            if on_step is not None:
                on_step(report, step)

    for index in indexes:
        name = str(index)
        if name in done_indexes:
            continue
        report.index_entries_built += len(catalog.build_index(index))
        report.indexes_built = report.indexes_built + (name,)
        if on_step is not None:
            on_step(report, None)
    return report


def _raw_task(fact, view: View, agg: str):
    return materialize_view(fact, view, agg)


def _rollup_task(source_table, view: View, agg: str, schema):
    return rollup_view(source_table, view, agg, schema=schema)


def _materialize_waves(
    catalog: Catalog,
    order: Sequence[View],
    agg: str,
    report: LoadReport,
    on_step,
    workers: int,
) -> None:
    """Build the fresh views of ``order`` wave by wave in a process pool.

    A wave is the longest prefix of the remaining serial order in which
    no member can compute another, so (a) every member's cheapest source
    is already in the catalog when the wave starts — the same source the
    serial loop would pick — and (b) steps land in the report, and
    ``on_step`` fires, in the exact serial order.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pending = [view for view in order if not catalog.has_view(view)]
    if not pending:
        return
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        position = 0
        while position < len(pending):
            wave = [pending[position]]
            for view in pending[position + 1 :]:
                if any(member.can_compute(view) for member in wave):
                    break
                wave.append(view)
            submitted = []
            for view in wave:
                source = _cheapest_source(catalog, view)
                if source is None:
                    scanned = catalog.fact.n_rows
                    future = pool.submit(_raw_task, catalog.fact, view, agg)
                else:
                    source_table = catalog.view_table(source)
                    scanned = source_table.n_rows
                    future = pool.submit(
                        _rollup_task, source_table, view, agg,
                        catalog.fact.schema,
                    )
                submitted.append((view, source, scanned, future))
            for view, source, scanned, future in submitted:
                table = future.result()
                catalog.add_view(table)
                step = LoadStep(
                    view=view,
                    source=source,
                    rows_scanned=scanned,
                    rows_produced=table.n_rows,
                )
                report.steps.append(step)
                if on_step is not None:
                    on_step(report, step)
            position += len(wave)


def _cheapest_source(catalog: Catalog, view: View) -> Optional[View]:
    """Smallest materialized strict ancestor of ``view`` (or None).

    A view never has more rows than the raw data, so any ancestor is at
    least as cheap a source as the fact table.
    """
    best: Optional[View] = None
    best_rows: Optional[int] = None
    for candidate in catalog.views():
        if candidate == view or not candidate.can_compute(view):
            continue
        rows = catalog.view_rows(candidate)
        if best_rows is None or rows < best_rows:
            best = candidate
            best_rows = rows
    return best


def naive_load_cost(catalog: Catalog, views: Sequence[View]) -> int:
    """Rows scanned if every view were computed from the raw data."""
    fresh = [v for v in dict.fromkeys(views) if not catalog.has_view(v)]
    return catalog.fact.n_rows * len(fresh)


def load_cost_estimate(
    sizes: Dict[View, float],
    views: Sequence[View],
    raw_rows: float,
) -> float:
    """Analytical pipeline load cost from view sizes alone.

    Mirrors the pipeline's greedy choice: each view reads its smallest
    requested strict ancestor (or the raw data).  Usable at advising time
    before anything is materialized.
    """
    requested = sorted(dict.fromkeys(views), key=lambda v: (-len(v), v.key))
    cost = 0.0
    available: List[View] = []
    for view in requested:
        sources = [a for a in available if a.can_compute(view) and a != view]
        if sources:
            cost += min(sizes[a] for a in sources)
        else:
            cost += raw_rows
        available.append(view)
    return cost
