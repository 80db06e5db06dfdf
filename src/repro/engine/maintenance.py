"""Incremental maintenance of materialized views and indexes (extension).

The paper selects structures for query performance; a deployed ROLAP
system must also keep them fresh as fact rows arrive ("load time" is the
space budget's twin in Example 2.1).  This module implements delta-based
refresh for the engine:

* :func:`apply_delta` — append a batch of fact rows and propagate it to
  every materialized view (aggregate the delta, merge into the sorted
  view table) and every index (re-sorted with one ``np.lexsort``, since
  merged tables renumber rows).  Both the delta aggregation and the
  merge group on one mixed-radix ``int64`` code per row
  (:func:`repro.engine.coding.group_rows`), a 1-D sort where a row-wise
  ``np.unique(axis=0)`` would argsort rows as void bytes; the merged
  tables are bit-identical either way.  Returns a :class:`RefreshReport`
  of rows touched, so the maintenance cost is measurable in the same
  unit as query cost.  A SQLite mirror of the catalog follows the
  refresh as a delta too (:meth:`repro.backends.sqlite.SqliteBackend.sync`).
* :func:`estimate_refresh_cost` — the analytical counterpart: the rows a
  refresh of a selection touches, usable as a maintenance-cost model when
  weighing selections (cf. the view-selection-with-maintenance framework
  of [G97], which the paper cites).

Only ``sum``/``count`` aggregates are self-maintainable under inserts;
``min``/``max`` tables raise (they may need recomputation on deletes and
we keep the honest restriction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from repro.engine.catalog import Catalog
from repro.engine.coding import group_rows
from repro.engine.materialize import _aggregate, materialize_view
from repro.engine.table import FactTable, ViewTable


@dataclass
class RefreshReport:
    """Rows touched while refreshing a catalog after a delta batch."""

    delta_rows: int
    view_rows_scanned: int = 0
    index_entries_rebuilt: int = 0
    views_refreshed: Tuple[str, ...] = ()
    indexes_rebuilt: Tuple[str, ...] = ()

    @property
    def total_rows_touched(self) -> int:
        """Aggregate maintenance cost, in the paper's unit (rows)."""
        return (
            self.delta_rows * max(1, len(self.views_refreshed))
            + self.view_rows_scanned
            + self.index_entries_rebuilt
        )


def merge_view_tables(base: ViewTable, delta: ViewTable) -> ViewTable:
    """Merge two view tables over the same view by summing measures.

    Both tables must be keyed on the same attributes; the result is
    sorted (a by-product of the coded-key re-grouping), so a group of
    ``base`` keeps its key and only its measures can change.
    """
    if base.view != delta.view or base.attrs != delta.attrs:
        raise ValueError(
            f"cannot merge {delta.view} ({delta.attrs}) into "
            f"{base.view} ({base.attrs})"
        )
    if set(base.extra_values) != set(delta.extra_values):
        raise ValueError(
            f"measure sets differ: {sorted(base.extra_values)} vs "
            f"{sorted(delta.extra_values)}"
        )
    key_cols = tuple(
        np.concatenate([base.key_columns[a], delta.key_columns[a]])
        for a in base.attrs
    )
    # groups from both sides combine by summation for both sum- and
    # count-aggregated tables (counts of a union add up)
    unique_cols, inverse, n_groups = group_rows(key_cols)
    merged = _aggregate(
        inverse, n_groups, np.concatenate([base.values, delta.values]), "sum"
    )
    extra_merged = {
        name: _aggregate(
            inverse,
            n_groups,
            np.concatenate([base.extra_values[name], delta.extra_values[name]]),
            "sum",
        )
        for name in base.extra_values
    }
    key_columns = {a: col for a, col in zip(base.attrs, unique_cols)}
    return ViewTable(
        base.view,
        base.attrs,
        key_columns,
        merged,
        agg=base.agg,
        extra_values=extra_merged,
        measure=base.measure,
    )


def apply_delta(
    catalog: Catalog,
    delta_columns: Mapping[str, np.ndarray],
    delta_measures: np.ndarray,
    delta_extra_measures: Mapping[str, np.ndarray] = None,
) -> RefreshReport:
    """Append fact rows and refresh every materialized view and index.

    The delta is validated against the catalog's schema (same checks as
    :class:`FactTable`) and must carry the same measure set as the
    existing facts.  Views are refreshed by aggregating the delta to each
    view's grouping and merging; indexes on refreshed views are rebuilt
    from the merged tables.
    """
    schema = catalog.fact.schema
    delta = FactTable(
        schema, delta_columns, delta_measures, extra_measures=delta_extra_measures
    )
    if set(delta.extra_measures) != set(catalog.fact.extra_measures):
        raise ValueError(
            f"delta measures {sorted(delta.measure_names)} do not match the "
            f"catalog's {sorted(catalog.fact.measure_names)}"
        )
    for view in catalog.views():
        if catalog.view_table(view).agg not in ("sum", "count"):
            raise ValueError(
                f"view {view} uses aggregate "
                f"{catalog.view_table(view).agg!r}, which is not "
                "self-maintainable under inserts"
            )

    # 1. extend the raw fact table
    merged_columns = {
        name: np.concatenate([catalog.fact.column(name), delta.column(name)])
        for name in schema.names
    }
    merged_measures = np.concatenate([catalog.fact.measures, delta.measures])
    merged_extras = {
        name: np.concatenate([catalog.fact.extra_measures[name], column])
        for name, column in delta.extra_measures.items()
    }
    catalog.fact = FactTable(
        schema, merged_columns, merged_measures, extra_measures=merged_extras
    )

    report = RefreshReport(delta_rows=delta.n_rows)

    # 2. refresh each materialized view by aggregate-and-merge
    views_touched = []
    for view in list(catalog.views()):
        base = catalog.view_table(view)
        delta_table = materialize_view(delta, view, base.agg)
        merged = merge_view_tables(base, delta_table)
        catalog.add_view(merged)
        report.view_rows_scanned += base.n_rows + delta_table.n_rows
        views_touched.append(str(view))
    report.views_refreshed = tuple(views_touched)

    # 3. rebuild indexes on refreshed views (merged tables renumber rows)
    rebuilt = []
    for index in list(catalog.indexes()):
        catalog.drop_index(index)
        report.index_entries_rebuilt += len(catalog.build_index(index))
        rebuilt.append(str(index))
    report.indexes_rebuilt = tuple(rebuilt)

    # 4. publish the refresh: consumers holding cached answers (the
    # serving result cache tags entries with this counter) must observe
    # that the catalog's contents changed
    catalog.version += 1
    return report


def estimate_refresh_cost(
    view_rows: Mapping[str, float],
    selection: Mapping[str, bool],
    delta_rows: float,
) -> float:
    """Analytical refresh cost of a selection, in rows.

    ``view_rows`` maps structure name → rows of the owning view;
    ``selection`` maps structure name → is_index.  Each view refresh
    scans the delta plus the view; each index rebuild touches the view's
    rows once.  This mirrors what :func:`apply_delta` actually does, so
    the estimate is checkable against :class:`RefreshReport`.
    """
    if delta_rows < 0:
        raise ValueError("delta_rows must be >= 0")
    cost = 0.0
    for name, is_index in selection.items():
        rows = view_rows[name]
        if is_index:
            cost += rows
        else:
            cost += delta_rows + rows
    return cost
