"""Mini-ROLAP execution engine: tables, sorted indexes, materializer,
executor (plus the pointer-based B+tree the sorted indexes are tested
against)."""

from repro.engine.btree import BPlusTree
from repro.engine.catalog import Catalog, SortedIndex
from repro.engine.executor import Executor, PlanChoice, QueryResult
from repro.engine.maintenance import (
    RefreshReport,
    apply_delta,
    estimate_refresh_cost,
    merge_view_tables,
)
from repro.engine.materialize import materialize_view, rollup_view
from repro.engine.storage import load_catalog, save_catalog
from repro.engine.pipeline import (
    LoadReport,
    load_cost_estimate,
    materialize_selection,
    naive_load_cost,
)
from repro.engine.table import FactTable, ViewTable

__all__ = [
    "BPlusTree",
    "Catalog",
    "Executor",
    "FactTable",
    "LoadReport",
    "PlanChoice",
    "QueryResult",
    "RefreshReport",
    "SortedIndex",
    "ViewTable",
    "apply_delta",
    "estimate_refresh_cost",
    "load_catalog",
    "load_cost_estimate",
    "materialize_selection",
    "materialize_view",
    "merge_view_tables",
    "naive_load_cost",
    "rollup_view",
    "save_catalog",
]
