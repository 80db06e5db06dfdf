"""The engine catalog: which views and indexes are materialized.

A :class:`Catalog` owns the physical structures — :class:`ViewTable`\\ s
and :class:`SortedIndex`\\ es — and reports their sizes in rows, matching
the space accounting the selection algorithms use (index size = view
size, Section 4.2.2; one leaf entry per view row makes that literal
here).

An index is the leaf level of a bulk-loaded (static) B+tree without the
routing nodes: a stable sort permutation of the view's rows by the index
key, plus the key columns in that order.  Ties keep row order, so the
entries are exactly the tree's ``(key…, row id)`` leaf sequence, and a
prefix lookup is one binary-search range over them.  The pointer-based
:class:`~repro.engine.btree.BPlusTree` is kept as the reference the
tests compare this layout against.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.core.index import Index
from repro.core.view import View
from repro.engine.table import FactTable, ViewTable
from repro.engine.materialize import materialize_view


class SortedIndex:
    """One index: the view's row ids sorted by the index key.

    ``perm`` lists row ids in ``(key…, row id)`` order and ``keys`` holds
    the key columns (index-key order) permuted the same way, so
    ``keys[i][j]`` is attribute ``index.key[i]`` of row ``perm[j]``.
    """

    def __init__(self, index: Index, table: ViewTable):
        key_cols = [table.key_columns[a] for a in index.key]
        # np.lexsort sorts by its *last* key first and is stable, so rows
        # tied on the whole key stay in row-id order
        self.perm = np.lexsort(key_cols[::-1])
        self.keys = tuple(col[self.perm] for col in key_cols)

    def __len__(self) -> int:
        return len(self.perm)

    def prefix_range(self, prefix: Tuple[int, ...]) -> Tuple[int, int]:
        """The ``[lo, hi)`` slice of entries whose key starts with
        ``prefix`` — one ``searchsorted`` pair per prefix attribute,
        each narrowing the range the previous one left."""
        lo, hi = 0, len(self.perm)
        for column, value in zip(self.keys, prefix):
            window = column[lo:hi]
            lo, hi = (
                lo + int(np.searchsorted(window, value, side="left")),
                lo + int(np.searchsorted(window, value, side="right")),
            )
        return lo, hi

    def prefix_rows(self, prefix: Tuple[int, ...]) -> np.ndarray:
        """Row ids under ``prefix``, in index (scan) order."""
        lo, hi = self.prefix_range(prefix)
        return self.perm[lo:hi]


class Catalog:
    """Materialized views and indexes, with row-count space accounting."""

    def __init__(self, fact: FactTable):
        self.fact = fact
        self._views: Dict[View, ViewTable] = {}
        self._indexes: Dict[Index, SortedIndex] = {}
        #: Bumped by every maintenance delta (see
        #: :func:`repro.engine.maintenance.apply_delta`); the serving
        #: result cache tags entries with it so refreshed data is never
        #: served from a stale cached answer.
        self.version = 0

    # ----------------------------------------------------------------- add

    def materialize(self, view: View, agg: str = "sum") -> ViewTable:
        """Materialize a view from the raw data (idempotent)."""
        if view in self._views:
            return self._views[view]
        table = materialize_view(self.fact, view, agg)
        self._views[view] = table
        return table

    def add_view(self, table: ViewTable) -> None:
        """Register an externally computed view table."""
        self._views[table.view] = table

    def build_index(self, index: Index) -> SortedIndex:
        """Build the index (its view must be materialized): the view's
        rows sorted by the search-key attribute values, ties by row id."""
        if index in self._indexes:
            return self._indexes[index]
        table = self._views.get(index.view)
        if table is None:
            raise ValueError(
                f"cannot index {index}: view {index.view} is not materialized"
            )
        built = SortedIndex(index, table)
        self._indexes[index] = built
        return built

    # -------------------------------------------------------------- lookup

    def has_view(self, view: View) -> bool:
        return view in self._views

    def has_index(self, index: Index) -> bool:
        return index in self._indexes

    def view_table(self, view: View) -> ViewTable:
        return self._views[view]

    def drop_index(self, index: Index) -> None:
        """Forget a built index (e.g. before a rebuild)."""
        self._indexes.pop(index, None)

    def sorted_index(self, index: Index) -> SortedIndex:
        return self._indexes[index]

    def views(self) -> Iterator[View]:
        return iter(self._views)

    def indexes(self) -> Iterator[Index]:
        return iter(self._indexes)

    def indexes_on(self, view: View) -> list:
        return [idx for idx in self._indexes if idx.view == view]

    # ---------------------------------------------------------------- size

    def view_rows(self, view: View) -> int:
        return self._views[view].n_rows

    def index_rows(self, index: Index) -> int:
        """Leaf entries of the index — equals the view's rows, the paper's
        index-size model made physical."""
        return len(self._indexes[index])

    def total_rows(self) -> int:
        """Total space used, in rows (views + index leaf entries)."""
        views = sum(t.n_rows for t in self._views.values())
        indexes = sum(len(t) for t in self._indexes.values())
        return views + indexes

    def stats(self) -> Dict[str, int]:
        """Structure and row counts, for serving telemetry headers."""
        return {
            "views": len(self._views),
            "indexes": len(self._indexes),
            "rows": self.total_rows(),
            "fact_rows": self.fact.n_rows,
        }

    def __repr__(self) -> str:
        return (
            f"Catalog(views={len(self._views)}, indexes={len(self._indexes)}, "
            f"rows={self.total_rows()})"
        )
