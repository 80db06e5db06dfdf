"""A SQLite execution backend for the selected structures.

The backend mirrors a :class:`~repro.engine.catalog.Catalog` into a real
SQLite database: the fact table and every materialized view become
ordinary tables (view rows are inserted exactly as the row engine
aggregated them, so the mirrored contents are bit-identical by
construction), and every selected B-tree or fat index becomes a real
``CREATE INDEX`` over its view table.  Slice queries are then answered
by SQL statements built with :func:`repro.sql.format_select` — the same
emitter behind :func:`repro.sql.to_sql` — and executed by SQLite's own
planner, which is free to (and on prefix plans does) use the created
indexes.

Result fidelity mirrors the row engine's semantics exactly:

* group keys are tuples of the groupby attributes in schema order, the
  same key shape :meth:`repro.engine.executor.Executor.execute` builds;
* an ungrouped query over zero matching rows answers ``{}`` (SQLite's
  ``SUM`` returns NULL there, which is mapped back to "no groups");
* ``rows_processed`` follows the engine's accounting — a usable index
  prefix counts the entries behind the bound prefix (computed by SQLite
  itself with ``COUNT(*)`` over the prefix predicates), a view scan
  counts the whole view, the raw fallback counts the whole fact table.

On integer-valued measures (the dense serving fixtures and the
differential harness's random facts) answers are byte-identical to the
row engine regardless of accumulation order; with arbitrary floats the
sums agree to accumulation-order rounding, which is why the differential
suite pins integral measures.

The mirror follows the catalog incrementally.  Each view row is stored
under the rowid equal to its key's mixed-radix code over the schema
cardinalities (:func:`repro.engine.coding.key_codes`), so rowid order is
engine row order in every mirror state.  A fact delta (a
``catalog.version`` bump on the same catalog and generation) is then
applied as a delta: the new fact rows are appended, and each view's
previously mirrored table is diffed against the catalog's current one
on their sorted key codes — changed measures become ``UPDATE``s by
rowid and new groups ``INSERT``s, while SQLite maintains the
``CREATE INDEX``es itself.  Anything a delta cannot express (a new
generation or catalog, a changed view, index or measure set, a vanished
key, a rewritten fact prefix, or keys too wide for an ``int64`` code)
rebuilds the mirror from scratch, which leaves the same tables, rowids
and DDL.

The backend also reports what SQLite *actually did*: each result carries
the ``EXPLAIN QUERY PLAN`` detail lines and the index the plan used, the
raw material for the measured-vs-predicted validation pass
(:mod:`repro.backends.validate`).
"""

from __future__ import annotations

import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.costmodel import LinearCostModel
from repro.core.index import Index
from repro.core.query import SliceQuery
from repro.core.view import View
from repro.cube.schema import CubeSchema
from repro.engine.catalog import Catalog
from repro.engine.coding import key_codes
from repro.engine.executor import Executor
from repro.engine.table import FactTable, ViewTable
from repro.sql import _IDENTIFIER_RE, format_select

#: Name of the mirrored fact table.
FACT_TABLE = "fact"


class BackendError(RuntimeError):
    """Raised when a catalog cannot be mirrored or a query cannot run."""


@dataclass
class SqlResult:
    """One slice query answered by the SQLite mirror.

    Field-compatible with the row engine's
    :class:`~repro.engine.executor.QueryResult` (``query``, ``view``,
    ``index``, ``rows_processed``, ``groups``) so differential checks
    can compare the two directly, plus the SQL-side specifics: the
    statement text, the ``EXPLAIN QUERY PLAN`` detail lines, and the
    wall-clock seconds the answer query took.
    """

    query: SliceQuery
    view: Optional[View]
    index: Optional[Index]
    rows_processed: int
    groups: Dict[tuple, float]
    sql: str
    explain: Tuple[str, ...]
    wall_s: float

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def used_index(self) -> Optional[str]:
        """Name of the index SQLite's plan used, if any."""
        for detail in self.explain:
            if "USING INDEX " in detail or "USING COVERING INDEX " in detail:
                return detail.rsplit("INDEX ", 1)[1].split(" ")[0]
        return None


def view_table_name(attrs: Tuple[str, ...]) -> str:
    """The mirrored table name for a view with the given ordered attrs.

    ``("p", "s")`` → ``view_p_s``; the empty (grand-total) view is
    ``view_total``.
    """
    return "view_" + ("_".join(attrs) or "total")


def index_name(index: Index, table: str) -> str:
    """A unique SQLite index name: ``idx_<view table>__<key order>``."""
    return f"idx_{table}__{'_'.join(index.key)}"


def view_rowids(table: ViewTable, schema: CubeSchema) -> Optional[np.ndarray]:
    """The mirrored rowids of a view's rows: each key's code over the
    schema cardinalities of ``table.attrs``.

    ``None`` when the codes cannot serve as rowids in engine row order —
    they overflow ``int64``, a key lies outside its dimension's domain,
    or the rows are not strictly ascending by key — in which case the
    view is mirrored under SQLite's own rowids and every change to it
    rebuilds the mirror.
    """
    if not table.attrs:
        return np.zeros(table.n_rows, dtype=np.int64) if table.n_rows <= 1 else None
    columns = [table.key_columns[a] for a in table.attrs]
    dims = [schema.cardinality(a) for a in table.attrs]
    try:
        codes = key_codes(columns, dims)
    except ValueError:  # a key outside its dimension's domain
        return None
    if codes is None or not (codes[1:] > codes[:-1]).all():
        return None
    return codes


def _same_bits(old: np.ndarray, new: np.ndarray) -> bool:
    """Whether two equal-length columns hold bitwise the same values."""
    if old.dtype.kind == "f":
        old, new = old.view(np.int64), new.view(np.int64)
    return bool(np.array_equal(old, new))


class SqliteBackend:
    """Mirror a catalog into SQLite and answer slice queries there.

    Parameters
    ----------
    catalog:
        Loaded immediately when given; otherwise call :meth:`load` (or
        :meth:`sync`, which the serving path uses) before executing.
    cost_model:
        Used by the internal planner when :meth:`execute` is called
        without an explicit plan — pass the same model the row-engine
        executor plans with so both sides route identically.
    path:
        SQLite database path (default in-memory).
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        cost_model: Optional[LinearCostModel] = None,
        path: str = ":memory:",
    ):
        # serving may execute batches from pool threads; one coarse lock
        # serializes mirror rebuilds and statement execution, so a hot
        # swap can never race a concurrent reader on the shared handle
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.RLock()
        self.cost_model = cost_model
        self.catalog: Optional[Catalog] = None
        self._planner: Optional[Executor] = None
        self._token: Optional[tuple] = None
        self._view_names: Dict[View, str] = {}
        self._view_rows: Dict[View, int] = {}
        self._fact_rows = 0
        # what the mirror holds, by reference: the fact table and view
        # tables last written, each view's rowids (None: not codable),
        # and the index list — the base a delta sync diffs against
        self._fact: Optional[FactTable] = None
        self._tables: Dict[View, ViewTable] = {}
        self._rowids: Dict[View, Optional[np.ndarray]] = {}
        self._indexes: Tuple[Index, ...] = ()
        #: How many times the mirror was (re)built from scratch — lets
        #: tests assert that only a fallback rebuilds and no-op batches
        #: do nothing.
        self.reloads = 0
        #: How many version bumps were applied to the mirror as a delta.
        self.delta_syncs = 0
        if catalog is not None:
            self.load(catalog)

    # ------------------------------------------------------------- mirror

    def load(self, catalog: Catalog, generation: int = 0) -> None:
        """(Re)build the SQLite mirror of ``catalog`` from scratch.

        Drops every mirrored table, recreates the fact table and one
        table per materialized view (rows inserted in engine row order,
        under the rowids of :func:`view_rowids` where they exist), and
        issues one ``CREATE INDEX`` per selected index.
        """
        with self._lock:
            schema = catalog.fact.schema
            names = (*schema.names, schema.measure, *catalog.fact.extra_measures)
            for name in names:
                if not _IDENTIFIER_RE.match(name):
                    raise BackendError(
                        f"cannot mirror column {name!r}: not a SQL identifier"
                    )
            if len(set(names)) != len(names):
                raise BackendError(f"column names collide: {sorted(names)}")

            conn = self._conn
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ).fetchall():
                conn.execute(f'DROP TABLE IF EXISTS "{name}"')

            fact = catalog.fact
            dim_cols = ", ".join(f"{n} INTEGER NOT NULL" for n in schema.names)
            measure_cols = ", ".join(
                f"{n} REAL NOT NULL" for n in (schema.measure, *fact.extra_measures)
            )
            conn.execute(f"CREATE TABLE {FACT_TABLE} ({dim_cols}, {measure_cols})")
            columns = [fact.columns[n].tolist() for n in schema.names]
            columns.append(fact.measures.tolist())
            columns.extend(col.tolist() for col in fact.extra_measures.values())
            placeholders = ", ".join("?" * len(columns))
            conn.executemany(
                f"INSERT INTO {FACT_TABLE} VALUES ({placeholders})", zip(*columns)
            )

            self._view_names = {}
            self._view_rows = {}
            self._tables = {}
            self._rowids = {}
            for view in catalog.views():
                table = catalog.view_table(view)
                name = view_table_name(table.attrs)
                key_cols = ", ".join(f"{a} INTEGER NOT NULL" for a in table.attrs)
                cols = f"{key_cols}, " if key_cols else ""
                conn.execute(
                    f"CREATE TABLE {name} ({cols}{table.measure} REAL NOT NULL)"
                )
                rowids = view_rowids(table, schema)
                self._insert_rows(name, table, slice(None), rowids)
                self._view_names[view] = name
                self._view_rows[view] = table.n_rows
                self._tables[view] = table
                self._rowids[view] = rowids

            for index in catalog.indexes():
                table_name = self._view_names[index.view]
                conn.execute(
                    f"CREATE INDEX {index_name(index, table_name)} "
                    f"ON {table_name} ({', '.join(index.key)})"
                )
            conn.commit()

            self.catalog = catalog
            self._planner = Executor(catalog, self.cost_model)
            self._fact = fact
            self._fact_rows = fact.n_rows
            self._indexes = tuple(catalog.indexes())
            self._token = (generation, catalog.version)
            self.reloads += 1

    def _insert_rows(
        self, name: str, table: ViewTable, rows, rowids: Optional[np.ndarray]
    ) -> None:
        """Insert the given rows of a view (keys in ``table.attrs`` order,
        then the primary measure), under their rowids when it has them."""
        names = [*table.attrs, table.measure]
        columns = [table.key_columns[a][rows].tolist() for a in table.attrs]
        columns.append(table.values[rows].tolist())
        if rowids is not None:
            names.insert(0, "rowid")
            columns.insert(0, rowids[rows].tolist())
        self._conn.executemany(
            f"INSERT INTO {name} ({', '.join(names)}) "
            f"VALUES ({', '.join('?' * len(names))})",
            zip(*columns),
        )

    def _plan_delta(self, catalog: Catalog, generation: int) -> Optional[list]:
        """Per-view changes that carry the mirror to ``catalog``, or
        ``None`` when only a rebuild can.

        Each entry is ``(view, table, rowids, changed, added)``: the
        catalog's current table and its rowids, the positions (in the
        current table) of groups the mirror holds with a different
        measure, and of groups it does not hold yet.
        """
        old_fact, fact = self._fact, catalog.fact
        if (
            catalog is not self.catalog
            or generation != self._token[0]
            or tuple(catalog.views()) != tuple(self._tables)
            or tuple(catalog.indexes()) != self._indexes
            or fact.schema != old_fact.schema
            or fact.measure_names != old_fact.measure_names
            or fact.n_rows < old_fact.n_rows
        ):
            return None
        if fact is not old_fact:
            n = old_fact.n_rows
            for name in fact.schema.names:
                if not _same_bits(old_fact.columns[name], fact.columns[name][:n]):
                    return None
            for name in fact.measure_names:
                old = old_fact.measure_column(name)
                if not _same_bits(old, fact.measure_column(name)[:n]):
                    return None
        plan = []
        for view, old in self._tables.items():
            table = catalog.view_table(view)
            if table is old:
                continue
            old_ids = self._rowids[view]
            if (
                old_ids is None
                or table.attrs != old.attrs
                or table.measure != old.measure
            ):
                return None
            rowids = view_rowids(table, fact.schema)
            if rowids is None:
                return None
            at = np.searchsorted(rowids, old_ids)
            if len(old_ids) and (
                at[-1] >= len(rowids) or not np.array_equal(rowids[at], old_ids)
            ):
                return None  # a group the mirror holds has vanished
            moved = table.values[at].view(np.int64) != old.values.view(np.int64)
            added = np.ones(len(rowids), dtype=bool)
            added[at] = False
            plan.append(
                (view, table, rowids, at[moved], np.flatnonzero(added))
            )
        return plan

    def _apply_delta(self, catalog: Catalog, generation: int, plan: list) -> None:
        """Write a :meth:`_plan_delta` plan and the new fact rows in one
        transaction; on an error it rolls back and the mirror keeps its
        previous state."""
        conn = self._conn
        fact = catalog.fact
        new = slice(self._fact_rows, fact.n_rows)
        try:
            if new.start < new.stop:
                columns = [fact.columns[n][new].tolist() for n in fact.schema.names]
                columns.extend(
                    fact.measure_column(n)[new].tolist() for n in fact.measure_names
                )
                marks = ", ".join("?" * len(columns))
                conn.executemany(
                    f"INSERT INTO {FACT_TABLE} VALUES ({marks})", zip(*columns)
                )
            for view, table, rowids, changed, added in plan:
                name = self._view_names[view]
                if len(changed):
                    conn.executemany(
                        f"UPDATE {name} SET {table.measure} = ? WHERE rowid = ?",
                        zip(table.values[changed].tolist(), rowids[changed].tolist()),
                    )
                if len(added):
                    self._insert_rows(name, table, added, rowids)
            conn.commit()
        except sqlite3.Error:
            conn.rollback()
            raise
        for view, table, rowids, _, _ in plan:
            self._tables[view] = table
            self._rowids[view] = rowids
            self._view_rows[view] = table.n_rows
        self._fact = fact
        self._fact_rows = fact.n_rows
        self._token = (generation, catalog.version)
        self.delta_syncs += 1

    def sync(self, catalog: Catalog, generation: int = 0) -> bool:
        """Bring the mirror up to date iff the serving data changed.

        The token is ``(generation, catalog.version)`` — the same pair
        the serving result cache tags entries with — so steady batches
        are no-ops.  An applied fact delta (version bump on the same
        catalog and generation) is written as a delta: the new fact rows
        are appended and each view gets ``UPDATE``s for its changed
        groups and ``INSERT``s for its new ones (counted in
        :attr:`delta_syncs`).  A hot swap (new generation or catalog),
        a changed view, index or measure set, a vanished group or a
        rewritten fact prefix rebuilds the mirror with :meth:`load`
        (counted in :attr:`reloads`).  Either way the mirror ends up
        row-for-row, rowid for rowid, what a fresh :meth:`load` builds.
        Returns whether the mirror changed.
        """
        with self._lock:
            token = (generation, catalog.version)
            if catalog is self.catalog and token == self._token:
                return False
            plan = self._plan_delta(catalog, generation)
            if plan is None:
                self.load(catalog, generation=generation)
            else:
                self._apply_delta(catalog, generation, plan)
            return True

    def ddl(self) -> List[str]:
        """The mirror's ``CREATE`` statements, as SQLite stores them."""
        return [
            sql
            for (sql,) in self._conn.execute(
                "SELECT sql FROM sqlite_master WHERE sql IS NOT NULL"
            ).fetchall()
        ]

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------- execution

    def _require_loaded(self) -> Catalog:
        if self.catalog is None:
            raise BackendError("no catalog loaded; call load() first")
        return self.catalog

    def _run(self, sql: str) -> Tuple[list, Tuple[str, ...], float]:
        explain = tuple(
            str(row[-1])
            for row in self._conn.execute("EXPLAIN QUERY PLAN " + sql)
        )
        start = time.perf_counter()
        rows = self._conn.execute(sql).fetchall()
        return rows, explain, time.perf_counter() - start

    @staticmethod
    def _groups_from_rows(rows: list, n_keys: int) -> Dict[tuple, float]:
        if n_keys == 0:
            (total,) = rows[0]
            return {} if total is None else {(): float(total)}
        # sqlite3 already decodes the INTEGER key columns to int and a
        # SUM over the REAL measure to float
        return {row[:-1]: row[-1] for row in rows}

    def execute(
        self,
        query: SliceQuery,
        selection_values: Mapping[str, int],
        plan: Optional[Tuple[View, Optional[Index]]] = None,
    ) -> SqlResult:
        """Answer a slice query from a mirrored view table.

        Mirrors :meth:`Executor.execute`: ``plan`` overrides the routing
        decision; without it the internal planner picks the cheapest
        ``(view, index)`` pair (raising ``LookupError`` when nothing
        materialized answers — callers fall back to :meth:`execute_raw`,
        exactly like the engine's serving path).
        """
        with self._lock:
            catalog = self._require_loaded()
            missing = query.selection - set(selection_values)
            if missing:
                raise ValueError(f"missing selection values for {sorted(missing)}")
            if plan is None:
                plan = self._planner.choose_plan(query)
            view, index = plan
            if not query.answerable_by(view):
                raise ValueError(f"plan view {view} cannot answer {query}")
            if index is not None and index.view != view:
                raise ValueError(f"plan index {index} is not on view {view}")

            table = catalog.view_table(view)
            table_name = self._view_names[view]
            groupby = [a for a in table.attrs if a in query.groupby]
            where = [
                (a, int(selection_values[a]))
                for a in table.attrs
                if a in query.selection
            ]
            sql = format_select(
                groupby, "sum", table.measure, table_name, where, groupby
            )
            rows, explain, wall_s = self._run(sql)
            groups = self._groups_from_rows(rows, len(groupby))

            prefix = index.usable_prefix(query) if index is not None else ()
            if prefix:
                conjunction = " AND ".join(
                    f"{a} = {int(selection_values[a])}" for a in prefix
                )
                (rows_processed,) = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table_name} WHERE {conjunction}"
                ).fetchone()
            else:
                rows_processed = self._view_rows[view]
            return SqlResult(
                query=query,
                view=view,
                index=index,
                rows_processed=int(rows_processed),
                groups=groups,
                sql=sql,
                explain=explain,
                wall_s=wall_s,
            )

    def execute_raw(
        self, query: SliceQuery, selection_values: Mapping[str, int]
    ) -> SqlResult:
        """Answer a slice query from the mirrored raw fact table.

        The fallback path: the whole fact table counts as rows
        processed, matching the engine's raw-serving accounting.
        """
        with self._lock:
            catalog = self._require_loaded()
            missing = query.selection - set(selection_values)
            if missing:
                raise ValueError(f"missing selection values for {sorted(missing)}")
            schema = catalog.fact.schema
            groupby = list(schema.sort_attrs(query.groupby))
            where = [
                (a, int(selection_values[a]))
                for a in schema.sort_attrs(query.selection)
            ]
            sql = format_select(
                groupby, "sum", schema.measure, FACT_TABLE, where, groupby
            )
            rows, explain, wall_s = self._run(sql)
            return SqlResult(
                query=query,
                view=None,
                index=None,
                rows_processed=self._fact_rows,
                groups=self._groups_from_rows(rows, len(groupby)),
                sql=sql,
                explain=explain,
                wall_s=wall_s,
            )
