"""Executing slice queries against materialized views and indexes.

The executor answers a concrete slice query (attribute values supplied for
every selection attribute) from the catalog, counting the **rows
processed** — the paper's cost measure.  A plan is a ``(view, index)``
pair; with an index whose key has a usable prefix, only the index entries
matching the prefix values are touched (one binary-search range over the
sorted leaf level, see :class:`~repro.engine.catalog.SortedIndex`);
otherwise the whole view table is scanned.

This makes the linear cost model falsifiable: the expected number of rows
an index plan touches is ``|V| / |E|`` where ``|E|`` is the number of
distinct prefix combinations, which is exactly ``c(Q, V, J)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.core.costmodel import LinearCostModel
from repro.core.index import Index
from repro.core.query import SliceQuery
from repro.core.view import View
from repro.engine.catalog import Catalog


@dataclass(frozen=True)
class PlanChoice:
    """One candidate plan considered by the planner."""

    view: View
    index: Optional[Index]
    usable_prefix: tuple
    estimated_cost: float

    def __str__(self) -> str:
        via = str(self.index) if self.index is not None else f"scan {self.view}"
        return f"{via}: ~{self.estimated_cost:g} rows"


@dataclass
class QueryResult:
    """Result of executing one slice query."""

    query: SliceQuery
    view: View
    index: Optional[Index]
    rows_processed: int
    groups: Dict[tuple, float] = field(default_factory=dict)

    @property
    def n_groups(self) -> int:
        return len(self.groups)


class Executor:
    """Answers slice queries from a :class:`Catalog`.

    Parameters
    ----------
    catalog:
        The materialized views and indexes.
    cost_model:
        Optional :class:`LinearCostModel` used by :meth:`choose_plan`.
        Without it, plans are chosen from the *actual* table statistics
        (view row counts and distinct prefix counts), which the catalog
        can always supply.
    """

    def __init__(self, catalog: Catalog, cost_model: Optional[LinearCostModel] = None):
        self.catalog = catalog
        self.cost_model = cost_model
        # keyed on the catalog version too: a maintenance delta replaces
        # the fact table, so counts taken before it are stale
        self._distinct_cache: Dict[Tuple[int, View, tuple], int] = {}

    # ------------------------------------------------------------ planning

    def _estimated_cost(self, query: SliceQuery, view: View,
                        index: Optional[Index]) -> float:
        if self.cost_model is not None:
            return self.cost_model.cost(query, view, index)
        table = self.catalog.view_table(view)
        if index is None:
            return float(table.n_rows)
        prefix = index.usable_prefix(query)
        if not prefix:
            return float(table.n_rows)
        cache_key = (self.catalog.version, view, prefix)
        if cache_key not in self._distinct_cache:
            self._distinct_cache[cache_key] = self.catalog.fact.distinct_count(prefix)
        distinct = self._distinct_cache[cache_key]
        return max(1.0, table.n_rows / max(1, distinct))

    def explain(self, query: SliceQuery) -> list:
        """All candidate plans for the query with their estimated costs.

        Returns ``PlanChoice`` records sorted cheapest-first; the head is
        what :meth:`choose_plan` would pick.  Useful for understanding
        why a plan won (and for asserting planner behaviour in tests).
        """
        choices = []
        for view in self.catalog.views():
            if not query.answerable_by(view):
                continue
            for index in [None] + self.catalog.indexes_on(view):
                prefix = index.usable_prefix(query) if index is not None else ()
                choices.append(
                    PlanChoice(
                        view=view,
                        index=index,
                        usable_prefix=prefix,
                        estimated_cost=self._estimated_cost(query, view, index),
                    )
                )
        choices.sort(key=lambda c: (c.estimated_cost, c.index is not None))
        return choices

    def choose_plan(self, query: SliceQuery) -> Tuple[View, Optional[Index]]:
        """Cheapest ``(view, index)`` plan among materialized structures.

        Raises ``LookupError`` if no materialized view can answer the
        query (the caller falls back to raw data).
        """
        view, index, _cost = self.plan_with_cost(query)
        return view, index

    def plan_with_cost(
        self, query: SliceQuery
    ) -> Tuple[View, Optional[Index], float]:
        """Like :meth:`choose_plan`, plus the winning plan's estimated
        cost — the prediction the serving telemetry compares against the
        rows actually processed, from the same model the router used.

        Raises ``LookupError`` if no materialized view can answer the
        query (the caller falls back to raw data).
        """
        best: Optional[Tuple[View, Optional[Index]]] = None
        best_cost = float("inf")
        for view in self.catalog.views():
            if not query.answerable_by(view):
                continue
            candidates = [None] + self.catalog.indexes_on(view)
            for index in candidates:
                cost = self._estimated_cost(query, view, index)
                if cost < best_cost:
                    best_cost = cost
                    best = (view, index)
        if best is None:
            raise LookupError(f"no materialized view answers {query}")
        return best[0], best[1], best_cost

    # ----------------------------------------------------------- execution

    def execute(
        self,
        query: SliceQuery,
        selection_values: Mapping[str, int],
        plan: Optional[Tuple[View, Optional[Index]]] = None,
        measure: Optional[str] = None,
    ) -> QueryResult:
        """Run the query with the given concrete selection values.

        ``selection_values`` must provide a value for every selection
        attribute of the query.  ``plan`` overrides plan choice (useful
        for measuring a specific view/index combination).  ``measure``
        picks which measure column to aggregate (default: the view's
        primary measure).
        """
        missing = query.selection - set(selection_values)
        if missing:
            raise ValueError(f"missing selection values for {sorted(missing)}")
        if plan is None:
            plan = self.choose_plan(query)
        view, index = plan
        if not query.answerable_by(view):
            raise ValueError(f"plan view {view} cannot answer {query}")
        if index is not None and index.view != view:
            raise ValueError(f"plan index {index} is not on view {view}")

        table = self.catalog.view_table(view)
        value_column = table.values_for(measure)
        groupby = tuple(a for a in table.attrs if a in query.groupby)
        residual = [a for a in table.attrs if a in query.selection]

        groups: Dict[tuple, float] = {}
        rows_processed = 0

        prefix = index.usable_prefix(query) if index is not None else ()
        if index is not None and prefix:
            sorted_index = self.catalog.sorted_index(index)
            prefix_key = tuple(int(selection_values[a]) for a in prefix)
            residual = [a for a in residual if a not in prefix]
            for row in sorted_index.prefix_rows(prefix_key).tolist():
                rows_processed += 1
                if any(
                    int(table.key_columns[a][row]) != int(selection_values[a])
                    for a in residual
                ):
                    continue
                key = table.row_key(row, groupby)
                groups[key] = groups.get(key, 0.0) + float(value_column[row])
        else:
            # full scan of the view table
            rows_processed = table.n_rows
            cols = {a: table.key_columns[a] for a in table.attrs}
            for row in range(table.n_rows):
                if any(
                    int(cols[a][row]) != int(selection_values[a]) for a in residual
                ):
                    continue
                key = tuple(int(cols[a][row]) for a in groupby)
                groups[key] = groups.get(key, 0.0) + float(value_column[row])

        return QueryResult(
            query=query,
            view=view,
            index=index,
            rows_processed=rows_processed,
            groups=groups,
        )
