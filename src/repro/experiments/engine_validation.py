"""E9: validating the linear cost model against the execution engine.

The cost formula ``c(Q, V, J) = |C| / |E|`` (Section 4.1.1) predicts the
*average* number of rows touched when a slice query with random selection
values runs through an index.  This experiment makes the prediction
falsifiable: it generates a small cube, materializes views and fat
indexes, executes each slice query for many random selection-value
draws through the indexes (each a static B+tree's sorted leaf level),
and compares the measured mean rows-processed against the model (with
exact sizes taken from the actual data, so the only approximation under
test is the cost formula itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.costmodel import LinearCostModel
from repro.core.index import Index, enumerate_fat_indexes
from repro.core.lattice import CubeLattice
from repro.core.query import SliceQuery, enumerate_slice_queries
from repro.core.view import View
from repro.cube.generator import generate_fact_table
from repro.cube.schema import CubeSchema, Dimension
from repro.engine.catalog import Catalog
from repro.engine.coding import group_rows
from repro.engine.executor import Executor
from repro.estimation.sizes import exact_sizes_from_rows
from repro.experiments.reporting import ascii_table


@dataclass
class ValidationRow:
    """Model-vs-measured for one (query, view, index) plan."""

    query: SliceQuery
    view: View
    index: Optional[Index]
    model_cost: float
    measured_mean: float

    @property
    def relative_error(self) -> float:
        denom = max(self.model_cost, 1.0)
        return abs(self.measured_mean - self.model_cost) / denom


def default_cube() -> Tuple[CubeSchema, "object"]:
    """A small 3-d cube with skew and correlation (the hard case for the
    independence assumption — but sizes here are exact, not estimated)."""
    schema = CubeSchema(
        [Dimension("a", 40), Dimension("b", 25), Dimension("c", 12)]
    )
    fact = generate_fact_table(
        schema, 5_000, rng=7, skew={"a": 0.5}, correlated={"b": ("a", 3)}
    )
    return schema, fact


def run_validation(
    max_prefix_draws: int = 400,
    rng_seed: int = 11,
) -> List[ValidationRow]:
    """Execute every selective slice query through its best plan and
    compare measured mean rows-processed to the model prediction.

    The model's ``|C| / |E|`` is exactly the mean rows touched when the
    query's prefix values range uniformly over the *distinct* prefix
    combinations present in the view, so we enumerate those combinations
    (sampling without replacement when there are more than
    ``max_prefix_draws``).  With full enumeration and exact sizes the two
    numbers agree to the last decimal — the discrepancy under sampling is
    pure sampling noise.
    """
    schema, fact = default_cube()
    lattice = CubeLattice.from_estimator(
        schema, exact_sizes_from_rows(schema, fact.columns)
    )
    model = LinearCostModel(lattice)
    catalog = Catalog(fact)
    executor = Executor(catalog, cost_model=model)
    rng = np.random.default_rng(rng_seed)

    # materialize every view and all fat indexes of the top two levels
    for view in lattice.views():
        catalog.materialize(view)
        if len(view) >= schema.n_dims - 1:
            for index in enumerate_fat_indexes(view):
                catalog.build_index(index)

    rows: List[ValidationRow] = []
    queries = [q for q in enumerate_slice_queries(schema.names) if q.selection]
    for query in queries:
        view, index = executor.choose_plan(query)
        prefix = index.usable_prefix(query) if index is not None else ()
        measured = []
        for values in _selection_value_draws(
            fact, query, prefix, max_prefix_draws, rng
        ):
            result = executor.execute(query, values, plan=(view, index))
            measured.append(result.rows_processed)
        rows.append(
            ValidationRow(
                query=query,
                view=view,
                index=index,
                model_cost=model.cost(query, view, index),
                measured_mean=float(np.mean(measured)),
            )
        )
    return rows


def _selection_value_draws(fact, query: SliceQuery, prefix, max_draws, rng):
    """Yield selection-value dicts whose prefix part ranges uniformly over
    the distinct prefix combinations in the data.

    Residual selection attributes (outside the index prefix) get values
    from an arbitrary data row — they are filtered *after* the index scan
    and do not change the rows-processed count.
    """
    residual = sorted(query.selection - set(prefix))
    anchor_row = int(rng.integers(0, fact.n_rows))
    residual_values = {a: int(fact.column(a)[anchor_row]) for a in residual}
    if not prefix:
        yield dict(residual_values)
        return
    unique_cols, _, _ = group_rows([fact.column(a) for a in prefix])
    distinct = np.stack(unique_cols, axis=1)
    if len(distinct) > max_draws:
        picks = rng.choice(len(distinct), size=max_draws, replace=False)
        distinct = distinct[picks]
    for combo in distinct:
        values = dict(residual_values)
        values.update({a: int(v) for a, v in zip(prefix, combo)})
        yield values


def format_validation(rows: Sequence[ValidationRow]) -> str:
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                str(row.query),
                str(row.view),
                str(row.index) if row.index else "-",
                round(row.model_cost, 1),
                round(row.measured_mean, 1),
                f"{row.relative_error:.1%}",
            ]
        )
    worst = max(rows, key=lambda r: r.relative_error)
    table = ascii_table(
        ["query", "view", "index", "model", "measured", "rel err"],
        table_rows,
        title="E9 — linear cost model vs engine-measured rows processed",
    )
    return table + f"\nworst relative error: {worst.relative_error:.1%} ({worst.query})"


def main() -> List[ValidationRow]:
    rows = run_validation()
    print(format_validation(rows))
    return rows


if __name__ == "__main__":
    main()
