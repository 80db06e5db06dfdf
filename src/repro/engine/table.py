"""Column-oriented tables for the mini-ROLAP engine.

Two table kinds:

* :class:`FactTable` — the raw data: one integer column per dimension plus
  a float measure column.
* :class:`ViewTable` — a materialized subcube: distinct attribute
  combinations with the aggregated measure, sorted by key.

Both are numpy-backed and deliberately simple; the engine exists to count
rows processed, not to win benchmarks.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.view import View
from repro.cube.schema import CubeSchema
from repro.engine.coding import key_codes


class FactTable:
    """The raw fact table: dimension columns plus measure column(s).

    ``measures`` is the schema's primary measure; ``extra_measures``
    optionally adds further named measure columns (e.g. ``quantity``
    next to ``sales``) that materialized views aggregate alongside the
    primary one.
    """

    def __init__(
        self,
        schema: CubeSchema,
        columns: Mapping[str, np.ndarray],
        measures: np.ndarray,
        extra_measures: Optional[Mapping[str, np.ndarray]] = None,
    ):
        self.schema = schema
        missing = set(schema.names) - set(columns)
        if missing:
            raise ValueError(f"missing dimension columns: {sorted(missing)}")
        extra_measures = dict(extra_measures or {})
        collisions = set(extra_measures) & (set(schema.names) | {schema.measure})
        if collisions:
            raise ValueError(
                f"extra measures collide with schema names: {sorted(collisions)}"
            )
        lengths = {name: len(columns[name]) for name in schema.names}
        lengths[schema.measure] = len(measures)
        for name, values in extra_measures.items():
            lengths[name] = len(values)
        if len(set(lengths.values())) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        self.columns: Dict[str, np.ndarray] = {
            name: np.asarray(columns[name], dtype=np.int64) for name in schema.names
        }
        for name, col in self.columns.items():
            card = schema.cardinality(name)
            if col.size and (col.min() < 0 or col.max() >= card):
                raise ValueError(
                    f"column {name!r} has values outside [0, {card})"
                )
        self.measures = np.asarray(measures, dtype=np.float64)
        self.extra_measures: Dict[str, np.ndarray] = {
            name: np.asarray(values, dtype=np.float64)
            for name, values in extra_measures.items()
        }

    @property
    def n_rows(self) -> int:
        return len(self.measures)

    @property
    def measure_names(self) -> Tuple[str, ...]:
        """The primary measure followed by any extra measures."""
        return (self.schema.measure, *self.extra_measures)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def measure_column(self, name: Optional[str] = None) -> np.ndarray:
        """The named measure column (default: the schema's measure)."""
        if name is None or name == self.schema.measure:
            return self.measures
        try:
            return self.extra_measures[name]
        except KeyError:
            raise KeyError(
                f"unknown measure {name!r}; have {self.measure_names}"
            ) from None

    def distinct_count(self, attrs: Sequence[str]) -> int:
        """Number of distinct combinations of the given attributes —
        exactly the size of the view grouping by them.

        Each row's combination is coded as one mixed-radix integer over
        the attributes' domains (:func:`repro.engine.coding.key_codes`),
        so a 1-D ``np.unique`` counts them; only when the domains'
        product would overflow ``int64`` does the count fall back to the
        (much slower) row-wise ``np.unique(axis=0)``.
        """
        if not attrs:
            return 1
        columns = [self.columns[a] for a in attrs]
        codes = key_codes(columns, [self.schema.cardinality(a) for a in attrs])
        if codes is None:
            stacked = np.stack(columns, axis=1)
            return int(np.unique(stacked, axis=0).shape[0])
        return int(np.unique(codes).size)

    def __repr__(self) -> str:
        return f"FactTable({self.schema.names}, rows={self.n_rows})"


class ViewTable:
    """A materialized view: sorted distinct keys with aggregated measures.

    ``attrs`` fixes the column order of the keys (schema order).  The table
    is sorted lexicographically by key, which lets the executor and the
    index builder work with plain arrays.
    """

    def __init__(
        self,
        view: View,
        attrs: Tuple[str, ...],
        key_columns: Mapping[str, np.ndarray],
        values: np.ndarray,
        agg: str = "sum",
        extra_values: Optional[Mapping[str, np.ndarray]] = None,
        measure: str = "sales",
    ):
        if set(attrs) != set(view.attrs):
            raise ValueError(f"attrs {attrs} do not match view {view}")
        self.view = view
        self.attrs = tuple(attrs)
        self.agg = agg
        self.measure = measure
        self.key_columns = {a: np.asarray(key_columns[a]) for a in attrs}
        self.values = np.asarray(values, dtype=np.float64)
        self.extra_values: Dict[str, np.ndarray] = {
            name: np.asarray(col, dtype=np.float64)
            for name, col in (extra_values or {}).items()
        }
        lengths = {len(col) for col in self.key_columns.values()}
        lengths.add(len(self.values))
        lengths.update(len(col) for col in self.extra_values.values())
        if len(lengths) != 1:
            raise ValueError("key/value column lengths differ")

    @property
    def n_rows(self) -> int:
        return len(self.values)

    def values_for(self, measure: Optional[str] = None) -> np.ndarray:
        """The aggregated column for the named measure.

        ``None`` means the primary measure the table was built with.
        """
        if measure is None or measure == self.measure:
            return self.values
        try:
            return self.extra_values[measure]
        except KeyError:
            raise KeyError(
                f"view {self.view} has no measure {measure!r}; "
                f"available: {(self.measure, *self.extra_values)}"
            ) from None

    def row_key(self, row: int, attrs: Sequence[str]) -> tuple:
        """The values of the given attributes in the given row."""
        return tuple(int(self.key_columns[a][row]) for a in attrs)

    def iter_rows(self) -> Iterator[Tuple[tuple, float]]:
        """Yield ``(key, value)`` with keys in ``self.attrs`` order."""
        cols = [self.key_columns[a] for a in self.attrs]
        for row in range(self.n_rows):
            yield tuple(int(c[row]) for c in cols), float(self.values[row])

    def __repr__(self) -> str:
        return f"ViewTable({self.view}, rows={self.n_rows})"
