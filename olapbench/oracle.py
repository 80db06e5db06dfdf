"""Independent checks of what the library returns.

Answers are recomputed by a numpy group-by over the benchmark's own copy
of the raw facts: the rows it built the server from plus every delta it
has handed the server since.  Selections are re-costed independently with the
paper's ``|C| / |E|`` formula over the lattice sizes, without the
query-view graph or the benefit engine that produced them.  Nothing here
runs inside a timed region.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

#: Relative tolerance for τ and space: the engine sums frequency-weighted
#: costs in another order than the oracle does.
REL_TOL = 1e-9


def group_by(fact, query, bound_values: Mapping[str, int]) -> Dict[tuple, float]:
    """``SUM(measure)`` of ``query`` over the raw fact table.

    Group keys are tuples of the group-by attributes in schema order,
    the key shape the engine and the SQLite backend both use; an
    ungrouped query over no matching rows has no groups.
    """
    schema = fact.schema
    rows = slice(None)
    if bound_values:
        mask = np.ones(fact.n_rows, dtype=bool)
        for attr, value in bound_values.items():
            mask &= fact.columns[attr] == value
        rows = np.flatnonzero(mask)
    measures = fact.measures[rows]
    groupby = [a for a in schema.names if a in query.groupby]
    if not groupby:
        return {(): float(measures.sum())} if measures.size else {}
    # one mixed-radix code per row over the group-by attributes
    code = np.zeros(measures.size, dtype=np.int64)
    for attr in groupby:
        code = code * schema.cardinality(attr) + fact.columns[attr][rows]
    unique, inverse = np.unique(code, return_inverse=True)
    sums = np.bincount(inverse, weights=measures, minlength=unique.size)
    columns = []
    for attr in reversed(groupby):
        unique, digit = np.divmod(unique, schema.cardinality(attr))
        columns.append(digit.tolist())
    return dict(zip(zip(*reversed(columns)), sums.tolist()))


def answer_problem(expected: Dict[tuple, float], got: Mapping[tuple, float]) -> Optional[str]:
    """``None`` when ``got`` equals ``expected`` exactly, else why not."""
    if got == expected:
        return None
    missing = expected.keys() - got.keys()
    extra = got.keys() - expected.keys()
    if missing or extra:
        return f"{len(missing)} groups missing, {len(extra)} unexpected"
    wrong = [k for k in expected if got[k] != expected[k]]
    key = wrong[0]
    return f"{len(wrong)} group sums differ, e.g. {key}: {got[key]!r} != {expected[key]!r}"


class Facts:
    """The benchmark's own copy of the raw facts: the table it built the
    server from plus every delta it handed the server since.  Answers
    are checked against this copy, never against the server's table, so
    a write the library drops or half-applies shows as wrong answers."""

    def __init__(self, schema, columns: Mapping[str, np.ndarray], measures) -> None:
        self.schema = schema
        self.columns = {a: np.array(columns[a]) for a in schema.names}
        self.measures = np.array(measures, dtype=np.float64)

    @property
    def n_rows(self) -> int:
        return int(self.measures.size)

    def append(self, columns: Mapping[str, np.ndarray], measures) -> None:
        for attr in self.schema.names:
            self.columns[attr] = np.concatenate([self.columns[attr], columns[attr]])
        self.measures = np.concatenate([self.measures, measures])


class AnswerOracle:
    """Checks served answers against :class:`Facts`.

    Expected answers are memoized per concrete query until the facts
    grow.  The memo holds at most :data:`MEMO_GROUPS` groups and starts
    over when full, so the oracle's memory, which shares the process and
    its peak RSS with the library, stays the same however many queries a
    run gets through.
    """

    #: Groups the memo may hold (a few MiB of Python dicts).
    MEMO_GROUPS = 20_000

    def __init__(self, facts: Facts) -> None:
        self.facts = facts
        self._memo: Dict[tuple, Dict[tuple, float]] = {}
        self._memo_groups = 0
        self.checked = 0
        self.problems: List[str] = []

    def append(self, columns: Mapping[str, np.ndarray], measures) -> None:
        """A delta the server was asked to apply: later answers include it."""
        self.facts.append(columns, measures)
        self._memo.clear()
        self._memo_groups = 0

    def expected(self, entry) -> Dict[tuple, float]:
        key = (entry.query, entry.values)
        answer = self._memo.get(key)
        if answer is None:
            answer = group_by(self.facts, entry.query, dict(entry.values))
            if self._memo_groups + len(answer) > self.MEMO_GROUPS:
                self._memo.clear()
                self._memo_groups = 0
            self._memo[key] = answer
            self._memo_groups += len(answer)
        return answer

    def check(self, entry, groups: Mapping[tuple, float]) -> bool:
        self.checked += 1
        problem = answer_problem(self.expected(entry), groups)
        if problem is not None:
            self.problems.append(f"{entry.query} {dict(entry.values)}: {problem}")
        return problem is None


def _prefix(key: Tuple[str, ...], selection) -> Tuple[str, ...]:
    """The longest prefix of an index key made of selected attributes."""
    out = []
    for attr in key:
        if attr not in selection:
            break
        out.append(attr)
    return tuple(out)


class SelectionOracle:
    """Re-costs a selection from the lattice alone.

    τ(M) = Σ_q f_q · min(|top|, min over selected views V ⊇ attrs(q) of
    |V|, min over selected indexes I on such V of |V| / |prefix_q(I)|),
    with a used prefix never costing less than one row.
    """

    def __init__(self, lattice) -> None:
        self.lattice = lattice
        self._top = lattice.size(lattice.top)
        self._prefix_rows: Dict[Tuple[str, ...], float] = {}

    @staticmethod
    def _structures(names):
        from repro.core.index import Index
        from repro.serve.structures import parse_structure

        views, indexes = [], []
        for name in names:
            structure = parse_structure(name)
            (indexes if isinstance(structure, Index) else views).append(structure)
        return views, indexes

    def _rows_of(self, attrs: Tuple[str, ...]) -> float:
        from repro.core.view import View

        rows = self._prefix_rows.get(attrs)
        if rows is None:
            rows = self._prefix_rows[attrs] = self.lattice.size(View(attrs))
        return rows

    def space(self, names) -> float:
        """Rows the selection occupies: each view and each index on it
        take the view's row count."""
        views, indexes = self._structures(names)
        return sum(self.lattice.size(v) for v in views) + sum(
            self.lattice.size(i.view) for i in indexes
        )

    def tau(self, names, frequencies: Mapping) -> float:
        views, indexes = self._structures(names)
        view_rows = [(v.attrs, self.lattice.size(v)) for v in views]
        index_rows = [(i.view.attrs, i.key, self.lattice.size(i.view)) for i in indexes]
        total = 0.0
        for query, weight in frequencies.items():
            if not weight:
                continue
            need, selection = query.attrs, query.selection
            best = self._top
            for attrs, rows in view_rows:
                if rows < best and need <= attrs:
                    best = rows
            for attrs, key, rows in index_rows:
                if need <= attrs:
                    prefix = _prefix(key, selection)
                    if prefix:
                        best = min(best, max(1.0, rows / self._rows_of(prefix)))
            total += weight * best
        return total

    def problems(self, result, frequencies: Mapping, budget: float) -> List[str]:
        """Why ``result`` is not a valid selection for the budget, if it
        is not: over budget, space or τ differing from the recomputation."""
        out = []
        space = self.space(result.selected)
        if space > budget * (1 + REL_TOL):
            out.append(f"{result.algorithm}: space {space:g} exceeds budget {budget:g}")
        if not math.isclose(space, result.space_used, rel_tol=REL_TOL):
            out.append(
                f"{result.algorithm}: space_used {result.space_used:g} != recomputed {space:g}"
            )
        tau = self.tau(result.selected, frequencies)
        if not math.isclose(tau, result.tau, rel_tol=REL_TOL):
            out.append(f"{result.algorithm}: tau {result.tau!r} != recomputed {tau!r}")
        return out
