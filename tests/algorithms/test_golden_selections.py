"""Golden selections: every greedy algorithm against a frozen fixture.

``golden_selections.json`` records, per case and per cost store
(``dense``/``sparse``), the selected structure names, ``repr(tau)`` and
``repr(space_used)`` of a run.  Comparing ``repr`` strings pins the
floats bit for bit: a change to a stage kernel that reorders a float sum
or breaks a tie differently fails here, even when the selection it
produces is still a reasonable one.

Cases: the paper's Figure 2 graph and the Example 2.1 TPC-D graph under
every greedy algorithm, and analytical cubes of d=4, 5 and 6 dimensions
(d=6 is the shape of a full advise request: 2020 structures, 729
queries) under 1-greedy and 2-greedy with strict fit, inner-level greedy
with both growth rules and both fits, and maintenance-aware greedy.  The
d=6 inner-level (strict fit) and 2-greedy cases also run with
``workers=2``; the graph is above the auto-parallel threshold, so that
drives the pooled worker scans too.

Regenerate (only when a selection change is intended, and say why)::

    PYTHONPATH=src python -m tests.algorithms.test_golden_selections --write
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import (
    FIT_PAPER,
    FIT_STRICT,
    HRUGreedy,
    InnerLevelGreedy,
    MaintenanceAwareGreedy,
    PickBySmallest,
    RGreedy,
    TwoStep,
)
from repro.core.benefit import BenefitEngine
from repro.core.query import enumerate_slice_queries
from repro.core.qvgraph import QueryViewGraph
from repro.cube.schema import CubeSchema, Dimension
from repro.cube.workload import zipf_frequencies
from repro.datasets.paper_figure2 import FIGURE2_SPACE, figure2_graph
from repro.datasets.tpcd import TPCD_SPACE_BUDGET, tpcd_graph
from repro.estimation.sizes import analytical_lattice

FIXTURE = Path(__file__).with_name("golden_selections.json")
BACKENDS = ("dense", "sparse")

#: Every greedy algorithm, for the two paper graphs.
PAPER_ALGORITHMS = {
    "1-greedy/strict": lambda: RGreedy(1, fit=FIT_STRICT),
    "1-greedy/paper": lambda: RGreedy(1, fit=FIT_PAPER),
    "2-greedy/strict": lambda: RGreedy(2, fit=FIT_STRICT),
    "2-greedy/paper": lambda: RGreedy(2, fit=FIT_PAPER),
    "3-greedy/strict": lambda: RGreedy(3, fit=FIT_STRICT),
    "inner-space/strict": lambda: InnerLevelGreedy(fit=FIT_STRICT),
    "inner-space/paper": lambda: InnerLevelGreedy(fit=FIT_PAPER),
    "inner-peak/strict": lambda: InnerLevelGreedy(fit=FIT_STRICT, ig_rule="peak"),
    "inner-peak/paper": lambda: InnerLevelGreedy(fit=FIT_PAPER, ig_rule="peak"),
    "hru": lambda: HRUGreedy(),
    "two-step": lambda: TwoStep(),
    "pbs+indexes": lambda: PickBySmallest(include_indexes=True),
    "maintenance/0": lambda: MaintenanceAwareGreedy(update_weight=0.0),
    "maintenance/0.05": lambda: MaintenanceAwareGreedy(update_weight=0.05),
}

#: The analytical-cube algorithms, and which of them also run pooled
#: at d=6.  The inner-level cases without a suffix use strict fit.
CUBE_ALGORITHMS = {
    "1-greedy": lambda w: RGreedy(1, fit=FIT_STRICT, workers=w),
    "2-greedy": lambda w: RGreedy(2, fit=FIT_STRICT, workers=w),
    "inner-space": lambda w: InnerLevelGreedy(fit=FIT_STRICT, workers=w),
    "inner-peak": lambda w: InnerLevelGreedy(
        fit=FIT_STRICT, ig_rule="peak", workers=w
    ),
    "inner-space/paper": lambda w: InnerLevelGreedy(fit=FIT_PAPER, workers=w),
    "inner-peak/paper": lambda w: InnerLevelGreedy(
        fit=FIT_PAPER, ig_rule="peak", workers=w
    ),
    "maintenance/0": lambda w: MaintenanceAwareGreedy(
        update_weight=0.0, workers=w
    ),
    "maintenance/0.05": lambda w: MaintenanceAwareGreedy(
        update_weight=0.05, workers=w
    ),
}
CUBE_DIMS = (4, 5, 6)
D6_POOLED = ("2-greedy", "inner-space", "inner-peak")

#: The cube inputs: cardinalities 4, 6, 8, ..., a Zipf ranking of the
#: 3^d slice queries, and frequencies from observed draws.
D6_RANKING_SEED = 1997
D6_DRAW_SEED = 1
D6_OBSERVED = 100_000
D6_SPACE_SHARE = 0.25


@lru_cache(maxsize=None)
def paper_input(name: str):
    """``(graph, budget, seed)`` of a paper graph."""
    if name == "figure2":
        return figure2_graph(), float(FIGURE2_SPACE), ()
    return tpcd_graph(), float(TPCD_SPACE_BUDGET), ("psc",)


@lru_cache(maxsize=None)
def cube_input(dims: int):
    """``(graph, budget)`` of the ``dims``-dimensional cube: the top view
    plus a quarter of all other structure space."""
    schema = CubeSchema(
        [Dimension(chr(ord("a") + i), 4 + 2 * i) for i in range(dims)]
    )
    lattice = analytical_lattice(schema, 0.1 * schema.dense_cells)
    queries = list(enumerate_slice_queries(schema.names))
    ranking = zipf_frequencies(
        queries, 1.0, rng=np.random.default_rng(D6_RANKING_SEED)
    )
    counts = np.random.default_rng(D6_DRAW_SEED).multinomial(
        D6_OBSERVED, [ranking[q] for q in queries]
    )
    weights = (counts + 1) / (D6_OBSERVED + len(queries))
    graph = QueryViewGraph.from_cube(
        lattice, frequencies=dict(zip(queries, weights.tolist()))
    )
    top = lattice.size(lattice.top)
    return graph, top + D6_SPACE_SHARE * (graph.total_space() - top)


def record(result) -> dict:
    return {
        "selected": list(result.selected),
        "tau": repr(result.tau),
        "space_used": repr(result.space_used),
    }


def run_paper(graph_name: str, algo: str, backend: str) -> dict:
    graph, budget, seed = paper_input(graph_name)
    engine = BenefitEngine(graph, backend=backend)
    return record(PAPER_ALGORITHMS[algo]().run(engine, budget, seed=seed))


def run_cube(dims: int, algo: str, backend: str, workers=None) -> dict:
    graph, budget = cube_input(dims)
    engine = BenefitEngine(graph, backend=backend)
    return record(CUBE_ALGORITHMS[algo](workers).run(engine, budget))


def compute_all() -> dict:
    cases = {}
    for graph_name in ("figure2", "tpcd"):
        for algo in PAPER_ALGORITHMS:
            cases[f"{graph_name}/{algo}"] = {
                backend: run_paper(graph_name, algo, backend) for backend in BACKENDS
            }
    for dims in CUBE_DIMS:
        for algo in CUBE_ALGORITHMS:
            cases[f"d{dims}/{algo}"] = {
                backend: run_cube(dims, algo, backend) for backend in BACKENDS
            }
    return cases


@lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(FIXTURE.read_text())["cases"]


PAPER_CASES = [
    (graph_name, algo, backend)
    for graph_name in ("figure2", "tpcd")
    for algo in PAPER_ALGORITHMS
    for backend in BACKENDS
]


@pytest.mark.parametrize("graph_name,algo,backend", PAPER_CASES)
def test_paper_graph_selection(graph_name, algo, backend):
    got = run_paper(graph_name, algo, backend)
    assert got == golden()[f"{graph_name}/{algo}"][backend]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algo", list(CUBE_ALGORITHMS))
def test_d6_selection(algo, backend):
    assert run_cube(6, algo, backend) == golden()[f"d6/{algo}"][backend]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algo", list(CUBE_ALGORITHMS))
@pytest.mark.parametrize("dims", (4, 5))
def test_small_cube_selection(dims, algo, backend):
    assert run_cube(dims, algo, backend) == golden()[f"d{dims}/{algo}"][backend]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algo", D6_POOLED)
def test_d6_pooled_selection(algo, backend):
    from repro.parallel import leaked_segments

    assert run_cube(6, algo, backend, workers=2) == golden()[f"d6/{algo}"][backend]
    assert leaked_segments() == []


def test_fixture_covers_every_case():
    expected = {f"{g}/{a}" for g, a, _ in PAPER_CASES} | {
        f"d{dims}/{algo}" for dims in CUBE_DIMS for algo in CUBE_ALGORITHMS
    }
    assert set(golden()) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python -m {__spec__.name} --write")
    FIXTURE.write_text(json.dumps({"cases": compute_all()}, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
