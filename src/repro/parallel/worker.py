"""The pool worker: shared-memory engine view + per-shard stage scans.

Each worker process attaches to two segments at pool start (the
initializer): the *static* pack — the engine's compiled CSR cost store,
``spaces``, ``frequencies``, structure attributes, and the canonical
candidate order — and the *state* pack — the per-query best costs, the
selection mask, and the maintained single-benefit cache, refreshed by
the master before/by the workers during each dispatch.

:class:`WorkerStore` duck-types the slice of the
:class:`~repro.core.benefit.BenefitEngine` interface the serial scan
code reads (``spaces``/``frequencies``/``view_id_of``/``best_costs``/
``selected_mask``/``minimum_with``/``gains_for``/``index_ids_of``/
``single_benefits``/``space_of``/``family_block``), so workers run the
*identical* scan implementations the serial algorithms use —
``RGreedy._scan_views`` (pruned subset search),
``InnerLevelGreedy._scan_phase1/_scan_phase2`` (inner-greedy growth),
``MaintenanceAwareGreedy._scan_views`` — only with a
:class:`~repro.parallel.sinks.RecorderSink` in place of the serial
incumbent chain.  Sharing the code (and the
:func:`~repro.core.benefit.csr_gains` kernels) is what makes the
parallel selections bit-identical, not merely close.

Workers are stateless between tasks: any worker can run any shard's
task, because the mutable state (including the singles cache, which a
task refreshes for its shard's stale structures *before* scanning)
lives in shared memory, not in the worker.
"""

from __future__ import annotations

import signal
from typing import Optional

import numpy as np

from repro.core.benefit import (
    FamilyBlock,
    csr_gains,
    csr_minimum_with,
    family_block,
)
from repro.parallel.shm import ShmPack
from repro.parallel.sinks import RecorderSink, prefix_maxima_offers

#: Mirror of repro.algorithms.base.SPACE_EPS (imported by value to keep
#: this module import-light in spawned children and cycle-free).
_SPACE_EPS = 1e-9

_EMPTY = np.empty(0, dtype=np.int64)

#: Process-global store, set once per worker by the pool initializer.
_STORE: Optional["WorkerStore"] = None

#: Rebuilt algorithm instances / update-cost vectors, cached per worker.
_ALGO_CACHE: dict = {}
_UPDATE_COSTS_CACHE: dict = {}


def pool_initializer(static_spec: dict, state_spec: dict, meta: dict) -> None:
    """Attach the worker to the shared segments; ignore SIGINT.

    Ctrl+C goes to the whole process group; the master handles it
    cooperatively (finish the stage, checkpoint, drain the pool), so
    workers must not die mid-task from the same signal.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _STORE
    _STORE = WorkerStore(static_spec, state_spec, meta)


class WorkerStore:
    """Read-mostly engine view over the shared segments.

    ``backend`` is always ``"sparse"`` — the CSR store is built
    unconditionally even for dense-backend engines, and the sparse scan
    kernels are the ones whose summation order matches the maintained
    singles cache bitwise.

    Like the engine, the store builds each view's
    :class:`~repro.core.benefit.FamilyBlock` on first use and keeps it
    for the worker's lifetime (blocks read only the static CSR pack), so
    the inner-level growths a worker runs use the same kernel, in the
    same summation order, as the serial ones.
    """

    backend = "sparse"
    uses_csr_kernels = True

    def __init__(self, static_spec: dict, state_spec: dict, meta: dict):
        self._static = ShmPack.attach(static_spec)
        self._state = ShmPack.attach(state_spec)
        arrays = self._static.arrays
        self._row_ptr = arrays["row_ptr"]
        self._row_cols = arrays["row_cols"]
        self._row_vals = arrays["row_vals"]
        self.spaces = arrays["spaces"]
        self.frequencies = arrays["frequencies"]
        self.is_view = arrays["is_view"]
        self.view_id_of = arrays["view_id_of"]
        self._candidates = arrays["stage_candidates"]
        state = self._state.arrays
        self._best = state["best"]
        self._selected_mask = state["selected"]
        self._singles = state["singles"]
        self._shards = [tuple(int(p) for p in pair) for pair in meta["shards"]]
        # per-view index id arrays, from the canonical view-then-indexes
        # order (same content as BenefitEngine._indexes_of)
        cand = self._candidates
        view_starts = np.flatnonzero(self.is_view[cand])
        bounds = np.append(view_starts, cand.size)
        self._indexes_of = {
            int(cand[bounds[i]]): cand[bounds[i] + 1 : bounds[i + 1]]
            for i in range(view_starts.size)
        }
        self._family_blocks: dict = {}

    # ------------------------------------------- engine duck-type surface

    @property
    def n_structures(self) -> int:
        return int(self.spaces.size)

    @property
    def best_costs(self) -> np.ndarray:
        return self._best.copy()

    @property
    def selected_mask(self) -> np.ndarray:
        return self._selected_mask

    def index_ids_of(self, view_id: int) -> np.ndarray:
        return self._indexes_of.get(int(view_id), _EMPTY)

    def minimum_with(self, vec: np.ndarray, structure_id: int) -> np.ndarray:
        return csr_minimum_with(
            vec, self._row_ptr, self._row_cols, self._row_vals, structure_id
        )

    def gains_for(self, ids, base: np.ndarray) -> np.ndarray:
        return csr_gains(
            self._row_ptr, self._row_cols, self._row_vals, self.frequencies, base, ids
        )

    def family_block(self, view_id: int) -> FamilyBlock:
        block = self._family_blocks.get(view_id)
        if block is None:
            block = family_block(
                self._row_ptr,
                self._row_cols,
                self._row_vals,
                self.frequencies,
                self.spaces,
                self.index_ids_of(view_id),
            )
            self._family_blocks[view_id] = block
        return block

    def single_benefits(self, ids=None, lazy=None) -> np.ndarray:
        if ids is None:
            return self._singles.copy()
        return self._singles[np.asarray(ids, dtype=np.int64)]

    def space_of(self, ids) -> float:
        arr = np.fromiter(ids, dtype=np.int64)
        return float(self.spaces[arr].sum()) if arr.size else 0.0

    # ------------------------------------------------------ shard helpers

    def shard_candidates(self, shard: int) -> np.ndarray:
        lo, hi = self._shards[shard]
        return self._candidates[lo:hi]

    def shard_views(self, shard: int) -> np.ndarray:
        seg = self.shard_candidates(shard)
        return seg[self.is_view[seg]]

    def refresh_singles(self, ids: np.ndarray) -> None:
        """Re-score the given structures' cached single benefits against
        the current shared best costs — bitwise the same values the
        serial maintained cache would hold (same kernel, same state)."""
        arr = np.asarray(ids, dtype=np.int64)
        if arr.size:
            self._singles[arr] = csr_gains(
                self._row_ptr,
                self._row_cols,
                self._row_vals,
                self.frequencies,
                self._best,
                arr,
            )


# ------------------------------------------------------------------ tasks


def run_task(task: dict):
    """Refresh this task's shard of the singles cache, then run its scan.

    Returns the shard's recorded offers: a list of
    ``(ids, benefit, space)`` for ``single``/``rgreedy``/``maintenance``
    kinds, a ``{"phase1": [...], "phase2": [...]}`` pair for ``inner``
    (the two phases are separate chains in the serial order and must be
    reduced phase-by-phase), or ``None`` for a pure ``refresh``.
    """
    store = _STORE
    shard = task["shard"]
    refresh = task.get("refresh")
    if isinstance(refresh, str) and refresh == "full":
        store.refresh_singles(store.shard_candidates(shard))
    elif refresh is not None:
        store.refresh_singles(np.asarray(refresh, dtype=np.int64))

    kind = task["kind"]
    if kind == "refresh":
        return None
    if kind == "single":
        return _scan_single(
            store, np.asarray(task["ids"], dtype=np.int64), task["space_left"]
        )
    algo = _algorithm_for(task["algo"])
    views = store.shard_views(shard)
    space_left = task["space_left"]
    if kind == "rgreedy":
        recorder = RecorderSink()
        algo._scan_views(
            store, views, recorder, store._singles, space_left,
            task["strict"], lazy=True,
        )
        return recorder.offers
    if kind == "inner":
        phase1, phase2 = RecorderSink(), RecorderSink()
        algo._scan_phase1(
            store, views, phase1, store._singles, space_left,
            task["ig_cap"], task["strict"],
        )
        algo._scan_phase2(store, views, phase2, space_left, task["strict"], lazy=True)
        return {"phase1": phase1.offers, "phase2": phase2.offers}
    if kind == "maintenance":
        recorder = RecorderSink()
        algo._scan_views(
            store, views, recorder, space_left,
            _update_costs_for(store, task["delta_rows"]), store._singles,
        )
        return recorder.offers
    raise ValueError(f"unknown task kind {kind!r}")


def _scan_single(store: WorkerStore, arr: np.ndarray, space_left):
    """Strict prefix maxima of the single-structure offer stream over
    ``arr`` — the same eligibility filters, in the same order, as
    :meth:`BenefitEngine.best_single`."""
    selected = store._selected_mask
    eligible = ~selected[arr]
    eligible &= store.is_view[arr] | selected[store.view_id_of[arr]]
    if space_left is not None:
        eligible &= store.spaces[arr] <= space_left + _SPACE_EPS
    ids = arr[eligible]
    return prefix_maxima_offers(ids, store._singles[ids], store.spaces[ids])


def _algorithm_for(config: dict):
    """Rebuild (and cache) the algorithm whose scan methods a task reuses."""
    key = repr(sorted(config.get("params", {}).items())) + config["class"]
    algo = _ALGO_CACHE.get(key)
    if algo is None:
        from repro.runtime.checkpoint import algorithm_from_config

        algo = algorithm_from_config(config)
        _ALGO_CACHE[key] = algo
    return algo


def _update_costs_for(store: WorkerStore, delta_rows: float) -> np.ndarray:
    costs = _UPDATE_COSTS_CACHE.get(delta_rows)
    if costs is None:
        from repro.algorithms.maintenance_aware import structure_update_costs

        costs = structure_update_costs(store, delta_rows)
        _UPDATE_COSTS_CACHE[delta_rows] = costs
    return costs
