"""Stage evaluators: serial default and process-pool parallel.

Every selection algorithm routes its stage search through a
:class:`StageEvaluator`.  The base class *is* the serial implementation
(it calls straight back into the algorithm's serial scan, unchanged);
:class:`ParallelStageEvaluator` shards the candidate views across a
process pool over shared memory and reduces the per-shard offer streams
with the exact serial tie-break rule, so parallel and serial runs select
bit-identical structures.

Worker-count semantics (:func:`resolve_workers`): ``None`` defers to the
``REPRO_WORKERS`` environment variable (unset → serial); ``1`` is
serial; ``0`` is auto — ``min(cpu_count, 8)`` workers, but *only* for
engines with at least :data:`PARALLEL_MIN_STRUCTURES` candidates (pool
startup and per-stage IPC would otherwise cost more than the scan;
small problems silently stay serial); any explicit ``N >= 2`` forces a
pool of that size regardless of problem size (tests force 2 on tiny
graphs).

Pool lifecycle: the pool and segments are created lazily at the first
dispatched stage (so resume replay and seeding never pay for them) and
torn down by the idempotent :meth:`~ParallelStageEvaluator.close` —
called from the algorithm's ``finally``, from the run context's stop
drain (deadline/RSS/SIGINT paths), and from ``atexit`` as a last resort.

State synchronisation per dispatch: the master copies its best-cost
vector and selection mask into the state segment and routes the
structures made stale by commits since the previous dispatch
(:meth:`BenefitEngine.stale_structures_after`, accumulated via
:meth:`note_commit`) to the shard that owns them; each shard task
refreshes its slice of the shared singles cache before scanning.  The
first dispatch refreshes every shard in full, which also covers any
seeding or replay that happened before the pool existed.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

from repro.parallel.shm import ShmPack
from repro.parallel.sinks import ChainSink
from repro.parallel.worker import pool_initializer, run_task

#: Auto mode (``workers=0``) falls back to serial below this many
#: structures: a d=5 cube (~360) stays serial, d>=6 (2000+) goes wide.
PARALLEL_MIN_STRUCTURES = 1024

#: Auto mode never starts more workers than this.
MAX_AUTO_WORKERS = 8

#: Environment default for algorithms constructed with ``workers=None``.
WORKERS_ENV = "REPRO_WORKERS"

_FIT_STRICT = "strict"  # mirror of algorithms.base.FIT_STRICT (cycle-free)


def resolve_workers(workers=None) -> Tuple[int, bool]:
    """Resolve a ``workers`` parameter to ``(count, forced)``.

    ``forced`` is True for an explicit ``N >= 2`` (including via the
    environment): the candidate-count auto-fallback then does not apply.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1, False
        workers = env
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return min(os.cpu_count() or 1, MAX_AUTO_WORKERS), False
    return workers, workers > 1


def make_evaluator(engine, workers=None) -> "StageEvaluator":
    """The evaluator for one run: serial unless ``workers`` (or the
    ``REPRO_WORKERS`` environment) asks for — and the problem size
    justifies — a pool.

    Whenever a worker count is *requested* at all — explicitly (any
    value, including ``1`` and auto ``0``) or via ``REPRO_WORKERS`` —
    the engine's eager benefit kernels are routed through the CSR store
    (:meth:`~repro.core.benefit.BenefitEngine.route_through_csr`), even
    when the run ends up serial.  Pool workers always evaluate through
    :func:`~repro.core.benefit.csr_gains`; routing the serial scans
    through the same kernel makes every stage of the run — serial
    stages after pooled ones, the serial arm of an equivalence check, a
    resume at a different worker count — bitwise identical rather than
    merely last-ulp-close.
    """
    requested = workers is not None or bool(
        os.environ.get(WORKERS_ENV, "").strip()
    )
    if requested and hasattr(engine, "route_through_csr"):
        engine.route_through_csr()
    count, forced = resolve_workers(workers)
    if count <= 1:
        return StageEvaluator()
    if not forced and engine.n_structures < PARALLEL_MIN_STRUCTURES:
        return StageEvaluator()
    return ParallelStageEvaluator(engine, count)


class StageEvaluator:
    """Serial stage evaluation — the base class and the default.

    Each ``*_stage`` method returns exactly what the algorithm's serial
    stage search returns; the parallel subclass overrides them with the
    shard/dispatch/reduce pipeline.
    """

    workers = 1
    is_parallel = False

    def single_stage(self, engine, ids, space_left, lazy):
        """Best single structure over ``ids`` (HRU stages, TwoStep's
        index loop, 1-greedy): ``(id, benefit, space, ratio)`` or None."""
        return engine.best_single(ids, space_left=space_left, lazy=lazy)

    def rgreedy_stage(self, algo, engine, space, lazy):
        return algo._best_stage(engine, space, lazy)

    def inner_stage(self, algo, engine, space, lazy, growths=None):
        """``growths``: the run's growth memo, which only the serial
        scan uses (pool workers grow every view they scan)."""
        return algo._best_stage(engine, space, lazy, growths)

    def maintenance_stage(self, algo, engine, space, update_costs):
        return algo._best_stage(engine, space, update_costs)

    @property
    def wants_commit_hook(self) -> bool:
        """Whether the tracker should report commits via :meth:`note_commit`."""
        return False

    def note_commit(self, engine, old_best) -> None:
        """Hook: ``old_best`` is the best-cost vector before the commit."""

    def close(self) -> None:
        """Release pool/segments; idempotent, no-op for the serial base."""


class ParallelStageEvaluator(StageEvaluator):
    """Sharded stage evaluation over a process pool (see module docstring)."""

    is_parallel = True

    def __init__(self, engine, workers: int):
        self.engine = engine
        self.workers = int(workers)
        self._pool = None
        self._static: Optional[ShmPack] = None
        self._state: Optional[ShmPack] = None
        self._shards: List[Tuple[int, int]] = []
        self._shard_of: Optional[np.ndarray] = None
        self._pending_full = True
        self._pending_stale: List[np.ndarray] = []
        self._closed = False

    # -------------------------------------------------------------- stages

    def single_stage(self, engine, ids, space_left, lazy):
        arr = np.asarray(ids, dtype=np.int64)
        if arr.size == 0:
            return None
        self._ensure_pool()
        results = self._dispatch(
            "single", {"space_left": space_left}, single_ids=self._split(arr)
        )
        sink = ChainSink()
        for offers in results:
            for cand_ids, benefit, space in offers:
                sink.offer(cand_ids, benefit, space)
        if sink.ids is None:
            return None
        return sink.ids[0], sink.benefit, sink.space, sink.ratio

    def rgreedy_stage(self, algo, engine, space, lazy):
        space_left = space - engine.space_used()
        strict = algo.fit == _FIT_STRICT
        best = ChainSink()
        if algo.r < 2:
            pick = self.single_stage(
                engine, engine.stage_candidates(),
                space_left if strict else None, lazy,
            )
            if pick is not None:
                sid, benefit, sid_space, _ratio = pick
                best.offer((sid,), benefit, sid_space)
            return best
        self._ensure_pool()
        results = self._dispatch(
            "rgreedy",
            {"algo": algo.config(), "space_left": space_left, "strict": strict},
        )
        for offers in results:
            for cand_ids, benefit, cand_space in offers:
                best.offer(tuple(cand_ids), benefit, cand_space)
        return best

    def inner_stage(self, algo, engine, space, lazy, growths=None):
        strict = algo.fit == _FIT_STRICT
        space_left = space - engine.space_used()
        ig_cap = space_left if strict else space
        self._ensure_pool()
        results = self._dispatch(
            "inner",
            {
                "algo": algo.config(),
                "space_left": space_left,
                "strict": strict,
                "ig_cap": ig_cap,
            },
        )
        sink = ChainSink()
        # serial order is all phase-1 offers, then all phase-2 offers
        for phase in ("phase1", "phase2"):
            for shard_result in results:
                for cand_ids, benefit, cand_space in shard_result[phase]:
                    sink.offer(tuple(cand_ids), benefit, cand_space)
        if sink.ids is None:
            return None
        return sink.ids, sink.space

    def maintenance_stage(self, algo, engine, space, update_costs):
        space_left = space - engine.space_used()
        self._ensure_pool()
        results = self._dispatch(
            "maintenance",
            {
                "algo": algo.config(),
                "space_left": space_left,
                "delta_rows": algo.delta_rows,
            },
        )
        sink = ChainSink()
        for offers in results:
            for cand_ids, net, cand_space in offers:
                sink.offer(tuple(cand_ids), net, cand_space)
        if sink.ids is None:
            return None
        return sink.ids, sink.space

    # ----------------------------------------------------------- commit hook

    @property
    def wants_commit_hook(self) -> bool:
        return self._pool is not None

    def note_commit(self, engine, old_best) -> None:
        if self._pool is None:
            return  # the first dispatch refreshes every shard in full
        stale = engine.stale_structures_after(old_best)
        if stale.size:
            self._pending_stale.append(stale)

    # ------------------------------------------------------------- lifecycle

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        if self._closed:
            raise RuntimeError("evaluator already closed")
        engine = self.engine
        arrays = engine.shared_arrays()
        candidates = arrays["stage_candidates"]
        self._shards = _partition(
            candidates, engine.is_view, arrays["row_ptr"], self.workers
        )
        shard_of = np.zeros(engine.n_structures, dtype=np.int32)
        for k, (lo, hi) in enumerate(self._shards):
            shard_of[candidates[lo:hi]] = k
        self._shard_of = shard_of
        self._static = ShmPack.create(arrays, tag="static")
        self._state = ShmPack.create(
            {
                "best": np.zeros(engine.n_queries, dtype=np.float64),
                "selected": np.zeros(engine.n_structures, dtype=bool),
                "singles": np.zeros(engine.n_structures, dtype=np.float64),
            },
            tag="state",
        )
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=pool_initializer,
            initargs=(
                self._static.spec,
                self._state.spec,
                {"shards": [list(pair) for pair in self._shards]},
            ),
        )
        # from here the shared singles cache is authoritative; drop the
        # master's so commits stop paying for a cache nobody reads
        engine.invalidate()
        self._pending_full = True
        self._pending_stale = []
        atexit.register(self.close)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            atexit.unregister(self.close)
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        for pack in (self._static, self._state):
            if pack is not None:
                pack.close()
        self._static = self._state = None

    # -------------------------------------------------------------- dispatch

    def _dispatch(self, kind: str, common: dict, single_ids=None) -> list:
        engine = self.engine
        np.copyto(self._state.arrays["best"], engine._best)
        np.copyto(self._state.arrays["selected"], engine.selected_mask)
        refreshes = self._refresh_specs()
        futures = []
        for shard in range(len(self._shards)):
            task = dict(common)
            task["kind"] = kind
            task["shard"] = shard
            task["refresh"] = refreshes[shard]
            if single_ids is not None:
                task["ids"] = single_ids[shard]
            futures.append(self._pool.submit(run_task, task))
        # gather in shard order: the reduction replays offers in the
        # canonical candidate order, shard by shard
        return [future.result() for future in futures]

    def _refresh_specs(self) -> list:
        n = len(self._shards)
        if self._pending_full:
            specs = ["full"] * n
        elif self._pending_stale:
            stale = np.unique(np.concatenate(self._pending_stale))
            owner = self._shard_of[stale]
            specs = [np.ascontiguousarray(stale[owner == k]) for k in range(n)]
        else:
            specs = [None] * n
        self._pending_full = False
        self._pending_stale = []
        return specs

    def _split(self, arr: np.ndarray) -> list:
        """Split a canonical-order candidate subset into per-shard slices
        (shard ownership is non-decreasing along the canonical order)."""
        bounds = np.searchsorted(
            self._shard_of[arr], np.arange(1, len(self._shards))
        )
        return np.split(arr, bounds)


def _partition(candidates, is_view, row_ptr, workers: int) -> List[Tuple[int, int]]:
    """Shard the canonical candidate order into ``workers`` contiguous
    slices, aligned at view-subtree boundaries (a view and its indexes
    never straddle shards — the subset searches need the whole subtree),
    balanced by CSR edge counts (edges dominate both the singles refresh
    and the scan kernels).  Deterministic; trailing shards may be empty
    when there are fewer views than workers."""
    size = int(candidates.size)
    if size == 0:
        return [(0, 0)] * workers
    weights = (row_ptr[candidates + 1] - row_ptr[candidates]).astype(
        np.float64
    ) + 1.0
    cumulative = np.cumsum(weights)
    total = float(cumulative[-1])
    seg_starts = np.flatnonzero(is_view[candidates])
    seg_before = np.where(seg_starts > 0, cumulative[seg_starts - 1], 0.0)
    bounds = [0]
    for k in range(1, workers):
        j = int(np.searchsorted(seg_before, total * k / workers, side="left"))
        position = int(seg_starts[j]) if j < seg_starts.size else size
        bounds.append(max(position, bounds[-1]))
    bounds.append(size)
    return [(bounds[i], bounds[i + 1]) for i in range(workers)]
