"""Benefit evaluation for sets of structures (Section 5.2 of the paper).

Given a query-view graph ``G`` and a set ``M`` of materialized structures,
the total query cost is

    τ(G, M) = Σ_i f_i · min(T_i, min over usable (view, index) in M of t)

and the *benefit* of a candidate set ``C`` w.r.t. ``M`` is
``B(C, M) = τ(G, M) − τ(G, M ∪ C)``.  Every selection algorithm in
:mod:`repro.algorithms` evaluates thousands of such benefits, so this
module compiles the graph once and keeps the current per-query best cost
as state, making a benefit evaluation a single vectorized pass.

Two cost-store backends are provided, selected by ``backend=``:

``"dense"``
    The original ``(n_structures × n_queries)`` matrix, ``inf`` where
    there is no edge.  Fast for small, dense graphs; refuses to allocate
    beyond ``dense_limit_bytes`` (a d=7 fat-index cube already needs
    hundreds of MB of mostly-inf cells).
``"sparse"``
    CSR (per-structure) plus CSC (per-query) edge arrays — only the
    edges are stored.  This is what makes 7–8 dimension cubes
    compilable at all.
``"auto"`` (default)
    Dense while the matrix stays small (``AUTO_DENSE_BYTES``), sparse
    beyond — existing small-graph callers see no change.

On top of either store the engine maintains *incremental single-structure
benefits*: after a :meth:`commit`, only queries whose best cost dropped
(the *dirty columns*) can change any candidate's standalone benefit, so
only structures with an edge into a dirty column (the *stale rows*) are
re-scored.  The re-score runs over a per-run :class:`LiveEdges` store: a
copy of the CSR rows, built in the first full pass, that keeps only the
edges whose contribution ``max(best − cost, 0) · freq`` is still
positive.  Best costs only fall within a run, so a dropped edge would
only add ``+0.0`` and the sums stay bit-identical to :func:`csr_gains`;
the store is compacted once :data:`SHED_FRACTION` of it has died.
:meth:`lazy_best_single` exploits this — a greedy stage costs
``O(live stale edges)`` instead of ``O(n_structures · n_queries)`` — and
:meth:`~BenefitEngine.reset`, :meth:`~BenefitEngine.restore` and a
full :meth:`~BenefitEngine.invalidate` drop the cache and its live
edges, since best costs may then have risen.  The eager full-recompute path is retained
(``single_benefits(lazy=False)``) and cross-checked in tests: lazy and
eager stage loops must produce identical selections.

The same refresh stamps the owning view of every stale row with a new
*family epoch* (:meth:`~BenefitEngine.family_epoch`).  While a view's
epoch holds still, every gain its family's edges give against the best
costs is unchanged, which lets inner-level greedy replay a view's growth
instead of regrowing it.

An index is *usable* only when its owning view is materialized; the engine
exposes :meth:`BenefitEngine.is_admissible` so algorithms can enforce the
rule, and raises on attempts to commit an index without its view.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, NamedTuple, Optional

import numpy as np

from repro.core.qvgraph import QueryViewGraph

try:  # scipy does the CSR->CSC transpose in C; optional, numpy fallback.
    # Imported at module load so the first engine build doesn't pay it.
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - scipy is normally available
    _scipy_sparse = None

INF = float("inf")

#: ``backend="auto"`` picks the sparse store once the dense matrix would
#: exceed this many bytes.
AUTO_DENSE_BYTES = 32 * 2**20

#: ``backend="dense"`` refuses to allocate a matrix larger than this
#: (override per-engine with ``dense_limit_bytes=``).  A d=7 fat-index
#: cube needs ~240 MB of mostly-inf cells and is rejected by default.
DENSE_LIMIT_BYTES = 192 * 2**20

#: Relative tolerance of the canonical greedy tie-break: a candidate only
#: displaces the incumbent when its ratio exceeds the incumbent's by this
#: factor.  Shared by every stage loop so lazy and eager paths agree.
RATIO_RTOL = 1e-12

_BACKENDS = ("auto", "dense", "sparse")

#: A :class:`FamilyGrowth` or :class:`LiveEdges` store compacts its live
#: edges once at least this share of them contribute zero.
SHED_FRACTION = 0.25


def _gather_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices covering ``[starts[i], starts[i]+lengths[i])`` for all i,
    concatenated in order — the multi-slice gather used for CSR/CSC rows."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths[:-1])))
    return np.repeat(starts - offsets, lengths) + np.arange(total, dtype=np.int64)


def csr_gains(
    row_ptr: np.ndarray,
    row_cols: np.ndarray,
    row_vals: np.ndarray,
    frequencies: np.ndarray,
    base: np.ndarray,
    ids,
) -> np.ndarray:
    """Frequency-weighted positive gain of each structure in ``ids``
    against the per-query cost vector ``base``, over a CSR edge store.

    This is the batched gain kernel shared by :class:`BenefitEngine`
    (``gains_for`` / subset single-benefit refresh) and the parallel
    worker store (:mod:`repro.parallel.worker`): both sides evaluating a
    candidate vector through the *same* kernel — same gather order, same
    ``bincount`` summation — is what makes serial and parallel single
    benefits bitwise identical.
    """
    arr = np.asarray(ids, dtype=np.int64)
    if arr.size == 0:
        return np.zeros(0, dtype=np.float64)
    starts = row_ptr[arr]
    lengths = row_ptr[arr + 1] - starts
    flat = _gather_ranges(starts, lengths)
    cols = row_cols[flat]
    contrib = base[cols] - row_vals[flat]
    np.maximum(contrib, 0.0, out=contrib)
    contrib *= frequencies[cols]
    local = np.repeat(np.arange(arr.size, dtype=np.int64), lengths)
    return np.bincount(local, weights=contrib, minlength=arr.size)


def csr_minimum_with(
    vec: np.ndarray,
    row_ptr: np.ndarray,
    row_cols: np.ndarray,
    row_vals: np.ndarray,
    structure_id: int,
) -> np.ndarray:
    """``np.minimum(vec, cost_row(structure_id))`` over a CSR edge store
    without materializing the row.  Returns a new array."""
    out = vec.copy()
    lo, hi = row_ptr[structure_id], row_ptr[structure_id + 1]
    cols = row_cols[lo:hi]
    # fancy-indexed out= would write into a copy; assign instead
    out[cols] = np.minimum(out[cols], row_vals[lo:hi])
    return out


class FamilyBlock(NamedTuple):
    """One view's index rows gathered into flat per-edge arrays.

    ``ids``/``spaces`` describe the ``k`` rows (the view's indexes, in
    :meth:`BenefitEngine.index_ids_of` order); ``local_row``, ``col``,
    ``val`` and ``freq`` hold one entry per edge, rows in that order and
    each row's edges in CSR order — the gather :func:`csr_gains` makes.
    """

    ids: np.ndarray
    spaces: np.ndarray
    local_row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    freq: np.ndarray


def family_block(
    row_ptr: np.ndarray,
    row_cols: np.ndarray,
    row_vals: np.ndarray,
    frequencies: np.ndarray,
    spaces: np.ndarray,
    index_ids,
) -> FamilyBlock:
    """Gather the CSR rows of ``index_ids`` into a :class:`FamilyBlock`.

    ``np.bincount(local_row, contrib, minlength=k)`` over the block's
    per-edge contributions then sums every row in the same order
    :func:`csr_gains` does, so the two agree bit for bit — and so does
    the bincount over any order-preserving subset of the edges that
    drops only terms that are ``+0.0``.
    """
    ids = np.asarray(index_ids, dtype=np.int64)
    starts = row_ptr[ids]
    lengths = row_ptr[ids + 1] - starts
    flat = _gather_ranges(starts, lengths)
    col = row_cols[flat].astype(np.intp)
    return FamilyBlock(
        ids=ids,
        spaces=spaces[ids],
        local_row=np.repeat(np.arange(ids.size, dtype=np.intp), lengths),
        col=col,
        val=row_vals[flat],
        freq=frequencies[col],
    )


def _edge_gains(
    base: np.ndarray, cols: np.ndarray, vals: np.ndarray, frequencies: np.ndarray
) -> np.ndarray:
    """``max(base[cols] − vals, 0) · frequencies[cols]`` per edge — the
    addends :func:`csr_gains` sums, rounded the same way."""
    contrib = base.take(cols)
    contrib -= vals
    np.maximum(contrib, 0.0, out=contrib)
    contrib *= frequencies.take(cols)
    return contrib


class LiveEdges:
    """The edges of a CSR store that still add to some single benefit.

    Built from one full pass of per-edge contributions
    ``max(best[col] − val, 0) · freq[col]`` over the store, minus the
    edges whose contribution is ``+0.0``: rows in id order and each
    row's edges in CSR order, under a row pointer of their own.  While
    ``best`` only falls, a dropped edge's contribution stays ``+0.0``
    (each rounded step is monotone in ``best``) and adding ``+0.0`` never
    changes a non-negative sum, so :meth:`rescore` — one ``np.bincount``
    over the live edges of the given rows — equals :func:`csr_gains`
    over the full rows bit for bit.  Each rescore counts the edges of
    its rows that now contribute zero; once those make up
    :data:`SHED_FRACTION` of the store, it is compacted.
    """

    __slots__ = ("ptr", "cols", "vals", "_row_dead", "_dead")

    def __init__(
        self,
        row_ptr: np.ndarray,
        row_cols: np.ndarray,
        row_vals: np.ndarray,
        contrib: np.ndarray,
    ):
        self.ptr, self.cols, self.vals = row_ptr, row_cols, row_vals
        self._drop(np.flatnonzero(contrib == 0.0))

    def _drop(self, dead: np.ndarray) -> None:
        """Remove the edges at the sorted positions ``dead``."""
        live = np.ones(self.cols.size, dtype=bool)
        live[dead] = False
        self.ptr = self.ptr - np.searchsorted(dead, self.ptr)
        self.cols = self.cols[live]
        self.vals = self.vals[live]
        self._row_dead = np.zeros(self.ptr.size - 1, dtype=np.int64)
        self._dead = 0

    def rescore(
        self, ids: np.ndarray, best: np.ndarray, frequencies: np.ndarray
    ) -> np.ndarray:
        """Single benefits of the rows ``ids`` (unique) against ``best``,
        which must not have risen since the store was built."""
        starts = self.ptr[ids]
        lengths = self.ptr[ids + 1] - starts
        flat = _gather_ranges(starts, lengths)
        contrib = _edge_gains(
            best, self.cols.take(flat), self.vals.take(flat), frequencies
        )
        del flat
        local = np.repeat(np.arange(ids.size, dtype=np.intp), lengths)
        gains = np.bincount(local, contrib, minlength=ids.size)
        row_dead = np.bincount(
            local.take(np.flatnonzero(contrib == 0.0)), minlength=ids.size
        )
        del local, contrib
        self._dead += int(row_dead.sum() - self._row_dead[ids].sum())
        self._row_dead[ids] = row_dead
        if self._dead and self._dead >= SHED_FRACTION * self.cols.size:
            contrib = _edge_gains(best, self.cols, self.vals, frequencies)
            self._drop(np.flatnonzero(contrib == 0.0))
        return gains


class FamilyGrowth:
    """The live edges of one inner-greedy growth over a :class:`FamilyBlock`.

    :meth:`gains` scores every row of the block against a per-query cost
    vector with one pass over the live edges; :meth:`take` marks a row
    chosen and sheds the edges that can no longer contribute.  The caller
    must pass a ``cur_min`` that never rises between calls (a growth only
    adds structures).  Then an edge whose contribution
    ``max(cur_min[col] − val, 0) · freq`` is ``+0.0`` stays ``+0.0`` —
    each rounded step is monotone in ``cur_min`` — and adding ``+0.0``
    never changes a non-negative sum, so the gains of every row not yet
    taken equal :func:`csr_gains` over the same rows bit for bit.
    """

    __slots__ = ("block", "taken", "remaining", "_edges", "_contrib")

    def __init__(self, block: FamilyBlock, taken: np.ndarray):
        self.block = block
        self.taken = np.array(taken, dtype=bool)
        self.remaining = int(block.ids.size - np.count_nonzero(self.taken))
        self._edges = (block.local_row, block.col, block.val, block.freq)
        if self.remaining < block.ids.size:
            self._keep(np.flatnonzero(~self.taken[block.local_row]))
        self._contrib: Optional[np.ndarray] = None

    def _keep(self, positions: np.ndarray) -> None:
        self._edges = tuple(arr.take(positions) for arr in self._edges)

    def gains(self, cur_min: np.ndarray) -> np.ndarray:
        """Frequency-weighted positive gain of every block row against
        ``cur_min`` (meaningless for rows already taken)."""
        row, col, val, freq = self._edges
        contrib = np.take(cur_min, col)
        np.subtract(contrib, val, out=contrib)
        np.maximum(contrib, 0.0, out=contrib)
        contrib *= freq
        self._contrib = contrib
        return np.bincount(row, contrib, minlength=self.block.ids.size)

    def take(self, pos: int) -> None:
        """Mark row ``pos`` chosen and drop its edges and every edge whose
        last contribution was zero — once they make up
        :data:`SHED_FRACTION` of the live edges; until then they cost
        only a few added zeros."""
        self.taken[pos] = True
        self.remaining -= 1
        row = self._edges[0]
        live = self._contrib > 0.0
        live &= row != pos
        keep = np.flatnonzero(live)
        if keep.size <= (1.0 - SHED_FRACTION) * row.size:
            self._keep(keep)


def chain_pick(ratios: np.ndarray) -> Optional[int]:
    """Winner of the canonical greedy incumbent chain over ``ratios``.

    The canonical rule (shared by every stage loop): scan candidates in
    order; the incumbent is displaced only by a ratio strictly greater
    than ``incumbent · (1 + RATIO_RTOL)``.  All ratios must be positive.

    Vectorized via running prefix maxima: a candidate strictly above the
    previous prefix max times the tolerance *definitely* displaces, one at
    or below the prefix max definitely does not; the (measure-zero)
    ambiguous band falls back to the exact Python scan, so the result is
    always identical to the sequential rule.
    """
    n = len(ratios)
    if n == 0:
        return None
    if n == 1:
        return 0
    cummax = np.maximum.accumulate(ratios)
    prev = np.empty_like(cummax)
    prev[0] = 0.0
    prev[1:] = cummax[:-1]
    definite = ratios > prev * (1.0 + RATIO_RTOL)
    ambiguous = (ratios > prev) & ~definite
    if ambiguous.any():
        best = 0
        best_ratio = float(ratios[0])
        for i in range(1, n):
            if ratios[i] > best_ratio * (1.0 + RATIO_RTOL):
                best = i
                best_ratio = float(ratios[i])
        return best
    return int(np.flatnonzero(definite)[-1])


class BenefitEngine:
    """Compiled, stateful benefit evaluator over a query-view graph.

    The engine assigns every structure an integer id (``0..m-1``) and every
    query an integer id (``0..q-1``).  The cost of answering query ``q``
    via structure ``s`` lives in the backend store (``inf`` when there is
    no edge).  State is the vector of current best per-query costs given
    the committed selection, initialized to the default costs ``T_i``.

    Parameters
    ----------
    graph:
        The query-view graph to compile.
    backend:
        ``"dense"``, ``"sparse"`` or ``"auto"`` (see module docstring).
    dense_limit_bytes:
        Hard cap for the dense matrix; ``backend="dense"`` raises
        ``MemoryError`` beyond it.  Defaults to :data:`DENSE_LIMIT_BYTES`.
    """

    def __init__(
        self,
        graph: QueryViewGraph,
        backend: str = "auto",
        dense_limit_bytes: Optional[int] = None,
    ):
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.graph = graph
        self.query_names = [q.name for q in graph.queries]
        self.structure_names = [s.name for s in graph.structures]
        self._query_id = {name: i for i, name in enumerate(self.query_names)}
        self._structure_id = {name: i for i, name in enumerate(self.structure_names)}

        n_q = len(self.query_names)
        n_s = len(self.structure_names)
        self.defaults = np.array(
            [q.default_cost for q in graph.queries], dtype=np.float64
        )
        self.frequencies = np.array(
            [q.frequency for q in graph.queries], dtype=np.float64
        )
        self.spaces = np.array([s.space for s in graph.structures], dtype=np.float64)
        self.is_view = np.array([s.is_view for s in graph.structures], dtype=bool)
        self.view_id_of = np.array(
            [self._structure_id[s.view_name] for s in graph.structures], dtype=np.int64
        )

        q_idx, s_idx, vals = self._edge_arrays(graph)
        self._build_sparse(n_s, n_q, s_idx, q_idx, vals)

        limit = DENSE_LIMIT_BYTES if dense_limit_bytes is None else int(dense_limit_bytes)
        dense_bytes = self.dense_cost_bytes(n_s, n_q)
        if backend == "auto":
            backend = "dense" if dense_bytes <= min(AUTO_DENSE_BYTES, limit) else "sparse"
        if backend == "dense":
            if dense_bytes > limit:
                raise MemoryError(
                    f"dense cost matrix needs {dense_bytes} bytes for "
                    f"{n_s} structures x {n_q} queries (limit {limit}); "
                    "use backend='sparse' or raise dense_limit_bytes"
                )
            cost = np.full((n_s, n_q), INF, dtype=np.float64)
            np.minimum.at(cost, (self._nnz_rows, self._row_cols), self._row_vals)
            self._dense_cost = cost
        else:
            self._dense_cost = None
        self.backend = backend

        self._indexes_of = {
            self._structure_id[v.name]: np.array(
                [self._structure_id[i] for i in graph.indexes_of(v.name)],
                dtype=np.int64,
            )
            for v in graph.views
        }
        self._gain_scratch: Optional[np.ndarray] = None
        self._csr_routed = False
        self._singles: Optional[np.ndarray] = None
        self._singles_fresh = False
        self._live: Optional[LiveEdges] = None
        self._epoch = 0
        self._family_epoch = np.zeros(n_s, dtype=np.int64)
        self._stage_candidates: Optional[np.ndarray] = None
        self._family_blocks: dict = {}
        self._fingerprint: Optional[str] = None
        self.reset()

    # ----------------------------------------------------------- compilation

    def _edge_arrays(self, graph):
        """Edge triples as (query_idx, structure_idx, cost) arrays."""
        if hasattr(graph, "edge_arrays"):
            return graph.edge_arrays()
        q_list, s_list, c_list = [], [], []
        for q_name, s_name, cost in graph.edges():
            q_list.append(self._query_id[q_name])
            s_list.append(self._structure_id[s_name])
            c_list.append(cost)
        return (
            np.asarray(q_list, dtype=np.int64),
            np.asarray(s_list, dtype=np.int64),
            np.asarray(c_list, dtype=np.float64),
        )

    def _build_sparse(self, n_s, n_q, s_idx, q_idx, vals) -> None:
        """Build the CSR (by structure) and CSC (by query) edge stores."""
        s_idx = np.asarray(s_idx, dtype=np.int64)
        q_idx = np.asarray(q_idx, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        # the vectorized from_cube emits edges already in strict CSR order
        # (structure-major, query-minor, no duplicates) — detect that and
        # skip the O(nnz log nnz) sort, which dominates compile time
        if s_idx.size:
            same_row = s_idx[1:] == s_idx[:-1]
            csr_ordered = bool(np.all(s_idx[1:] >= s_idx[:-1])) and bool(
                np.all(q_idx[1:][same_row] > q_idx[:-1][same_row])
            )
        else:
            csr_ordered = True
        if csr_ordered:
            s_sorted, q_sorted, v_sorted = s_idx, q_idx, vals
        else:
            order = np.lexsort((q_idx, s_idx))
            s_sorted, q_sorted, v_sorted = s_idx[order], q_idx[order], vals[order]
            dup = np.zeros(s_sorted.size, dtype=bool)
            dup[1:] = (s_sorted[1:] == s_sorted[:-1]) & (q_sorted[1:] == q_sorted[:-1])
            if dup.any():
                # parallel edges keep the minimum cost, as add_edge does
                firsts = np.flatnonzero(~dup)
                v_sorted = np.minimum.reduceat(v_sorted, firsts)
                s_sorted = s_sorted[firsts]
                q_sorted = q_sorted[firsts]
        self._nnz_rows = s_sorted.astype(np.int32)
        self._row_cols = q_sorted.astype(np.int32)
        self._row_vals = v_sorted
        counts = np.bincount(s_sorted, minlength=n_s) if s_sorted.size else np.zeros(
            n_s, dtype=np.int64
        )
        self._row_ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

        if _scipy_sparse is not None and s_sorted.size:
            csc = _scipy_sparse.csr_matrix(
                (v_sorted, self._row_cols, self._row_ptr), shape=(n_s, n_q)
            ).tocsc()
            self._col_rows = csc.indices.astype(np.int32, copy=False)
            self._col_vals = np.ascontiguousarray(csc.data, dtype=np.float64)
            self._col_ptr = csc.indptr.astype(np.int64, copy=False)
        else:
            order_c = np.lexsort((s_sorted, q_sorted))
            self._col_rows = s_sorted[order_c].astype(np.int32)
            self._col_vals = v_sorted[order_c]
            counts_c = np.bincount(
                q_sorted, minlength=n_q
            ) if q_sorted.size else np.zeros(n_q, dtype=np.int64)
            self._col_ptr = np.concatenate(([0], np.cumsum(counts_c))).astype(np.int64)

    @staticmethod
    def dense_cost_bytes(n_structures: int, n_queries: int) -> int:
        """Bytes a dense float64 cost matrix of this shape would need."""
        return int(n_structures) * int(n_queries) * 8

    def fingerprint(self) -> str:
        """SHA-256 over the compiled instance (checkpoint identity).

        Covers structure names/spaces/ownership, query names, default
        costs, frequencies, and every cost edge — two engines share a
        fingerprint iff they describe the same selection problem, so a
        checkpoint can never be replayed against a different instance.
        Backend choice is deliberately excluded: dense and sparse
        engines over the same graph are interchangeable for replay.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for name in self.structure_names:
                digest.update(name.encode("utf-8"))
                digest.update(b"\x00")
            digest.update(b"\x01")
            for name in self.query_names:
                digest.update(name.encode("utf-8"))
                digest.update(b"\x00")
            digest.update(b"\x01")
            for arr in (
                self.spaces,
                self.is_view,
                self.view_id_of,
                self.defaults,
                self.frequencies,
                self._nnz_rows,
                self._row_cols,
                self._row_vals,
            ):
                digest.update(np.ascontiguousarray(arr).tobytes())
                digest.update(b"\x01")
            self._fingerprint = "sha256:" + digest.hexdigest()
        return self._fingerprint

    def replay_commit(self, names: Iterable[str]) -> float:
        """Commit structures by name (the checkpoint replay hook).

        Commits are deterministic — per-query best costs only take
        elementwise minima, and the maintained single-benefit cache is
        exact — so replaying a checkpoint's recorded stages in order
        reproduces the original engine state bitwise.  Returns the
        realized benefit of the committed set.
        """
        return self.commit([self.structure_id(name) for name in names])

    @property
    def cost(self) -> np.ndarray:
        """The dense cost matrix (dense backend only).

        The sparse backend never materializes it — use :meth:`cost_row`,
        :meth:`min_cost_over`, :meth:`minimum_with` or :meth:`gains_for`.
        """
        if self._dense_cost is None:
            raise RuntimeError(
                "the sparse backend has no dense cost matrix; use cost_row(), "
                "min_cost_over(), minimum_with() or gains_for() instead"
            )
        return self._dense_cost

    def route_through_csr(self) -> None:
        """Route every eager benefit evaluation through the CSR kernels.

        The dense backend's eager paths (:meth:`single_benefits` with
        ``lazy=False`` and the dense branch of :meth:`gains_for`) sum
        per-query contributions in matrix order, while :func:`csr_gains`
        — the kernel pool workers always use — sums per-edge in CSR
        order.  Both are exact up to float summation order, so they can
        differ in the last ulp.  Once any part of a run asks for workers
        (including ``workers=1``), serial scans must go through the same
        kernel so a serial stage following a pooled one (or the serial
        arm of an equivalence check) is *bitwise* identical, not just
        ulp-close.  :func:`repro.parallel.make_evaluator` calls this
        whenever a worker count is requested; the flag is one-way for
        the engine's lifetime — mixing kernels mid-run is the exact bug
        this prevents.  No-op on the sparse backend (already CSR).
        """
        self._csr_routed = True

    @property
    def uses_csr_kernels(self) -> bool:
        """True when eager benefit kernels run over the CSR store —
        always on the sparse backend, and on the dense one after
        :meth:`route_through_csr`.  Algorithms branch on this (not on
        ``backend``) when choosing between a batched CSR gain pass and a
        dense per-row loop, keeping serial and pooled scans bitwise
        aligned."""
        return self._dense_cost is None or self._csr_routed

    @property
    def nnz(self) -> int:
        """Number of stored edges."""
        return int(self._row_vals.size)

    def cost_store_bytes(self) -> int:
        """Actual bytes held by the cost store (CSR + CSC, plus the dense
        matrix when materialized)."""
        total = (
            self._nnz_rows.nbytes
            + self._row_cols.nbytes
            + self._row_vals.nbytes
            + self._row_ptr.nbytes
            + self._col_rows.nbytes
            + self._col_vals.nbytes
            + self._col_ptr.nbytes
        )
        if self._dense_cost is not None:
            total += self._dense_cost.nbytes
        return int(total)

    # ------------------------------------------------------------------ ids

    @property
    def n_queries(self) -> int:
        return len(self.query_names)

    @property
    def n_structures(self) -> int:
        return len(self.structure_names)

    def structure_id(self, name: str) -> int:
        return self._structure_id[name]

    def query_id(self, name: str) -> int:
        return self._query_id[name]

    def name_of(self, structure_id: int) -> str:
        return self.structure_names[structure_id]

    def space_of(self, ids: Iterable[int]) -> float:
        ids = np.fromiter(ids, dtype=np.int64)
        return float(self.spaces[ids].sum()) if ids.size else 0.0

    def view_ids(self) -> np.ndarray:
        """Ids of all view structures."""
        return np.flatnonzero(self.is_view)

    def index_ids_of(self, view_id: int) -> np.ndarray:
        """Ids of the indexes owned by the given view."""
        if not self.is_view[view_id]:
            raise ValueError(f"structure {self.name_of(view_id)} is not a view")
        return self._indexes_of[view_id]

    def stage_candidates(self) -> np.ndarray:
        """All structures in the canonical greedy offer order: each view
        followed by its indexes, views in id order.  Cached; combined with
        the admissibility filter in :meth:`lazy_best_single` this is the
        static candidate list for single-structure stage scans."""
        if self._stage_candidates is None:
            segments = []
            for view_id in self.view_ids():
                view_id = int(view_id)
                segments.append(np.array([view_id], dtype=np.int64))
                idx = self._indexes_of[view_id]
                if idx.size:
                    segments.append(idx.astype(np.int64, copy=False))
            self._stage_candidates = (
                np.concatenate(segments)
                if segments
                else np.empty(0, dtype=np.int64)
            )
        return self._stage_candidates

    def family_block(self, view_id: int) -> FamilyBlock:
        """The view's index rows as a :class:`FamilyBlock` (built on
        first use and cached: the block only reads the static CSR store,
        whichever backend the engine runs)."""
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

    # ------------------------------------------------------- shared export

    def shared_arrays(self) -> dict:
        """The immutable compiled arrays a parallel worker needs, by name.

        Everything a :class:`repro.parallel.worker.WorkerStore` reads:
        the CSR edge store, per-structure/per-query attributes, and the
        canonical candidate order.  The CSC store stays master-side
        (stale discovery runs there).  The returned arrays are the
        engine's own — callers copy them into shared memory and must not
        mutate them.
        """
        return {
            "row_ptr": self._row_ptr,
            "row_cols": self._row_cols,
            "row_vals": self._row_vals,
            "spaces": self.spaces,
            "frequencies": self.frequencies,
            "defaults": self.defaults,
            "is_view": self.is_view,
            "view_id_of": self.view_id_of,
            "stage_candidates": self.stage_candidates(),
        }

    # ------------------------------------------------------------- cost rows

    def cost_row(self, structure_id: int) -> np.ndarray:
        """Per-query cost of one structure (``inf`` where no edge).

        Dense backend returns a read-only view of the matrix row; sparse
        materializes the row.  Do not mutate the result.
        """
        if self._dense_cost is not None:
            return self._dense_cost[structure_id]
        row = np.full(self.n_queries, INF, dtype=np.float64)
        lo, hi = self._row_ptr[structure_id], self._row_ptr[structure_id + 1]
        row[self._row_cols[lo:hi]] = self._row_vals[lo:hi]
        return row

    def minimum_with(self, vec: np.ndarray, structure_id: int) -> np.ndarray:
        """``np.minimum(vec, cost_row(structure_id))`` without materializing
        the row on the sparse backend.  Returns a new array."""
        if self._dense_cost is not None:
            return np.minimum(vec, self._dense_cost[structure_id])
        return csr_minimum_with(
            vec, self._row_ptr, self._row_cols, self._row_vals, structure_id
        )

    def edge_cost_by_id(self, structure_id: int, query_id: int) -> float:
        """Cost of the (structure, query) edge, ``inf`` when absent."""
        if self._dense_cost is not None:
            return float(self._dense_cost[structure_id, query_id])
        lo, hi = self._row_ptr[structure_id], self._row_ptr[structure_id + 1]
        cols = self._row_cols[lo:hi]
        pos = lo + int(np.searchsorted(cols, query_id))
        if pos < hi and self._row_cols[pos] == query_id:
            return float(self._row_vals[pos])
        return INF

    # ---------------------------------------------------------------- state

    def reset(self) -> None:
        """Forget the committed selection; best costs return to defaults."""
        self._best = self.defaults.copy()
        self._selected: set = set()
        self._selected_mask = np.zeros(self.n_structures, dtype=bool)
        self._drop_singles()

    @property
    def selected_ids(self) -> frozenset:
        return frozenset(self._selected)

    @property
    def selected_mask(self) -> np.ndarray:
        """Boolean mask of selected structures (read-only; do not mutate)."""
        return self._selected_mask

    @property
    def selected_names(self) -> list:
        return [self.structure_names[i] for i in sorted(self._selected)]

    @property
    def best_costs(self) -> np.ndarray:
        """Current per-query best cost (a copy; safe to mutate)."""
        return self._best.copy()

    def space_used(self) -> float:
        return self.space_of(self._selected)

    def tau(self) -> float:
        """Current total (frequency-weighted) query cost τ(G, M)."""
        return float(self.frequencies @ self._best)

    def average_query_cost(self) -> float:
        """τ divided by the total query frequency."""
        total_freq = float(self.frequencies.sum())
        if total_freq == 0:
            return 0.0
        return self.tau() / total_freq

    def is_selected(self, structure_id: int) -> bool:
        return structure_id in self._selected

    # -------------------------------------------------------------- benefit

    def _as_id_array(self, ids: Iterable[int]) -> np.ndarray:
        arr = np.fromiter(ids, dtype=np.int64)
        return arr

    def min_cost_over(self, ids: Iterable[int]) -> np.ndarray:
        """Per-query minimum edge cost over the given structures
        (``inf`` where none of them answers a query)."""
        arr = self._as_id_array(ids)
        if arr.size == 0:
            return np.full(self.n_queries, INF)
        if self._dense_cost is not None:
            return self._dense_cost[arr].min(axis=0)
        out = np.full(self.n_queries, INF, dtype=np.float64)
        for sid in arr:
            lo, hi = self._row_ptr[sid], self._row_ptr[sid + 1]
            cols = self._row_cols[lo:hi]
            out[cols] = np.minimum(out[cols], self._row_vals[lo:hi])
        return out

    def is_admissible(self, ids: Iterable[int]) -> bool:
        """True iff every index in ``ids`` has its view in ``ids`` or in
        the committed selection."""
        id_set = set(ids)
        for sid in id_set:
            if not self.is_view[sid]:
                owner = int(self.view_id_of[sid])
                if owner not in id_set and owner not in self._selected:
                    return False
        return True

    # ------------------------------------------------- single benefits (m×1)

    def _eager_singles_dense(self, ids) -> np.ndarray:
        """One matrix pass over the dense store, into a reused scratch
        buffer (no per-stage (m × q) allocation)."""
        cost = self._dense_cost
        if ids is None:
            rows_needed = cost.shape[0]
            take_ids = None
        else:
            take_ids = np.asarray(ids, dtype=np.int64)
            rows_needed = take_ids.shape[0]
        if self._gain_scratch is None or self._gain_scratch.shape[0] < rows_needed:
            self._gain_scratch = np.empty(
                (rows_needed, self.n_queries), dtype=np.float64
            )
        gains = self._gain_scratch[:rows_needed]
        if take_ids is None:
            np.subtract(self._best, cost, out=gains)
        else:
            np.take(cost, take_ids, axis=0, out=gains)
            np.subtract(self._best, gains, out=gains)
        np.maximum(gains, 0.0, out=gains)  # -inf where no edge -> 0
        return gains @ self.frequencies

    def _eager_singles_sparse(self, ids) -> np.ndarray:
        """Per-edge gains summed per structure over the CSR store."""
        if ids is None:
            contrib = self._best[self._row_cols] - self._row_vals
            np.maximum(contrib, 0.0, out=contrib)
            contrib *= self.frequencies[self._row_cols]
            return np.bincount(
                self._nnz_rows, weights=contrib, minlength=self.n_structures
            )
        return csr_gains(
            self._row_ptr,
            self._row_cols,
            self._row_vals,
            self.frequencies,
            self._best,
            ids,
        )

    def _ensure_singles(self) -> np.ndarray:
        """The maintained singles; a full pass builds them, and the
        run's :class:`LiveEdges` store, when they are not fresh."""
        if not self._singles_fresh:
            contrib = _edge_gains(
                self._best, self._row_cols, self._row_vals, self.frequencies
            )
            self._singles = np.bincount(
                self._nnz_rows, weights=contrib, minlength=self.n_structures
            )
            self._live = LiveEdges(
                self._row_ptr, self._row_cols, self._row_vals, contrib
            )
            self._singles_fresh = True
        return self._singles

    def _drop_singles(self) -> None:
        """Forget the maintained singles and their live edges, and mark
        every family changed."""
        self._singles_fresh = False
        self._live = None
        self._stamp_families(None)

    def _stamp_families(self, ids) -> None:
        """Start a new epoch and stamp it on the owning view of each of
        ``ids`` (``None``: of every structure)."""
        self._epoch += 1
        if ids is None:
            self._family_epoch.fill(self._epoch)
        else:
            self._family_epoch[self.view_id_of[ids]] = self._epoch

    def family_epoch(self, view_id: int) -> int:
        """Epoch of the last change that can have moved a growth from
        ``view_id``: a commit that made the view or one of its indexes
        stale (see :meth:`stale_structures_after`), or any commit made
        while the maintained singles were not fresh, a reset, a restore
        or an :meth:`invalidate`.  While it holds still, every gain the
        family's edges give against the best costs is bitwise unchanged,
        and so is an inner-greedy growth from the view."""
        return int(self._family_epoch[view_id])

    def stale_structures_after(self, old_best: np.ndarray) -> np.ndarray:
        """Structures whose standalone benefit may have changed since the
        best-cost vector was ``old_best`` (sorted unique ids).

        A structure is stale only when one of its edges into a *dirty*
        query (best cost dropped) was *beating* the old best cost there:
        an edge with ``cost >= old_best`` contributed exactly zero before
        and (the best only drops) still does, so the cached sum — the
        same addends in the same order — is bitwise unchanged.  This is
        the discovery half of the maintained single-benefit cache; the
        parallel evaluator calls it after every commit to route refresh
        work to worker shards.
        """
        dirty = np.flatnonzero(self._best < old_best)
        if dirty.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self._col_ptr[dirty]
        lengths = self._col_ptr[dirty + 1] - starts
        flat = _gather_ranges(starts, lengths)
        if flat.size == 0:
            return np.empty(0, dtype=np.int64)
        beating = self._col_vals[flat] < np.repeat(old_best[dirty], lengths)
        if not beating.any():
            return np.empty(0, dtype=np.int64)
        stale = np.zeros(self.n_structures, dtype=bool)
        stale[self._col_rows[flat[beating]]] = True
        return np.flatnonzero(stale)

    def _refresh_singles_after(self, old_best: np.ndarray) -> None:
        """Incrementally re-score only structures touched by queries whose
        best cost just dropped (see :meth:`stale_structures_after`), over
        their live edges, and stamp their families with a new epoch."""
        stale = self.stale_structures_after(old_best)
        if stale.size:
            self._stamp_families(stale)
            self._singles[stale] = self._live.rescore(
                stale, self._best, self.frequencies
            )

    def invalidate(self, ids=None) -> None:
        """Drop (or selectively refresh) the maintained single-benefit cache.

        ``ids=None`` discards the whole cache — the next lazy call pays a
        full recompute.  With ``ids``, those rows are re-scored in place
        when the cache is live (no-op otherwise).  Either way the
        families of the structures concerned get a new
        :meth:`family_epoch`.  Algorithms normally never need this —
        :meth:`commit`, :meth:`reset` and :meth:`restore` keep the cache
        consistent — but external mutations of engine state should call
        it.
        """
        if ids is None:
            self._drop_singles()
            return
        arr = np.asarray(list(ids), dtype=np.int64)
        if arr.size:
            self._stamp_families(arr)
            if self._singles_fresh:
                self._singles[arr] = self._eager_singles_sparse(arr)

    def single_benefits(self, ids=None, lazy: Optional[bool] = None) -> np.ndarray:
        """Benefit of each structure *alone* w.r.t. the committed selection.

        ``ids`` restricts the computation to the given structure ids
        (array-like); ``None`` evaluates all structures.  Missing edges
        contribute zero, as they must.

        ``lazy=None`` picks the backend default (sparse → maintained
        incremental cache, dense → eager matrix pass); ``lazy=True``
        forces the maintained cache, ``lazy=False`` a full recompute.
        """
        if lazy is None:
            lazy = self._dense_cost is None
        if lazy:
            singles = self._ensure_singles()
            if ids is None:
                return singles.copy()
            return singles[np.asarray(ids, dtype=np.int64)]
        if self._dense_cost is not None and not self._csr_routed:
            return self._eager_singles_dense(ids)
        return self._eager_singles_sparse(ids)

    def lazy_best_single(self, ids, space_left: Optional[float] = None):
        """Best single candidate by benefit per space, from the maintained
        incremental cache — the lazy replacement for a full eager stage scan.

        Scans ``ids`` with the canonical greedy rule (first candidate at a
        strictly better ratio wins, tolerance :data:`RATIO_RTOL`), skipping
        selected structures, inadmissible indexes (owning view not yet
        selected), non-positive benefits and — when ``space_left`` is
        given — candidates that do not fit.  Returns
        ``(structure_id, benefit, space, ratio)`` or ``None``.
        """
        return self.best_single(ids, space_left=space_left, lazy=True)

    def best_single(
        self, ids, space_left: Optional[float] = None, lazy: bool = True
    ):
        """Canonical single-structure stage pick over ``ids``.

        Same offer stream and tie-break either way; ``lazy=True`` reads
        the maintained cache, ``lazy=False`` recomputes the benefits
        eagerly (the two agree bitwise on the sparse backend — the cache
        invariant — and up to kernel summation order on the dense one).
        Returns ``(structure_id, benefit, space, ratio)`` or ``None``.
        """
        arr = np.asarray(ids, dtype=np.int64)
        if arr.size == 0:
            return None
        if lazy:
            benefits = self._ensure_singles()[arr]
        else:
            benefits = self.single_benefits(arr, lazy=False)
        spaces = self.spaces[arr]
        eligible = (benefits > 0.0) & ~self._selected_mask[arr]
        eligible &= self.is_view[arr] | self._selected_mask[self.view_id_of[arr]]
        if space_left is not None:
            eligible &= spaces <= space_left + 1e-9
        if not eligible.any():
            return None
        pos = np.flatnonzero(eligible)
        ratios = benefits[pos] / spaces[pos]
        win = chain_pick(ratios)
        if win is None:
            return None
        p = pos[win]
        return int(arr[p]), float(benefits[p]), float(spaces[p]), float(ratios[win])

    @property
    def prefers_lazy(self) -> bool:
        """True when algorithms should default to the lazy stage loops.

        The lazy loops are exact (same candidate order and tie-break as
        the eager scans, skipping only provably no-op work) and measured
        faster on both backends, so this is always ``True``; it exists so
        a subclass or an experiment can opt a whole engine out.
        """
        return True

    def gains_for(self, ids, base: np.ndarray) -> np.ndarray:
        """Frequency-weighted positive gain of each structure against the
        per-query cost vector ``base`` (one vectorized pass)."""
        arr = np.asarray(ids, dtype=np.int64)
        if arr.size == 0:
            return np.zeros(0, dtype=np.float64)
        if self._dense_cost is not None and not self._csr_routed:
            gains_matrix = base - self._dense_cost[arr]
            np.maximum(gains_matrix, 0.0, out=gains_matrix)
            return gains_matrix @ self.frequencies
        return csr_gains(
            self._row_ptr, self._row_cols, self._row_vals, self.frequencies, base, arr
        )

    # ---------------------------------------------------------- set benefits

    def benefit_of(self, ids: Iterable[int]) -> float:
        """Benefit of the candidate set w.r.t. the committed selection.

        The caller is responsible for admissibility (use
        :meth:`is_admissible`); the value returned is the τ reduction if
        the whole set were committed now.
        """
        arr = self._as_id_array(ids)
        if arr.size == 0:
            return 0.0
        candidate = self.min_cost_over(arr)
        improved = np.minimum(self._best, candidate)
        return float(self.frequencies @ (self._best - improved))

    def benefit_per_space(self, ids: Iterable[int]) -> float:
        """Benefit per unit space of the candidate set w.r.t. selection."""
        ids = list(ids)
        space = self.space_of(ids)
        if space <= 0:
            raise ValueError("candidate set must occupy positive space")
        return self.benefit_of(ids) / space

    def commit(self, ids: Iterable[int]) -> float:
        """Materialize the structures; returns the realized benefit.

        Raises ``ValueError`` if an index would be committed without its
        owning view (either previously selected or in the same call).
        Keeps the maintained single-benefit cache consistent by re-scoring
        only the structures touched by dirty queries.
        """
        ids = list(ids)
        if not self.is_admissible(ids):
            raise ValueError(
                "cannot commit an index before its view: "
                + ", ".join(self.name_of(i) for i in ids)
            )
        arr = self._as_id_array(ids)
        if arr.size == 0:
            return 0.0
        candidate = self.min_cost_over(arr)
        improved = np.minimum(self._best, candidate)
        benefit = float(self.frequencies @ (self._best - improved))
        old_best = self._best
        self._best = improved
        self._selected.update(int(i) for i in arr)
        self._selected_mask[arr] = True
        if self._singles_fresh:
            self._refresh_singles_after(old_best)
        else:
            self._stamp_families(None)
        return benefit

    # ---------------------------------------------- snapshots (backtracking)

    def snapshot(self) -> tuple:
        """Capture current state; pass to :meth:`restore` to roll back."""
        return self._best.copy(), set(self._selected)

    def restore(self, snapshot: tuple) -> None:
        best, selected = snapshot
        self._best = best.copy()
        self._selected = set(selected)
        self._selected_mask = np.zeros(self.n_structures, dtype=bool)
        if self._selected:
            self._selected_mask[np.fromiter(self._selected, dtype=np.int64)] = True
        self._drop_singles()

    # ------------------------------------------------------------- reporting

    def absolute_benefit(self, ids: Iterable[int]) -> float:
        """Benefit of the set w.r.t. the *empty* selection, B(C, ∅),
        leaving the engine state untouched."""
        arr = self._as_id_array(ids)
        if arr.size == 0:
            return 0.0
        candidate = self.min_cost_over(arr)
        improved = np.minimum(self.defaults, candidate)
        return float(self.frequencies @ (self.defaults - improved))

    def max_achievable_benefit(self) -> float:
        """Benefit of materializing everything — an upper bound for any
        selection (computed against default costs)."""
        if self._dense_cost is not None:
            floor = self._dense_cost.min(axis=0)
        else:
            floor = np.full(self.n_queries, INF, dtype=np.float64)
            np.minimum.at(floor, self._row_cols, self._row_vals)
        improved = np.minimum(self.defaults, floor)
        return float(self.frequencies @ (self.defaults - improved))

    def __repr__(self) -> str:
        return (
            f"BenefitEngine(structures={self.n_structures}, "
            f"queries={self.n_queries}, edges={self.nnz}, "
            f"backend={self.backend!r}, selected={len(self._selected)}, "
            f"tau={self.tau():g})"
        )
