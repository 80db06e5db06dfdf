"""The inner-level greedy algorithm (Algorithm 5.2 of the paper).

Each stage has two phases:

* **Phase 1** — for every unselected view ``v_i``, grow a set ``IG_i``
  starting from ``{v_i}`` by repeatedly adding the index of ``v_i`` with
  maximum benefit per unit space w.r.t. ``M ∪ IG_i`` (the *inner* greedy),
  while ``S(IG_i)`` stays below the total budget ``S``.  The best ``IG_i``
  by benefit per unit space becomes the stage candidate ``C``.
* **Phase 2** — the single unselected index (of an already selected view)
  with maximum benefit per unit space challenges ``C``; the better of the
  two is committed.

Stages repeat while ``S(M) < S``; the final selection uses at most ``2·S``
space (Theorem 5.2) and achieves at least ``1 − 1/e^0.63 ≈ 0.467`` of the
optimal benefit attainable in the space it used, in ``O(k²·m²)`` time.

Two inner-growth rules are provided:

``"space"`` (default, the paper's listing)
    grow ``IG_i`` while ``S(IG_i) < S`` (stopping early once no index adds
    positive benefit, which only improves the candidate's ratio);
``"peak"`` (the paper's prose)
    grow the same way but return the prefix of ``IG_i`` at which benefit
    per unit space is maximal.

How a growth step is computed: the view's indexes come as one cached
:class:`~repro.core.benefit.FamilyBlock` (their CSR rows flattened into
``local_row, col, val, freq`` arrays), and a step is a single pass over
its live edges, ``contrib = max(cur_min[col] − val, 0) · freq``, summed
per index by ``np.bincount(local_row, contrib)`` — the same addends in
the same order as :func:`~repro.core.benefit.csr_gains`, so each gain
is bit-identical to it on either cost store and in the pool workers.
``cur_min`` only falls during a growth, so an edge that contributes
``+0.0`` keeps doing so and is shed; adding ``+0.0`` never changes the
sum.  Indexes already in ``IG_i`` get ``-inf`` density, so the argmax
still breaks ties by family order.  Phase 2 offers only the strict
prefix maxima of its benefit/space stream
(:func:`~repro.parallel.sinks.offer_prefix_maxima`): the others can never
displace the incumbent.

Growth reuse: a serial run keeps each view's last growth in a
:class:`GrowthMemo` and replays it while the engine's
:meth:`~repro.core.benefit.BenefitEngine.family_epoch` of the view is
unchanged — no commit since has made the view or one of its indexes
stale, so every gain the growth read is bitwise the same.  The replay is
cut after the first set that reaches the stage's cap.  Pool workers grow
every view they scan.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Optional

import numpy as np

from repro.algorithms.base import (
    FIT_PAPER,
    FIT_STRICT,
    SPACE_EPS,
    GraphLike,
    RunContext,
    RuntimeStop,
    SelectionAlgorithm,
    StageTracker,
    as_engine,
    check_fit,
    check_space,
    phase2_index_ids,
    resolve_lazy,
)
from repro.core.benefit import BenefitEngine, FamilyGrowth
from repro.core.selection import SelectionResult
from repro.parallel import ChainSink, make_evaluator
from repro.parallel.sinks import offer_prefix_maxima

IG_SPACE = "space"
IG_PEAK = "peak"


class InnerLevelGreedy(SelectionAlgorithm):
    """Inner-level greedy selection of views and indexes.

    ``lazy=None`` (default) follows the engine's
    :attr:`~repro.core.benefit.BenefitEngine.prefers_lazy`, which is
    ``True`` on both backends: the maintained single-benefit cache
    supplies an upper bound on every view's inner-greedy ratio (a set's
    benefit/space never exceeds the best of its members' standalone
    ratios), so views that cannot displace the stage incumbent skip the
    inner greedy entirely.  ``lazy=False`` runs the eager loop.  Candidate
    order and tie-break match the eager loop, so selections are identical.
    Serial runs also replay a view's growth from the previous stage while
    no commit has touched its family (:class:`GrowthMemo`).
    """

    name = "inner-level greedy"

    def __init__(
        self,
        fit: str = FIT_PAPER,
        ig_rule: str = IG_SPACE,
        lazy: Optional[bool] = None,
        workers: Optional[int] = None,
    ):
        self.fit = check_fit(fit)
        if ig_rule not in (IG_SPACE, IG_PEAK):
            raise ValueError(f"ig_rule must be 'space' or 'peak', got {ig_rule!r}")
        self.ig_rule = ig_rule
        self.lazy = lazy
        self.workers = workers

    def config(self) -> dict:
        return {
            "class": "InnerLevelGreedy",
            "params": {
                "fit": self.fit,
                "ig_rule": self.ig_rule,
                "lazy": self.lazy,
                "workers": self.workers,
            },
        }

    def run(
        self,
        graph: GraphLike,
        space: float,
        seed=(),
        context: Optional[RunContext] = None,
    ) -> SelectionResult:
        space = check_space(space)
        engine = as_engine(graph)
        lazy = resolve_lazy(self.lazy, engine)
        tracker = StageTracker(self, engine, space, context)
        evaluator = make_evaluator(engine, self.workers)
        tracker.set_evaluator(evaluator)
        growths = GrowthMemo()
        try:
            tracker.apply_seed(seed)
            while engine.space_used() < space - SPACE_EPS:
                if tracker.replay_stage() is not None:
                    continue
                candidate = evaluator.inner_stage(
                    self, engine, space, lazy, growths
                )
                if candidate is None:
                    break
                ids, cand_space = candidate
                tracker.commit_stage(ids, stage_space=cand_space)
        except RuntimeStop as stop:
            raise tracker.interrupted(stop)
        finally:
            evaluator.close()
        return tracker.finish()

    # ------------------------------------------------------------ internals

    def _best_stage(
        self,
        engine: BenefitEngine,
        space: float,
        lazy: bool,
        growths: Optional["GrowthMemo"] = None,
    ):
        """Return ``(ids, space)`` of the stage's winning set, or ``None``.
        ``growths`` is the run's :class:`GrowthMemo` (``None``: grow
        every view afresh)."""
        strict = self.fit == FIT_STRICT
        space_left = space - engine.space_used()
        ig_cap = space_left if strict else space
        sink = ChainSink()
        singles = engine.single_benefits(lazy=True) if lazy else None
        view_ids = engine.view_ids()
        self._scan_phase1(
            engine, view_ids, sink, singles, space_left, ig_cap, strict, growths
        )
        self._scan_phase2(engine, view_ids, sink, space_left, strict, lazy)
        if sink.ids is None:
            return None
        return sink.ids, sink.space

    def _scan_phase1(
        self,
        engine,
        view_ids,
        sink,
        singles,
        space_left,
        ig_cap,
        strict,
        growths: Optional["GrowthMemo"] = None,
    ) -> None:
        """Phase 1 over ``view_ids``: per-view inner greedy.  Shared by
        the serial stage (sink = incumbent chain) and pool workers (sink
        = recorder over the worker's shard of the view order); ``singles``
        is the maintained cache, or ``None`` to disable the lazy prune.
        With ``growths`` (serial runs), a view's growth is replayed from
        the memo while its family is unchanged."""
        best_vec = engine.best_costs
        freq = engine.frequencies
        selected_mask = engine.selected_mask
        for view_id in view_ids:
            view_id = int(view_id)
            if selected_mask[view_id]:
                continue
            if singles is not None and self._view_pruned(
                engine, singles, view_id, selected_mask, sink
            ):
                continue

            def grow(view_id=view_id):
                return self._grow_ig(
                    engine, view_id, best_vec, freq, ig_cap, selected_mask
                )

            if growths is None:
                growth = grow()
                steps = len(growth.ids)
            else:
                growth, steps = growths.growth(engine, view_id, ig_cap, grow)
            ig = self._pick(growth, steps)
            if ig is None:
                continue
            ids, benefit, cand_space = ig
            if strict and cand_space > space_left + SPACE_EPS:
                continue
            sink.offer(ids, benefit, cand_space)

    def _scan_phase2(
        self, engine, view_ids, sink, space_left, strict, lazy
    ) -> None:
        """Phase 2 over ``view_ids``: single unselected indexes of
        already-selected views (vectorized benefits and offers)."""
        phase2 = phase2_index_ids(engine, view_ids)
        if phase2.size == 0:
            return
        benefits = engine.single_benefits(phase2, lazy=lazy)
        spaces = engine.spaces[phase2]
        if strict:
            fit = spaces <= space_left + SPACE_EPS
            phase2, benefits, spaces = phase2[fit], benefits[fit], spaces[fit]
        offer_prefix_maxima(sink, phase2, benefits, spaces)

    @staticmethod
    def _view_pruned(
        engine,
        singles: np.ndarray,
        view_id: int,
        selected_mask: np.ndarray,
        sink,
    ) -> bool:
        """True when no IG set grown from this view can displace the
        incumbent: a set's benefit/space ratio never exceeds the maximum
        standalone benefit/space ratio of its members (mediant inequality
        plus subadditivity), all of which the maintained cache bounds."""
        ratio_ub = float(singles[view_id]) / float(engine.spaces[view_id])
        idx_ids = engine.index_ids_of(view_id)
        if idx_ids.size:
            idx_ids = idx_ids[~selected_mask[idx_ids]]
        if idx_ids.size:
            idx_ub = float((singles[idx_ids] / engine.spaces[idx_ids]).max())
            ratio_ub = max(ratio_ub, idx_ub)
        if ratio_ub <= 0.0:
            return True  # the grown set's benefit cannot be positive
        if sink.ids is None:
            return False
        return ratio_ub <= sink.prune_ratio

    def _pick(self, growth: "Growth", steps: int):
        """The ``(ids, benefit, space)`` the first ``steps`` sets of a
        growth offer under this algorithm's rule, or ``None`` when its
        benefit is not positive."""
        end = steps - 1
        if self.ig_rule == IG_PEAK:
            ratios = [b / s for b, s in zip(growth.benefits[:steps], growth.spaces)]
            end = ratios.index(max(ratios))
        benefit = growth.benefits[end]
        if benefit <= 0:
            return None
        return growth.ids[: end + 1], benefit, growth.spaces[end]

    def _grow_ig(
        self,
        engine: BenefitEngine,
        view_id: int,
        best_vec: np.ndarray,
        freq: np.ndarray,
        ig_cap: float,
        selected_mask: np.ndarray,
    ) -> "Growth":
        """Inner greedy for one view, from ``{view}`` on while the set's
        space stays below ``ig_cap``.  Each step is one
        :class:`~repro.core.benefit.FamilyGrowth` pass (see the module
        docstring)."""
        # note: a bare view larger than the growth cap is still offered —
        # Theorem 5.2 assumes no structure exceeds S, and the while-loop
        # below simply adds no indexes in that case.
        cur_min = engine.minimum_with(best_vec, view_id)
        cur_benefit = float(freq @ (best_vec - cur_min))
        cur_space = float(engine.spaces[view_id])
        chosen = [view_id]
        benefits = [cur_benefit]
        spaces = [cur_space]

        block = engine.family_block(view_id)
        growth = FamilyGrowth(block, selected_mask[block.ids])
        while growth.remaining and cur_space < ig_cap - SPACE_EPS:
            gains = growth.gains(cur_min)
            densities = gains / block.spaces
            densities[growth.taken] = -np.inf
            pos = int(np.argmax(densities))
            if gains[pos] <= 0.0:
                break
            growth.take(pos)
            best_idx = int(block.ids[pos])
            cur_min = engine.minimum_with(cur_min, best_idx)
            cur_benefit += float(gains[pos])
            cur_space += float(block.spaces[pos])
            chosen.append(best_idx)
            benefits.append(cur_benefit)
            spaces.append(cur_space)
        return Growth(tuple(chosen), benefits, spaces)


class Growth(NamedTuple):
    """One inner-greedy growth: ``ids[:i + 1]`` is the set after step
    ``i`` (step 0 is the view alone), with benefit ``benefits[i]`` and
    space ``spaces[i]``."""

    ids: tuple
    benefits: list
    spaces: list


class GrowthMemo:
    """The growths of one serial inner-level run, by view.

    A growth from a view reads the best costs only at the columns its
    family's edges reach, and only where one of them beats the best
    cost; everywhere else each of its addends is ``+0.0`` whatever the
    best cost.  So until the engine's
    :meth:`~repro.core.benefit.BenefitEngine.family_epoch` of the view
    moves, a new growth would take the same steps with the same float
    values, and the recorded one is replayed instead.  The cap only
    decides where the loop stops, so a growth recorded under a cap
    serves any cap up to it: it is cut after the first set that reaches
    the cap (the strict fit's cap only shrinks, the paper fit's stays
    put).
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: dict = {}

    def growth(self, engine, view_id: int, ig_cap: float, grow):
        """``(growth, steps)``: the growth from ``view_id`` and how many
        of its sets a growth under ``ig_cap`` makes — replayed when still
        valid, else ``grow()``'s, which is then recorded."""
        epoch = engine.family_epoch(view_id)
        entry = self._entries.get(view_id)
        if entry is not None and entry[0] == epoch and ig_cap <= entry[1]:
            growth = entry[2]
            reached = bisect_left(growth.spaces, ig_cap - SPACE_EPS)
            return growth, min(reached + 1, len(growth.ids))
        growth = grow()
        self._entries[view_id] = (epoch, ig_cap, growth)
        return growth, len(growth.ids)
