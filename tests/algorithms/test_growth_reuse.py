"""Inner-level growth replay against fresh growths.

A serial inner-level run keeps each view's growth in a
:class:`~repro.algorithms.inner_level.GrowthMemo` and replays it while
the view's family epoch holds still, cut at the stage's cap.  Here every
replay is checked against a fresh growth at that stage — same ids, and
the same benefit and space floats after every step — at d=4 and d=5,
under both growth rules and both fits.  Strict fit must also replay a
growth cut short by a cap that fell below its last set's space.  Whole
runs must match a run that regrows every view, and a 2-worker run.
Serial runs ask for ``workers=1``, so ``REPRO_WORKERS`` cannot pool them.
"""

from __future__ import annotations

import pytest

from repro.algorithms import FIT_PAPER, FIT_STRICT, InnerLevelGreedy
from repro.algorithms import inner_level
from repro.algorithms.inner_level import IG_PEAK, IG_SPACE, Growth, GrowthMemo
from repro.core.benefit import BenefitEngine
from tests.algorithms.test_golden_selections import cube_input


class CheckedMemo(GrowthMemo):
    """A memo that regrows behind every replay and compares."""

    __slots__ = ("replays", "cuts")

    def __init__(self):
        super().__init__()
        self.replays = 0
        self.cuts = 0

    def growth(self, engine, view_id, ig_cap, grow):
        recorded = self._entries.get(view_id)
        growth, steps = super().growth(engine, view_id, ig_cap, grow)
        if recorded is not None and growth is recorded[2]:
            self.replays += 1
            self.cuts += steps < len(growth.ids)
            fresh = grow()
            assert fresh.ids == growth.ids[:steps]
            assert fresh.benefits == growth.benefits[:steps]
            assert fresh.spaces == growth.spaces[:steps]
        return growth, steps


class RegrowMemo(GrowthMemo):
    """A memo that never replays."""

    def growth(self, engine, view_id, ig_cap, grow):
        growth = grow()
        return growth, len(growth.ids)


#: Budget shares of the non-top space: the golden cases' quarter, and a
#: tight one under which strict-fit caps fall below recorded growths.
SHARES = (0.25, 0.05)


def run(dims, share, fit, ig_rule, memo_class=GrowthMemo, workers=1):
    graph, _ = cube_input(dims)
    top = max(s.space for s in graph.structures if s.is_view)
    budget = top + share * (graph.total_space() - top)
    memos = []

    def make_memo():
        memos.append(memo_class())
        return memos[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inner_level, "GrowthMemo", make_memo)
        algo = InnerLevelGreedy(fit=fit, ig_rule=ig_rule, workers=workers)
        result = algo.run(BenefitEngine(graph, backend="sparse"), budget)
    return result, memos[0]


def outcome(result):
    return list(result.selected), repr(result.tau), repr(result.space_used)


@pytest.mark.parametrize("fit", [FIT_STRICT, FIT_PAPER])
@pytest.mark.parametrize("ig_rule", [IG_SPACE, IG_PEAK])
@pytest.mark.parametrize("share", SHARES)
@pytest.mark.parametrize("dims", [4, 5])
def test_replays_equal_fresh_growths(dims, share, ig_rule, fit):
    result, memo = run(dims, share, fit, ig_rule, CheckedMemo)
    if share == max(SHARES):
        assert memo.replays > 0
    elif fit == FIT_STRICT:
        assert memo.cuts > 0
    regrown, _ = run(dims, share, fit, ig_rule, RegrowMemo)
    assert outcome(result) == outcome(regrown)


@pytest.mark.parametrize("ig_rule", [IG_SPACE, IG_PEAK])
def test_pooled_run_matches_serial(ig_rule):
    serial, _ = run(5, min(SHARES), FIT_STRICT, ig_rule)
    pooled, _ = run(5, min(SHARES), FIT_STRICT, ig_rule, workers=2)
    assert outcome(pooled) == outcome(serial)


def test_memo_replays_only_what_a_regrowth_would_repeat():
    class Engine:
        epoch = 1

        def family_epoch(self, view_id):
            return self.epoch

    engine, grown = Engine(), []

    def grow():
        grown.append(view_id)
        return Growth((view_id, 10, 11), [5.0, 7.0, 8.0], [1.0, 2.0, 3.0])

    memo, view_id = GrowthMemo(), 0
    first, steps = memo.growth(engine, view_id, 3.0, grow)
    assert (steps, len(grown)) == (3, 1)
    # a smaller cap cuts the replay after the first set that reaches it
    assert memo.growth(engine, view_id, 2.0, grow) == (first, 2)
    assert memo.growth(engine, view_id, 1.5, grow) == (first, 2)
    assert memo.growth(engine, view_id, 0.5, grow) == (first, 1)
    assert len(grown) == 1
    # a larger cap, or a new epoch, grows afresh
    assert memo.growth(engine, view_id, 4.0, grow)[1] == 3
    assert len(grown) == 2
    engine.epoch = 2
    assert memo.growth(engine, view_id, 4.0, grow)[1] == 3
    assert len(grown) == 3
