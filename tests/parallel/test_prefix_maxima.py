"""``offer_prefix_maxima`` / ``prefix_maxima_offers`` against the sinks.

Offering only a stream's strict prefix maxima must leave any sink
exactly where offering every entry one by one leaves it: same incumbent
ids, ratio, benefit and space on a :class:`ChainSink`, the same recorded
offers on a :class:`RecorderSink`.  The streams are built to hit the
cases the lemma has to survive: exact ratio ties, ratios inside (and
just outside) the ``RATIO_RTOL`` tie band, non-positive benefits and
zero spaces — and, for the 2-greedy use, other offers interleaved
between the filtered ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.benefit import RATIO_RTOL
from repro.parallel.sinks import (
    ChainSink,
    RecorderSink,
    offer_prefix_maxima,
    prefix_maxima_offers,
)


@st.composite
def offer_entry(draw):
    """One ``(benefit, space)``: a small-integer ratio, optionally nudged
    by a few multiples of ``RATIO_RTOL / 10`` (inside and just outside
    the tie band), or a non-positive benefit; spaces include zero."""
    space = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 0.0]))
    kind = draw(st.sampled_from(["exact", "band", "band", "non-positive"]))
    if kind == "non-positive":
        return draw(st.sampled_from([0.0, -0.0, -1.0])), space
    ratio = float(draw(st.integers(1, 4)))
    if kind == "band":
        ratio *= 1.0 + draw(st.integers(-15, 15)) * (RATIO_RTOL / 10)
    return ratio * (space or 1.0), space


streams = st.lists(offer_entry(), max_size=40)


def one_by_one(sink, ids, benefits, spaces):
    for i, b, s in zip(ids, benefits, spaces):
        sink.offer((int(i),), float(b), float(s))


def chain_state(sink: ChainSink):
    return sink.ids, sink.ratio, sink.benefit, sink.space


def arrays(entries, first_id=0):
    ids = np.arange(first_id, first_id + len(entries), dtype=np.int64)
    benefits = np.array([b for b, _ in entries], dtype=np.float64)
    spaces = np.array([s for _, s in entries], dtype=np.float64)
    return ids, benefits, spaces


@settings(max_examples=300, deadline=None)
@given(stream=streams, prior=st.lists(offer_entry(), max_size=3))
def test_same_final_sink_as_offering_one_by_one(stream, prior):
    ids, benefits, spaces = arrays(stream, first_id=100)
    prior_ids, prior_b, prior_s = arrays(prior)

    full, filtered = ChainSink(), ChainSink()
    for sink in (full, filtered):
        one_by_one(sink, prior_ids, prior_b, prior_s)  # a live incumbent
    one_by_one(full, ids, benefits, spaces)
    offer_prefix_maxima(filtered, ids, benefits, spaces)
    assert chain_state(filtered) == chain_state(full)

    full, filtered = RecorderSink(), RecorderSink()
    one_by_one(full, ids, benefits, spaces)
    offer_prefix_maxima(filtered, ids, benefits, spaces)
    assert filtered.offers == full.offers


@settings(max_examples=300, deadline=None)
@given(
    stream=streams,
    others=st.lists(st.tuples(st.integers(0, 40), offer_entry()), max_size=20),
)
def test_interleaved_with_other_offers(stream, others):
    """The 2-greedy / maintenance-aware use: the prefix maxima of the
    single-index subsequence are taken over the whole stage, then each
    is offered at its own place among the other candidates' offers."""
    ids, benefits, spaces = arrays(stream, first_id=100)
    singles = [
        ((int(i),), float(b), float(s)) for i, b, s in zip(ids, benefits, spaces)
    ]
    kept = {offer[0] for offer in prefix_maxima_offers(ids, benefits, spaces)}
    merged = []  # other offer j goes in before single number `slot`
    for pos in range(len(singles) + 1):
        merged.extend(
            ((1000 + j,), b, s)
            for j, (slot, (b, s)) in enumerate(others)
            if min(slot, len(singles)) == pos
        )
        if pos < len(singles):
            merged.append(singles[pos])
    filtered = [o for o in merged if o[0][0] >= 1000 or o[0] in kept]

    for make in (ChainSink, RecorderSink):
        full, lean = make(), make()
        for offer in merged:
            full.offer(*offer)
        for offer in filtered:
            lean.offer(*offer)
        if make is ChainSink:
            assert chain_state(lean) == chain_state(full)
        else:
            assert lean.offers == full.offers


def test_keeps_only_strict_prefix_maxima():
    benefits = [4.0, 2.0, 3.0, 0.0, 5.0, 5.0, -1.0]
    spaces = [2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    offers = prefix_maxima_offers(range(7), benefits, spaces)
    assert offers == [((0,), 4.0, 2.0), ((2,), 3.0, 1.0), ((4,), 5.0, 1.0)]


def test_empty_stream_offers_nothing():
    sink = ChainSink()
    offer_prefix_maxima(sink, [], [], [])
    assert sink.ids is None
    assert prefix_maxima_offers([1, 2], [0.0, -1.0], [1.0, 1.0]) == []
