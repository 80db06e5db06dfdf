"""Offer sinks: the protocol between stage scans and the reduction.

Every stage loop offers candidates ``(ids, benefit, space)`` in a
deterministic *canonical order* and keeps an incumbent under the
canonical tie-break rule: the incumbent is displaced only by a ratio
strictly greater than ``incumbent · (1 + RATIO_RTOL)``.  Running a scan
against a :class:`ChainSink` is exactly that serial rule.

Parallelism rests on the *chain-equivalence lemma*: an offer whose ratio
does not strictly exceed the running maximum of the offers before it
(within the same contiguous slice of the canonical order) can never
displace any incumbent the full chain could hold at that point — the
earlier same-slice offer with ratio ``>=`` its own already forced the
incumbent to at least ``ratio / (1 + RATIO_RTOL)``.  So a worker scanning
one slice only needs to report its *strict prefix maxima*
(:class:`RecorderSink` — note: strictly greater, **no** tolerance), and
the master replaying those subsequences slice-by-slice through a fresh
:class:`ChainSink` reaches the identical final incumbent, bit for bit.

Both sinks also expose the pruning interface the subset searches use
(:attr:`prune_ratio`, :meth:`can_displace`).  The serial chain prunes
against the ``(1 + RATIO_RTOL)`` displacement threshold; the recorder
must prune against its *local maximum with no tolerance* — pruning with
the serial threshold could drop a strict local prefix maximum inside the
tolerance band, which a master chain seeded by other slices might still
need.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.benefit import RATIO_RTOL

Offer = Tuple[tuple, float, float]


class ChainSink:
    """The canonical greedy incumbent chain (deterministic tie-break:
    first candidate found at a strictly better ratio wins)."""

    __slots__ = ("ratio", "benefit", "space", "ids")

    def __init__(self) -> None:
        self.ratio = 0.0
        self.benefit = 0.0
        self.space = 0.0
        self.ids: Optional[tuple] = None

    def offer(self, ids: tuple, benefit: float, space: float) -> None:
        if benefit <= 0.0 or space <= 0.0:
            return
        ratio = benefit / space
        if self.ids is None or ratio > self.ratio * (1 + RATIO_RTOL):
            self.ratio = ratio
            self.benefit = benefit
            self.space = space
            self.ids = ids

    @property
    def prune_ratio(self) -> float:
        """Ratios at or below this provably cannot displace the incumbent."""
        return self.ratio * (1 + RATIO_RTOL)

    def can_displace(self, ub_benefit: float, ub_space: float) -> bool:
        """Whether a candidate bounded by ``ub_benefit / ub_space`` could
        still displace the incumbent (the subset-search prune test)."""
        return ub_benefit > self.ratio * ub_space * (1 + RATIO_RTOL)


def prefix_maxima_offers(ids, benefits, spaces) -> List[Offer]:
    """The single-structure offers ``((ids[i],), benefits[i], spaces[i])``
    of a stream that can change a sink, in stream order.

    Entries with non-positive benefit or space are dropped (every sink
    rejects them), and so is every entry whose ratio does not strictly
    exceed all earlier ratios of the stream (no tolerance): by the
    chain-equivalence lemma (module docstring) such an offer can
    displace neither a :class:`ChainSink` incumbent nor a
    :class:`RecorderSink` maximum — whatever other offers the sink sees
    in between, since both only ever raise their ratio.
    """
    benefits = np.asarray(benefits, dtype=np.float64)
    spaces = np.asarray(spaces, dtype=np.float64)
    pos = np.flatnonzero((benefits > 0.0) & (spaces > 0.0))
    if pos.size == 0:
        return []
    ratios = benefits[pos] / spaces[pos]
    prev = np.empty_like(ratios)
    prev[0] = -np.inf
    np.maximum.accumulate(ratios[:-1], out=prev[1:])
    ids = np.asarray(ids)
    return [
        ((int(ids[p]),), float(benefits[p]), float(spaces[p]))
        for p in pos[ratios > prev].tolist()
    ]


def offer_prefix_maxima(sink, ids, benefits, spaces) -> None:
    """Offer ``((ids[i],), benefits[i], spaces[i])`` to ``sink`` in order:
    the same final sink as offering every entry, with one Python call
    per strict prefix maximum instead of one per entry."""
    for offer in prefix_maxima_offers(ids, benefits, spaces):
        sink.offer(*offer)


class RecorderSink:
    """Records the strict prefix maxima of one slice's offer stream.

    Accepts the same ``offer`` calls a :class:`ChainSink` does, but keeps
    every offer whose ratio is *strictly* greater than the running local
    maximum (no tolerance), in order.  Feeding :attr:`offers` back into a
    :class:`ChainSink` — after the offers of earlier slices — reproduces
    the full serial chain's outcome exactly (see module docstring).
    """

    __slots__ = ("ratio", "ids", "offers")

    def __init__(self) -> None:
        self.ratio = 0.0
        self.ids: Optional[tuple] = None
        self.offers: List[Offer] = []

    def offer(self, ids: tuple, benefit: float, space: float) -> None:
        if benefit <= 0.0 or space <= 0.0:
            return
        ratio = benefit / space
        if self.ids is None or ratio > self.ratio:
            self.ratio = ratio
            self.ids = ids
            self.offers.append((ids, benefit, space))

    @property
    def prune_ratio(self) -> float:
        # no tolerance: anything at the local max exactly is prunable
        # (it would not be recorded), anything above must be kept
        return self.ratio

    def can_displace(self, ub_benefit: float, ub_space: float) -> bool:
        return ub_benefit > self.ratio * ub_space
