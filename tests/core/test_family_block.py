"""The inner-greedy family kernel against ``csr_gains``, bit for bit.

:class:`~repro.core.benefit.FamilyGrowth` scores a view's index rows
from a cached :class:`~repro.core.benefit.FamilyBlock` and sheds edges
whose contribution has reached zero.  On random CSR stores and random
non-increasing ``cur_min`` sequences, the gains of every row not yet
taken must equal ``csr_gains`` over those rows exactly
(``np.array_equal``) after every step — with shedding on every step
and with the default shed threshold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import benefit
from repro.core.benefit import FamilyGrowth, csr_gains, family_block


def random_store(rng, n_rows: int, n_cols: int):
    """A CSR store with values of mixed magnitude (float sums are then
    order-sensitive) and frequencies that include zeros."""
    rows_cols, rows_vals = [], []
    for _ in range(n_rows):
        cols = np.flatnonzero(rng.random(n_cols) < rng.uniform(0.1, 0.9))
        rows_cols.append(cols)
        rows_vals.append(rng.random(cols.size) * 10.0 ** rng.integers(-3, 4, cols.size))
    row_ptr = np.concatenate(([0], np.cumsum([c.size for c in rows_cols])))
    row_cols = np.concatenate(rows_cols).astype(np.int32)
    row_vals = np.concatenate(rows_vals)
    freq = rng.random(n_cols) * 10.0 ** rng.integers(-2, 3, n_cols)
    freq[rng.random(n_cols) < 0.1] = 0.0
    spaces = rng.uniform(0.5, 5.0, n_rows)
    return row_ptr.astype(np.int64), row_cols, row_vals, freq, spaces


@pytest.mark.parametrize("shed_fraction", [0.0, benefit.SHED_FRACTION])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 12))
def test_growth_gains_equal_csr_gains(shed_fraction, seed, n_steps):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(benefit, "SHED_FRACTION", shed_fraction)
        check_growth(np.random.default_rng(seed), n_steps)


def check_growth(rng, n_steps: int) -> None:
    n_rows, n_cols = int(rng.integers(2, 30)), int(rng.integers(1, 40))
    row_ptr, row_cols, row_vals, freq, spaces = random_store(rng, n_rows, n_cols)
    ids = rng.permutation(n_rows)[: int(rng.integers(1, n_rows + 1))]
    block = family_block(row_ptr, row_cols, row_vals, freq, spaces, ids)
    assert np.array_equal(block.ids, ids)
    assert np.array_equal(block.spaces, spaces[ids])

    growth = FamilyGrowth(block, rng.random(ids.size) < 0.2)
    cur_min = rng.random(n_cols) * 10.0 ** rng.integers(-2, 4, n_cols)
    for _ in range(n_steps):
        gains = growth.gains(cur_min)
        open_rows = np.flatnonzero(~growth.taken)
        expected = csr_gains(row_ptr, row_cols, row_vals, freq, cur_min, ids[open_rows])
        assert np.array_equal(gains[open_rows], expected)
        if growth.remaining == 0:
            break
        pos = int(rng.choice(open_rows))
        growth.take(pos)
        # the picked row's edges join the minimum, and the vector may
        # fall anywhere else too — it never rises
        lo, hi = row_ptr[ids[pos]], row_ptr[ids[pos] + 1]
        cols = row_cols[lo:hi]
        cur_min = cur_min.copy()
        cur_min[cols] = np.minimum(cur_min[cols], row_vals[lo:hi])
        cur_min *= np.where(rng.random(n_cols) < 0.3, rng.random(n_cols), 1.0)
