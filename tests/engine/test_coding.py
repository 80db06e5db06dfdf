"""Tests for mixed-radix key coding and the coded grouping kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import coding
from repro.engine.coding import MAX_CODE_SPACE, group_rows, key_codes

INT_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]


def rowwise_group(key_cols):
    """The reference: ``np.unique`` over the stacked rows."""
    if not key_cols:
        return (), None, 1
    stacked = np.stack(key_cols, axis=1)
    unique, inverse = np.unique(stacked, axis=0, return_inverse=True)
    return tuple(unique[:, i] for i in range(unique.shape[1])), inverse, unique.shape[0]


@st.composite
def key_columns(draw):
    """0-6 integer key columns of mixed dtypes over varied domains.

    Each column draws from ``[low, low + span)``: small spans group
    heavily, a negative ``low`` or a span near ``2**40`` sends the
    kernel to its row-wise fallback (a negative key, or a domain
    product that overflows ``int64`` once two such columns meet).
    """
    width = draw(st.integers(0, 6))
    n_rows = draw(st.integers(0, 40))
    columns = []
    for _ in range(width):
        dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
        info = np.iinfo(dtype)
        span = draw(st.sampled_from([1, 2, 3, 7, 300, 2**40]))
        low = draw(st.sampled_from([0, 0, 0, -3, -(2**39)]))
        low = max(low, int(info.min))
        high = min(low + span - 1, int(info.max))
        values = draw(
            st.lists(st.integers(low, high), min_size=n_rows, max_size=n_rows)
        )
        columns.append(np.array(values, dtype=dtype))
    return tuple(columns)


class TestGroupRows:
    @settings(max_examples=300, deadline=None)
    @given(key_columns())
    def test_matches_rowwise_unique(self, cols):
        got_cols, got_inverse, got_groups = group_rows(cols)
        want_cols, want_inverse, want_groups = rowwise_group(cols)
        assert got_groups == want_groups
        assert len(got_cols) == len(want_cols)
        for got, want in zip(got_cols, want_cols):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        if want_inverse is None:
            assert got_inverse is None
        else:
            assert got_inverse.dtype == want_inverse.dtype
            assert got_inverse.shape == want_inverse.shape
            np.testing.assert_array_equal(got_inverse, want_inverse)

    def test_fallback_cases_take_the_rowwise_path(self, monkeypatch):
        calls = []
        real = coding.key_codes

        def counting(columns, dims):
            codes = real(columns, dims)
            calls.append(codes is not None)
            return codes

        monkeypatch.setattr(coding, "key_codes", counting)
        small = (np.array([2, 0, 2]), np.array([1, 1, 1]))
        negative = (np.array([2, -1, 2]), np.array([1, 1, 1]))
        wide = (np.array([2**40, 0]), np.array([2**40, 1]))
        for cols in (small, negative, wide):
            group_rows(cols)
        # the negative key never reaches the coder; the wide pair overflows
        assert calls == [True, False]


class TestKeyCodes:
    def test_codes_sort_like_rows(self):
        rng = np.random.default_rng(0)
        cols = [rng.integers(0, d, 500) for d in (3, 5, 2)]
        codes = key_codes(cols, (3, 5, 2))
        rows = list(zip(*(c.tolist() for c in cols)))
        assert np.argsort(codes, kind="stable").tolist() == sorted(
            range(len(rows)), key=lambda i: rows[i]
        )

    def test_single_column_is_its_own_code(self):
        col = np.array([4, 0, 2], dtype=np.int16)
        codes = key_codes([col], (5,))
        assert codes.dtype == np.int64
        assert codes.tolist() == [4, 0, 2]

    def test_overflowing_space_is_refused(self):
        cols = [np.zeros(2, dtype=np.int64)] * 2
        assert key_codes(cols, (2**32, 2**31 - 1)) is not None
        assert key_codes(cols, (2**32, 2**31)) is None
        assert MAX_CODE_SPACE == 2**63 - 1

    def test_out_of_domain_key_raises(self):
        with pytest.raises(ValueError):
            key_codes([np.array([0, 3]), np.array([0, 0])], (3, 1))
