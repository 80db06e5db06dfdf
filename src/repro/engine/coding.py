"""Mixed-radix key coding: one ``int64`` per row for a composite key.

A row ``(k1, ..., kn)`` whose values lie in ``[0, d1) × ... × [0, dn)``
codes to ``((k1·d2 + k2)·d3 + ...)·dn + kn`` — the first column most
significant, so the codes sort exactly like the rows do
lexicographically.  Grouping, distinct counts and keyed diffs then
reduce to 1-D ``np.unique`` / ``np.searchsorted`` over the codes instead
of a row-wise ``np.unique(axis=0)``, which argsorts rows as void bytes.

Every coder in the package goes through :func:`key_codes`; it refuses
(returns ``None``) only when the domains' product overflows ``int64``,
and each caller keeps a row-wise path for that case.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

#: Largest key-space size a code can address.
MAX_CODE_SPACE = int(np.iinfo(np.int64).max)


def key_codes(
    columns: Sequence[np.ndarray], dims: Sequence[int]
) -> Optional[np.ndarray]:
    """One ``int64`` code per row of the (non-empty) key ``columns``.

    ``dims[i]`` is column ``i``'s domain size; every value must lie in
    ``[0, dims[i])`` (with two or more columns ``np.ravel_multi_index``
    raises ``ValueError`` otherwise; a single column is its own code).
    Returns ``None`` when ``prod(dims)`` exceeds ``int64``.
    """
    if math.prod(dims) > MAX_CODE_SPACE:
        return None
    if len(columns) == 1:
        return np.asarray(columns[0], dtype=np.int64)
    return np.ravel_multi_index(tuple(columns), tuple(dims))


def group_rows(
    key_cols: Sequence[np.ndarray],
) -> Tuple[Tuple[np.ndarray, ...], Optional[np.ndarray], int]:
    """Group rows on the key columns.

    Returns ``(unique_cols, inverse, n_groups)`` exactly as
    ``np.unique(np.stack(key_cols, axis=1), axis=0, return_inverse=True)``
    would: the distinct rows in lexicographic order, split back into
    columns of the stacked dtype, and each input row's group number.  For
    the empty key it is the single grand-total group with
    ``inverse=None``.

    Integer keys are grouped on their codes over the domains
    ``[0, max + 1)``; zero rows, a negative key, a non-integer dtype or
    a domain product that overflows ``int64`` take the row-wise path.
    """
    if not key_cols:
        return (), None, 1
    dtype = np.result_type(*key_cols)
    codes = None
    if (
        dtype.kind in "iu"
        and len(key_cols[0])
        and (dtype.kind == "u" or min(int(col.min()) for col in key_cols) >= 0)
    ):
        dims = tuple(int(col.max()) + 1 for col in key_cols)
        codes = key_codes(key_cols, dims)
    if codes is None:
        stacked = np.stack(key_cols, axis=1)
        unique, inverse = np.unique(stacked, axis=0, return_inverse=True)
        unique_cols = tuple(unique[:, i] for i in range(unique.shape[1]))
        return unique_cols, inverse, unique.shape[0]
    unique, inverse = np.unique(codes, return_inverse=True)
    unique_cols = tuple(
        col.astype(dtype, copy=False) for col in np.unravel_index(unique, dims)
    )
    return unique_cols, inverse, len(unique)
