"""The all-subset row-counting kernel, kept as a reference for tests.

For every subset of truth-table index bits (encoded as a mask over bit
positions, where variable v owns index bit n - v), compute the number of
distinct rows of the table matrix whose row index is the masked bits and whose
column index is the complementary bits. `boolfn.n_min` does not use it: its
search builds the costs it needs lazily from cofactor rows.
"""
from __future__ import annotations

import numpy as np

BACKEND = "python"


def all_subset_costs(table, n):
    """Distinct-row count of the (masked bits) x (other bits) matrix, per mask."""
    table = np.ascontiguousarray(table, dtype=np.uint8)
    size = 1 << n
    if table.shape != (size,):
        raise ValueError("table must have length 2**n")
    out = np.zeros(size, dtype=np.int64)
    cube = table.reshape((2,) * n)
    axes = list(range(n))
    for mask in range(size):
        left = [p for p in axes if (mask >> (n - 1 - p)) & 1]
        right = [p for p in axes if not ((mask >> (n - 1 - p)) & 1)]
        u = len(left)
        mat = cube.transpose(left + right).reshape(1 << u, 1 << (n - u))
        packed = np.packbits(mat, axis=1)
        out[mask] = np.unique(packed, axis=0).shape[0]
    return out
