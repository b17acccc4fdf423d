"""The all-subset cost kernel, the lattice reference of the exact-width tests."""
import numpy as np
import pytest

from ddlab import kernels
from ddlab.boolfn import BoolFn, _count_for_varset


@pytest.mark.parametrize("n", range(1, 8))
def test_costs_match_the_per_subset_reference(n):
    rng = np.random.default_rng(1000 + n)
    f = BoolFn(n, rng.integers(0, 2, size=1 << n).astype(np.uint8))
    costs = kernels.all_subset_costs(f.table, n)
    for mask in range(1 << n):
        left = tuple(v for v in range(1, n + 1) if (mask >> (n - v)) & 1)
        assert costs[mask] == _count_for_varset(f, left)


def test_known_small_costs():
    # f = x1 AND x2: table [0,0,0,1]
    table = np.array([0, 0, 0, 1], dtype=np.uint8)
    costs = np.asarray(kernels.all_subset_costs(table, 2))
    # mask 0: one row (the whole table, not all equal -> 1 distinct row of length 4)
    assert costs[0] == 1
    # full mask: each input its own row -> distinct rows = distinct values = 2
    assert costs[3] == 2
    # single-variable masks: two rows [0,0],[0,1] -> both distinct = 2
    assert costs[1] == 2 and costs[2] == 2


def test_constant_table_costs_are_one():
    table = np.ones(16, dtype=np.uint8)
    costs = np.asarray(kernels.all_subset_costs(table, 4))
    assert costs.tolist() == [1] * 16


def test_backend_reports_a_known_name():
    assert kernels.BACKEND == "python"
