"""Truth-table core: orders, partitions, functions, subfunction counts, widths."""
import heapq
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import boolfn, limits
from ddlab.boolfn import (BoolFn, PartialBoolFn, Partition, VarOrder, _count_for_varset,
                          evaluate, n_min, n_pi, restrict, subfunction_count)
from ddlab.errors import CapacityError, ShapeError
from ddlab.experiments import parse_function_spec
from ddlab.kernels import all_subset_costs
from ddlab.reorder import BlockLayout, reorder_function
from ddlab.zoo import eq, mod_p, ws


def _bottleneck_dp(costs, n):
    """Reference: min over orders of (max over prefix sets of cost), over the whole lattice."""
    full = (1 << n) - 1
    size = 1 << n
    dist = [0] * size
    masks = sorted(range(1, size), key=lambda m: bin(m).count("1"))
    for mask in masks:
        best = None
        rest = mask
        while rest:
            bit = rest & -rest
            prev = dist[mask ^ bit]
            if best is None or prev < best:
                best = prev
            rest ^= bit
        here = 1 if mask == full else int(costs[mask])
        dist[mask] = here if here > best else best
    return max(dist[full], 1)


def _n_min_partial_reference(f):
    """Reference: best-first subset search, every cut costed from scratch."""
    n = f.n
    full = (1 << n) - 1
    cost_memo = {}

    def cost(mask):
        if mask == full:
            return 1
        if mask not in cost_memo:
            left = tuple(v for v in range(1, n + 1) if (mask >> (n - v)) & 1)
            cost_memo[mask] = _count_for_varset(f, left)
        return cost_memo[mask]

    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, mask = heapq.heappop(heap)
        if mask == full:
            return max(d, 1)
        if d > dist.get(mask, d):
            continue
        for v in range(1, n + 1):
            bit = 1 << (n - v)
            if mask & bit:
                continue
            nxt = mask | bit
            nd = max(d, cost(nxt))
            if nd < dist.get(nxt, nd + 1):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    raise AssertionError("subset search must reach the full set")


def test_varorder_basics():
    order = VarOrder((2, 1, 3))
    assert order.n == 3
    assert order.position_of(2) == 1
    assert order.position_of(3) == 3
    assert tuple(VarOrder.identity(3)) == (1, 2, 3)
    assert VarOrder((1, 2)) == VarOrder([1, 2])
    assert len({VarOrder((1, 2)), VarOrder([1, 2])}) == 1


def test_varorder_rejects_non_permutations():
    with pytest.raises(ShapeError):
        VarOrder((1, 1, 2))
    with pytest.raises(ShapeError):
        VarOrder((0, 1))
    with pytest.raises(ShapeError):
        VarOrder(())


def test_partition_halves():
    part = Partition(VarOrder((2, 1, 3)), 2)
    assert part.left == (2, 1)
    assert part.right == (3,)
    with pytest.raises(ShapeError):
        Partition(VarOrder((1, 2)), 0)
    with pytest.raises(ShapeError):
        Partition(VarOrder((1, 2)), 2)


def test_boolfn_construction_and_indexing():
    # index = sum x_i 2^(n-i): variable 1 is the most significant index bit
    f = BoolFn.from_callable(2, lambda x: x[0])
    assert f.table.tolist() == [0, 0, 1, 1]
    g = BoolFn.from_callable(2, lambda x: x[1])
    assert g.table.tolist() == [0, 1, 0, 1]
    assert evaluate(f, (1, 0)) == 1
    assert evaluate(f, (0, 1)) == 0


def test_boolfn_hex_round_trip():
    f = BoolFn(4, [int(b) for b in "1010010110100101"])
    assert f.to_hex() == "a5a5"
    assert BoolFn.from_hex(4, "a5a5") == f
    assert BoolFn.constant(3, 1).to_hex() == "ff"


@settings(max_examples=60)
@given(st.integers(1, 8), st.data())
def test_boolfn_hex_round_trip_property(n, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    f = BoolFn(n, bits)
    assert BoolFn.from_hex(n, f.to_hex()) == f


def test_partial_values_are_canonical():
    fp = PartialBoolFn(2, [1, 0, 0, 1], [1, 1, 1, 0])
    assert fp.values.tolist() == [1, 0, 0, 0]
    assert evaluate(fp, (0, 1)) is None
    assert evaluate(fp, (0, 0)) == 1
    assert fp.defined_count() == 2
    mask, vals = fp.to_hex_pair()
    assert PartialBoolFn.from_hex_pair(2, mask, vals) == fp


def test_restrict_renumbers_remaining_variables():
    f = BoolFn.from_callable(3, lambda x: x[0] ^ x[2])
    g = restrict(f, {1: 1})
    assert g.n == 2
    # remaining variables 2,3 become 1,2; the function is now NOT x_2
    assert g.table.tolist() == [1, 0, 1, 0]
    h = restrict(f, {1: 0, 2: 1, 3: 1})
    assert h.n == 1
    assert h.table.tolist() == [1, 1]


def test_subfunction_count_equality_cuts():
    def eq_fn(n):
        half = n // 2
        return BoolFn.from_callable(n, lambda x: int(x[:half] == x[half:]))

    e4 = eq_fn(4)
    assert subfunction_count(e4, Partition(VarOrder.identity(4), 2)) == 4
    assert subfunction_count(e4, Partition(VarOrder((1, 3, 2, 4)), 3)) == 3
    assert n_pi(e4, VarOrder((1, 3, 2, 4))) == 3
    assert n_min(e4) == 3
    for n in (2, 4, 6):
        assert subfunction_count(eq_fn(n), Partition(VarOrder.identity(n), n // 2)) == 1 << (n // 2)


def test_subfunction_count_partial():
    # the two defined points share the suffix x2=0 and disagree there -> 2 classes
    fp = PartialBoolFn(2, [1, 0, 1, 0], [1, 0, 0, 0])
    assert subfunction_count(fp, Partition(VarOrder.identity(2), 1)) == 2
    # defined points never overlap on a common suffix -> compatible, one class
    merged = PartialBoolFn(2, [1, 0, 0, 1], [1, 0, 0, 0])
    assert subfunction_count(merged, Partition(VarOrder.identity(2), 1)) == 1


def test_n_min_edge_cases():
    assert n_min(BoolFn.constant(1, 0)) == 1
    assert n_min(BoolFn.constant(3, 1)) == 1
    single = BoolFn.from_callable(3, lambda x: x[1])
    assert n_min(single) == 1  # order the live variable last
    xor3 = BoolFn.from_callable(3, lambda x: x[0] ^ x[1] ^ x[2])
    assert n_min(xor3) == 2


def _biased_bits(rnd, size, density):
    return [int(rnd.random() < density) for _ in range(size)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.sampled_from((0.5, 0.2, 0.05)), st.randoms(use_true_random=False))
def test_n_min_dp_matches_enumeration(n, density, rnd):
    f = BoolFn(n, _biased_bits(rnd, 1 << n, density))
    assert n_min(f, strategy="auto") == n_min(f, strategy="enum")
    _assert_witness_attains(f)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.sampled_from((0.8, 0.5, 0.2)), st.randoms(use_true_random=False))
def test_n_min_partial_dp_matches_enumeration(n, density, rnd):
    defined = _biased_bits(rnd, 1 << n, density)
    values = [rnd.randint(0, 1) & d for d in defined]
    fp = PartialBoolFn(n, defined, values)
    assert n_min(fp, strategy="auto") == n_min(fp, strategy="enum")
    _assert_witness_attains(fp)


def _assert_witness_attains(f):
    width, order = boolfn._min_width_order(f)
    assert width == n_min(f)
    assert n_pi(f, order) == width


@pytest.mark.parametrize("spec", ["rpj:1,2", "req:4", "ws:10", "eq:10"])
def test_the_search_witness_order_attains_n_min(spec):
    _assert_witness_attains(parse_function_spec(spec))


def test_n_min_enumeration_matches_its_definition():
    # the literal minimum over all n! orders of n_pi, for total and partial functions
    rng = np.random.default_rng(97)
    for n in range(1, 7):
        for density in (0.5, 0.1):
            f = BoolFn(n, (rng.random(1 << n) < density).astype(np.uint8))
            defined = (rng.random(1 << n) < 1.5 * density).astype(np.uint8)
            fp = PartialBoolFn(n, defined, rng.integers(0, 2, size=1 << n))
            for g in (f, fp):
                literal = min(n_pi(g, VarOrder(p)) for p in permutations(range(1, n + 1)))
                assert n_min(g, strategy="enum") == literal
    assert n_min(ws(8), strategy="enum") == 19
    assert n_min(eq(8), strategy="enum") == 3
    assert n_min(mod_p(5, 8), strategy="enum") == 5


def test_n_min_enumeration_scores_orders_in_blocks():
    # all 40,320 orders at once would take ~2.6 MB as one int64 array
    f = ws(8)
    n_min(ws(3), strategy="enum")   # numpy's lazy imports stay outside the trace
    tracemalloc.start()
    try:
        n_min(f, strategy="enum")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_n_min_enumeration_costs_each_proper_prefix_set_once(monkeypatch):
    costed = []

    def counting(f, left_vars):
        costed.append(frozenset(left_vars))
        return _count_for_varset(f, left_vars)

    monkeypatch.setattr(boolfn, "_count_for_varset", counting)
    rng = np.random.default_rng(5)
    fp = PartialBoolFn(5, (rng.random(32) < 0.5).astype(np.uint8), rng.integers(0, 2, size=32))
    for f, n in ((ws(8), 8), (fp, 5)):
        costed.clear()
        n_min(f, strategy="enum")
        assert len(costed) == len(set(costed)) == (1 << n) - 2
        assert all(0 < len(left) < n for left in costed)


def _seeded_total(n):
    rng = np.random.default_rng(900 + n)
    for density in (0.5, 0.1, 0.02):
        yield BoolFn(n, (rng.random(1 << n) < density).astype(np.uint8))


def _seeded_partial(n):
    rng = np.random.default_rng(950 + n)
    for density in (0.3, 0.05):
        defined = (rng.random(1 << n) < density).astype(np.uint8)
        values = rng.integers(0, 2, size=1 << n).astype(np.uint8)
        yield PartialBoolFn(n, defined, values)


@pytest.mark.parametrize("n", (9, 10, 11))
def test_n_min_matches_the_lattice_dp_beyond_enumeration(n):
    for f in _seeded_total(n):
        assert n_min(f) == _bottleneck_dp(all_subset_costs(f.table, n), n)


@pytest.mark.parametrize("n", (9, 10))
def test_n_min_partial_matches_the_from_scratch_search_beyond_enumeration(n):
    for fp in _seeded_partial(n):
        assert n_min(fp) == _n_min_partial_reference(fp)


def test_n_min_does_not_depend_on_the_batch_bound(monkeypatch):
    functions = [f for n in (9, 10, 11) for f in _seeded_total(n)]
    functions += [f for n in (9, 10) for f in _seeded_partial(n)]
    widths = [n_min(f) for f in functions]
    monkeypatch.setattr(limits, "SEARCH_BATCH_CELLS", 1)   # one set per batch
    assert [n_min(f) for f in functions] == widths


@pytest.mark.parametrize("spec, width", [("wsb:14,10", 53), ("mswb:14,14", 31), ("reqb:14,12", 8)])
def test_n_min_of_padded_families_at_n_14(spec, width):
    assert n_min(parse_function_spec(spec)) == width


def _search_peak(f):
    n_min(ws(3))   # numpy's lazy imports stay outside the trace
    tracemalloc.start()
    try:
        n_min(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_n_min_search_memory_is_bounded_by_the_batch_cells():
    # A batch makes at most SEARCH_BATCH_CELLS bits of child rows, and a step
    # of its conflict stack at most as many bytes. Without the bound the
    # partial instance peaks near 5 MiB.
    assert _search_peak(eq(16)) <= 4 << 20
    assert _search_peak(reorder_function(eq(4), BlockLayout(4), "xor")) <= 3 << 20


def test_n_min_partial_search_memory_is_bounded_by_the_batch_cells():
    # an everywhere-defined partial function at n = 14 puts wide rows of many
    # children through the conflict stacks
    assert _search_peak(PartialBoolFn.total(parse_function_spec("reqb:14,12"))) <= 7 << 20


def _planes(f):
    return (f.table,) if isinstance(f, BoolFn) else (f.defined, f.values)


def _packed_rows(f, fixed):
    """Reference: the distinct rows of the (fixed) x (free, lowest-numbered first)
    matrix, planes side by side, packed."""
    n = f.n
    free = [v for v in range(1, n + 1) if v not in fixed]
    axes = [v - 1 for v in list(fixed) + free]
    mats = [p.reshape((2,) * n).transpose(axes).reshape(1 << len(fixed), -1) for p in _planes(f)]
    return np.unique(np.packbits(np.hstack(mats), axis=1), axis=0)


@pytest.mark.parametrize("partial", [False, True], ids=["c1", "c2"])
def test_split_rows_matches_the_reference_at_every_depth(partial):
    # Every rank is split at every depth m, so the byte-run ranks, the three
    # sub-byte ranks and, for c = 1 at m = 3, the half-byte rows are all met;
    # each batch holds the children of two parents.
    n = 7
    rng = np.random.default_rng(40 + partial)
    f = BoolFn(n, rng.integers(0, 2, size=1 << n))
    if partial:
        f = PartialBoolFn(n, (rng.random(1 << n) < 0.6).astype(np.uint8), f.table)
    c = len(_planes(f))
    for m in range(n, 2, -1):
        parents = list({tuple(sorted(rng.choice(np.arange(1, n + 1), n - m, replace=False).tolist()))
                        for _ in range(2)})
        which, ranks, fixed = [], [], []
        for i, parent in enumerate(parents):
            free = [v for v in range(1, n + 1) if v not in parent]
            for rank, v in enumerate(free):
                which.append(i)
                ranks.append(rank)
                fixed.append(tuple(sorted(parent + (v,))))
        children = np.array([sum(1 << (n - v) for v in child) for child in fixed])
        packed = {}
        costs = boolfn._split_rows([_packed_rows(f, parent) for parent in parents],
                                   np.array(which), np.array(ranks), children, m, c, 0, packed)
        assert costs.tolist() == [_count_for_varset(f, child) for child in fixed]
        if m > 3:
            for child, mask in zip(fixed, children.tolist()):
                assert set(map(bytes, packed[mask])) == set(map(bytes, _packed_rows(f, child)))
        else:
            assert packed == {}


def test_batched_cliques_match_the_per_child_route(monkeypatch):
    calls = []
    batched = boolfn._clique_costs

    def recording(rows, counts, floor):
        calls.append((rows.copy(), counts.copy(), floor))
        return batched(rows, counts, floor)

    monkeypatch.setattr(boolfn, "_clique_costs", recording)
    n_min(reorder_function(eq(4), BlockLayout(4), "xor"))
    monkeypatch.undo()
    assert sum(len(counts) for _, counts, _ in calls) > 1000
    for cells in (limits.SEARCH_BATCH_CELLS, 64):   # one step per batch, then many
        monkeypatch.setattr(limits, "SEARCH_BATCH_CELLS", cells)
        for rows, counts, key in calls[::3]:
            for floor in (0, key):
                got = batched(rows, counts, floor)
                stops = np.cumsum(counts)
                for child, stop in enumerate(stops.tolist()):
                    bits = np.unpackbits(rows[stop - counts[child]:stop], axis=1)
                    mask, values = np.split(bits, 2, axis=1)
                    expected = boolfn._max_clique(boolfn._conflict_adjacency(mask, values), floor)
                    assert max(int(got[child]), floor) == expected


def test_n_min_closed_forms_at_n_14_and_16():
    # interleaving the two halves of eq keeps every cut at 3 subfunctions, and no
    # order does better; mod_p needs its p residues
    assert n_min(eq(16)) == 3
    assert n_min(mod_p(3, 14)) == 3


def test_total_embedding_matches_function():
    f = BoolFn.from_callable(3, lambda x: x[0] & x[2])
    fp = PartialBoolFn.total(f)
    assert fp.defined_count() == 8
    assert n_min(fp) == n_min(f)
    assert subfunction_count(fp, Partition(VarOrder.identity(3), 1)) == \
        subfunction_count(f, Partition(VarOrder.identity(3), 1))


def test_capacity_caps(monkeypatch):
    with pytest.raises(CapacityError):
        BoolFn(25, np.zeros(1 << 25, dtype=np.uint8))
    with pytest.raises(CapacityError):
        BoolFn.from_hex(40, "0")   # refused before the 2**40-bit table is decoded
    f = BoolFn.from_callable(9, lambda x: x[0])

    def refuse(f, left_vars):
        raise AssertionError("a subset was costed before the enumeration cap")

    monkeypatch.setattr(boolfn, "_count_for_varset", refuse)
    with pytest.raises(CapacityError):
        n_min(f, strategy="enum")
