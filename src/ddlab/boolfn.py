"""Total and partial Boolean functions as explicit truth tables, variable orders,
prefix partitions, and the brute-force width oracles built on them.

Conventions used everywhere in the package:
  * variables are 1-indexed: an input is (x_1, ..., x_n);
  * the truth-table index of an assignment is bin(x_1...x_n), i.e. x_1 is the
    most significant bit, so index 0 is the all-zero input;
  * hex serialization writes the table as one big integer whose most significant
    bit is the entry for the all-zero input.

Partial functions are canonical: the value vector is forced to zero wherever the
defined mask is zero.
"""
from __future__ import annotations

import heapq
from itertools import chain, islice, permutations
from math import factorial

import numpy as np

from . import limits
from .errors import ShapeError


def _as_bit_array(bits, n):
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or arr.shape[0] != (1 << n):
        raise ShapeError("table must be a flat vector of length 2**n")
    if arr.size and int(arr.max(initial=0)) > 1:
        raise ShapeError("table entries must be bits")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _check_n(n):
    if not isinstance(n, int) or n < 1:
        raise ShapeError("variable count must be a positive integer")
    limits.check(n, limits.STORAGE_CAP, "n of a stored table")


class VarOrder:
    """A permutation (j_1, ..., j_n) of {1, ..., n}: position i reads x_{j_i}."""

    __slots__ = ("perm",)

    def __init__(self, perm):
        perm = tuple(int(j) for j in perm)
        n = len(perm)
        if n == 0 or sorted(perm) != list(range(1, n + 1)):
            raise ShapeError("order must be a permutation of 1..n")
        self.perm = perm

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @property
    def n(self):
        return len(self.perm)

    def inverse(self):
        inv = [0] * self.n
        for pos, var in enumerate(self.perm, start=1):
            inv[var - 1] = pos
        return VarOrder(inv)

    def position_of(self, var):
        """1-indexed position at which variable `var` is read."""
        return self.perm.index(var) + 1

    def __iter__(self):
        return iter(self.perm)

    def __len__(self):
        return len(self.perm)

    def __eq__(self, other):
        return isinstance(other, VarOrder) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return "VarOrder(%s)" % (self.perm,)


class Partition:
    """A prefix cut of an order: X_A = first `cut` variables, X_B = the rest."""

    __slots__ = ("order", "cut")

    def __init__(self, order, cut):
        if not isinstance(order, VarOrder):
            order = VarOrder(order)
        cut = int(cut)
        if not 1 <= cut <= order.n - 1:
            raise ShapeError("cut must satisfy 1 <= cut <= n-1")
        self.order = order
        self.cut = cut

    @property
    def left(self):
        return self.order.perm[: self.cut]

    @property
    def right(self):
        return self.order.perm[self.cut:]

    def __repr__(self):
        return "Partition(order=%s, cut=%d)" % (self.order.perm, self.cut)


class BoolFn:
    """A total Boolean function as an explicit 2**n truth table."""

    __slots__ = ("n", "table")

    def __init__(self, n, table):
        _check_n(n)
        self.n = n
        self.table = _as_bit_array(table, n)

    @classmethod
    def from_callable(cls, n, fn):
        _check_n(n)
        table = np.empty(1 << n, dtype=np.uint8)
        for idx in range(1 << n):
            x = tuple((idx >> (n - i)) & 1 for i in range(1, n + 1))
            table[idx] = 1 if fn(x) else 0
        return cls(n, table)

    @classmethod
    def constant(cls, n, value):
        _check_n(n)
        return cls(n, np.full(1 << n, 1 if value else 0, dtype=np.uint8))

    def to_hex(self):
        return _bits_to_hex(self.table)

    @classmethod
    def from_hex(cls, n, text):
        return cls(n, _hex_to_bits(text, n))

    def __eq__(self, other):
        return (
            isinstance(other, BoolFn)
            and self.n == other.n
            and bool(np.array_equal(self.table, other.table))
        )

    def __hash__(self):
        return hash((self.n, self.table.tobytes()))

    def __repr__(self):
        return "BoolFn(n=%d, table=%s)" % (self.n, self.to_hex())


class PartialBoolFn:
    """A partial Boolean function: a defined mask plus values on the defined part."""

    __slots__ = ("n", "defined", "values")

    def __init__(self, n, defined, values):
        _check_n(n)
        self.n = n
        self.defined = _as_bit_array(defined, n)
        values = np.asarray(values, dtype=np.uint8)
        if values.shape != self.defined.shape:
            raise ShapeError("defined mask and value vector must have equal length")
        if values.size and int(values.max(initial=0)) > 1:
            raise ShapeError("value entries must be bits")
        canon = (values & self.defined).astype(np.uint8)
        canon.setflags(write=False)
        self.values = canon

    @classmethod
    def total(cls, f):
        """Embed a total function as an everywhere-defined partial function."""
        return cls(f.n, np.ones(1 << f.n, dtype=np.uint8), f.table)

    def defined_count(self):
        return int(self.defined.sum())

    def to_hex_pair(self):
        return (_bits_to_hex(self.defined), _bits_to_hex(self.values))

    @classmethod
    def from_hex_pair(cls, n, mask_text, values_text):
        return cls(n, _hex_to_bits(mask_text, n), _hex_to_bits(values_text, n))

    def __eq__(self, other):
        return (
            isinstance(other, PartialBoolFn)
            and self.n == other.n
            and bool(np.array_equal(self.defined, other.defined))
            and bool(np.array_equal(self.values, other.values))
        )

    def __hash__(self):
        return hash((self.n, self.defined.tobytes(), self.values.tobytes()))

    def __repr__(self):
        m, v = self.to_hex_pair()
        return "PartialBoolFn(n=%d, defined=%s, values=%s)" % (self.n, m, v)


def _bits_to_hex(arr):
    n_bits = arr.shape[0]
    value = int.from_bytes(np.packbits(arr).tobytes(), "big") >> ((-n_bits) % 8)
    return format(value, "0%dx" % max(1, (n_bits + 3) // 4))


def _hex_to_bits(text, n):
    _check_n(n)
    n_bits = 1 << n
    value = int(text, 16)
    if value < 0 or value >> n_bits:
        raise ShapeError("hex string does not fit a %d-bit table" % n_bits)
    raw = (value << ((-n_bits) % 8)).to_bytes((n_bits + 7) // 8, "big")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n_bits]


def _index_of(x, n):
    if len(x) != n:
        raise ShapeError("expected %d input bits, got %d" % (n, len(x)))
    idx = 0
    for b in x:
        b = int(b)
        if b not in (0, 1):
            raise ShapeError("input bits must be 0 or 1")
        idx = (idx << 1) | b
    return idx


def evaluate(f, x):
    """Value of f at assignment x; None when a partial function is undefined there."""
    idx = _index_of(x, f.n)
    if isinstance(f, PartialBoolFn):
        if not f.defined[idx]:
            return None
        return int(f.values[idx])
    return int(f.table[idx])


def restrict(f, rho):
    """Subfunction obtained by fixing the variables in `rho` (a {var: bit} map).

    Remaining variables keep their relative order and are renumbered 1..m.
    """
    n = f.n
    for var, bit in rho.items():
        if not (isinstance(var, int) and 1 <= var <= n):
            raise ShapeError("restriction assigns unknown variable %r" % (var,))
        if int(bit) not in (0, 1):
            raise ShapeError("restriction bits must be 0 or 1")
    remaining = [v for v in range(1, n + 1) if v not in rho]
    m = len(remaining)
    if m == 0:
        # A fully fixed function is the 1-variable function ignoring its input.
        idx = 0
        for v in range(1, n + 1):
            idx |= int(rho[v]) << (n - v)
        if isinstance(f, PartialBoolFn):
            d = int(f.defined[idx])
            return PartialBoolFn(1, [d, d], [f.values[idx]] * 2)
        return BoolFn.constant(1, int(f.table[idx]))
    new_idx = np.arange(1 << m, dtype=np.int64)
    old = np.zeros(1 << m, dtype=np.int64)
    for t, v in enumerate(remaining):
        old |= ((new_idx >> (m - 1 - t)) & 1) << (n - v)
    base = 0
    for v, bit in rho.items():
        base |= int(bit) << (n - v)
    old |= base
    if isinstance(f, PartialBoolFn):
        return PartialBoolFn(m, f.defined[old], f.values[old])
    return BoolFn(m, f.table[old])


def _row_col_indexes(n, left_vars, right_vars):
    """Row/column index of every truth-table entry for a two-block partition."""
    idx = np.arange(1 << n, dtype=np.int64)
    rows = np.zeros(1 << n, dtype=np.int64)
    for var in left_vars:
        rows = (rows << 1) | ((idx >> (n - var)) & 1)
    cols = np.zeros(1 << n, dtype=np.int64)
    for var in right_vars:
        cols = (cols << 1) | ((idx >> (n - var)) & 1)
    return rows, cols


def _count_for_varset(f, left_vars):
    """Number of pairwise-distinguishable subfunctions with X_A = `left_vars`.

    This is the reference route: explicit row matrices plus exact deduplication
    (and a conflict-graph maximum clique for partial functions). The exact-width
    search builds its cut costs by an independent incremental route.
    """
    n = f.n
    left_vars = tuple(left_vars)
    right_vars = tuple(v for v in range(1, n + 1) if v not in set(left_vars))
    u = len(left_vars)
    rows, cols = _row_col_indexes(n, left_vars, right_vars)
    n_rows, n_cols = 1 << u, 1 << (n - u)
    if isinstance(f, PartialBoolFn):
        mask = np.zeros((n_rows, n_cols), dtype=np.uint8)
        vals = np.zeros((n_rows, n_cols), dtype=np.uint8)
        mask[rows, cols] = f.defined
        vals[rows, cols] = f.values
        mask_p = np.packbits(mask, axis=1)
        vals_p = np.packbits(vals, axis=1)
        distinct = {}
        for r in range(n_rows):
            key = (mask_p[r].tobytes(), vals_p[r].tobytes())
            if key not in distinct:
                distinct[key] = r
        keep = sorted(distinct.values())
        return _max_conflict_clique(mask[keep], vals[keep])
    mat = np.zeros((n_rows, n_cols), dtype=np.uint8)
    mat[rows, cols] = f.table
    packed = np.packbits(mat, axis=1)
    return int(np.unique(packed, axis=0).shape[0])


def _max_conflict_clique(mask_rows, val_rows, floor=0):
    """Largest set of rows that pairwise provably differ.

    Rows are 0/1 arrays (defined mask, canonical values). Two partial rows
    conflict iff some commonly-defined column carries different values. Branch
    and bound with greedy coloring on the conflict graph. With a `floor`, the
    result is max(floor, clique size), and cliques no larger than the floor
    are not searched for.
    """
    d = mask_rows.shape[0]
    if d <= 1 or d <= floor:
        return max(d, floor)
    # ones[i] @ zeros[j] counts the columns where row i is 1 and row j a defined 0
    ones = val_rows.astype(np.float64)
    zeros = mask_rows.astype(np.float64) - ones
    adj = []
    for lo in range(0, d, 256):
        conflict = (ones[lo:lo + 256] @ zeros.T + zeros[lo:lo + 256] @ ones.T) > 0
        for row in np.packbits(conflict, axis=1, bitorder="little"):
            adj.append(int.from_bytes(row.tobytes(), "little"))
    best = max(1, floor)

    def expand(size, cand):
        nonlocal best
        if cand == 0:
            if size > best:
                best = size
            return
        order = []
        colors = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(adj[v] | (1 << v))
                rest &= ~(1 << v)
                order.append(v)
                colors.append(color)
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] <= best:
                return
            v = order[i]
            expand(size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, (1 << d) - 1)
    return best


def subfunction_count(f, theta):
    """Number of distinct subfunctions of f with respect to the prefix cut theta."""
    if theta.order.n != f.n:
        raise ShapeError("partition arity %d does not match function arity %d" % (theta.order.n, f.n))
    return _count_for_varset(f, theta.left)


def n_pi(f, order):
    """Maximum subfunction count over all cuts of one order."""
    if not isinstance(order, VarOrder):
        order = VarOrder(order)
    if order.n != f.n:
        raise ShapeError("order arity does not match function arity")
    if f.n == 1:
        return 1
    return max(subfunction_count(f, Partition(order, u)) for u in range(1, f.n))


def require_enumerable(f):
    """Raise CapacityError unless the n! enumeration strategy accepts f."""
    limits.check(f.n, limits.ENUM_CAP, "n of the order enumeration")


def n_min(f, strategy="auto"):
    """Exact minimum over all variable orders of n_pi(f, order).

    Strategies: "auto" runs the lazy best-first bottleneck search below (total
    and partial functions alike); "enum" forces the n! enumeration (n <= limits.ENUM_CAP),
    used as a cross-check. The enumeration costs each of the 2**n - 2 proper
    non-empty prefix sets once with `_count_for_varset`, independently of the
    search's cofactor rows, and then takes the width of every order from that
    table, a block of (n-1)! orders at a time.

    The search is the Friedman & Supowit subset DP (IEEE Trans. Computers
    39(5), 1990) evaluated lazily. A node is a prefix set S of variables; its
    cost is the subfunction count of the cut after S, and the width of an
    order is the largest cost on its chain of prefix sets. The search keeps
    the distinct cofactors of S as bit-packed rows: the rows of S + {v} are
    the deduplicated v=0 and v=1 halves of the rows of S, so a cost is built
    from its parent's rows instead of from the table. For a total function
    the cost is the number of rows; for a partial one a row is a
    (defined, value) pair and the cost is the largest set of pairwise
    conflicting rows. Every order has a first and a last cut, so the cheapest
    first cut and the cheapest last cut both bound the answer from below; LB
    is the larger of the two. Sets are expanded in the order of
    (max(bottleneck, LB), -|S|): once the search reaches the bound it goes
    depth first. A set's rows are dropped once it has been expanded.
    """
    n = f.n
    if strategy not in ("auto", "enum"):
        raise ShapeError("unknown n_min strategy %r" % (strategy,))
    if n == 1:
        return 1
    if strategy == "enum":
        require_enumerable(f)
        # One cost per proper prefix set, indexed by mask (bit n - v for x_v).
        table = np.zeros(1 << n, dtype=np.int32)
        for mask in range(1, (1 << n) - 1):
            table[mask] = _count_for_varset(f, [v for v in range(1, n + 1) if mask >> (n - v) & 1])
        # Then the width of every order. permutations() yields them in blocks of
        # (n-1)! that share a first variable.
        bits = np.array([0] + [1 << (n - v) for v in range(1, n + 1)], dtype=np.uint16)
        block = factorial(n - 1)
        orders = permutations(range(1, n + 1))
        best = []
        for _ in range(n):
            perms = np.fromiter(chain.from_iterable(islice(orders, block)), np.uint8, block * n)
            prefixes = np.cumsum(bits[perms.reshape(block, n)[:, :-1]], axis=1, dtype=np.uint16)
            best.append(int(table[prefixes].max(axis=1).min()))
        return min(best)
    limits.check(n, limits.DP_CAP, "n of the min-width search")
    if isinstance(f, BoolFn):
        return _bottleneck_search((f.table,), n, lambda rows, floor: rows.shape[0])
    return _n_min_partial(f)


def _n_min_partial(f):
    """The bottleneck search of a partial function: cut costs are conflict cliques."""
    return _bottleneck_search((f.defined, f.values), f.n, _clique_cost)


def _clique_cost(rows, floor):
    return _max_conflict_clique(rows[:, 0], rows[:, 1], floor)


def _cofactors(planes, n, left_vars):
    """Rows of the (left variables) x (other variables) matrix of each plane.

    Shape (2**u, planes, 2**(n-u)); columns list the other variables in
    increasing order, the lowest-numbered one most significant.
    """
    c = planes.shape[0]
    right = [v for v in range(1, n + 1) if v not in left_vars]
    cube = planes.reshape((c,) + (2,) * n).transpose([0] + list(left_vars) + right)
    return cube.reshape(c, 1 << len(left_vars), -1).transpose(1, 0, 2)


def _distinct(rows):
    """The distinct rows of a (d, planes, w) bit array, unpacked and bit-packed."""
    d = rows.shape[0]
    packed = np.ascontiguousarray(np.packbits(rows.reshape(d, -1), axis=1))
    if d > 1:
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, keep = np.unique(keys, return_index=True)
        rows, packed = rows[keep], packed[keep]
    return rows, packed


def _bottleneck_search(planes, n, cost):
    """Lazy best-first search for min over orders of max over cuts of cost(rows).

    `planes` are the truth-table bit vectors (the table, or the defined mask and
    the values). `cost(rows, floor)` maps the distinct cofactor rows of a prefix
    set, shaped (rows, planes, columns), to its cut cost; when that cost is at
    most `floor` it may return any value up to `floor` instead.
    """
    planes = np.stack(planes)
    c = planes.shape[0]
    full = (1 << n) - 1
    bits = [1 << (n - v) for v in range(1, n + 1)]
    packed = {}   # prefix set -> packed distinct rows, until it is expanded
    costs = {}    # prefix set -> cost, or max(cost, key of the set that first reached it)

    # The first and last cuts, from the table.
    for v in range(1, n + 1):
        for left in ((v,), tuple(u for u in range(1, n + 1) if u != v)):
            rows, packed_rows = _distinct(_cofactors(planes, n, left))
            mask = sum(bits[u - 1] for u in left)
            packed[mask] = packed_rows
            costs[mask] = cost(rows, 0)
    lb = max(min(costs[b] for b in bits), min(costs[full ^ b] for b in bits))

    packed[0] = np.packbits(planes.reshape(1, -1), axis=1)
    best = {0: lb}
    heap = [(lb, 0, 0)]
    while heap:
        key, neg_size, mask = heapq.heappop(heap)
        if mask == full:
            return max(key, 1)
        if key > best[mask]:
            continue
        m = n + neg_size
        rows = np.unpackbits(packed.pop(mask), axis=1, count=c << m)
        rows = rows.reshape(-1, c, 1 << m)
        d = rows.shape[0]
        free = [v for v in range(1, n + 1) if not mask & bits[v - 1]]
        for a, v in enumerate(free):
            child = mask | bits[v - 1]
            child_cost = costs.get(child)
            if child_cost is None:
                if child == full:
                    child_cost = 1
                else:
                    halves = rows.reshape(d, c, 1 << a, 2, 1 << (m - 1 - a))
                    halves = np.concatenate((halves[:, :, :, 0], halves[:, :, :, 1]))
                    child_rows, packed[child] = _distinct(halves.reshape(2 * d, c, -1))
                    # Sets still to be expanded pop with keys >= key, so a
                    # cost at most key may be recorded as key.
                    child_cost = max(cost(child_rows, key), key)
                costs[child] = child_cost
            child_key = max(key, child_cost)
            if child_key < best.get(child, child_key + 1):
                best[child] = child_key
                heapq.heappush(heap, (child_key, neg_size - 1, child))
    raise AssertionError("subset search must reach the full set")
