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


def _count_for_varset(f, left_vars):
    """Number of pairwise-distinguishable subfunctions with X_A = `left_vars`.

    This is the reference route: the table as a (2,)*n array with the X_A
    axes moved to the front gives one row per assignment to X_A, and the
    packed rows are deduplicated exactly, by their bytes (for partial
    functions, a conflict-graph maximum clique over the distinct rows
    follows). The exact-width search builds its cut costs by an independent
    incremental route.
    """
    n = f.n
    left = [v - 1 for v in left_vars]
    axes = left + [a for a in range(n) if a not in left]

    def matrix(table):
        return table.reshape((2,) * n).transpose(axes).reshape(1 << len(left), -1)

    if isinstance(f, PartialBoolFn):
        mask, vals = matrix(f.defined), matrix(f.values)
        distinct = {}
        for r, key in enumerate(map(bytes, np.packbits(np.hstack([mask, vals]), axis=1))):
            distinct.setdefault(key, r)
        keep = list(distinct.values())   # the first row of each, in row order
        return _max_clique(_conflict_adjacency(mask[keep], vals[keep]))
    return len(set(map(bytes, np.packbits(matrix(f.table), axis=1))))


def _conflict_adjacency(mask_rows, val_rows):
    """Conflict graph of partial rows as one adjacency bitset (an int) per row.

    Rows are 0/1 arrays (defined mask, canonical values). Two partial rows
    conflict iff some commonly-defined column carries different values.
    """
    d = mask_rows.shape[0]
    # ones[i] @ zeros[j] counts the columns where row i is 1 and row j a defined 0
    ones = val_rows.astype(np.float64)
    zeros = mask_rows.astype(np.float64) - ones
    conflict = np.concatenate([(ones[lo:lo + 256] @ zeros.T + zeros[lo:lo + 256] @ ones.T) > 0
                               for lo in range(0, d, 256)])
    bitsets = np.zeros((d, (d + 63) // 64 * 8), dtype=np.uint8)
    bitsets[:, :(d + 7) // 8] = np.packbits(conflict, axis=1, bitorder="little")
    return _bitset_ints(bitsets)


def _bitset_ints(bitsets):
    """One int per row of a (rows, 8 * words) array of little-endian bitsets."""
    words = bitsets.view("<u8")
    ints = words[:, 0].tolist()
    for k in range(1, words.shape[1]):
        ints = [i | w << 64 * k for i, w in zip(ints, words[:, k].tolist())]
    return ints


def _max_clique(adj, floor=0):
    """Size of the largest clique of the graph with adjacency bitsets `adj`.

    Here the largest set of rows that pairwise provably differ. Branch and
    bound with greedy coloring. With a `floor`, the result is max(floor,
    clique size), and cliques no larger than the floor are not searched for.
    """
    d = len(adj)
    if d <= 1 or d <= floor:
        return max(d, floor)
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

    Strategies: "auto" runs the best-first bottleneck search below (total
    and partial functions alike); "enum" forces the n! enumeration (n <= limits.ENUM_CAP),
    used as a cross-check. The enumeration costs each of the 2**n - 2 proper
    non-empty prefix sets once with `_count_for_varset`, independently of the
    search's cofactor rows, and then takes the width of every order from that
    table, a block of (n-1)! orders per first variable: the (n-1)! orders of
    the other variables are built once, and each block is one `take` of them.

    The search is the Friedman & Supowit subset DP (IEEE Trans. Computers
    39(5), 1990) evaluated best-first. A node is a prefix set S of variables;
    its cost is the subfunction count of the cut after S, and the width of an
    order is the largest cost on its chain of prefix sets. The search keeps
    the distinct cofactors of S as bit-packed rows: the rows of S + {v} are
    the deduplicated v=0 and v=1 halves of the rows of S, so a cost is built
    from its parent's rows instead of from the table. The halves are cut from
    the packed rows without unpacking them. For a total function the cost is
    the number of rows; for a partial one a row is a (defined, value) pair
    and the cost is the largest set of pairwise conflicting rows, searched
    for only when the row count exceeds the key.
    Every order has a last cut, so every key starts from the cheapest last
    cut, read from the table in one pass; the first cuts come from the
    root's expansion.

    A set's key is the largest cost on the way to it. Sets of equal key and
    size form a group, and the group with the smallest (key, -|S|) pops
    next, so a search that has reached its bound goes depth first. The
    first pop of a group takes its newest set alone; later pops take its
    sets newest first until their children's rows would exceed
    `limits.SEARCH_BATCH_CELLS` bits. `_split_rows` costs all new children of
    the batch at once: one gather of packed parent rows, the halves cut in the
    packed domain, one `np.unique` over (child, row) keys and, for a partial
    function, one conflict pass over every child that needs a clique, chunked
    under the same bound. Popped keys never decrease, so the
    first time a set is reached gives its smallest key: a `seen` mask keeps
    later parents out, and the first parent is kept for the witness order.
    A set's rows are dropped once it has been expanded.
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
        # Then the width of every order, a block of (n-1)! orders per first
        # variable: all orders of the other variables, as positions into them.
        bits = np.array([1 << (n - v) for v in range(1, n + 1)], dtype=np.uint16)
        perms = np.zeros((1, 0), dtype=np.intp)
        for k in range(n - 1):
            perms = np.concatenate([np.insert(perms, i, k, axis=1) for i in range(k + 1)])
        best = []
        for v in range(n):
            first = bits[v]
            rest = np.delete(bits, v).take(perms[:, :-1])
            prefixes = np.cumsum(rest, axis=1, dtype=np.uint16) + first
            best.append(max(int(table[first]), int(table[prefixes].max(axis=1, initial=0).min())))
        return min(best)
    limits.check(n, limits.DP_CAP, "n of the min-width search")
    if isinstance(f, BoolFn):
        return _bottleneck_search((f.table,), n)[0]
    return _n_min_partial(f)


def _n_min_partial(f):
    """The bottleneck search of a partial function: cut costs are conflict cliques."""
    return _bottleneck_search((f.defined, f.values), f.n)[0]


def _min_width_order(f):
    """(n_min(f), an order whose n_pi attains it), from the search."""
    if f.n == 1:
        return 1, VarOrder.identity(1)
    limits.check(f.n, limits.DP_CAP, "n of the min-width search")
    planes = (f.table,) if isinstance(f, BoolFn) else (f.defined, f.values)
    return _bottleneck_search(planes, f.n)


def _last_cut_costs(planes, n):
    """Cost of every last cut, all variables but x_v, per v, from the table.

    A row of such a cut has two columns (x_v = 0 and 1). A column's code
    holds its bit in each plane, so a row is one of 4**planes pair codes, and
    the distinct rows are the pair codes present.
    """
    c = planes.shape[0]
    col = np.zeros(1 << n, dtype=np.uint8)
    for j, plane in enumerate(planes):
        col |= plane << j
    shifts = np.arange(c)[:, None] + np.array([c, 0])   # (plane, column) bit of a pair code
    costs = []
    for v in range(1, n + 1):
        halves = col.reshape(1 << (v - 1), 2, -1)
        present = np.flatnonzero(np.bincount((halves[:, 0] << c | halves[:, 1]).ravel()))
        rows = (present[:, None, None] >> shifts) & 1   # (code, plane, column)
        costs.append(len(present) if c == 1 else
                     _max_clique(_conflict_adjacency(rows[:, 0], rows[:, 1])))
    return costs


def _bottleneck_search(planes, n):
    """Best-first search for min over orders of max over cut costs, and an order attaining it.

    `planes` are the truth-table bit vectors: the table of a total function,
    or the defined mask and the values of a partial one. Needs n >= 2.
    Returns (width, VarOrder).
    """
    planes = np.stack(planes)
    c = planes.shape[0]
    full = (1 << n) - 1
    bits = np.array([1 << (n - v) for v in range(1, n + 1)], dtype=np.int64)
    last = np.zeros(1 << n, dtype=np.int32)   # cost of each last cut, by mask
    last[full ^ bits] = _last_cut_costs(planes, n)
    seen = np.zeros(1 << n, dtype=bool)
    seen[0] = True
    parent = np.zeros(1 << n, dtype=np.int32)   # the set that first reached each set
    packed = {0: np.packbits(planes.reshape(1, -1), axis=1)}   # until a set is expanded
    lb = int(last[full ^ bits].min())
    groups = {(lb, 0): [0]}   # (key, -|S|) -> sets, popped last in first out
    heap = [(lb, 0)]
    probed = set()
    while True:
        group_key = heap[0]
        key, neg_size = group_key
        group = groups[group_key]
        m = n + neg_size   # free variables of each set in the group
        if m == 1:
            return key, _chain_order(parent, group[-1], n)
        # The first pop of a group probes depth first with one set; later pops
        # take sets until their children's row bits would pass the bound.
        batch, cells = [], 0
        while group and (not batch or group_key in probed):
            if m > 2:   # below a set with two free variables lie only last cuts
                cells += m * len(packed[group[-1]]) * c << m
                if batch and cells > limits.SEARCH_BATCH_CELLS:
                    break
            batch.append(group.pop())
        probed.add(group_key)
        if not group:
            heapq.heappop(heap)
            del groups[group_key]
        sets = np.array(batch, dtype=np.int64)
        free = (sets[:, None] & bits) == 0
        reached = sets[:, None] | bits
        which, var = np.nonzero(free & ~seen[reached])
        children, first = np.unique(reached[which, var], return_index=True)
        which, var = which[first], var[first]
        seen[children] = True
        parent[children] = sets[which]
        rows = [packed.pop(s) for s in batch] if m > 2 else None
        if not len(children):
            continue
        if m == 2:
            costs = last[children]
        else:
            # Child i splits the rows of its parent at the rank of its variable
            # among the parent's free variables.
            ranks = (np.cumsum(free, axis=1) - free)[which, var]
            costs = _split_rows(rows, which, ranks, children, m, c, key, packed)
        child_keys = np.maximum(costs, key)
        for k in np.unique(child_keys).tolist():
            target = (k, neg_size - 1)
            if target not in groups:
                groups[target] = []
                heapq.heappush(heap, target)
            groups[target].extend(children[child_keys == k].tolist())


def _chain_order(parent, final, n):
    """The order that reaches the (n-1)-set `final` along first parents, then the last variable."""
    order = [n + 1 - (((1 << n) - 1) ^ final).bit_length()]
    while final:
        order.append(n + 1 - (final ^ int(parent[final])).bit_length())
        final = int(parent[final])
    return VarOrder(order[::-1])


# For a split variable whose runs are 2**e bits long (e = 0, 1, 2), the two
# halves of a packed byte: _HALVES[e << 8 | byte] holds the v=0 and the v=1
# bits as two bytes, each bit group in the high nibble, so that a shift by 4
# moves both into the low nibbles in either byte order.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
_HALVES = np.stack([
    np.packbits(_BYTE_BITS.reshape(256, 4 >> e, 2, 1 << e).transpose(0, 2, 1, 3).reshape(256, 2, 4),
                axis=2)[..., 0]
    for e in range(3)]).view(np.uint16).ravel()


def _split_rows(rows, which, ranks, children, m, c, floor, packed):
    """Distinct rows and costs of the children of a batch of sets, in one pass.

    `rows` are the packed distinct rows of the batch's sets, c planes of
    2**m columns each, the columns listing the set's free variables
    lowest-numbered first; child i comes from set `which[i]` by fixing the
    free variable of rank `ranks[i]`, whose v=0 and v=1 runs in a plane are
    2**(m-1-rank) bits long. The halves stay packed: runs of whole bytes are
    cut out by one reshape per rank, and the rows of the last three ranks
    (runs of 4, 2 or 1 bits) all go through one `_HALVES` lookup, whose
    nibbles are then paired into bytes (a plane of 4 bits pairs its nibble
    with itself). One unique over (child, packed row) keys deduplicates all
    children. Stores the packed rows of every child that will need them in
    `packed`, and returns the costs; a cost at most `floor` may be returned
    as any value up to `floor`.
    """
    depth = np.array([len(r) for r in rows])
    offsets = depth.cumsum() - depth
    # the packed parent rows of every child, children grouped by rank
    by_rank = np.argsort(ranks, kind="stable")
    lens = depth[which[by_rank]]
    ends = lens.cumsum()
    idx = np.repeat(offsets[which[by_rank]] - ends + lens, lens) + np.arange(ends[-1])
    table = np.concatenate(rows)[idx]
    row_bytes = table.shape[1]
    half = max(row_bytes >> 1, c)
    keys = np.empty((2, len(table), half + 4), dtype=np.uint8)
    row_child = np.repeat(by_rank, lens)
    keys[:, :, :4].view(">u4")[..., 0] = row_child
    body = keys[:, :, 4:]   # the v=0 halves of all children, then the v=1 halves
    rank_ends = np.concatenate(([0], ends))[np.bincount(ranks, minlength=m).cumsum()]
    lo = 0
    for a, hi in enumerate(rank_ends[:m - 3].tolist()):   # runs of whole bytes
        if hi > lo:
            split = table[lo:hi].reshape(hi - lo, c, 1 << a, 2, -1)
            body[:, lo:hi].reshape(2, hi - lo, c, 1 << a, -1)[...] = split.transpose(3, 0, 1, 2, 4)
        lo = hi
    # one lookup for the runs of 4, 2 and 1 bits, then one byte per two nibbles
    lookup = (m - 1 - ranks[row_child[lo:]]) << 8   # the table of each row's run length
    nibbles = _HALVES.take(lookup[:, None] | table[lo:]).reshape(-1, half, row_bytes // half)
    paired = nibbles[:, :, 0] | nibbles[:, :, -1] >> 4
    body[:, lo:] = paired.view(np.uint8).reshape(-1, half, 2).transpose(2, 0, 1)
    width = half + 4
    distinct = np.unique(keys.view(np.dtype((np.void, width))).ravel()).view(np.uint8)
    distinct = distinct.reshape(-1, width)
    costs = np.bincount(distinct[:, :4].copy().view(">u4").ravel(), minlength=len(children))
    distinct = distinct[:, 4:]
    if m > 3:   # below a set with two free variables lie only last cuts
        stops = costs.cumsum().tolist()
        for child, start, stop in zip(children.tolist(), [0] + stops, stops):
            packed[child] = distinct[start:stop]
    if c == 2:
        costs = _clique_costs(distinct, costs, floor)
    return costs


def _clique_costs(rows, counts, floor):
    """Conflict-clique costs of children whose packed (mask, value) rows are
    consecutive in `rows`, `counts[i]` rows for child i.

    A child with at most `floor` rows keeps its count. The rows of the others
    take two forms in machine words: a row's ones (its values) then its zeros
    (mask and not value), and its zeros then its ones. Two rows conflict iff
    the first form of one meets the second form of the other. The children
    are padded to a common row count with rows that meet nothing, and a
    (word, child, row, row) stack of ANDs gives their conflict bitsets, built
    a block of children and rows at a time so that no step holds more than
    `limits.SEARCH_BATCH_CELLS` bytes; `_max_clique` takes each child's
    bitsets from there.
    """
    hot = counts > floor
    hot_counts = counts[hot]
    if not len(hot_counts):
        return counts
    mask, ones = np.split(rows[np.repeat(hot, counts)], 2, axis=1)
    zeros = mask & ~ones
    word = np.dtype("u%d" % min(rows.shape[1], 8))   # row widths are powers of two
    forms = np.stack((np.hstack((ones, zeros)), np.hstack((zeros, ones)))).view(word).transpose(0, 2, 1)
    d = int(hot_counts.max())
    valid = np.arange(d) < hot_counts[:, None]
    starts = np.concatenate(([0], hot_counts.cumsum())).tolist()
    bitsets = np.zeros(valid.shape + ((d + 63) // 64 * 8,), dtype=np.uint8)
    per = max(1, limits.SEARCH_BATCH_CELLS // (d * rows.shape[1]))   # left rows per step
    child_step, row_step = max(1, per // d), min(d, per)
    for k in range(0, len(hot_counts), child_step):
        block = valid[k:k + child_step]
        left, right = np.zeros((2, forms.shape[1]) + block.shape, dtype=word)
        left[:, block], right[:, block] = forms[:, :, starts[k]:starts[k + len(block)]]
        for i in range(0, d, row_step):
            conflict = (left[:, :, i:i + row_step, None] & right[:, :, None]).any(axis=0)
            bitsets[k:k + child_step, i:i + row_step, :(d + 7) // 8] = \
                np.packbits(conflict, axis=2, bitorder="little")
    adj = _bitset_ints(bitsets[valid])
    costs = counts.copy()
    for child, start, stop in zip(np.flatnonzero(hot).tolist(), starts, starts[1:]):
        costs[child] = _max_clique(adj[start:stop], floor)
    return costs
