"""Leveled deterministic, nondeterministic, and probabilistic branching programs
(k-layer OBDD variants), their evaluators, width/size measures, a full
binary-tree builder, and the table-permutation commutativity check.

Conventions:
  * programs are leveled: k*n + 1 levels, level ell (0-based) of layer j reads
    variable order.perm[ell % n]; nodes on a level are 0-indexed;
  * `layer_ends` is an optional per-layer endomap applied to the node reached
    after the layer's last transition; it is pinned in place (never permuted)
    by the commutativity check and by the reordering transforms, which is what
    lets multi-layer walks hand state across layer boundaries without breaking
    within-layer commutativity;
  * programs are immutable after construction; width is max level size and no
    reduction/sharing pass is ever applied (width of the explicit leveled form
    is the complexity measure of interest).
"""
from __future__ import annotations

import itertools
import random

import numpy as np

from .boolfn import BoolFn, VarOrder
from .errors import CapacityError, DependencyError, ShapeError, StructuralError

FUNCTION_TABLE_CAP = 16    # exhaustive truth-table extraction cap
COMMUTATIVITY_INPUT_CAP = 12
EXHAUSTIVE_PERM_CAP = 5
PROB_TOL = 1e-9


def _norm_order(order, n):
    if not isinstance(order, VarOrder):
        order = VarOrder(order)
    if order.n != n:
        raise ShapeError("order length %d does not match n=%d" % (order.n, n))
    return order


def _norm_widths(widths, k, n):
    widths = [int(w) for w in widths]
    if len(widths) != k * n + 1:
        raise ShapeError("expected %d level widths, got %d" % (k * n + 1, len(widths)))
    if any(w < 1 for w in widths):
        raise ShapeError("every level must have at least one node")
    return tuple(widths)


def _norm_layer_ends(layer_ends, k, widths, n):
    if layer_ends is None:
        return (None,) * k
    layer_ends = list(layer_ends)
    if len(layer_ends) != k:
        raise ShapeError("expected %d layer-end maps, got %d" % (k, len(layer_ends)))
    out = []
    for j, end in enumerate(layer_ends):
        if end is None:
            out.append(None)
            continue
        w = widths[(j + 1) * n]
        arr = np.asarray(end, dtype=np.int64)
        if arr.shape != (w,):
            raise ShapeError("layer-end map %d must have length %d" % (j, w))
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= w):
            raise StructuralError("layer-end map %d targets a missing node" % j)
        arr = arr.copy()
        arr.setflags(write=False)
        out.append(arr)
    return tuple(out)


def _norm_sinks(sink_values, width):
    arr = np.asarray(sink_values, dtype=np.uint8)
    if arr.shape != (width,):
        raise ShapeError("sink values must cover all %d final nodes" % width)
    if arr.size and int(arr.max(initial=0)) > 1:
        raise ShapeError("sink values must be bits")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class LeveledObdd:
    """Deterministic leveled k-OBDD with explicit per-level transition tables."""

    __slots__ = ("n", "k", "order", "widths", "start", "steps", "layer_ends", "sink_values")

    def __init__(self, n, k, order, widths, start, steps, sink_values, layer_ends=None):
        if k < 1:
            raise ShapeError("layer count must be >= 1")
        self.n = int(n)
        self.k = int(k)
        self.order = _norm_order(order, self.n)
        self.widths = _norm_widths(widths, self.k, self.n)
        self.start = int(start)
        if not 0 <= self.start < self.widths[0]:
            raise StructuralError("start node is not on the first level")
        if len(steps) != self.k * self.n:
            raise ShapeError("expected %d transition levels, got %d" % (self.k * self.n, len(steps)))
        packed = []
        for ell, level in enumerate(steps):
            w, w_next = self.widths[ell], self.widths[ell + 1]
            t0 = np.empty(w, dtype=np.int64)
            t1 = np.empty(w, dtype=np.int64)
            if len(level) != w:
                raise ShapeError("level %d must define %d node rows" % (ell, w))
            for node, row in enumerate(level):
                a, b = row
                t0[node], t1[node] = int(a), int(b)
            for t in (t0, t1):
                if t.size and (int(t.min()) < 0 or int(t.max()) >= w_next):
                    raise StructuralError("level %d transition targets a missing node" % ell)
                t.setflags(write=False)
            packed.append((t0, t1))
        self.steps = tuple(packed)
        self.layer_ends = _norm_layer_ends(layer_ends, self.k, self.widths, self.n)
        self.sink_values = _norm_sinks(sink_values, self.widths[-1])


class Nobdd:
    """Nondeterministic leveled program: set-valued successors, accepting sinks."""

    __slots__ = ("n", "k", "order", "widths", "start", "steps", "layer_ends", "accepting")

    def __init__(self, n, k, order, widths, start, steps, accepting, layer_ends=None):
        if k < 1:
            raise ShapeError("layer count must be >= 1")
        self.n = int(n)
        self.k = int(k)
        self.order = _norm_order(order, self.n)
        self.widths = _norm_widths(widths, self.k, self.n)
        self.start = int(start)
        if not 0 <= self.start < self.widths[0]:
            raise StructuralError("start node is not on the first level")
        if len(steps) != self.k * self.n:
            raise ShapeError("expected %d transition levels, got %d" % (self.k * self.n, len(steps)))
        packed = []
        for ell, level in enumerate(steps):
            w, w_next = self.widths[ell], self.widths[ell + 1]
            if len(level) != w:
                raise ShapeError("level %d must define %d node rows" % (ell, w))
            a0 = np.zeros((w, w_next), dtype=bool)
            a1 = np.zeros((w, w_next), dtype=bool)
            for node, row in enumerate(level):
                for mat, succ in zip((a0, a1), row):
                    for t in succ:
                        t = int(t)
                        if not 0 <= t < w_next:
                            raise StructuralError("level %d successor targets a missing node" % ell)
                        mat[node, t] = True
            a0.setflags(write=False)
            a1.setflags(write=False)
            packed.append((a0, a1))
        self.steps = tuple(packed)
        self.layer_ends = _norm_layer_ends(layer_ends, self.k, self.widths, self.n)
        self.accepting = frozenset(int(s) for s in accepting)
        if any(not 0 <= s < self.widths[-1] for s in self.accepting):
            raise StructuralError("accepting set names a missing final node")


class Pobdd:
    """Probabilistic leveled program: row-stochastic transitions, accepting sinks."""

    __slots__ = ("n", "k", "order", "widths", "start", "steps", "layer_ends", "accepting", "epsilon")

    def __init__(self, n, k, order, widths, start, steps, accepting, epsilon, layer_ends=None):
        if k < 1:
            raise ShapeError("layer count must be >= 1")
        self.n = int(n)
        self.k = int(k)
        self.order = _norm_order(order, self.n)
        self.widths = _norm_widths(widths, self.k, self.n)
        self.start = int(start)
        if not 0 <= self.start < self.widths[0]:
            raise StructuralError("start node is not on the first level")
        if len(steps) != self.k * self.n:
            raise ShapeError("expected %d transition levels, got %d" % (self.k * self.n, len(steps)))
        packed = []
        for ell, level in enumerate(steps):
            w, w_next = self.widths[ell], self.widths[ell + 1]
            if len(level) != w:
                raise ShapeError("level %d must define %d node rows" % (ell, w))
            mats = []
            for bit in (0, 1):
                m = np.zeros((w, w_next), dtype=np.float64)
                for node, row in enumerate(level):
                    vec = np.asarray(row[bit], dtype=np.float64)
                    if vec.shape != (w_next,):
                        raise ShapeError(
                            "level %d node %d bit %d row must have length %d"
                            % (ell, node, bit, w_next)
                        )
                    m[node] = vec
                if np.any(m < -PROB_TOL):
                    raise StructuralError("level %d has a negative probability" % ell)
                sums = m.sum(axis=1)
                if np.any(np.abs(sums - 1.0) > PROB_TOL):
                    raise StructuralError("level %d has a non-stochastic row" % ell)
                m.setflags(write=False)
                mats.append(m)
            packed.append((mats[0], mats[1]))
        self.steps = tuple(packed)
        self.layer_ends = _norm_layer_ends(layer_ends, self.k, self.widths, self.n)
        self.accepting = frozenset(int(s) for s in accepting)
        if any(not 0 <= s < self.widths[-1] for s in self.accepting):
            raise StructuralError("accepting set names a missing final node")
        self.epsilon = float(epsilon)


def width(program):
    """Maximum level size — the complexity measure used throughout.

    A quantum program has one state space for every level, so its width is its
    dimension.
    """
    widths = getattr(program, "widths", None)
    return program.dim if widths is None else max(widths)


def size(program):
    """Total node count over all levels (reported alongside width)."""
    return sum(program.widths)


def _input_bits(x, n):
    bits = [int(b) for b in x]
    if len(bits) != n:
        raise ShapeError("expected %d input bits, got %d" % (n, len(bits)))
    if any(b not in (0, 1) for b in bits):
        raise ShapeError("input bits must be 0 or 1")
    return bits


def eval_obdd(program, x):
    """Follow the unique consistent path; return the sink bit."""
    bits = _input_bits(x, program.n)
    node = program.start
    n = program.n
    for ell, (t0, t1) in enumerate(program.steps):
        var = program.order.perm[ell % n]
        node = int((t1 if bits[var - 1] else t0)[node])
        if (ell + 1) % n == 0:
            end = program.layer_ends[(ell + 1) // n - 1]
            if end is not None:
                node = int(end[node])
    return int(program.sink_values[node])


def eval_nobdd(program, x):
    """1 iff some consistent path reaches an accepting sink (set propagation)."""
    bits = _input_bits(x, program.n)
    n = program.n
    reach = np.zeros(program.widths[0], dtype=bool)
    reach[program.start] = True
    for ell, (a0, a1) in enumerate(program.steps):
        var = program.order.perm[ell % n]
        mat = a1 if bits[var - 1] else a0
        reach = (reach.astype(np.uint8) @ mat.astype(np.uint8)) > 0
        if (ell + 1) % n == 0:
            end = program.layer_ends[(ell + 1) // n - 1]
            if end is not None:
                mapped = np.zeros_like(reach)
                np.logical_or.at(mapped, end, reach)
                reach = mapped
    return int(any(reach[s] for s in program.accepting))


def eval_pobdd(program, x):
    """Acceptance probability: forward-propagated node distribution mass on accepting sinks."""
    bits = _input_bits(x, program.n)
    n = program.n
    dist = np.zeros(program.widths[0], dtype=np.float64)
    dist[program.start] = 1.0
    for ell, (p0, p1) in enumerate(program.steps):
        var = program.order.perm[ell % n]
        dist = dist @ (p1 if bits[var - 1] else p0)
        if (ell + 1) % n == 0:
            end = program.layer_ends[(ell + 1) // n - 1]
            if end is not None:
                mapped = np.zeros_like(dist)
                np.add.at(mapped, end, dist)
                dist = mapped
    return float(sum(dist[s] for s in program.accepting))


def _check_table_cap(n):
    if n > FUNCTION_TABLE_CAP:
        raise CapacityError(
            "exhaustive table extraction capped at n <= %d" % FUNCTION_TABLE_CAP
        )


def function_of(program):
    """Truth table computed by a deterministic or nondeterministic program (n <= 16)."""
    n = program.n
    _check_table_cap(n)
    idx = np.arange(1 << n, dtype=np.int64)
    if isinstance(program, LeveledObdd):
        node = np.full(1 << n, program.start, dtype=np.int64)
        for ell, (t0, t1) in enumerate(program.steps):
            var = program.order.perm[ell % n]
            bit = (idx >> (n - var)) & 1
            node = np.where(bit == 1, t1[node], t0[node])
            if (ell + 1) % n == 0:
                end = program.layer_ends[(ell + 1) // n - 1]
                if end is not None:
                    node = end[node]
        return BoolFn(n, program.sink_values[node])
    if isinstance(program, Nobdd):
        reach = np.zeros((1 << n, program.widths[0]), dtype=np.int32)
        reach[:, program.start] = 1
        for ell, (a0, a1) in enumerate(program.steps):
            var = program.order.perm[ell % n]
            bit = ((idx >> (n - var)) & 1).astype(bool)
            nxt = np.empty((1 << n, program.widths[ell + 1]), dtype=np.int32)
            nxt[~bit] = reach[~bit] @ a0.astype(np.int32)
            nxt[bit] = reach[bit] @ a1.astype(np.int32)
            reach = np.minimum(nxt, 1)
            if (ell + 1) % n == 0:
                end = program.layer_ends[(ell + 1) // n - 1]
                if end is not None:
                    mapped = np.zeros_like(reach)
                    np.add.at(mapped.T, end, reach.T)
                    reach = np.minimum(mapped, 1)
        acc = sorted(program.accepting)
        table = reach[:, acc].max(axis=1) if acc else np.zeros(1 << n, dtype=np.int32)
        return BoolFn(n, table.astype(np.uint8))
    raise ShapeError("function_of expects a deterministic or nondeterministic program")


def acceptance_table(program):
    """Acceptance probability of a Pobdd on every input (n <= 16)."""
    if not isinstance(program, Pobdd):
        raise ShapeError("acceptance_table expects a probabilistic program")
    n = program.n
    _check_table_cap(n)
    idx = np.arange(1 << n, dtype=np.int64)
    dist = np.zeros((1 << n, program.widths[0]), dtype=np.float64)
    dist[:, program.start] = 1.0
    for ell, (p0, p1) in enumerate(program.steps):
        var = program.order.perm[ell % n]
        bit = ((idx >> (n - var)) & 1).astype(bool)
        nxt = np.empty((1 << n, program.widths[ell + 1]), dtype=np.float64)
        nxt[~bit] = dist[~bit] @ p0
        nxt[bit] = dist[bit] @ p1
        dist = nxt
        if (ell + 1) % n == 0:
            end = program.layer_ends[(ell + 1) // n - 1]
            if end is not None:
                mapped = np.zeros_like(dist)
                np.add.at(mapped.T, end, dist.T)
                dist = mapped
    acc = sorted(program.accepting)
    return dist[:, acc].sum(axis=1) if acc else np.zeros(1 << n, dtype=np.float64)


def build_binary_tree_obdd(f, live=None):
    """Full binary tree over the live variables, merging equal-future states.

    Levels hold the distinct reachable restrictions of f; a variable outside
    `live` must have equal cofactors everywhere reachable (checked on the
    truth table), and is traversed with an identity transition.
    """
    if not isinstance(f, BoolFn):
        raise ShapeError("binary-tree builder expects a total function")
    n = f.n
    if live is None:
        live_set = set(range(1, n + 1))
    else:
        live_set = {int(v) for v in live}
        if any(not 1 <= v <= n for v in live_set):
            raise ShapeError("live set names an unknown variable")
    tables = [f.table]
    widths = [1]
    steps = []
    for level in range(n):
        var = level + 1
        seen = {}
        nxt = []
        rows = []
        for tab in tables:
            half = tab.shape[0] // 2
            left, right = tab[:half], tab[half:]
            if var not in live_set and not np.array_equal(left, right):
                raise DependencyError(
                    "function depends on variable %d outside the live set" % var
                )
            ids = []
            for sub in (left, right):
                key = sub.tobytes()
                tid = seen.get(key)
                if tid is None:
                    tid = len(nxt)
                    seen[key] = tid
                    nxt.append(sub)
                ids.append(tid)
            rows.append((ids[0], ids[1]))
        steps.append(rows)
        widths.append(len(nxt))
        tables = nxt
    sinks = [int(tab[0]) for tab in tables]
    return LeveledObdd(
        n=n,
        k=1,
        order=VarOrder.identity(n),
        widths=widths,
        start=0,
        steps=steps,
        sink_values=sinks,
    )


def _padded_tables(program):
    """Per-layer, per-variable transition tables padded to the common width.

    Rows for padded node ids target node 0 (they are unreachable in the
    original order; permuted application uses them only for programs that are
    not width-uniform, where the check is then free to answer False).
    Returns (W, tables, ends, sinks): tables[j][v] = (f0, f1) endomaps on
    {0..W-1}; ends[j] is the padded layer-end endomap or None.
    """
    n, k = program.n, program.k
    w_max = width(program)
    deterministic = isinstance(program, LeveledObdd)
    tables = []
    for j in range(k):
        per_var = {}
        for pos in range(n):
            var = program.order.perm[pos]
            ell = j * n + pos
            if deterministic:
                pair = []
                for t in program.steps[ell]:
                    f = np.zeros(w_max, dtype=np.int64)
                    f[: t.shape[0]] = t
                    f.setflags(write=False)
                    pair.append(f)
                per_var[var] = tuple(pair)
            else:
                pair = []
                for m in program.steps[ell]:
                    big = np.zeros((w_max, w_max), dtype=m.dtype)
                    big[: m.shape[0], : m.shape[1]] = m
                    if m.dtype == np.float64:
                        big[m.shape[0]:, 0] = 1.0
                    else:
                        big[m.shape[0]:, 0] = True
                    big.setflags(write=False)
                    pair.append(big)
                per_var[var] = tuple(pair)
        tables.append(per_var)
    ends = []
    for j in range(k):
        end = program.layer_ends[j]
        if end is None:
            ends.append(None)
        else:
            e = np.zeros(w_max, dtype=np.int64)
            e[: end.shape[0]] = end
            e.setflags(write=False)
            ends.append(e)
    sinks = np.zeros(w_max, dtype=np.float64)
    if deterministic:
        sinks[: program.sink_values.shape[0]] = program.sink_values
    else:
        for s in program.accepting:
            sinks[s] = 1.0
    return w_max, tables, ends, sinks


def _permuted_profile(program, perm, padded):
    """Output profile of the program with tables applied in variable order `perm`.

    Deterministic/nondeterministic: 0/1 table. Probabilistic: acceptance
    probabilities. Layer-end maps stay pinned at their layer boundaries.
    """
    w_max, tables, ends, sinks = padded
    n, k = program.n, program.k
    idx = np.arange(1 << n, dtype=np.int64)
    if isinstance(program, LeveledObdd):
        node = np.full(1 << n, program.start, dtype=np.int64)
        for j in range(k):
            for var in perm:
                f0, f1 = tables[j][var]
                bit = (idx >> (n - var)) & 1
                node = np.where(bit == 1, f1[node], f0[node])
            if ends[j] is not None:
                node = ends[j][node]
        return sinks[node]
    if isinstance(program, Nobdd):
        reach = np.zeros((1 << n, w_max), dtype=np.int32)
        reach[:, program.start] = 1
        for j in range(k):
            for var in perm:
                a0, a1 = tables[j][var]
                bit = ((idx >> (n - var)) & 1).astype(bool)
                nxt = np.empty_like(reach)
                nxt[~bit] = reach[~bit] @ a0.astype(np.int32)
                nxt[bit] = reach[bit] @ a1.astype(np.int32)
                reach = np.minimum(nxt, 1)
            if ends[j] is not None:
                mapped = np.zeros_like(reach)
                np.add.at(mapped.T, ends[j], reach.T)
                reach = np.minimum(mapped, 1)
        return np.minimum(reach @ sinks, 1.0)
    dist = np.zeros((1 << n, w_max), dtype=np.float64)
    dist[:, program.start] = 1.0
    for j in range(k):
        for var in perm:
            p0, p1 = tables[j][var]
            bit = ((idx >> (n - var)) & 1).astype(bool)
            nxt = np.empty_like(dist)
            nxt[~bit] = dist[~bit] @ p0
            nxt[bit] = dist[bit] @ p1
            dist = nxt
        if ends[j] is not None:
            mapped = np.zeros_like(dist)
            np.add.at(mapped.T, ends[j], dist.T)
            dist = mapped
    return dist @ sinks


def sample_orders(n, trials, seed):
    """Deterministically sampled variable orders (all of them when n <= 5)."""
    if n <= EXHAUSTIVE_PERM_CAP:
        return [perm for perm in itertools.permutations(range(1, n + 1))]
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        out.append(tuple(perm))
    return out


def is_commutative(program, trials=1000, seed=0, tol=PROB_TOL):
    """True iff applying the per-variable tables in any order leaves the
    computed function (or acceptance profile) unchanged.

    All n! orders are tried when n <= 5, otherwise `trials` seeded random
    orders. Functional equality is checked on all 2**n inputs (n <= 12).
    """
    n = program.n
    if n > COMMUTATIVITY_INPUT_CAP:
        raise CapacityError(
            "commutativity check capped at n <= %d" % COMMUTATIVITY_INPUT_CAP
        )
    padded = _padded_tables(program)
    baseline = _permuted_profile(program, program.order.perm, padded)
    for perm in sample_orders(n, trials, seed):
        profile = _permuted_profile(program, perm, padded)
        if isinstance(program, Pobdd):
            if np.max(np.abs(profile - baseline)) > tol:
                return False
        else:
            if not np.array_equal(profile, baseline):
                return False
    return True


def embed_obdd_as_nobdd(program):
    """Deterministic program as an Nobdd with singleton successor sets."""
    steps = []
    for t0, t1 in program.steps:
        steps.append([((int(t0[s]),), (int(t1[s]),)) for s in range(t0.shape[0])])
    accepting = [s for s in range(program.widths[-1]) if program.sink_values[s]]
    return Nobdd(
        n=program.n,
        k=program.k,
        order=program.order,
        widths=program.widths,
        start=program.start,
        steps=steps,
        accepting=accepting,
        layer_ends=[None if e is None else e.copy() for e in program.layer_ends],
    )


def embed_obdd_as_pobdd(program, epsilon=0.5):
    """Deterministic program as a Pobdd with one-hot rows (probability 0/1)."""
    steps = []
    for ell, (t0, t1) in enumerate(program.steps):
        w_next = program.widths[ell + 1]
        rows = []
        for s in range(t0.shape[0]):
            r0 = np.zeros(w_next)
            r1 = np.zeros(w_next)
            r0[int(t0[s])] = 1.0
            r1[int(t1[s])] = 1.0
            rows.append((r0, r1))
        steps.append(rows)
    accepting = [s for s in range(program.widths[-1]) if program.sink_values[s]]
    return Pobdd(
        n=program.n,
        k=program.k,
        order=program.order,
        widths=program.widths,
        start=program.start,
        steps=steps,
        accepting=accepting,
        epsilon=epsilon,
        layer_ends=[None if e is None else e.copy() for e in program.layer_ends],
    )


def to_text(program):
    """Line-oriented serialization: header, one line per level, sinks line."""
    kind = (
        "obdd"
        if isinstance(program, LeveledObdd)
        else "nobdd" if isinstance(program, Nobdd) else "pobdd"
    )
    lines = [
        "%s %d %d %d order=%s"
        % (kind, program.n, program.k, width(program), ",".join(map(str, program.order.perm)))
    ]
    for ell in range(program.k * program.n):
        var = program.order.perm[ell % program.n]
        parts = []
        if isinstance(program, LeveledObdd):
            t0, t1 = program.steps[ell]
            for s in range(t0.shape[0]):
                parts.append("%d:%d,%d" % (s, t0[s], t1[s]))
        elif isinstance(program, Nobdd):
            a0, a1 = program.steps[ell]
            for s in range(a0.shape[0]):
                s0 = "|".join(str(t) for t in np.nonzero(a0[s])[0])
                s1 = "|".join(str(t) for t in np.nonzero(a1[s])[0])
                parts.append("%d:{%s},{%s}" % (s, s0, s1))
        else:
            p0, p1 = program.steps[ell]
            for s in range(p0.shape[0]):
                def fmt(row):
                    return ";".join(
                        "%.12g>%d" % (row[t], t) for t in np.nonzero(row)[0]
                    )
                parts.append("%d:(%s),(%s)" % (s, fmt(p0[s]), fmt(p1[s])))
        lines.append("L%d var=%d: %s" % (ell + 1, var, " ".join(parts)))
        if (ell + 1) % program.n == 0:
            end = program.layer_ends[(ell + 1) // program.n - 1]
            if end is not None:
                lines.append(
                    "Lend%d: %s" % ((ell + 1) // program.n, ",".join(map(str, end)))
                )
    if isinstance(program, LeveledObdd):
        lines.append(
            "sinks: " + " ".join("%d=%d" % (s, v) for s, v in enumerate(program.sink_values))
        )
    else:
        lines.append("accepting: " + ",".join(map(str, sorted(program.accepting))))
    return "\n".join(lines) + "\n"
