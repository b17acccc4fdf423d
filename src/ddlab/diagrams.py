"""Leveled branching programs (k-layer OBDD variants) of every kind, the one
engine that runs them, width/size measures, a full binary-tree builder, and
the commutativity check.

A program has k*n + 1 levels; level ell (0-based) of layer j reads variable
order.perm[ell % n], and nodes on a level are 0-indexed. `LeveledProgram`
holds what the kinds share: n, k, the order, the level widths, the packed
operator pair of every level (`steps`, one operator per value of the bit
read) and the layer-end maps. The kinds differ only in how an operator is
packed and acts on the state, and in how the last state is read out:

  LeveledObdd     index map (int64, w)       node           sink bit
  Nobdd           boolean matrix (w, w')     reachable set  1 iff a node accepts
  Pobdd           stochastic matrix (w, w')  distribution   accepting mass
  QuantumProgram  unitary (dim, dim)         amplitudes     accepting |amp|^2
                  (quantum.py; one pair per variable, repeated each layer)

`_whole_table` gives the output on all 2**n inputs from one prefix-trie pass
in the program's own order; every whole-table routine and the exhaustive
bounded-error check use it. `propagate` runs a given batch of inputs, a
(B, n) bit matrix, through the levels, for the sampled checks. The per-input
evaluators (`eval_obdd`, `eval_nobdd`, `eval_pobdd` and
`quantum.accept_probability`) share `_evaluate`, the plain per-level loop
that both batch routes are tested against. Its step (`_act_one`) touches only
the live states: a stochastic step multiplies the rows of the nonzero entries
and a boolean step takes the union of the reachable nodes' successor sets, so
it costs what one input's state needs, not the whole operator.

The commutativity check has two routes. The certificate
(`_commutes_pairwise`) comes first: within each layer, the operators of every
two distinct variables must commute, which takes O(k*n**2) operator products
and no 2**n table. A program that fails it goes to the sampled route, which
runs a chunk of sampled orders at once over a prefix trie
(`_permuted_profile`): in the first layer an order's state after ell levels
has only the 2**ell rows of the bits read so far, and each level gathers, per
order, its variable's operators from a per-layer stack. A chunk spans at most
`_CHUNK_ROWS` (order, input) rows; the check returns False after the first
chunk in which an order differs.

Conventions:
  * `layer_ends` is an optional per-layer endomap applied to the node reached
    after the layer's last transition; it is pinned in place (never permuted)
    by the commutativity check and by the reordering lifts, which is what
    lets multi-layer walks hand state across layer boundaries without breaking
    within-layer commutativity;
  * programs are immutable after construction; width is max level size and no
    reduction/sharing pass is ever applied (width of the explicit leveled form
    is the complexity measure of interest).
"""
from __future__ import annotations

import functools
import itertools
import math
import random

import numpy as np

from . import limits
from .boolfn import BoolFn, VarOrder
from .errors import DependencyError, ShapeError, StructuralError

_CHUNK_ROWS = 4096     # inputs propagated together, state rows of a table computed at once


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


def _as_level(level, shape, dtype, message):
    """One level's rows as one array of `shape`, not copied; ShapeError if they do not form one."""
    try:
        arr = np.asarray(level, dtype=dtype)
        if arr.shape == shape:
            return arr
    except (TypeError, ValueError):
        pass
    raise ShapeError(message)


def _pad_map(m, width):
    """Index map extended to `width` nodes; the added nodes map to node 0."""
    out = np.zeros(width, dtype=np.int64)
    out[: m.shape[0]] = m
    return out


class _Packed(tuple):
    """Level operators already in a kind's packed form (the lifts and other
    internal builders pass these instead of per-node rows)."""


class LeveledProgram:
    """What every program kind shares. A kind supplies its constructor
    fields (`_FIELDS`), the packing of one level's rows (`_pack_level`), the
    state dtype or start (`_DTYPE`, `_first`), its operator action (`_act`,
    `_act_one`, `_step`) and its readout (`_readout`, `_readout_on`). The
    defaults here are those of the matrix kinds, whose states are row
    vectors multiplied on the right."""

    __slots__ = ("n", "k", "order", "widths", "steps", "layer_ends")
    _MATRIX = True   # operators are matrices, not index maps

    def _init_levels(self, n, k, order, widths, start, steps, layer_ends):
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
        limits.check_program(self.k * self.n, max(self.widths), self._MATRIX)
        packed = []
        for ell, level in enumerate(steps):
            if not isinstance(steps, _Packed):
                if len(level) != self.widths[ell]:
                    raise ShapeError("level %d must define %d node rows" % (ell, self.widths[ell]))
                level = self._pack_level(ell, level, self.widths[ell], self.widths[ell + 1])
            for op in level:
                op.setflags(write=False)
            packed.append(tuple(level))
        self.steps = tuple(packed)
        self.layer_ends = _norm_layer_ends(layer_ends, self.k, self.widths, self.n)

    def _norm_accepting(self, accepting):
        acc = frozenset(int(s) for s in accepting)
        if any(not 0 <= s < self.widths[-1] for s in acc):
            raise StructuralError("accepting set names a missing final node")
        return acc

    def _rebuilt(self, **changes):
        """A program of the same kind with some constructor fields replaced;
        its steps are taken as already packed."""
        fields = {name: changes.get(name, getattr(self, name)) for name in self._FIELDS}
        fields["steps"] = _Packed(fields["steps"])
        return type(self)(**fields)

    def _pair(self, ell):
        """The operator pair of level ell."""
        return self.steps[ell]

    def _first(self, rows=None):
        """The start state, or `rows` copies of it."""
        vec = np.zeros(self.widths[0], dtype=self._DTYPE)
        vec[self.start] = 1
        return vec if rows is None else np.tile(vec, (rows, 1))

    def _act(self, states, op):
        return states @ op

    def _act_one(self, state, op):
        return self._act(state, op)

    def _step(self, states, pair, bit):
        """One level on a batch: row i takes pair[bit[i]]."""
        nxt = np.empty((states.shape[0], pair[0].shape[1]), dtype=states.dtype)
        for rows, op in ((~bit, pair[0]), (bit, pair[1])):
            if rows.any():
                nxt[rows] = self._act(states[rows], op)
        return nxt

    def _end(self, states, end):
        mapped = np.zeros_like(states)
        np.add.at(mapped.T, end, states.T)
        return mapped

    def _pad(self, op, width):
        big = np.zeros((width, width), dtype=op.dtype)
        big[: op.shape[0], : op.shape[1]] = op
        big[op.shape[0]:, 0] = 1
        return big

    def _readout_on(self, nodes):
        """Readout fields of a program whose final node i acts as this
        program's final node nodes[i] (padding nodes, -1, reject)."""
        return {"accepting": np.flatnonzero(np.isin(nodes, sorted(self.accepting)))}

    @classmethod
    def _map_op(cls, m, width):
        """The operator sending node i to node m[i] on a level of `width` nodes."""
        op = np.zeros((m.shape[0], width), dtype=cls._DTYPE)
        op[np.arange(m.shape[0]), m] = 1
        return op

    @classmethod
    def _block_op(cls, ops, targets):
        """Operator on (slot, node) pairs that applies ops[c] to the nodes of
        slot c and moves them to slot targets[c]."""
        q, (w, w_next) = len(ops), ops[0].shape
        big = np.zeros((q, w, q, w_next), dtype=cls._DTYPE)
        big[np.arange(q), :, targets, :] = np.stack(ops)
        return big.reshape(q * w, q * w_next)

    def _lifted(self, n, steps, layer_ends, nodes):
        """The lift with these packed steps, whose node i stands for base node nodes[i]."""
        width = nodes.shape[0]
        return self._rebuilt(n=n, order=VarOrder.identity(n), widths=[width] * (self.k * n + 1),
                             steps=steps, layer_ends=layer_ends, **self._readout_on(nodes))


class LeveledObdd(LeveledProgram):
    """Deterministic leveled k-OBDD with explicit per-level transition tables."""

    __slots__ = ("start", "sink_values")
    _FIELDS = ("n", "k", "order", "widths", "start", "steps", "sink_values", "layer_ends")
    _MATRIX = False

    def __init__(self, n, k, order, widths, start, steps, sink_values, layer_ends=None):
        self._init_levels(n, k, order, widths, start, steps, layer_ends)
        self.sink_values = _norm_sinks(sink_values, self.widths[-1])

    def _pack_level(self, ell, level, w, w_next):
        rows = _as_level(level, (w, 2), np.int64,
                         "level %d rows must be (bit-0, bit-1) target pairs" % ell)
        if int(rows.min()) < 0 or int(rows.max()) >= w_next:
            raise StructuralError("level %d transition targets a missing node" % ell)
        return rows[:, 0].copy(), rows[:, 1].copy()

    def _first(self, rows=None):
        return self.start if rows is None else np.full(rows, self.start, dtype=np.int64)

    def _act(self, states, op):
        return op[states]

    def _step(self, states, pair, bit):
        return np.where(bit, pair[1][states], pair[0][states])

    def _end(self, states, end):
        return end[states]

    def _pad(self, op, width):
        return _pad_map(op, width)

    def _readout(self, states):
        return self.sink_values[states]

    def _readout_on(self, nodes):
        return {"sink_values": np.where(nodes >= 0, self.sink_values[nodes], 0)}

    @classmethod
    def _map_op(cls, m, width):
        return np.asarray(m, dtype=np.int64)

    @classmethod
    def _block_op(cls, ops, targets):
        w = ops[0].shape[0]
        return (targets[:, None] * w + np.stack(ops)).ravel()


class Nobdd(LeveledProgram):
    """Nondeterministic leveled program: set-valued successors, accepting sinks."""

    __slots__ = ("start", "accepting")
    _FIELDS = ("n", "k", "order", "widths", "start", "steps", "accepting", "layer_ends")
    _DTYPE = bool

    def __init__(self, n, k, order, widths, start, steps, accepting, layer_ends=None):
        self._init_levels(n, k, order, widths, start, steps, layer_ends)
        self.accepting = self._norm_accepting(accepting)

    def _act(self, states, op):
        # numpy's boolean matmul has no BLAS kernel. The float sums are
        # integers below 2**53, so the product is exact. It runs one operator
        # at a time on blocks of _CHUNK_ROWS / 16 rows, so its float copies
        # fit in the memory of one chunk of boolean states.
        batch = np.broadcast_shapes(states.shape[:-2], op.shape[:-2])
        states = np.broadcast_to(states, batch + states.shape[-2:])
        op = np.broadcast_to(op, batch + op.shape[-2:])
        out = np.empty(batch + (states.shape[-2], op.shape[-1]), dtype=bool)
        block = _CHUNK_ROWS >> 4
        for i in np.ndindex(batch):
            mat = op[i].astype(np.float64)
            for lo in range(0, states.shape[-2], block):
                rows = states[i][lo: lo + block].astype(np.float64)
                np.greater(rows @ mat, 0, out=out[i][lo: lo + block])
        return out

    def _act_one(self, state, op):
        return op[state].any(axis=0)   # the successors of the reachable nodes

    def _pack_level(self, ell, level, w, w_next):
        mats = np.zeros((2, w, w_next), dtype=bool)
        try:
            for node, (succ0, succ1) in enumerate(level):
                for bit, succ in ((0, succ0), (1, succ1)):
                    for t in succ:
                        # int() would read a boolean row's entries as nodes 0 and 1
                        if type(t) is not int and not isinstance(t, np.integer):
                            raise ShapeError("level %d successors must be node indexes" % ell)
                        if not 0 <= t < w_next:
                            raise StructuralError("level %d successor targets a missing node" % ell)
                        mats[bit, node, t] = True
        except (TypeError, ValueError):
            raise ShapeError("level %d rows must be pairs of successor sets" % ell) from None
        return mats[0], mats[1]

    def _readout(self, states):
        return states[..., sorted(self.accepting)].any(axis=-1).astype(np.uint8)


class Pobdd(LeveledProgram):
    """Probabilistic leveled program: row-stochastic transitions, accepting sinks."""

    __slots__ = ("start", "accepting", "epsilon")
    _FIELDS = ("n", "k", "order", "widths", "start", "steps", "accepting", "epsilon", "layer_ends")
    _DTYPE = np.float64

    def __init__(self, n, k, order, widths, start, steps, accepting, epsilon, layer_ends=None):
        self._init_levels(n, k, order, widths, start, steps, layer_ends)
        self.accepting = self._norm_accepting(accepting)
        self.epsilon = float(epsilon)

    def _pack_level(self, ell, level, w, w_next):
        mats = _as_level(level, (w, 2, w_next), np.float64,
                         "level %d rows must be (bit-0, bit-1) pairs of length-%d vectors"
                         % (ell, w_next))
        if np.any(mats < -limits.TOL):
            raise StructuralError("level %d has a negative probability" % ell)
        if np.any(np.abs(mats.sum(axis=2) - 1.0) > limits.TOL):
            raise StructuralError("level %d has a non-stochastic row" % ell)
        return mats[:, 0].copy(), mats[:, 1].copy()

    def _act_one(self, state, op):
        live = state.nonzero()[0]   # only the rows of nodes with mass contribute
        return state[live] @ op[live]

    def _readout(self, states):
        return states[..., sorted(self.accepting)].sum(axis=-1)


def width(program):
    """Maximum level size — the complexity measure used throughout. A quantum
    program has one state space for every level, so its width is its dimension."""
    return max(program.widths)


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


def _evaluate(program, x):
    """The per-input reference route: one plain loop over the levels. Each
    step touches only the live states (`_act_one`): the rows of the nonzero
    entries of a distribution, or the successors of the reachable nodes."""
    bits = _input_bits(x, program.n)
    n, perm = program.n, program.order.perm
    state = program._first()
    for ell in range(program.k * n):
        state = program._act_one(state, program._pair(ell)[bits[perm[ell % n] - 1]])
        if (ell + 1) % n == 0:
            end = program.layer_ends[ell // n]
            if end is not None:
                state = program._end(state, end)
    return program._readout(state)


def eval_obdd(program, x):
    """Follow the unique consistent path; return the sink bit."""
    return int(_evaluate(program, x))


def eval_nobdd(program, x):
    """1 iff some consistent path reaches an accepting sink (set propagation)."""
    return int(_evaluate(program, x))


def eval_pobdd(program, x):
    """Acceptance probability: forward-propagated node distribution mass on accepting sinks."""
    return float(_evaluate(program, x))


def index_bits(idx, n):
    """The inputs with truth-table indexes `idx` as rows of bits, x1 first."""
    return ((np.asarray(idx, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)


@functools.lru_cache(maxsize=8)
def _all_inputs(n):
    """Every input as a row of bits, in truth-table order (read-only)."""
    bits = index_bits(limits.table_indexes(n), n)
    bits.setflags(write=False)
    return bits


def _padded(program):
    """The program with every level padded to its widest one, so that levels
    can be applied in any order. Rows of padded nodes go to node 0. They are
    unreachable in the program's own order; in another order they are used
    only when the widths differ, and the commutativity check is then free to
    answer False."""
    w = width(program)
    if all(x == w for x in program.widths):
        return program
    last = np.arange(w)
    last[program.widths[-1]:] = -1
    return program._rebuilt(
        widths=[w] * len(program.widths),
        steps=[tuple(program._pad(op, w) for op in pair) for pair in program.steps],
        layer_ends=[None if e is None else _pad_map(e, w) for e in program.layer_ends],
        **program._readout_on(last),
    )


def propagate(program, bits):
    """Output of any program kind on each row of `bits`, a (B, n) 0/1 matrix:
    the sink bit, 1 iff an accepting node is reachable, or the acceptance
    probability."""
    if not isinstance(program, LeveledProgram):
        raise ShapeError("propagate expects a leveled or quantum program")
    bits = np.asarray(bits, dtype=bool)
    n, perm = program.n, program.order.perm
    if bits.ndim != 2 or bits.shape[1] != n:
        raise ShapeError("expected a (B, %d) bit matrix" % n)
    out = []
    for lo in range(0, max(bits.shape[0], 1), _CHUNK_ROWS):
        columns = np.ascontiguousarray(bits[lo: lo + _CHUNK_ROWS].T)
        states = program._first(columns.shape[1])
        for ell in range(program.k * n):
            states = program._step(states, program._pair(ell), columns[perm[ell % n] - 1])
            if (ell + 1) % n == 0 and program.layer_ends[ell // n] is not None:
                states = program._end(states, program.layer_ends[ell // n])
        out.append(program._readout(states))
    return np.concatenate(out)


def _in_table_order(outputs, perms):
    """Outputs of the orders `perms` (rows of 0-based variables), in which
    bit ell of order t's row number is the bit read at level ell, as one row
    per order in truth-table order."""
    t, n = perms.shape
    # order t's output on input i: flat index t * 2**n + sum(2**level(v) for v set in i)
    weight, h = 1 << np.argsort(perms, axis=1), n // 2
    high = (_all_inputs(h) @ weight[:, :h].T).T + (np.arange(t) << n)[:, None]
    low = _all_inputs(n - h) @ weight[:, h:].T
    return outputs.ravel()[(high[:, :, None] + low.T[:, None, :]).reshape(t, -1)]


def _whole_table(program):
    """Output of any program kind on every input, in truth-table order: what
    `propagate` gives on all 2**n inputs, from one prefix-trie pass in the
    program's own order. Bit ell of a state's row number is the bit read at
    level ell of a layer, as in `_permuted_profile`. The first layer's first
    c = log2(_CHUNK_ROWS) levels map the trie through both operators, with
    the new bit on top; the bits read at later levels are fixed per block of
    2**c rows, so at most _CHUNK_ROWS state rows are computed at a time."""
    n = program.n
    limits.check(n, limits.TABLE_CAP, "n of a 2**n table")
    c = min(n, _CHUNK_ROWS.bit_length() - 1)
    prefix = program._first(1)
    for ell in range(c):
        prefix = np.concatenate([program._act(prefix, op) for op in program._pair(ell)])
    out = []
    for block in range(1 << (n - c)):
        states = prefix
        for ell in range(program.k * n):
            pos, pair = ell % n, program._pair(ell)
            if pos >= c:
                states = program._act(states, pair[block >> (pos - c) & 1])
            elif ell >= n:
                halves = states.reshape((-1, 2) + states.shape[1:])
                states = np.concatenate([program._act(halves[:, b], pair[b]) for b in (0, 1)])
            if pos == n - 1 and program.layer_ends[ell // n] is not None:
                states = program._end(states, program.layer_ends[ell // n])
        out.append(program._readout(states))
    return _in_table_order(np.concatenate(out), np.array([program.order.perm]) - 1)[0]


def rounded_table(program):
    """0/1 output of any program kind on every input; an acceptance
    probability above 1/2 rounds to 1, a tie to 0."""
    return (_whole_table(program) > 0.5).astype(np.uint8)


def function_of(program):
    """Truth table computed by a deterministic or nondeterministic program."""
    if not isinstance(program, (LeveledObdd, Nobdd)):
        raise ShapeError("function_of expects a deterministic or nondeterministic program")
    return BoolFn(program.n, _whole_table(program))


def acceptance_table(program):
    """Acceptance probability of a Pobdd on every input."""
    if not isinstance(program, Pobdd):
        raise ShapeError("acceptance_table expects a probabilistic program")
    return _whole_table(program)


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


def _permuted_profile(padded, perms):
    """Output of the padded program on every input, in truth-table order, with
    its variables read in each order of `perms` instead: one row per order.

    Bit ell of a state's row number is the bit read at level ell of a layer:
    the first layer adds each level's bit as the new top bit, and later ones
    read bit 0 and rotate it to the top, back in place at each layer end."""
    n, perms = padded.n, np.asarray(perms, dtype=np.int64) - 1
    t = perms.shape[0]
    position = sorted(range(n), key=padded.order.perm.__getitem__)
    states = padded._first(t)[:, None]
    rest = states.shape[2:]
    offsets = np.arange(2 * t).reshape(t, 2, 1) * padded.widths[0]   # of the (order, bit) maps
    for j in range(padded.k):
        stack = np.array([padded._pair(j * n + p) for p in position])
        read = (t, -1, 1 if j == 0 else 2) + rest
        for var in perms.T:
            view = states.reshape(read).swapaxes(1, 2)
            if padded._MATRIX:
                states = padded._act(view, stack[var]).reshape((t, -1) + rest)
            else:
                states = stack[var].ravel()[view + offsets].reshape(t, -1)
        if padded.layer_ends[j] is not None:
            states = padded._end(states, padded.layer_ends[j])
    return _in_table_order(padded._readout(states), perms)


def sample_orders(n, trials, seed):
    """Deterministically sampled variable orders (all n! when n <= limits.EXHAUSTIVE_PERM_CAP)."""
    return list(_orders(n, trials, seed))


def _orders(n, trials, seed):
    """The orders of `sample_orders`, drawn one at a time."""
    if n <= limits.EXHAUSTIVE_PERM_CAP:
        yield from itertools.permutations(range(1, n + 1))
        return
    rng = random.Random(seed)
    for _ in range(trials):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        yield tuple(perm)


def _commutes_pairwise(padded, tol):
    """The certificate: True when, within every layer, the operators of every
    two distinct variables commute (exactly for index maps and boolean
    relations, within `tol` entrywise for stochastic and unitary matrices).
    Then every order composes each layer's operators to the same product, so
    the output on every input is that of the program's own order. Each
    operator acts, with the kind's `_act`, on the basis states (the identity
    operator); one pair of variables is compared at a time."""
    n, w = padded.n, padded.widths[0]
    basis = padded._map_op(np.arange(w), w)
    for j in range(padded.k):
        pairs = [padded._pair(j * n + p) for p in range(n)]
        images = [np.stack([padded._act(basis, op) for op in pair]) for pair in pairs]
        for a, b in itertools.combinations(range(n), 2):
            a_first = np.stack([padded._act(images[a], op) for op in pairs[b]])
            b_first = np.stack([padded._act(images[b], op) for op in pairs[a]]).swapaxes(0, 1)
            if a_first.dtype.kind in "bi":
                if not np.array_equal(a_first, b_first):
                    return False
            elif np.any(np.abs(a_first - b_first) > tol):
                return False
    return True


def is_commutative(program, trials=limits.COMMUTATIVITY_ORDERS, seed=0, tol=limits.TOL):
    """True iff reading the variables in any order, each with its own
    operators, leaves the output on every input unchanged (within `tol` for
    acceptance probabilities). Works for every program kind.

    Both routes run on the copy padded to the widest level (`_padded`). The
    certificate (`_commutes_pairwise`) comes first: if, within each layer,
    the operators of every two variables commute, the answer is True, for
    any n and without a 2**n table. Otherwise the sampled check decides:
    `sample_orders` gives the `trials` orders tried (limits.COMMUTATIVITY_ORDERS
    by default, as in the lift's gate), and functional equality is checked on
    all 2**n inputs (n <= limits.COMMUTATIVITY_CAP). The padding
    rows go to node 0, so a program with unequal level widths may be called
    non-commutative even though it is order-independent.

    The sampled check draws and runs the own order and the sampled ones in
    chunks of at most max(1, _CHUNK_ROWS >> n) orders, the memory of one
    `propagate` chunk: up to three in the first, then at most three times
    all before, so an early difference is found after little work.
    """
    n = program.n
    padded = _padded(program)
    if _commutes_pairwise(padded, tol):
        return True
    limits.check(n, limits.COMMUTATIVITY_CAP, "n of the commutativity check")
    orders = itertools.chain([program.order.perm], _orders(n, trials, seed))
    budget, done = max(1, _CHUNK_ROWS >> n), 0
    while chunk := list(itertools.islice(orders, min(budget, 3 * max(done, 1)))):
        profiles = _permuted_profile(padded, chunk)
        if not done:
            baseline = profiles[0]
        if np.any(np.abs(profiles - baseline.astype(np.float64)) > tol):
            return False
        done += len(chunk)
    return True


def _embedded(program, kind, **fields):
    """The deterministic program as a `kind` program whose operators are its index maps."""
    steps = [tuple(kind._map_op(t, program.widths[ell + 1]) for t in pair)
             for ell, pair in enumerate(program.steps)]
    return kind(n=program.n, k=program.k, order=program.order, widths=program.widths,
                start=program.start, steps=_Packed(steps),
                accepting=np.flatnonzero(program.sink_values), layer_ends=program.layer_ends,
                **fields)


def embed_obdd_as_nobdd(program):
    """Deterministic program as an Nobdd with singleton successor sets."""
    return _embedded(program, Nobdd)


def embed_obdd_as_pobdd(program, epsilon=0.5):
    """Deterministic program as a Pobdd with one-hot rows (probability 0/1)."""
    return _embedded(program, Pobdd, epsilon=epsilon)


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
