"""Leveled branching programs (k-layer OBDD variants) of every kind, the one
engine that runs them, width/size measures, a full binary-tree builder, and
the commutativity check.

A program has k*n + 1 levels; level ell (0-based) of layer j reads variable
order.perm[ell % n], and nodes on a level are 0-indexed. `LeveledProgram`
holds what the kinds share: n, k, the order, the level widths, the packed
operator pair of every level (`steps`, one operator per value of the bit
read) and the layer-end maps. An operator is either an index map (int64,
node i -> m[i]) or a dense matrix in the kind's semiring; the kinds differ
only in their matrices, their state and how the last state is read out:

  LeveledObdd     index maps only            node           sink bit
  Nobdd           boolean matrix (w, w')     reachable set  1 iff a node accepts
  Pobdd           stochastic matrix (w, w')  distribution   accepting mass
  QuantumProgram  unitary (dim, dim)         amplitudes     accepting |amp|^2
                  (quantum.py; one pair per variable, repeated each layer)

Layer ends are maps; per-node rows pack to matrices. A lift's address
levels, a lift's value level whose base operators are all maps, the embedded
deterministic programs and every exact 0/1 permutation that the quantum
constructor reads stay maps. A map acts on vector states on every kind alike
(`_map_act`), with its dense matrix's numbers bit for bit.

A program runs on two routes. `_whole_table` gives the output on all 2**n
inputs from one prefix-trie pass in the program's own order; every
whole-table routine and the exhaustive bounded-error check use it. A level
that sends rows through both operators of its pair is one product on the
stacked pair when both are matrices, and one action per operator otherwise.
The per-input evaluators (`eval_obdd`, `eval_nobdd`, `eval_pobdd` and
`quantum.accept_probability`) and the sampled bounded-error check share
`_evaluate`, the reference route that the table is tested against. It walks
one input through the levels on Python scalars, over each operator's
per-input form: the nonzero (target, weight) entries of every node's row
(one entry for a map), or a plain list of targets on the deterministic kind,
built once per distinct operator object on the first per-input call. The
state holds only the live nodes: one node, the set of reachable nodes, or a
dict from each node with mass to its mass. So a step costs what one input's
state needs, not the whole operator. The quantum kind walks a dense
amplitude vector: a map's form is its inverse permutation and its step is a
gather; any other unitary stays a dense `g @ state` product.

The commutativity check has two routes. The certificate
(`_commutes_pairwise`) comes first: within each layer, the operators of every
two distinct variables must commute on the states that some order can meet
them in, found by one reachability scan per layer. The start rows' images
under every operator are made once per layer, and each side of every pair is
one of them acted on by the other operator: one gather over a chunk of pairs
for index maps, one 2-d product per position for matrices; a layer that
mixes maps and matrices is compared as matrices. It takes O(k*n) operator
products and no 2**n table. A program that fails it goes to the sampled
route: each sampled order gives a program that reads the variables in that
order with their own operators (`_reordered`), and its whole table
(`_permuted_profile`) is compared with the program's own; the check returns
False at the first order that differs.

Conventions:
  * `layer_ends` is an optional per-layer endomap applied to the node reached
    after the layer's last transition; it is pinned in place (never permuted)
    by the commutativity check and by the reordering lifts, which is what
    lets multi-layer walks hand state across layer boundaries without breaking
    within-layer commutativity;
  * programs are immutable after construction; width is max level size and no
    reduction/sharing pass is ever applied (width of the explicit leveled form
    is the complexity measure of interest);
  * so each program derives these once, on first use, and keeps them: the
    per-input forms, the copy padded to the widest level (none when the
    program is its own copy), the whole table (read-only; callers that
    write get a copy) and the certificate's verdict per tolerance. The
    sampled route's verdict is not kept, since it depends on the trials and
    the seed.
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


def _map_act(states, m, width, out=None):
    """Vector states (nodes on the last axis) moved by the index map m onto
    `width` nodes, into `out` if given: a permutation is a gather through
    its inverse; any other map adds each node's entries into its target's in
    source order, the sums of np.add.at, several times faster than its 2-d
    path (on booleans += is or). Both equal the dense product bit for bit: a
    0/1 product adds only exact zeros to a permutation column's one term,
    and a 2-to-1 column's two terms commute."""
    if out is None:
        out = np.empty(states.shape[:-1] + (width,), dtype=states.dtype)
    if m.shape[0] == width and np.bincount(m, minlength=width).max() == 1:
        # the indexes are in range, and numpy's default mode would buffer `out`
        return np.take(states, np.argsort(m), axis=-1, out=out, mode="clip")
    out[...] = 0
    targets = list(out.swapaxes(0, -1))   # one view per target node, added into in place
    for t, col in zip(m.tolist(), states.swapaxes(0, -1)):
        targets[t] += col
    return out


class _Packed(tuple):
    """Level operators already in a kind's packed form (the lifts and other
    internal builders pass these instead of per-node rows)."""


class LeveledProgram:
    """What every program kind shares. A kind supplies its constructor
    fields (`_FIELDS`), the packing of one level's rows (`_pack_level`), the
    state dtype or start (`_DTYPE`, `_first`), its matrix product
    (`_product`), its per-input route (`_form`, `_walk`, `_readout_one`) and
    its readout (`_readout`, `_readout_on`). The defaults here are those of
    the vector kinds, whose states are row vectors multiplied on the right;
    the deterministic kind, whose states are nodes, has its own `_act` and
    `_through_pair`. Each method reads from an operator itself whether it is
    an index map or a matrix. A program is immutable, so what is derived
    from it is derived once and kept on it: the per-input forms (`_forms`),
    the padded copy (`_padded_copy`, left empty when the program is its
    own), the read-only whole table (`_table`) and the certificate's verdict
    per tolerance (`_certificates`)."""

    __slots__ = ("n", "k", "order", "widths", "steps", "layer_ends", "_forms", "_padded_copy",
                 "_table", "_certificates", "__weakref__")
    _MATRIX = True   # states are node vectors; check_program counts operators as matrices

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
        self._derive_later()

    def _derive_later(self):
        """Nothing is derived yet; each derived field is filled on first use."""
        self._forms = self._padded_copy = self._table = None
        self._certificates = {}

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

    def _act(self, states, op, width=None, out=None):
        """The kind's product with a matrix; `_map_act` onto `width` (op's length by default)."""
        if op.dtype.kind == "i":
            return _map_act(states, op, op.shape[0] if width is None else width, out)
        return self._product(states, op, out)

    def _product(self, states, op, out=None):
        return np.matmul(states, op, out=out)

    def _through_pair(self, halves, pair, width):
        """The rows of halves[b] acted on by pair[b] onto `width` nodes, bit
        0's first (halves of length 1 go through both operators): one product
        on a stacked pair of matrices, else each operator into its part of one output."""
        if all(op.dtype.kind != "i" for op in pair):
            out = self._act(halves, np.stack(pair))
        else:
            out = np.empty((len(pair),) + halves.shape[1:-1] + (width,), dtype=halves.dtype)
            for b, op in enumerate(pair):
                self._act(halves[b % len(halves)], op, width, out=out[b])
        return out.reshape((-1,) + out.shape[2:])

    def _side_by_side(self, ops):
        """One operator acting as each of the stacked `ops`, their images side by side."""
        return ops.swapaxes(0, 1).reshape(ops.shape[1], -1)

    def _pad(self, op, width):
        """op extended to `width` nodes; the added nodes go to node 0."""
        if op.dtype.kind == "i":
            return np.concatenate([op, np.zeros(width - op.shape[0], dtype=np.int64)])
        big = np.zeros((width, width), dtype=op.dtype)
        big[: op.shape[0], : op.shape[1]] = op
        big[op.shape[0]:, 0] = 1
        return big

    def _readout_on(self, nodes):
        """Readout fields of a program whose final node i acts as this
        program's final node nodes[i] (padding nodes, -1, reject)."""
        return {"accepting": np.flatnonzero(np.isin(nodes, sorted(self.accepting)))}

    def _per_input(self):
        """The per-input forms of every level's operator pair and of every
        layer end (None where a layer has none), built on the first call,
        once per distinct operator object: a lift repeats a few operators
        over all its levels."""
        if self._forms is None:
            distinct = {id(op): op for pair in self.steps for op in pair}
            built = {key: self._form(op) for key, op in distinct.items()}
            levels = tuple(tuple(built[id(op)] for op in self._pair(ell))
                           for ell in range(self.k * self.n))
            ends = tuple(None if end is None else self._form(end) for end in self.layer_ends)
            self._forms = levels, ends
        return self._forms

    def _form(self, op):
        """Per-input form of an operator: each row's nonzero (target, weight)
        entries; a map's row i has the one entry (m[i], 1)."""
        if op.dtype.kind == "i":
            one = np.ones((), dtype=self._DTYPE).item()
            return [[(t, one)] for t in op.tolist()]
        flat = np.flatnonzero(op != 0)   # numpy's 2-d nonzero is several times slower
        rows, cols = np.divmod(flat, op.shape[1])
        form = [[] for _ in range(op.shape[0])]
        for r, c, weight in zip(rows.tolist(), cols.tolist(), op.ravel()[flat].tolist()):
            form[r].append((c, weight))
        return form

    def _readout_one(self, state):
        return self._readout(state)

    def _dense(self, op):
        """The matrix of a square operator; a map's row i has its 1 in column m[i]."""
        if op.dtype.kind != "i":
            return op
        mat = np.zeros((op.shape[0],) * 2, dtype=self._DTYPE)
        mat[np.arange(op.shape[0]), op] = 1
        return mat

    def _block_op(self, ops, targets):
        """Operator on (slot, node) pairs that applies the square ops[c] to
        the nodes of slot c and moves them to slot targets[c]: a map when
        every ops[c] is one, else a matrix (which a quantum lift, xor-only,
        keeps block-diagonal, so it reads the same in its column convention)."""
        q, w = len(ops), ops[0].shape[0]
        if all(op.dtype.kind == "i" for op in ops):
            return (targets[:, None] * w + np.stack(ops)).ravel()
        big = np.zeros((q, w, q, w), dtype=self._DTYPE)
        big[np.arange(q), :, targets, :] = np.stack([self._dense(op) for op in ops])
        return big.reshape(q * w, q * w)

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

    def _act(self, states, op, width=None):
        return op[states]

    def _through_pair(self, halves, pair, width):
        # node-index states: one gather per operator, faster than a stacked one
        return np.concatenate([op[halves[b % len(halves)]] for b, op in enumerate(pair)])

    def _form(self, op):
        return op.tolist()

    def _walk(self, forms):
        node = self.start
        for targets in forms:
            node = targets[node]
        return node

    def _readout(self, states):
        return self.sink_values[states]

    def _readout_on(self, nodes):
        return {"sink_values": np.where(nodes >= 0, self.sink_values[nodes], 0)}


class Nobdd(LeveledProgram):
    """Nondeterministic leveled program: set-valued successors, accepting sinks."""

    __slots__ = ("start", "accepting")
    _FIELDS = ("n", "k", "order", "widths", "start", "steps", "accepting", "layer_ends")
    _DTYPE = bool

    def __init__(self, n, k, order, widths, start, steps, accepting, layer_ends=None):
        self._init_levels(n, k, order, widths, start, steps, layer_ends)
        self.accepting = self._norm_accepting(accepting)

    def _product(self, states, op, out=None):
        # numpy's boolean matmul has no BLAS kernel; the float sums are
        # integers below 2**53, so exact. One float product covers the whole
        # batch on a block of limits.CHUNK_ROWS / 16 rows over the batch (an
        # operator with m times the states' columns counting as m), so its
        # float copies fit in the memory of one chunk of boolean states.
        batch = np.broadcast_shapes(states.shape[:-2], op.shape[:-2])
        if out is None:
            out = np.empty(batch + (states.shape[-2], op.shape[-1]), dtype=bool)
        mat = op.astype(np.float64)
        wide = max(1, op.shape[-1] // states.shape[-1])
        block = max(1, (limits.CHUNK_ROWS >> 4) // (wide * math.prod(batch)))
        for lo in range(0, states.shape[-2], block):
            rows = states[..., lo: lo + block, :].astype(np.float64)
            np.greater(rows @ mat, 0, out=out[..., lo: lo + block, :])
        return out

    def _walk(self, forms):
        """The reachable nodes; paths are never counted."""
        reached = {self.start}
        for rows in forms:
            reached = {t for node in reached for t, _ in rows[node]}
        return reached

    def _readout_one(self, reached):
        return not self.accepting.isdisjoint(reached)

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

    def _walk(self, forms):
        """The nodes with mass, each with its mass."""
        dist = {self.start: 1.0}
        for rows in forms:
            nxt = {}
            for node, mass in dist.items():
                for t, p in rows[node]:
                    nxt[t] = nxt.get(t, 0.0) + mass * p
            dist = nxt
        return dist

    def _readout(self, states):
        return states[..., sorted(self.accepting)].sum(axis=-1)

    def _readout_one(self, dist):
        return sum(dist.get(s, 0.0) for s in sorted(self.accepting))


def width(program):
    """Maximum level size — the complexity measure used throughout. A quantum
    program has one state space for every level, so its width is its dimension."""
    return max(program.widths)


def size(program):
    """Total node count over all levels (reported alongside width)."""
    return sum(program.widths)


_BITS = {0: 0, 1: 1, "0": 0, "1": 1}   # a bool or numpy int equal to 0 or 1 finds its bit


def _input_bits(x, n):
    """Input x as n ints 0 or 1, in one pass; other entries (" 1") are read with int()."""
    # a list can be read twice; Python scalars find their keys several times faster
    x = x.tolist() if isinstance(x, np.ndarray) else list(x)
    try:
        bits = [_BITS[b] for b in x]
    except (KeyError, TypeError):   # TypeError: an unhashable entry
        bits = [int(b) for b in x]
        if len(bits) == n and not set(bits) <= {0, 1}:
            raise ShapeError("input bits must be 0 or 1") from None
    if len(bits) != n:
        raise ShapeError("expected %d input bits, got %d" % (n, len(bits)))
    return bits


def _evaluate(program, x):
    """The per-input reference route: the per-input forms of the operators
    that the bits select, each layer's end after its last level, walked from
    the start state (`_walk`) and read out."""
    bits = _input_bits(x, program.n)
    n = program.n
    levels, ends = program._per_input()
    reads = [bits[v - 1] for v in program.order.perm]
    walk = []
    for j, end in enumerate(ends):
        walk += [pair[b] for pair, b in zip(levels[j * n: (j + 1) * n], reads)]
        if end is not None:
            walk.append(end)
    return program._readout_one(program._walk(walk))


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
    can be applied in any order. Rows of padded nodes go to node 0. The
    certificate compares only the rows that own-order subsequences reach, so
    a padded row matters only when skipping levels lands on it; the sampled
    route reads every input in each order, padded rows included.

    The copy is built once and kept on the program. A program whose levels
    all have one width is its own copy and keeps nothing, since keeping
    itself would make a reference cycle."""
    w = width(program)
    if all(x == w for x in program.widths):
        return program
    if program._padded_copy is None:
        last = np.arange(w)
        last[program.widths[-1]:] = -1
        program._padded_copy = program._rebuilt(
            widths=[w] * len(program.widths),
            steps=[tuple(program._pad(op, w) for op in pair) for pair in program.steps],
            layer_ends=[None if e is None else program._pad(e, w) for e in program.layer_ends],
            **program._readout_on(last),
        )
    return program._padded_copy


def _in_table_order(outputs, perm):
    """Outputs of a program reading its variables in order `perm` (0-based),
    in which bit ell of the row number is the bit read at level ell, in
    truth-table order."""
    n = perm.shape[0]
    # the output on input i is at row sum(2**level(v) for v set in i)
    weight, h = 1 << np.argsort(perm), n // 2
    high, low = _all_inputs(h) @ weight[:h], _all_inputs(n - h) @ weight[h:]
    return outputs[(high[:, None] + low).ravel()]


def _whole_table(program):
    """Output of any program kind on every input, in truth-table order, from
    one prefix-trie pass in the program's own order. Bit ell of a state's row
    number is the bit read at level ell of a layer. The first layer's first
    c = log2(limits.CHUNK_ROWS) levels map the trie through both operators,
    with the new bit on top; the bits read at later levels are fixed per
    block of 2**c rows, so at most limits.CHUNK_ROWS state rows are computed
    at a time. A later layer's first c levels re-split the rows on their
    lowest bit, which each level moves to the top. A level whose pair is two
    matrices is one product on the stacked pair (`LeveledProgram._through_pair`).

    The table is computed once and kept on the program, read-only; a caller
    that needs to write gets its own copy."""
    if program._table is not None:
        return program._table
    n = program.n
    limits.check(n, limits.TABLE_CAP, "n of a 2**n table")
    c = min(n, limits.CHUNK_ROWS.bit_length() - 1)
    prefix = program._first(1)
    for ell in range(c):
        prefix = program._through_pair(prefix[None], program._pair(ell), program.widths[ell + 1])
    out = []
    for block in range(1 << (n - c)):
        states = prefix
        for ell in range(program.k * n):
            pos, pair, width = ell % n, program._pair(ell), program.widths[ell + 1]
            if pos >= c:
                states = program._act(states, pair[block >> (pos - c) & 1], width)
            elif ell >= n:
                halves = states.reshape((-1, 2) + states.shape[1:]).swapaxes(0, 1)
                states = program._through_pair(halves, pair, width)
            if pos == n - 1 and program.layer_ends[ell // n] is not None:
                states = program._act(states, program.layer_ends[ell // n], width)
        out.append(program._readout(states))
    program._table = _in_table_order(np.concatenate(out), np.array(program.order.perm) - 1)
    program._table.setflags(write=False)
    return program._table


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


def _reordered(padded, order):
    """The padded program reading its variables in `order`, each with its own
    operators in every layer; the layer ends stay pinned. A quantum program
    is its own padded copy."""
    n, order = padded.n, _norm_order(order, padded.n)
    position = {v: p for p, v in enumerate(padded.order.perm)}
    # a quantum program stores one layer of pairs, which every layer repeats
    layers = range(0, len(padded.steps), n)
    steps = [padded.steps[j + position[v]] for j in layers for v in order.perm]
    return padded._rebuilt(order=order, steps=steps)


def _permuted_profile(padded, perm):
    """Output of the padded program on every input, in truth-table order, with
    its variables read in order `perm` instead."""
    return _whole_table(_reordered(padded, perm))


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


def _successors(padded, states, edges):
    """The nodes reached from the nodes set in each row of the boolean
    `states` through either operator of a pair: `edges` is the pair's summed
    magnitudes for matrices (a nonzero entry is an edge), or its stacked maps."""
    if edges.dtype.kind != "i":
        return padded._act(states.astype(np.float64), edges) > 0
    flat = np.flatnonzero(states)   # numpy's 2-d nonzero is several times slower
    nodes = flat % states.shape[1]
    out = np.zeros_like(states)
    out.ravel()[edges[:, nodes] + (flat - nodes)] = True
    return out


def _then(images, ops):
    """The images (node indexes) mapped by the index maps `ops`, batched over
    the leading axes, which broadcast: one flat gather."""
    w = ops.shape[-1]
    offsets = np.arange(0, ops.size, w).reshape(ops.shape[:-1] + (1,))
    return ops.ravel()[images + offsets]


def _commutes_pairwise(padded, tol):
    """The certificate: True when, within every layer, the operators of every
    two distinct variables commute on the states where an order can meet them
    (exactly for index maps and boolean relations, within `tol` entrywise for
    stochastic and unitary matrices). Then every order leaves each layer in the
    state of the program's own order, so the output on every input is that of
    the own order.

    For positions a < b of the own order, A (position a's operators) and B
    (position b's) must agree as A·B and B·A on the rows of the states
    reachable by own-order subsequences of the positions before b that skip
    a. That suffices: in any order of a set of variables, move the last one
    left to its own-order place by adjacent swaps; just before each swap the
    state is the own-order state of a subsequence that skips both swapped
    variables, so by induction on the set's size every order gives the
    own-order state. The first layer starts from the start state, and each
    later one from the layer-end image of the states reached after the
    previous layer.

    One scan per layer gives every such set (reachability follows the nonzero
    entries). The layer's pairs are then compared on the union of their rows
    (`_pairs_commute`), as maps when all of them are maps and as matrices
    otherwise."""
    n, w = padded.n, padded.widths[0]
    reached = padded._first() != 0 if padded._MATRIX else np.arange(w) == padded._first()
    later = np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None]   # later[a, b]: a < b
    for j in range(padded.k):
        pairs = [padded._pair(j * n + p) for p in range(n)]
        if len({op.dtype.kind == "i" for pair in pairs for op in pair}) > 1:
            pairs = [[padded._dense(op) for op in pair] for pair in pairs]
        stack = np.array(pairs)
        # a boolean pair's edges stay boolean: + is or
        edges = stack if stack.dtype.kind == "i" else np.abs(stack[:, 0]) + np.abs(stack[:, 1])
        # states[a]: the states of own-order subsequences that skip position
        # a; states[n]: those of the whole layer so far; before[a, b]: states[a]
        # before position b
        states = np.tile(reached, (n + 1, 1))
        before = np.empty((n, n, w), dtype=bool)
        for b in range(n):
            before[:, b] = states[:n]
            step = _successors(padded, states, edges[b])
            step[b] = False
            states[:n] |= step[:n]
            states[n] = step[n]
        reached = states[n]
        masks = before & later
        rows = np.flatnonzero(masks.any(axis=(0, 1)))
        if rows.size and not _pairs_commute(padded, stack, rows, masks[:, :, rows], tol):
            return False
        if padded.layer_ends[j] is not None:
            mapped = np.zeros(w, dtype=bool)
            mapped[padded.layer_ends[j][reached]] = True
            reached = mapped
    return True


def _pairs_commute(padded, stack, rows, masks, tol):
    """Whether stack[a][α]·stack[b][β] and stack[b][β]·stack[a][α] agree on
    the `rows` (start nodes, or their basis vectors for matrices) that
    masks[a, b] selects, for all a < b and bits. first = start·stack is
    made once, and each side of a pair is first[a]·stack[b] or
    first[b]·stack[a]. The pairs go in chunks of at most limits.CHUNK_ROWS
    rows of a state's width per side. For index maps a chunk is any run of
    pairs, and each side is one gather over it. For matrices a chunk is one
    position a with a run of later positions: each side is then one 2-d
    product on operators set side by side, which keeps BLAS (a broadcast
    stack of products does not). first is made in runs of as many positions
    as a chunk holds, so no product sets more operators side by side than a
    chunk does."""
    n, r, w = stack.shape[0], rows.shape[0], padded.widths[0]
    if stack.dtype.kind == "i":
        first = _then(rows, stack)   # [position, bit, row]
        a_all, b_all = np.triu_indices(n, 1)
        chunk = max(1, limits.CHUNK_ROWS * w // (4 * r))
        for lo in range(0, a_all.size, chunk):
            a, b = a_all[lo: lo + chunk], b_all[lo: lo + chunk]
            a_first = _then(first[a][:, :, None], stack[b][:, None])   # [pair, α, β, row]
            b_first = _then(first[b][:, None], stack[a][:, :, None])
            if _differ(a_first, b_first, masks[a, b][:, None, None], tol):
                return False
        return True
    ops = stack.reshape((2 * n,) + stack.shape[2:])   # [(position, bit), ...]
    start = np.eye(w, dtype=stack.dtype)[rows]
    group = max(1, limits.CHUNK_ROWS // (4 * r))
    first = np.concatenate([   # [(position, bit), row, node], a run of positions per product
        padded._act(start, padded._side_by_side(ops[lo: lo + 2 * group])).reshape(r, -1, w)
        .swapaxes(0, 1) for lo in range(0, 2 * n, 2 * group)])
    for a in range(n - 1):
        own = padded._side_by_side(ops[2 * a: 2 * a + 2])
        for lo in range(a + 1, n, group):
            hi = min(lo + group, n)
            a_first = padded._act(first[2 * a: 2 * a + 2].reshape(-1, w),
                                  padded._side_by_side(ops[2 * lo: 2 * hi]))
            b_first = padded._act(first[2 * lo: 2 * hi].reshape(-1, w), own)
            a_first = a_first.reshape(2, r, hi - lo, 2, w)   # [α, row, b, β, node]
            b_first = b_first.reshape(hi - lo, 2, r, 2, w).transpose(3, 2, 0, 1, 4)   # the same
            if _differ(a_first, b_first, masks[a, lo: hi].T[None, :, :, None], tol):
                return False
    return True


def _differ(x, y, mask, tol):
    """Whether x and y differ on a row that `mask` selects: exactly for index
    maps and booleans, by more than `tol` in some entry for numbers. Only the
    entries that are not bit-equal are subtracted, and commuting products
    are mostly bit-equal."""
    if x.ndim > mask.ndim:   # a matrix row: every node's entry
        mask = mask[..., None]
    unequal = (x != y) & mask
    if x.dtype.kind in "bi" or not unequal.any():
        return bool(unequal.any())
    return bool(np.any(np.abs(x[unequal] - y[unequal]) > tol))


def is_commutative(program, trials=limits.COMMUTATIVITY_ORDERS, seed=0, tol=limits.TOL):
    """True iff reading the variables in any order, each with its own
    operators, leaves the output on every input unchanged (within `tol` for
    acceptance probabilities). Works for every program kind.

    Both routes run on the copy padded to the widest level (`_padded`). The
    certificate (`_commutes_pairwise`) comes first, and the padded copy keeps
    its verdict per `tol`: if, within each layer, the operators of every two
    variables commute on the states that own-order subsequences reach before
    them, the answer is True, for any n and without a 2**n table. Otherwise
    the sampled check decides: `sample_orders` gives
    the `trials` orders tried (limits.COMMUTATIVITY_ORDERS by default, as in
    the lift's gate), and functional equality is checked on all 2**n inputs
    (n <= limits.COMMUTATIVITY_CAP). An order-independent program that fails
    the certificate, say one whose operators commute only on the states its
    readout cannot tell apart, is decided by the sample.

    The sampled check runs the whole-table pass once in the own order and
    once per other sampled order (an order equal to the own one is skipped),
    and returns False at the first order that differs. Fewer than one trial
    is refused with `ShapeError`.
    """
    if trials < 1:
        raise ShapeError("is_commutative needs at least one trial, got %r" % (trials,))
    n = program.n
    padded = _padded(program)
    if tol not in padded._certificates:
        padded._certificates[tol] = _commutes_pairwise(padded, tol)
    if padded._certificates[tol]:
        return True
    limits.check(n, limits.COMMUTATIVITY_CAP, "n of the commutativity check")
    baseline = _whole_table(padded).astype(np.float64)
    return not any(np.any(np.abs(_permuted_profile(padded, perm) - baseline) > tol)
                   for perm in _orders(n, trials, seed) if perm != padded.order.perm)


def _embedded(program, kind, **fields):
    """The deterministic program as a `kind` program with the same index maps."""
    return kind(n=program.n, k=program.k, order=program.order, widths=program.widths,
                start=program.start, steps=_Packed(program.steps),
                accepting=np.flatnonzero(program.sink_values), layer_ends=program.layer_ends,
                **fields)


def embed_obdd_as_nobdd(program):
    """Deterministic program as an Nobdd with singleton successor sets."""
    return _embedded(program, Nobdd)


def embed_obdd_as_pobdd(program, epsilon=0.5):
    """Deterministic program as a Pobdd with one-hot rows (probability 0/1)."""
    return _embedded(program, Pobdd, epsilon=epsilon)


_ROW_TEXT = {   # one row of a level's per-input form as text, per kind
    "obdd": str,
    "nobdd": lambda row: "{%s}" % "|".join(str(t) for t, _ in row),
    "pobdd": lambda row: "(%s)" % ";".join("%.12g>%d" % (p, t) for t, p in row),
}


def to_text(program):
    """Line-oriented serialization: header, one line per level, sinks line.
    Each level's rows are written from its per-input forms, so a map and its
    matrix give the same line."""
    kind = {LeveledObdd: "obdd", Nobdd: "nobdd", Pobdd: "pobdd"}.get(type(program))
    if kind is None:
        raise ShapeError("to_text expects a classical program; quantum.to_json serializes "
                         "a quantum program")
    n, row_text = program.n, _ROW_TEXT[kind]
    lines = ["%s %d %d %d order=%s" % (kind, n, program.k, width(program),
                                       ",".join(map(str, program.order.perm)))]
    for ell, level in enumerate(program._per_input()[0]):
        parts = ["%d:%s,%s" % (s, row_text(r0), row_text(r1))
                 for s, (r0, r1) in enumerate(zip(*level))]
        lines.append("L%d var=%d: %s" % (ell + 1, program.order.perm[ell % n], " ".join(parts)))
        end = program.layer_ends[ell // n] if (ell + 1) % n == 0 else None
        if end is not None:
            lines.append("Lend%d: %s" % ((ell + 1) // n, ",".join(map(str, end))))
    if kind == "obdd":
        lines.append("sinks: " + " ".join("%d=%d" % sv for sv in enumerate(program.sink_values)))
    else:
        lines.append("accepting: " + ",".join(map(str, sorted(program.accepting))))
    return "\n".join(lines) + "\n"
