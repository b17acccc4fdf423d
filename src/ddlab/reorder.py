"""Block layouts with explicit or prefix-XOR-accumulated addressing, the
function-level reordering transforms, the program-level lifts (deterministic,
nondeterministic, probabilistic, quantum), and totalization.

A layout over q value bits (q a power of two, p = log2 q) arranges the input
as q blocks of p+1 bits: p address bits (most significant first) followed by
one value bit; n = q*(p+1). Block i's address is

  * direct mode: the binary value of its own address bits;
  * xor mode:    the running XOR of the address patterns of blocks 1..i
                 (seeded with 0 before block 1).

Addresses are handled 0-based internally (the 1-based convention used in
prose is this value plus one). An input is *allowed* when the q block
addresses form a permutation of {0..q-1}. `BlockLayout.decode` is the one
decoder: it maps any (B, n) matrix of input bits to the block addresses and
value bits, and every other reading of the layout (whole tables, single
inputs, sampled rows at n too large for a table) is a call of it.

`lift` is the paper's program-level construction, one for every program
kind. Its states are q address slots times the (width-padded) base state
space. An address bit moves the slot: its operator is the slot map tensored
with the identity on base states. The value bit applies, block-diagonally,
the base program's operator of the addressed variable, and then resets the
slot (direct) or keeps the running xor (xor). The width is therefore exactly
q times the base width. Base layer-end maps stay pinned at lifted layer
boundaries, where the address slot is re-seeded to 0. `reorder_obdd`,
`reorder_nobdd`, `reorder_pobdd` and `xor_reorder_qobdd` are `lift` for one
kind each; the quantum lift needs xor mode, since a reset is not unitary.
"""
from __future__ import annotations

import itertools

import numpy as np

from .boolfn import BoolFn, PartialBoolFn
from .errors import CommutativityError, ConsistencyError, ShapeError
from . import diagrams, limits
from . import quantum as qsim

MODES = ("direct", "xor")


def _check_mode(mode):
    if mode not in MODES:
        raise ShapeError("mode must be one of %s, got %r" % ("/".join(MODES), mode))


class BlockLayout:
    """Input layout: q blocks of p+1 bits (p address bits then one value bit)."""

    __slots__ = ("q", "p", "n")

    def __init__(self, q):
        q = int(q)
        if q < 2 or q & (q - 1):
            raise ShapeError("block count q must be a power of two >= 2, got %r" % (q,))
        self.q = q
        self.p = q.bit_length() - 1
        self.n = q * (self.p + 1)

    def address_positions(self, i):
        """1-based input positions of block i's address bits (i is 1-based)."""
        base = (i - 1) * (self.p + 1)
        return tuple(base + t for t in range(1, self.p + 1))

    def value_position(self, i):
        """1-based input position of block i's value bit."""
        return i * (self.p + 1)

    def decode(self, bits, mode):
        """Per-block addresses (0-based) and value bits of every row of `bits`,
        a (B, n) matrix of 0/1 entries: two (B, q) int64 arrays (addr, vals)."""
        _check_mode(mode)
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.n:
            raise ShapeError("expected rows of %d input bits, got shape %s" % (self.n, bits.shape))
        if bits.dtype != bool and np.any((bits != 0) & (bits != 1)):
            raise ShapeError("input bits must be 0 or 1")
        blocks = bits.reshape(-1, self.q, self.p + 1).astype(np.int64)
        addr = np.zeros(blocks.shape[:2], dtype=np.int64)
        for t in range(self.p):
            addr = (addr << 1) | blocks[:, :, t]
        if mode == "xor":
            for i in range(1, self.q):   # the running xor, a column at a time
                addr[:, i] ^= addr[:, i - 1]
        return addr, blocks[:, :, self.p]

    def addresses_and_values(self, mode):
        """`decode` of all 2**n inputs in truth-table order (n <= limits.TABLE_CAP)."""
        return self.decode(diagrams._all_inputs(self.n), mode)

    def block_addresses(self, x, mode):
        """0-based addresses of the q blocks for one input (tuple of bits)."""
        return tuple(int(a) for a in self.decode([x], mode)[0][0])

    def block_values(self, x):
        return tuple(int(v) for v in self.decode([x], "direct")[1][0])

    def is_allowed(self, x, mode):
        """True iff the q block addresses form a permutation of {0..q-1}."""
        return bool(_allowed(self.decode([x], mode)[0])[0])

    def assemble_input(self, addresses, values, mode):
        """Input bits realizing the given 0-based per-block addresses and values."""
        _check_mode(mode)
        addresses, values = [int(a) for a in addresses], list(values)
        if len(addresses) != self.q or len(values) != self.q:
            raise ShapeError("need %d addresses and %d values" % (self.q, self.q))
        if any(not 0 <= a < self.q for a in addresses):
            raise ShapeError("addresses must lie in 0..q-1")
        if any(v not in (0, 1) for v in values):
            raise ShapeError("values must be 0 or 1")
        bits = [0] * self.n
        prev = 0
        for i, a in enumerate(addresses, 1):
            pattern = a ^ prev if mode == "xor" else a
            prev = a
            for t, pos in enumerate(self.address_positions(i)):
                bits[pos - 1] = (pattern >> (self.p - 1 - t)) & 1
            bits[self.value_position(i) - 1] = int(values[i - 1])
        return tuple(bits)


def _allowed(addr):
    """Which rows of (B, q) block addresses form a permutation of {0..q-1}:
    q addresses in that range do exactly when no two of them are equal."""
    allowed = np.ones(addr.shape[0], dtype=bool)
    for i, j in itertools.combinations(range(addr.shape[1]), 2):
        allowed &= addr[:, i] != addr[:, j]
    return allowed


def allowed_input_indexes(layout, mode):
    """Truth-table indexes of all allowed inputs."""
    return np.nonzero(_allowed(layout.addresses_and_values(mode)[0]))[0]


def reorder_function(f, layout, mode):
    """Partial function: defined on allowed inputs, where it equals f applied
    to the values arranged by block address (address j supplies f's j+1-th bit)."""
    _check_mode(mode)
    if not isinstance(f, BoolFn):
        raise ShapeError("reorder_function expects a total base function")
    if f.n != layout.q:
        raise ShapeError(
            "base function arity %d does not match layout q=%d" % (f.n, layout.q)
        )
    addr, vals = layout.addresses_and_values(mode)
    f_index = np.zeros(addr.shape[0], dtype=np.int64)
    for i in range(layout.q):
        f_index |= vals[:, i] << (layout.q - 1 - addr[:, i])
    defined = _allowed(addr).astype(np.uint8)
    return PartialBoolFn(layout.n, defined, f.table[f_index] & defined)


def totalize(fp, program):
    """Total function equal to fp where defined and to the program's rounded
    output elsewhere (probability > 1/2 rounds to 1, ties round to 0).

    The program must agree with fp on every defined input (after rounding);
    a disagreement raises a consistency error.
    """
    if isinstance(fp, BoolFn):
        fp = PartialBoolFn.total(fp)
    if not isinstance(fp, PartialBoolFn):
        raise ShapeError("totalize expects a partial function")
    if program.n != fp.n:
        raise ShapeError("program arity does not match the partial function")
    rounded = diagrams.rounded_table(program)
    defined = fp.defined.astype(bool)
    if not np.array_equal(rounded[defined], fp.values[defined]):
        bad = int(np.nonzero(rounded[defined] != fp.values[defined])[0][0])
        raise ConsistencyError(
            "program disagrees with the partial function on a defined input "
            "(first mismatch at defined point #%d)" % bad
        )
    return BoolFn(fp.n, np.where(defined, fp.values, rounded))


def _lift_address_maps(layout, mode):
    """Per-address-level slot maps: for level t (1-based within the block),
    maps[t-1][bit] is the address-slot endomap on {0..q-1}."""
    q, p = layout.q, layout.p
    slots = np.arange(q, dtype=np.int64)
    maps = []
    for t in range(1, p + 1):
        if mode == "direct":
            m0 = (2 * slots) % q
            m1 = (2 * slots + 1) % q
        else:
            m0 = slots.copy()
            m1 = slots ^ (1 << (p - t))
        maps.append((m0, m1))
    return maps


def lift(program, layout, mode):
    """The reordering lift of a commutative base program of any kind over
    `layout` (the quantum kind in xor mode only). Refuses a base that fails
    `diagrams.is_commutative` under its defaults, for every kind alike: a base
    whose operators of distinct variables commute pairwise within each layer
    passes at any n, and any other base is checked on all 2**n inputs under
    limits.COMMUTATIVITY_ORDERS sampled orders, which needs n <=
    limits.COMMUTATIVITY_CAP."""
    _check_mode(mode)
    if program.n != layout.q:
        raise ShapeError(
            "base program arity %d does not match layout q=%d" % (program.n, layout.q)
        )
    if isinstance(program, qsim.QuantumProgram) and (program.k != 1 or mode != "xor"):
        raise ShapeError("the quantum lift is defined for single-layer base programs in xor mode")
    q, w = layout.q, diagrams.width(program)
    limits.check_program(program.k * layout.n, q * w, program._MATRIX)
    base = diagrams._padded(program)   # the gate pads the same way, so pad once for both
    if not diagrams.is_commutative(base):
        raise CommutativityError(
            "base program failed the commutativity check; reordering is undefined for it"
        )
    slot, node = np.divmod(np.arange(q * w), w)
    address = [tuple(base._map_op(m[slot] * w + node, q * w) for m in pair)
               for pair in _lift_address_maps(layout, mode)]
    targets = np.zeros(q, dtype=np.int64) if mode == "direct" else np.arange(q)
    steps = []
    for j in range(base.k):
        pairs = [base._pair(j * base.n + base.order.position_of(c + 1) - 1) for c in range(q)]
        value = tuple(base._block_op([pair[b] for pair in pairs], targets) for b in (0, 1))
        steps += (address + [value]) * q
    layer_ends = [None if end is None and mode == "direct"
                  else (np.arange(w) if end is None else end)[node] for end in base.layer_ends]
    return base._lifted(layout.n, steps, layer_ends, node)


def _require_kind(program, kind, message):
    if not isinstance(program, kind):
        raise ShapeError(message)


def reorder_obdd(program, layout, mode):
    """Deterministic lift: states are (address slot, base state) pairs; width
    is exactly q * width(base) on every level."""
    _require_kind(program, diagrams.LeveledObdd, "reorder_obdd expects a deterministic base program")
    return lift(program, layout, mode)


def reorder_nobdd(program, layout, mode):
    """Nondeterministic lift: successor sets carried blockwise."""
    _require_kind(program, diagrams.Nobdd, "reorder_nobdd expects a nondeterministic base program")
    return lift(program, layout, mode)


def reorder_pobdd(program, layout, mode):
    """Probabilistic lift: stochastic rows carried blockwise."""
    _require_kind(program, diagrams.Pobdd, "reorder_pobdd expects a probabilistic base program")
    return lift(program, layout, mode)


def xor_reorder_qobdd(program, layout):
    """Quantum lift (xor addressing): dimension exactly q * dim(base); address
    bits act as block-index bit flips, the value bit acts block-diagonally with
    the base pair of the addressed variable."""
    _require_kind(program, qsim.QuantumProgram, "xor_reorder_qobdd expects a quantum base program")
    return lift(program, layout, "xor")
