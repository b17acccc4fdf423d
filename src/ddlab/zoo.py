"""The function catalogue and the explicit program constructions: equality and
shifted-equality functions, modular weight functions, weighted-sum functions
with padding, pointer-jumping instances with their layered programs, and the
rotation-ensemble quantum fingerprinting machines with their multiplier
search.

Index conventions: variables 1-based; truth-table index has x_1 as the most
significant bit. Addressed layouts come from reorder.BlockLayout (0-based
addresses internally).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import limits
from .boolfn import BoolFn, VarOrder
from .diagrams import LeveledObdd, Nobdd, Pobdd, _Packed, index_bits
from .errors import ShapeError
from .quantum import QuantumProgram
from .reorder import BlockLayout, reorder_obdd


# ---------------------------------------------------------------------------
# plain functions


def eq(n):
    """1 iff the first half of the input equals the second half."""
    n = int(n)
    if n < 2 or n % 2:
        raise ShapeError("eq needs an even input length >= 2")
    idx = limits.table_indexes(n)
    half = n // 2
    top = idx >> half
    bottom = idx & ((1 << half) - 1)
    return BoolFn(n, (top == bottom).astype(np.uint8))


def req(layout):
    """Shifted equality over an xor-addressed layout: with 0-based running-xor
    address a_i and value bit v_i per block, the signed total

        D = sum_{a_i < q/2} 2^{a_i} v_i  -  sum_{a_i >= q/2} 2^{a_i - q/2} v_i

    must vanish modulo 2^{q/2}. On allowed inputs this equals equality of the
    two address-arranged halves; the modular form is what any bounded-error
    rotation program for equality computes on the remaining inputs, which is
    exactly the totalization this function must match.
    """
    if not isinstance(layout, BlockLayout):
        layout = BlockLayout(layout)
    q = layout.q
    m = 1 << (q // 2)
    addr, vals = layout.addresses_and_values("xor")
    delta = np.zeros(addr.shape[0], dtype=np.int64)
    for i in range(q):
        a = addr[:, i]
        v = vals[:, i]
        low = a < (q // 2)
        low_term = v << np.minimum(a, q // 2 - 1)
        high_term = v << np.maximum(a - q // 2, 0)
        delta += np.where(low, low_term, -high_term)
    return BoolFn(layout.n, (delta % m == 0).astype(np.uint8))


def mod_p(p, n):
    """1 iff the number of ones is divisible by p."""
    p, n = int(p), int(n)
    if p < 2:
        raise ShapeError("modulus must be at least 2")
    if n < 1:
        raise ShapeError("input length must be positive")
    idx = limits.table_indexes(n)
    pc = np.zeros(idx.size, dtype=np.int64)
    for b in range(n):
        pc += (idx >> b) & 1
    return BoolFn(n, (pc % p == 0).astype(np.uint8))


def _smallest_prime_above(m):
    c = int(m) + 1
    while True:
        if c >= 2 and all(c % d for d in range(2, int(c ** 0.5) + 1)):
            return c
        c += 1


def _weighted_sum_table(idx, n, b):
    """s(X) = (sum_{i<=b} i*x_i) mod (smallest prime > b), for the inputs `idx`."""
    p = _smallest_prime_above(b)
    s = np.zeros(idx.size, dtype=np.int64)
    for i in range(1, b + 1):
        s += i * ((idx >> (n - i)) & 1)
    return s % p


def _gather_bit(idx, n, pos):
    """x_pos for every input, 0 where pos is outside 1..n (index convention)."""
    pos = np.asarray(pos)
    valid = (pos >= 1) & (pos <= n)
    safe = np.where(valid, pos, 1)
    return np.where(valid, (idx >> (n - safe)) & 1, 0)


def ws(n):
    """Output bit x_{s(X)} with the full-length weighted sum (s=0 or s>n -> 0)."""
    n = int(n)
    if n < 1:
        raise ShapeError("input length must be positive")
    idx = limits.table_indexes(n)
    s = _weighted_sum_table(idx, n, n)
    return BoolFn(n, _gather_bit(idx, n, s).astype(np.uint8))


def ws_b(n, b):
    """Padded weighted sum: s is computed over the first b bits only."""
    n, b = int(n), int(b)
    if not 1 <= b <= n:
        raise ShapeError("ws_b needs 1 <= b <= n")
    idx = limits.table_indexes(n)
    s = _weighted_sum_table(idx, n, b)
    return BoolFn(n, _gather_bit(idx, n, s).astype(np.uint8))


def msw_b(n, b):
    """Mixed slice-local weighted sums: z over x_1..x_{b/2}, r over
    x_{b/2+1}..x_b (weights 1..b/2 each, modulo the smallest prime > b/2);
    output x_z xor x_{r+n/2} when z = r >= 1, else 0."""
    n, b = int(n), int(b)
    if n < 2 or n % 2:
        raise ShapeError("msw_b needs an even input length")
    if b % 2 or not 2 <= b <= n:
        raise ShapeError("msw_b needs an even b with 2 <= b <= n")
    h = b // 2
    p = _smallest_prime_above(h)
    idx = limits.table_indexes(n)
    z = np.zeros(idx.size, dtype=np.int64)
    r = np.zeros(idx.size, dtype=np.int64)
    for i in range(1, h + 1):
        z += i * ((idx >> (n - i)) & 1)
        r += i * ((idx >> (n - (h + i))) & 1)
    z %= p
    r %= p
    left = _gather_bit(idx, n, z)
    right = _gather_bit(idx, n, r + n // 2)
    out = np.where((z == r) & (z >= 1), left ^ right, 0)
    return BoolFn(n, out.astype(np.uint8))


def req_layout_for_bits(b):
    """The BlockLayout whose total bit count is exactly b (errors otherwise)."""
    q = 2
    while True:
        layout = BlockLayout(q)
        if layout.n == b:
            return layout
        if layout.n > b:
            raise ShapeError("%d is not a valid addressed-layout length" % b)
        q *= 2


def req_b(n, b):
    """req over the first b bits; the remaining n-b bits are ignored padding."""
    n, b = int(n), int(b)
    if b > n:
        raise ShapeError("padded length must be at least b")
    idx = limits.table_indexes(n)
    core = req(req_layout_for_bits(b))
    return BoolFn(n, core.table[idx >> (n - b)])


# ---------------------------------------------------------------------------
# pointer jumping


@dataclass(frozen=True)
class PjInstance:
    """Bipartite pointer-jumping instance: side A = {0..a-1}, side B = {a..2a-1},
    f_a maps A to B, f_b maps B to A (indexed by v - a), start vertex v0, and
    the iteration count k."""

    a: int
    f_a: tuple
    f_b: tuple
    k: int
    v0: int = 0

    def __post_init__(self):
        a = int(self.a)
        if a < 2:
            raise ShapeError("side size must be at least 2")
        if len(self.f_a) != a or len(self.f_b) != a:
            raise ShapeError("function tables must each list %d image vertices" % a)
        if any(not a <= int(v) < 2 * a for v in self.f_a):
            raise ShapeError("f_a must map into the second side")
        if any(not 0 <= int(v) < a for v in self.f_b):
            raise ShapeError("f_b must map into the first side")
        if not 0 <= int(self.v0) < 2 * a:
            raise ShapeError("start vertex out of range")
        if int(self.k) < 0:
            raise ShapeError("iteration count must be nonnegative")
        object.__setattr__(self, "f_a", tuple(int(v) for v in self.f_a))
        object.__setattr__(self, "f_b", tuple(int(v) for v in self.f_b))


def pj_eval(inst):
    """The vertex reached after k alternating applications from v0."""
    v = inst.v0
    for _ in range(inst.k):
        v = inst.f_a[v] if v < inst.a else inst.f_b[v - inst.a]
    return v


def _pj_field_bits(a):
    """Bits per encoded vertex value: enough for a global label in {0..2a-1}."""
    return (2 * a - 1).bit_length()


def pj_input_length(a):
    return 2 * int(a) * _pj_field_bits(int(a))


def pj_encode(inst):
    """Input bits encoding the instance: f_a rows then f_b rows, each image as
    a side-local index written in field-width bits, most significant first."""
    a = inst.a
    w = _pj_field_bits(a)
    bits = []
    locals_ = [v - a for v in inst.f_a] + list(inst.f_b)
    for val in locals_:
        for t in range(w - 1, -1, -1):
            bits.append((val >> t) & 1)
    return tuple(bits)


def pj_decode(k, a, x):
    """Instance encoded by x; field values reduce mod a, so every bit pattern
    is a valid function table."""
    a, k = int(a), int(k)
    w = _pj_field_bits(a)
    bits = [int(b) for b in x]
    if len(bits) != 2 * a * w:
        raise ShapeError("expected %d encoding bits, got %d" % (2 * a * w, len(bits)))
    fields = []
    for v in range(2 * a):
        val = 0
        for t in range(w):
            val = (val << 1) | bits[v * w + t]
        fields.append(val % a)
    return PjInstance(a=a, f_a=tuple(fields[v] + a for v in range(a)),
                      f_b=tuple(fields[a + v] for v in range(a)), k=k)


def pj_output_bit(k, a, x):
    """Parity of the binary representation of the reached vertex's label."""
    return bin(pj_eval(pj_decode(k, a, x))).count("1") & 1


def pj_bool(k, a):
    """Truth table of the pointer-jumping output bit over the encoding bits."""
    n = pj_input_length(a)
    return BoolFn(n, _pj_outputs(k, a, index_bits(limits.table_indexes(n), n)))


def _pj_outputs(k, a, bits):
    """`pj_output_bit` of every row of the (B, pj_input_length(a)) bit matrix `bits`."""
    a, k = int(a), int(k)
    if a < 2:
        raise ShapeError("side size must be at least 2")
    if k < 0:
        raise ShapeError("iteration count must be nonnegative")
    w = _pj_field_bits(a)
    fields = (bits.reshape(-1, 2 * a, w) @ (1 << np.arange(w - 1, -1, -1))) % a   # by vertex
    rows = np.arange(fields.shape[0])
    v = np.zeros(fields.shape[0], dtype=np.int64)
    for _ in range(k):
        image = fields[rows, v]
        v = np.where(v < a, image + a, image)
    parity = np.array([bin(u).count("1") & 1 for u in range(2 * a)], dtype=np.uint8)
    return parity[v]


def pj_2k_obdd(k, a):
    """2k-layer deterministic program for pj_bool: the first k layers walk the
    instance (states are (current vertex, mod-a accumulator); each layer
    accumulates the addressed field additively and hands the reached vertex to
    the next layer); the remaining k layers are identity padding; sinks carry
    the label parity. Commutative within layers by construction."""
    a, k = int(a), int(k)
    if a < 2 or a & (a - 1):
        raise ShapeError("side size must be a power of two for the layered encoding")
    if k < 1:
        raise ShapeError("iteration count must be at least 1")
    w = _pj_field_bits(a)
    pos = np.arange(2 * a * w)
    return _walk_program(a, pos // w, (1 << (w - 1 - pos % w)) % a, k, None,
                         lambda v, acc: sum((v >> t) & 1 for t in range(w)) & 1)


@dataclass(frozen=True)
class RpjLayout:
    """Addressed pointer-jumping layout: side size a (power of two), w
    addresses owned per vertex, b = 2*a*w addressed blocks, and the block
    layout giving n = b*(log2(b)+1) input bits with direct addressing."""

    a: int

    def __post_init__(self):
        a = int(self.a)
        if a < 2 or a & (a - 1):
            raise ShapeError("side size must be a power of two >= 2")
        b = 2 * a * self.w
        if b & (b - 1):
            raise ShapeError("block count 2*a*ceil(log2 a) must be a power of two")

    @property
    def w(self):
        return max(1, (self.a - 1).bit_length())

    @property
    def b(self):
        return 2 * self.a * self.w

    @property
    def block_layout(self):
        return BlockLayout(self.b)

    @property
    def n(self):
        return self.block_layout.n


def rpj(k, layout):
    """Addressed pointer jumping: each block carries (address, value); vertex v
    owns the 0-based address range [v*w, (v+1)*w); its block value BV(X, v) is
    the sum of 2^(address mod w) * value over blocks addressed into that range,
    mod a (duplicates add, absent addresses contribute 0 — the function is
    total). Walk: from v, move to BV+a (side A) or BV (side B), k times; the
    output is the XOR of the values of the blocks addressed into the reached
    vertex's range."""
    if not isinstance(layout, RpjLayout):
        layout = RpjLayout(layout)
    k = int(k)
    if k < 0:
        raise ShapeError("iteration count must be nonnegative")
    bl = layout.block_layout
    a, w, b = layout.a, layout.w, layout.b
    addr, vals = bl.addresses_and_values("direct")
    size = addr.shape[0]
    owner = addr // w
    weight = np.array([1 << int(e) for e in range(w)], dtype=np.int64)
    exp = addr % w
    v = np.zeros(size, dtype=np.int64)
    for _ in range(k):
        bv = np.zeros(size, dtype=np.int64)
        for i in range(b):
            bv += np.where(owner[:, i] == v, vals[:, i] * weight[exp[:, i]], 0)
        bv %= a
        v = np.where(v < a, bv + a, bv)
    out = np.zeros(size, dtype=np.int64)
    for i in range(b):
        out ^= np.where(owner[:, i] == v, vals[:, i], 0)
    return BoolFn(bl.n, out.astype(np.uint8))


def _rpj_core(k, layout):
    """2k-layer walk over the b value bits in owned-address order (the base
    program the addressed lift is applied to): k accumulation layers, one
    parity-collection layer, then identity padding."""
    pos = np.arange(layout.b)
    return _walk_program(layout.a, pos // layout.w, (1 << (pos % layout.w)) % layout.a, k,
                         lambda acc: np.where(acc < 2, acc ^ 1, acc), lambda v, acc: acc & 1)


def _walk_program(a, owners, addends, k, tail, sinks):
    """The 2k-layer walk over len(owners) variables on the nodes v*a + acc
    (vertex v < 2a, mod-a accumulator acc). In each of the first k layers a
    one at variable i adds addends[i] to the accumulator of vertex owners[i],
    and the layer end moves (v, acc) to (acc + a if v < a else acc, 0). With
    `tail`, one more layer maps each owner's accumulator acc to tail(acc).
    Identity levels pad the rest; `sinks(v, acc)` gives the sink bits."""
    owners, addends = owners[:, None], addends[:, None]
    n, width = owners.shape[0], 2 * a * a
    limits.check_program(2 * k * n, width, matrix=False)
    node = np.arange(width)
    v, acc = np.divmod(node, a)

    def layer(new_acc):
        ones = np.where(v == owners, v * a + new_acc, node)
        return list(np.stack(np.broadcast_arrays(node, ones), axis=2))

    steps = layer((acc + addends) % a) * k + (layer(tail(acc)) if tail else [])
    steps += [np.stack([node, node], axis=1)] * (2 * k * n - len(steps))
    end = np.where(v < a, acc + a, acc) * a
    return LeveledObdd(n=n, k=2 * k, order=VarOrder.identity(n), widths=[width] * (2 * k * n + 1),
                       start=0, steps=steps, sink_values=sinks(v, acc),
                       layer_ends=[end] * k + [None] * k)


def rpj_2k_obdd(k, layout):
    """The addressed lift of the pointer-jumping walk: reorder_obdd applied to
    the b-variable core in direct mode; agrees with rpj on every input because
    the lift's duplicate-address semantics are the same additive accumulation."""
    if not isinstance(layout, RpjLayout):
        layout = RpjLayout(layout)
    k = int(k)
    if k < 1:
        raise ShapeError("iteration count must be at least 1")
    core = _rpj_core(k, layout)
    return reorder_obdd(core, layout.block_layout, "direct")


# ---------------------------------------------------------------------------
# commutative classical base programs (lift inputs)


def _signed_weight(q, v):
    """Weight of variable v in the equality accumulators: +2^(v-1) in the first
    half, -2^(v-q/2-1) in the second."""
    return (1 << (v - 1)) if v <= q // 2 else -(1 << (v - q // 2 - 1))


def eq_weighted_obdd(q):
    """Width 2*2^(q/2)-1 deterministic equality program: a signed accumulator
    adds +2^(i-1) for first-half ones and -2^(i-1) for the matching
    second-half ones; sinks accept at zero. The accumulator clamps at the
    range ends, where the per-variable tables do not commute; but every
    partial sum of the weight multiset stays in range, so they commute on
    every state that a subset of the variables reaches from the start, and the
    pairwise certificate of `diagrams.is_commutative` accepts the program."""
    q = int(q)
    if q < 2 or q % 2:
        raise ShapeError("eq program needs an even arity >= 2")
    m = 1 << (q // 2)
    d = 2 * m - 1
    limits.check_program(q, d, matrix=False)
    perm = []
    for j in range(q // 2):
        perm += [j + 1, j + 1 + q // 2]
    order = VarOrder(perm)
    node = np.arange(d)   # node m - 1 stands for the accumulator value 0
    steps = [np.stack([node, np.clip(node + _signed_weight(q, v), 0, d - 1)], axis=1)
             for v in order.perm]
    sinks = [1 if node == m - 1 else 0 for node in range(d)]
    return LeveledObdd(
        n=q,
        k=1,
        order=order,
        widths=[d] * (q + 1),
        start=m - 1,
        steps=steps,
        sink_values=sinks,
    )


def or_guess_nobdd(q):
    """Width q+2 nondeterministic program for "some bit is 1": from the start
    node, guess which position carries the 1 (or accept immediately when the
    current bit is 1); a guess node waits for its variable and dies on 0.
    Symmetric across positions, hence commutative."""
    q = int(q)
    if q < 1:
        raise ShapeError("arity must be positive")
    width = q + 2
    limits.check_program(q, width, matrix=True)
    start, acc = 0, q + 1
    level, guess = np.arange(q), np.arange(1, q + 1)   # position pos reads variable pos + 1
    mats = np.zeros((q, 2, width, width), dtype=bool)   # [position, bit, node, successor]
    mats[:, :, guess, guess] = True                     # a guess waits for its variable,
    mats[level, :, guess, guess] = False                # which kills it on a 0
    mats[level, 1, guess, acc] = True                   # and accepts on a 1
    mats[:, :, start, 1: q + 1] = True                  # the start guesses another position
    mats[level, :, start, guess] = False
    mats[:, 1, start, acc] = True                       # or accepts on a 1
    mats[:, :, acc, acc] = True
    return Nobdd(
        n=q,
        k=1,
        order=VarOrder.identity(q),
        widths=[width] * (q + 1),
        start=start,
        steps=_Packed((m[0], m[1]) for m in mats),
        accepting=[acc],
    )


def eq_geometric_pobdd(q):
    """Width 2*2^(q/2) probabilistic equality program: every variable leaks the
    same share of probability into an absorbing accepting state (total leaked
    mass exactly 1/4 after all q reads, independent of order), the rest runs
    the signed accumulator. Accepts 1-inputs with probability 1 and 0-inputs
    with probability 1/4; the margin field is 1/4."""
    q = int(q)
    if q < 2 or q % 2:
        raise ShapeError("eq program needs an even arity >= 2")
    m = 1 << (q // 2)
    width = 2 * m
    limits.check_program(q, width, matrix=True)
    survive = (3.0 / 4.0) ** (1.0 / q)
    node = np.arange(1, width)
    steps = []
    for v in range(1, q + 1):
        level = np.zeros((width, 2, width))   # level[node, bit] is the row of `node`
        level[0, :, 0] = 1.0
        level[1:, :, 0] = 1.0 - survive
        for bit, shift in ((0, 0), (1, _signed_weight(q, v))):
            level[node, bit, np.clip(node - m + shift, 1 - m, m - 1) + m] = survive
        steps.append(level)
    return Pobdd(
        n=q,
        k=1,
        order=VarOrder.identity(q),
        widths=[width] * (q + 1),
        start=m,
        steps=steps,
        accepting=[0, m],
        epsilon=0.25,
    )


# ---------------------------------------------------------------------------
# fingerprinting quantum programs


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _ensemble_blockdiag(angles):
    t = len(angles)
    g = np.zeros((2 * t, 2 * t), dtype=np.complex128)
    for j, theta in enumerate(angles):
        g[2 * j: 2 * j + 2, 2 * j: 2 * j + 2] = _rotation(theta)
    return g


def _householder_to_first(t):
    """Unitary (real symmetric) W with W u = e_0 for u uniform over the t
    even-index states; identity when t = 1."""
    dim = 2 * t
    u = np.zeros(dim)
    u[0::2] = 1.0 / math.sqrt(t)
    v = u - np.eye(dim)[0]
    nv = float(v @ v)
    if nv < 1e-30:
        return np.eye(dim, dtype=np.complex128)
    w = np.eye(dim) - 2.0 * np.outer(v, v) / nv
    return w.astype(np.complex128)


def fingerprint_eq_qobdd(q, multipliers, recombine=False):
    """Rotation-ensemble equality tester of dimension 2t: machine j turns by
    +pi*k_j*2^(i-1)/2^(q/2) per first-half one and the negative per matching
    second-half one, so the accepting mass is mean_j cos^2(pi k_j d / 2^(q/2))
    with d the difference of the two halves' (LSB-first) binary values — 1 iff
    the halves are equal. With recombine=True the ensemble is conjugated so a
    single state carries the mean cosine and acceptance is its square."""
    q = int(q)
    if q < 2 or q % 2:
        raise ShapeError("equality tester needs an even arity >= 2")
    ks = tuple(int(k) for k in multipliers)
    if not ks:
        raise ShapeError("multiplier set must be nonempty")
    t = len(ks)
    limits.check_program(q, 2 * t, matrix=True)
    m = 1 << (q // 2)
    w = _householder_to_first(t) if recombine else None
    eye = np.eye(2 * t, dtype=np.complex128)   # one object: the constructor checks it once
    steps = []
    for i in range(1, q + 1):
        if i <= q // 2:
            angles = [math.pi * k * (1 << (i - 1)) / m for k in ks]
        else:
            angles = [-math.pi * k * (1 << (i - q // 2 - 1)) / m for k in ks]
        g1 = _ensemble_blockdiag(angles)
        if recombine:
            g1 = w @ g1 @ w.conj().T
        steps.append((eye, g1))
    if recombine:
        initial = np.zeros(2 * t, dtype=np.complex128)
        initial[0] = 1.0
        accept = [1]
    else:
        initial = np.zeros(2 * t, dtype=np.complex128)
        initial[0::2] = 1.0 / math.sqrt(t)
        accept = [2 * j + 1 for j in range(t)]
    return QuantumProgram(
        n=q,
        dim=2 * t,
        order=VarOrder.identity(q),
        initial=initial,
        steps=steps,
        accept=accept,
        k=1,
    )


def fingerprint_modp_qobdd(p, n, multipliers):
    """Rotation-ensemble 0-mod-p weight tester of dimension 2t: every one-bit
    turns machine j by pi*k_j/p; the ensemble is recombined so acceptance is
    (mean_j cos(pi k_j m / p))^2 for input weight m — exactly 1 on weights
    divisible by p when all multipliers are odd (all cosines share their sign
    there), and the searched multiplier sets push it below 1/3 elsewhere."""
    p, n = int(p), int(n)
    if p < 2:
        raise ShapeError("modulus must be at least 2")
    if n < 1:
        raise ShapeError("input length must be positive")
    ks = tuple(int(k) for k in multipliers)
    if not ks:
        raise ShapeError("multiplier set must be nonempty")
    t = len(ks)
    limits.check_program(n, 2 * t, matrix=True)
    w = _householder_to_first(t)
    g1 = w @ _ensemble_blockdiag([math.pi * k / p for k in ks]) @ w.conj().T
    initial = np.zeros(2 * t, dtype=np.complex128)
    initial[0] = 1.0
    steps = [(np.eye(2 * t, dtype=np.complex128), g1)] * n
    return QuantumProgram(
        n=n,
        dim=2 * t,
        order=VarOrder.identity(n),
        initial=initial,
        steps=steps,
        accept=[1],
        k=1,
    )


def _ensemble_acceptance(modulus, multipliers, delta, recombine):
    """Acceptance of the rotation ensemble whose machine j has turned by
    pi*k_j*delta/modulus: the mean of the squared cosines, or with
    recombine=True the square of their mean."""
    cos = [math.cos(math.pi * k * delta / modulus) for k in multipliers]
    if recombine:
        return (sum(cos) / len(cos)) ** 2
    return sum(c * c for c in cos) / len(cos)


def eq_acceptance_formula(q, multipliers, delta, recombine=False):
    """Closed-form acceptance of the equality tester at half-difference delta."""
    return _ensemble_acceptance(1 << (int(q) // 2), multipliers, delta, recombine)


def modp_acceptance_formula(p, multipliers, weight):
    """Closed-form acceptance of the weight tester at input weight `weight`."""
    return _ensemble_acceptance(p, multipliers, weight, True)


# ---------------------------------------------------------------------------
# multiplier search


@dataclass(frozen=True)
class SearchResult:
    found: bool
    multipliers: tuple | None
    worst: float | None
    modulus: int
    target: float
    t_max: int
    objective: str
    odd_only: bool
    seed: int
    budget: int
    trials: int
    exhaustive: bool


_OBJECTIVES = ("cos2_mean", "mean_cos_sq")


def _worst_case(modulus, ks, objective):
    """Worst acceptance over nonzero residues for a multiplier multiset."""
    return max(_ensemble_acceptance(modulus, ks, delta, objective == "mean_cos_sq")
               for delta in range(1, modulus))


def search_good_multipliers(
    modulus,
    t,
    target,
    objective="cos2_mean",
    odd_only=False,
    seed=0,
    budget=200000,
):
    """First multiplier multiset (sizes tried in increasing order) whose worst
    acceptance over nonzero residues meets the target.

    Exhausts all multisets of size <= t lexicographically when their count
    fits the budget, otherwise draws seeded random multisets; either way the
    outcome is reproducible from the arguments. A miss is reported as
    found=False — never substituted silently.
    """
    modulus, t = int(modulus), int(t)
    if modulus < 2:
        raise ShapeError("modulus must be at least 2")
    if t < 1:
        raise ShapeError("ensemble size bound must be at least 1")
    if objective not in _OBJECTIVES:
        raise ShapeError("objective must be one of %s" % "/".join(_OBJECTIVES))
    pool = [k for k in range(1, modulus) if not odd_only or k % 2 == 1]
    meta = dict(
        modulus=modulus,
        target=float(target),
        t_max=t,
        objective=objective,
        odd_only=bool(odd_only),
        seed=int(seed),
        budget=int(budget),
    )
    if not pool:
        return SearchResult(found=False, multipliers=None, worst=None, trials=0,
                            exhaustive=True, **meta)
    total = sum(math.comb(len(pool) + s - 1, s) for s in range(1, t + 1))
    trials = 0
    if total <= budget:
        for s in range(1, t + 1):
            for ks in combinations_with_replacement(pool, s):
                trials += 1
                worst = _worst_case(modulus, ks, objective)
                if worst <= target + limits.EXACT_TOL:
                    return SearchResult(found=True, multipliers=ks, worst=worst,
                                        trials=trials, exhaustive=True, **meta)
        return SearchResult(found=False, multipliers=None, worst=None,
                            trials=trials, exhaustive=True, **meta)
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        trials += 1
        s = int(rng.integers(1, t + 1))
        ks = tuple(sorted(pool[int(i)] for i in rng.integers(0, len(pool), size=s)))
        worst = _worst_case(modulus, ks, objective)
        if worst <= target + limits.EXACT_TOL:
            return SearchResult(found=True, multipliers=ks, worst=worst,
                                trials=trials, exhaustive=False, **meta)
    return SearchResult(found=False, multipliers=None, worst=None,
                        trials=trials, exhaustive=False, **meta)
