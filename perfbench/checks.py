"""Reference computations and checkers of the benchmark harness.

Everything here is derived from the definitions the paper and the ddlab
docstrings state, written apart from ddlab: block-address decoding, the
arranged base functions, the signed half-difference D of the equality
testers, closed-form acceptances, pointer-jumping walks, cut counts and report
digests. A wrong answer from the program therefore cannot also be the
expected answer. Nothing here imports ddlab.

Conventions shared with ddlab (they are the interface, not its code):
variables are 1-indexed, x_1 is the most significant truth-table index bit,
and a relabelling `perm` turns f into g(x) = f(y) with y_j = x_perm[j].
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

TOL = 1e-9


class CheckFailure(Exception):
    """An output of the program disagrees with the harness."""


def require(cond, message):
    if not cond:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# generic checkers (the self-test feeds each of them a wrong result)


def check_equal(got, expected, what):
    require(got == expected, "%s: got %r, expected %r" % (what, got, expected))


def check_bits(got, expected, what):
    """Two 0/1 vectors agree everywhere."""
    got = np.asarray(got).astype(np.int64)
    expected = np.asarray(expected).astype(np.int64)
    require(got.shape == expected.shape,
            "%s: shape %s, expected %s" % (what, got.shape, expected.shape))
    bad = np.nonzero(got != expected)[0]
    require(bad.size == 0, "%s: %d wrong outputs, first at input %d"
            % (what, bad.size, int(bad[0]) if bad.size else -1))


def check_close(got, expected, what, tol=TOL):
    """Two probability vectors (or scalars) agree within tol."""
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    require(got.shape == expected.shape,
            "%s: shape %s, expected %s" % (what, got.shape, expected.shape))
    gap = float(np.max(np.abs(got - expected))) if got.size else 0.0
    require(gap <= tol, "%s: off by %.3g (tolerance %.1g)" % (what, gap, tol))


def check_lifted_width(lifted_width, q, base_width, what):
    """A reordering lift is exactly q times as wide as its base."""
    require(lifted_width == q * base_width, "%s: lifted width %d, expected q*base = %d*%d"
            % (what, lifted_width, q, base_width))


def check_n_min(got, what, equals=None, at_least=None, at_most=None, reference=None):
    """An exact minimum width against a closed form, bounds, and an earlier answer."""
    require(isinstance(got, int) and got >= 1, "%s: n_min %r is not a positive int" % (what, got))
    if equals is not None:
        require(got == equals, "%s: n_min %d, closed form %d" % (what, got, equals))
    if at_least is not None:
        require(got >= at_least, "%s: n_min %d below the lower bound %d" % (what, got, at_least))
    if at_most is not None:
        require(got <= at_most, "%s: n_min %d above the upper bound %d" % (what, got, at_most))
    if reference is not None:
        require(got == reference,
                "%s: n_min %d changed under relabelling (first pass %d)" % (what, got, reference))


# ---------------------------------------------------------------------------
# bits, indexes and relabelling


def input_bits(n, idx=None):
    """(N, n) matrix of the bits x_1..x_n of each truth-table index."""
    if idx is None:
        idx = np.arange(1 << n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((np.asarray(idx, dtype=np.int64)[:, None] >> shifts) & 1).astype(np.int64)


def bits_index(bits):
    """Truth-table index of each row of a (N, n) bit matrix."""
    bits = np.asarray(bits, dtype=np.int64)
    n = bits.shape[1]
    weights = np.int64(1) << np.arange(n - 1, -1, -1, dtype=np.int64)
    return bits @ weights


def relabel_source(n, perm):
    """Index map src with g.table = f.table[src] for g(x) = f(y), y_j = x_perm[j]."""
    bits = input_bits(n)
    return bits_index(bits[:, [p - 1 for p in perm]])


def inverse_perm(perm):
    inv = [0] * len(perm)
    for j, p in enumerate(perm, start=1):
        inv[p - 1] = j
    return tuple(inv)


# ---------------------------------------------------------------------------
# block layouts: q blocks of p address bits followed by one value bit


def layout_size(q):
    return q * (q.bit_length())


def decode_blocks(bits, q, mode):
    """Per-block 0-based addresses and value bits of each input row.

    Direct mode reads each block's own address bits; xor mode keeps the
    running xor of the address patterns of blocks 1..i.
    """
    p = q.bit_length() - 1
    bits = np.asarray(bits, dtype=np.int64)
    addr = np.zeros((bits.shape[0], q), dtype=np.int64)
    vals = np.zeros((bits.shape[0], q), dtype=np.int64)
    running = np.zeros(bits.shape[0], dtype=np.int64)
    for i in range(q):
        base = i * (p + 1)
        pattern = np.zeros(bits.shape[0], dtype=np.int64)
        for t in range(p):
            pattern = (pattern << 1) | bits[:, base + t]
        running = running ^ pattern
        addr[:, i] = running if mode == "xor" else pattern
        vals[:, i] = bits[:, base + p]
    return addr, vals


def allowed_rows(addr):
    """Rows whose block addresses are a permutation of 0..q-1."""
    q = addr.shape[1]
    return np.all(np.sort(addr, axis=1) == np.arange(q), axis=1)


def assemble(addresses, values, mode):
    """Input bits that carry the given per-block addresses and values."""
    q = len(addresses)
    p = q.bit_length() - 1
    bits = []
    prev = 0
    for a, v in zip(addresses, values):
        pattern = (a ^ prev) if mode == "xor" else a
        prev = a
        bits.extend((pattern >> (p - 1 - t)) & 1 for t in range(p))
        bits.append(int(v) & 1)
    return tuple(int(b) for b in bits)


def base_variables(addr, perm):
    """Variable of the (unrelabelled) base program each block feeds.

    Address a supplies variable a+1 of the relabelled base, which is variable
    perm^-1(a+1) of the base it was relabelled from.
    """
    inv = np.asarray(inverse_perm(perm), dtype=np.int64)
    return inv[addr]


def arranged(variables, vals, q):
    """(N, q) matrix y of base inputs with y[variable-1] = value on allowed rows."""
    y = np.zeros((vals.shape[0], q), dtype=np.int64)
    rows = np.arange(vals.shape[0])[:, None]
    y[rows, variables - 1] = vals
    return y


def eq_of(y):
    q = y.shape[1]
    return np.all(y[:, : q // 2] == y[:, q // 2:], axis=1).astype(np.int64)


def signed_weight(variables, q):
    """Weight of base variable j in the equality testers: +2^(j-1) on the
    first half, -2^(j-q/2-1) on the second half."""
    half = q // 2
    low = variables <= half
    return np.where(low, np.int64(1) << np.where(low, variables - 1, 0),
                    -(np.int64(1) << np.where(low, 0, variables - half - 1)))


def half_difference(variables, vals, q):
    """D: the signed sum of the weights of the blocks whose value is 1."""
    return np.sum(vals * signed_weight(variables, q), axis=1)


def clamped_zero(variables, vals, q):
    """Reads the blocks in order into the accumulator clamped to +-(2^(q/2)-1);
    1 where it ends at 0 (the equality programs' documented transitions)."""
    cap = (1 << (q // 2)) - 1
    delta = np.zeros(vals.shape[0], dtype=np.int64)
    weights = signed_weight(variables, q)
    for i in range(vals.shape[1]):
        delta = np.clip(delta + vals[:, i] * weights[:, i], -cap, cap)
    return (delta == 0).astype(np.int64)


def or_guess_accepts(variables, vals, q):
    """The guessing OR program on a read sequence: the start node guesses a
    later variable (or accepts on a first read of 1); a guess node accepts at
    its variable's first read if that read is 1, dies if it is 0."""
    rows = vals.shape[0]
    start = np.ones(rows, dtype=bool)
    guess = np.zeros((rows, q + 1), dtype=bool)
    acc = np.zeros(rows, dtype=bool)
    cols = np.arange(q + 1)
    for i in range(vals.shape[1]):
        var = variables[:, i]
        bit = vals[:, i].astype(bool)
        hit = guess[np.arange(rows), var]
        acc = acc | (bit & (start | hit))
        keep = cols[None, :] != var[:, None]
        guess = (guess | start[:, None]) & keep
        guess[:, 0] = False
        start = np.zeros(rows, dtype=bool)
    return acc.astype(np.int64)


# ---------------------------------------------------------------------------
# closed forms


def eq_tester_acceptance(multipliers, delta, q, recombined):
    """Rotation ensemble at half-difference D: mean cos^2, or (mean cos)^2
    for the recombined tester."""
    m = 1 << (q // 2)
    ks = np.asarray(multipliers, dtype=np.float64)
    cos = np.cos(np.pi * np.outer(np.asarray(delta, dtype=np.float64), ks) / m)
    if recombined:
        return np.mean(cos, axis=1) ** 2
    return np.mean(cos * cos, axis=1)


def modp_tester_acceptance(multipliers, p, weight):
    ks = np.asarray(multipliers, dtype=np.float64)
    return float(np.mean(np.cos(np.pi * ks * weight / p)) ** 2)


def eq_cut_count(n):
    return 1 << (n // 2)


def pj_width_bound(a):
    return (2 * a) * (a + 1)


def distinct_rows(table, n, u):
    """Distinct subfunctions after the first u variables of the identity order."""
    mat = np.asarray(table, dtype=np.uint8).reshape(1 << u, 1 << (n - u))
    return int(np.unique(np.packbits(mat, axis=1), axis=0).shape[0])


def identity_order_width(table, n):
    """Width of the identity order: an upper bound on n_min."""
    return max([1] + [distinct_rows(table, n, u) for u in range(1, n)])


# ---------------------------------------------------------------------------
# plain functions, from their definitions


def eq_table(n):
    bits = input_bits(n)
    return eq_of(bits)


def ws_table(n, b=None):
    """x_s with s = sum_{i<=b} i*x_i mod the smallest prime > b (b = n unpadded)."""
    b = n if b is None else b
    prime = b + 1
    while any(prime % d == 0 for d in range(2, int(prime ** 0.5) + 1)):
        prime += 1
    bits = input_bits(n)
    s = (bits[:, :b] @ np.arange(1, b + 1)) % prime
    safe = np.clip(s, 1, n)
    picked = bits[np.arange(bits.shape[0]), safe - 1]
    return np.where((s >= 1) & (s <= n), picked, 0)


def pj_table(k, a):
    """Pointer jumping over the field encoding: 2a fields of bitlength(2a-1)
    bits, each read mod a; f_a(v) = field[v] + a, f_b(v) = field[a + v];
    walk k steps from vertex 0; output the parity of the reached label."""
    w = (2 * a - 1).bit_length()
    n = 2 * a * w
    bits = input_bits(n)
    fields = np.zeros((bits.shape[0], 2 * a), dtype=np.int64)
    for v in range(2 * a):
        for t in range(w):
            fields[:, v] = (fields[:, v] << 1) | bits[:, v * w + t]
    fields %= a
    rows = np.arange(bits.shape[0])
    v = np.zeros(bits.shape[0], dtype=np.int64)
    for _ in range(k):
        # f_a(v) = field[v] + a on side A; f_b(v) = field[a + (v - a)] on side B
        v = fields[rows, v] + np.where(v < a, a, 0)
    parity = np.zeros_like(v)
    for t in range((2 * a).bit_length()):
        parity ^= (v >> t) & 1
    return parity


def rpj_table(k, a):
    """Addressed pointer jumping with direct addressing: vertex v owns
    addresses [v*w, (v+1)*w); its block value sums 2^(address mod w) * value
    over the blocks addressed into its range, mod a. Walk k steps from vertex
    0 (to BV + a from side A, to BV from side B); output the xor of the values
    of the blocks addressed into the reached vertex's range."""
    w = max(1, (a - 1).bit_length())
    q = 2 * a * w
    n = layout_size(q)
    addr, vals = decode_blocks(input_bits(n), q, "direct")
    owner = addr // w
    weight = np.int64(1) << (addr % w)
    v = np.zeros(addr.shape[0], dtype=np.int64)
    for _ in range(k):
        bv = np.sum(np.where(owner == v[:, None], vals * weight, 0), axis=1) % a
        v = np.where(v < a, bv + a, bv)
    return np.bitwise_xor.reduce(np.where(owner == v[:, None], vals, 0), axis=1)


# ---------------------------------------------------------------------------
# reports


def report_digest(payload):
    """SHA-256 of the canonical JSON of a report without digest and duration."""
    body = {k: v for k, v in payload.items() if k not in ("digest", "duration_s")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
