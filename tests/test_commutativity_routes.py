"""Both commutativity routes against the per-order reference loop.

`is_commutative` first tries the pairwise-commutation certificate
(`diagrams._commutes_pairwise`), which compares two variables' operators only
on the states that own-order subsequences reach before them; when it fails,
the sampled route runs:
`diagrams._permuted_profile` runs the whole-table pass on the program
reordered to each sampled order, and each order's table is compared with the
program's own. The reference below runs every input through the padded
program's levels in the order: each level sends the rows that read 0 through
the kind's `_act` with the dense matrix of its bit-0 operator and the rest
with that of its bit-1 operator, and the layer-end maps stay pinned at layer
boundaries. Both routes must give the same outputs, exactly for 0/1 outputs
and within 1e-12 for acceptance probabilities, and the same verdicts; a
certified program must be commutative by the reference. The all-states
pairwise check that the certificate refines is kept here as a reference too:
whatever it certifies, the certificate must certify.
"""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import dense_op, embedded_from_rows

from ddlab import diagrams, limits
from ddlab.boolfn import VarOrder
from ddlab.diagrams import (LeveledObdd, Nobdd, Pobdd, _all_inputs,
                            _commutes_pairwise, _padded, _permuted_profile, embed_obdd_as_nobdd,
                            embed_obdd_as_pobdd, is_commutative, sample_orders, width)
from ddlab.experiments import parse_program_spec
from ddlab.quantum import QuantumProgram

PROGRAM_SPECS = ["eq-obdd:4", "or-nobdd:4", "eq-pobdd:4", "eq-qobdd:4", "modp-qobdd:3,5",
                 "eq-qobdd-recombined:8", "pj-2k:1,2", "pj-2k:2,2", "pj-2k:3,2",
                 "rpj-core:1,2", "rpj-core:2,2", "tree:eq:4", "tree:eq:6"]

# the zoo programs that the certificate decides, the clamped accumulators
# eq-obdd and eq-pobdd among them (their maps differ only on boundary states
# that no subset of the variables reaches); rpj-2k and the binary trees fail
# it and take the sampled route
CERTIFIED = {"eq-obdd:4", "eq-obdd:8", "or-nobdd:4", "or-nobdd:8", "or-nobdd:12", "eq-pobdd:4",
             "eq-pobdd:8", "eq-qobdd:4", "modp-qobdd:3,5", "eq-qobdd-recombined:8", "pj-2k:1,2",
             "pj-2k:2,2", "pj-2k:3,2", "rpj-core:1,2", "rpj-core:2,2"}


def _reference_profile(padded, perm):
    """Output of the padded program on every input with its variables read in order `perm`."""
    n = padded.n
    position = {v: i for i, v in enumerate(padded.order.perm)}
    columns = np.ascontiguousarray(_all_inputs(n).T)
    states = padded._first(columns.shape[1])
    for j in range(padded.k):
        for v in perm:
            pair, bit = padded._pair(j * n + position[v]), columns[v - 1]
            nxt = np.empty_like(states)   # the padded levels have equal widths
            for b in (0, 1):
                nxt[bit == b] = padded._act(states[bit == b], dense_op(padded, pair[b]))
            states = nxt
        if padded.layer_ends[j] is not None:
            states = padded._act(states, dense_op(padded, padded.layer_ends[j]))
    return padded._readout(states)


def _reference_is_commutative(program, trials, seed, tol=limits.TOL):
    padded = _padded(program)
    baseline = _reference_profile(padded, program.order.perm).astype(np.float64)
    return all(not np.any(np.abs(_reference_profile(padded, perm) - baseline) > tol)
               for perm in sample_orders(program.n, trials, seed))


def _reference_commutes_pairwise(padded, tol=limits.TOL):
    """The all-states pairwise check: within every layer, the operators of
    every two distinct variables commute on every state, one pair at a time."""
    n, w = padded.n, padded.widths[0]
    basis = dense_op(padded, np.arange(w))
    for j in range(padded.k):
        pairs = [[dense_op(padded, op) for op in padded._pair(j * n + p)] for p in range(n)]
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


# the per-position certificate that the batched one replaced, kept as its
# reference: one product per position a, against every later position b in
# groups, on the rows that some before[a, b] selects; every operator of a
# matrix kind is compared as its dense matrix


def _reference_successors(padded, masks, pair):
    if pair[0].dtype.kind != "i":
        return padded._act(masks.astype(np.float64), np.abs(pair[0]) + np.abs(pair[1])) > 0
    out = np.zeros_like(masks)
    rows, nodes = np.nonzero(masks)
    for op in pair:
        out[rows, op[nodes]] = True
    return out


def _reference_then(padded, images, ops):
    if ops.dtype.kind != "i":
        return padded._act(images, ops)
    w = ops.shape[-1]
    offsets = np.arange(0, ops.size, w).reshape(ops.shape[:-1] + (1,))
    return ops.ravel()[images + offsets]


def _per_position_certificate(padded, tol=limits.TOL):
    n, w = padded.n, padded.widths[0]
    basis = dense_op(padded, np.arange(w))
    obdd = isinstance(padded, LeveledObdd)
    reached = np.arange(w) == padded._first() if obdd else padded._first() != 0
    for j in range(padded.k):
        pairs = [[dense_op(padded, op) for op in padded._pair(j * n + p)] for p in range(n)]
        skips, before = np.tile(reached, (n, 1)), np.empty((n, n, w), dtype=bool)
        for b, pair in enumerate(pairs):
            before[:, b] = skips
            step = _reference_successors(padded, np.vstack([skips, reached]), pair)
            step[b] = False
            skips, reached = skips | step[:n], step[n]
        stack = np.array(pairs)
        for a in range(n - 1):
            rows = np.flatnonzero(before[a, a + 1:].any(axis=0))
            start, own = basis[rows], stack[a]
            first = _reference_then(padded, start, own)[None, None]
            group = n if obdd else max(1, limits.CHUNK_ROWS // (4 * max(rows.size, 1)))
            for lo in range(a + 1, n, group):
                later, masks = stack[lo: lo + group], before[a, lo: lo + group]
                a_first = _reference_then(padded, first, later[:, :, None])
                b_first = _reference_then(padded, _reference_then(padded, start, later)[:, :, None],
                                          own[None, None])
                if a_first.dtype.kind in "bi":
                    differ = a_first != b_first
                else:
                    differ = np.abs(a_first - b_first) > tol
                if not obdd:
                    differ = differ.any(axis=-1)
                if np.any(differ & masks[:, None, None, rows]):
                    return False
        if padded.layer_ends[j] is not None:
            mapped = np.zeros(w, dtype=bool)
            mapped[padded.layer_ends[j][reached]] = True
            reached = mapped
    return True


def _certified(program, trials=50, seed=0):
    """The certificate's verdict; a certified program must be commutative by the reference."""
    certified = _commutes_pairwise(_padded(program), limits.TOL)
    if certified:
        assert _reference_is_commutative(program, trials, seed)
    return certified

def _assert_profiles_match(program, perms):
    padded = _padded(program)
    batched = np.array([_permuted_profile(padded, perm) for perm in perms])
    reference = np.array([_reference_profile(padded, perm) for perm in perms])
    assert batched.shape == reference.shape == (len(perms), 1 << program.n)
    if isinstance(program, (LeveledObdd, Nobdd)):
        assert np.array_equal(batched, reference)
    else:
        np.testing.assert_allclose(batched, reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", PROGRAM_SPECS)
def test_batched_profiles_match_the_per_order_loop(spec):
    program = parse_program_spec(spec)
    perms = [program.order.perm] + sample_orders(program.n, 40, seed=3)
    _assert_profiles_match(program, perms)
    _assert_profiles_match(program, perms[-1:])


@pytest.mark.parametrize("spec", PROGRAM_SPECS + ["or-nobdd:8", "eq-obdd:8", "eq-pobdd:8",
                                                  "rpj-2k:1,2"])
def test_which_zoo_programs_the_certificate_decides(spec):
    program = parse_program_spec(spec)
    assert _certified(program) == (spec in CERTIFIED)
    assert is_commutative(program, trials=50) == (not spec.startswith(("tree", "rpj-2k")))

# --------------------------------------------------------------------------
# seeded random programs of every kind: n <= 7, k <= 2, mixed level widths


def _random_order(rng, n):
    return VarOrder([int(v) + 1 for v in rng.permutation(n)])


def _shape(rng, kind):
    """n, k, level widths, and whether the levels are built to commute (one
    shared width, operators drawn from a commuting family)."""
    n, k = int(rng.integers(1, 8)), int(rng.integers(1, 3))
    commuting = rng.random() < 0.4
    if commuting or kind is QuantumProgram:
        widths = [int(rng.integers(2, 6))] * (k * n + 1)
    else:
        widths = [int(w) for w in rng.integers(2, 6, size=k * n + 1)]
    return n, k, widths, commuting


def _some(rng, w):
    """w random bits, both values present."""
    return rng.permutation(np.arange(w) % 2)


def _layer_ends(rng, k, n, widths):
    ends = [widths[(j + 1) * n] for j in range(k)]
    return [None if rng.random() < 0.5 else rng.integers(0, w, w) for w in ends]


def _levels(rng, n, k, widths, commuting, commuting_op, random_op):
    """One operator pair per level. A commuting program draws them from
    `commuting_op`; a third of those then get one random operator."""
    steps = [tuple((commuting_op if commuting else random_op)(widths[ell], widths[ell + 1])
                   for _ in range(2)) for ell in range(k * n)]
    if commuting and rng.random() < 1 / 3:
        ell = int(rng.integers(0, k * n))
        steps[ell] = (random_op(widths[ell], widths[ell + 1]), steps[ell][1])
    return steps


def _random_obdd(rng):
    n, k, widths, commuting = _shape(rng, LeveledObdd)

    def shift(w, w_next):
        return (np.arange(w) + rng.integers(0, w)) % w

    def random_map(w, w_next):
        return rng.integers(0, w_next, w)

    steps = _levels(rng, n, k, widths, commuting, shift, random_map)
    return LeveledObdd(n=n, k=k, order=_random_order(rng, n), widths=widths, start=0,
                       steps=[np.stack(pair, axis=1).tolist() for pair in steps],
                       sink_values=_some(rng, widths[-1]),
                       layer_ends=_layer_ends(rng, k, n, widths))


def _circulant(rng, w, weights):
    return sum(c * np.roll(np.eye(w), s, axis=1) for s, c in enumerate(weights))


def _random_nobdd(rng):
    n, k, widths, commuting = _shape(rng, Nobdd)

    def boolean_circulant(w, w_next):
        return _circulant(rng, w, rng.random(w) < 0.4) > 0

    def random_relation(w, w_next):
        return rng.random((w, w_next)) < 0.4

    steps = _levels(rng, n, k, widths, commuting, boolean_circulant, random_relation)
    rows = [[tuple(tuple(int(t) for t in np.flatnonzero(op[node])) for op in pair)
             for node in range(pair[0].shape[0])] for pair in steps]
    return Nobdd(n=n, k=k, order=_random_order(rng, n), widths=widths, start=0, steps=rows,
                 accepting=np.flatnonzero(_some(rng, widths[-1])),
                 layer_ends=_layer_ends(rng, k, n, widths))


def _random_pobdd(rng):
    n, k, widths, commuting = _shape(rng, Pobdd)

    def stochastic_circulant(w, w_next):
        return _circulant(rng, w, rng.dirichlet(np.ones(w)))

    def random_stochastic(w, w_next):
        return rng.dirichlet(np.ones(w_next), size=w)

    steps = _levels(rng, n, k, widths, commuting, stochastic_circulant, random_stochastic)
    return Pobdd(n=n, k=k, order=_random_order(rng, n), widths=widths, start=0,
                 steps=[np.stack(pair, axis=1) for pair in steps],
                 accepting=np.flatnonzero(_some(rng, widths[-1])), epsilon=0.1,
                 layer_ends=_layer_ends(rng, k, n, widths))


def _random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_quantum(rng):
    n, k, widths, commuting = _shape(rng, QuantumProgram)
    dim = widths[0]
    basis = _random_unitary(rng, dim)

    def commuting_unitary(w, w_next):
        return (basis * np.exp(2j * np.pi * rng.random(dim))) @ basis.conj().T

    def random_unitary(w, w_next):
        return _random_unitary(rng, dim)

    steps = _levels(rng, n, 1, widths, commuting, commuting_unitary, random_unitary)
    initial = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumProgram(n=n, dim=dim, order=_random_order(rng, n),
                          initial=initial / np.linalg.norm(initial), steps=steps, k=k,
                          accept=1 + np.flatnonzero(_some(rng, dim)))


RANDOM_KINDS = {"obdd": _random_obdd, "nobdd": _random_nobdd, "pobdd": _random_pobdd,
                "quantum": _random_quantum}


@pytest.mark.parametrize("kind", sorted(RANDOM_KINDS))
def test_verdicts_match_the_per_order_loop_on_random_programs(kind):
    rng = np.random.default_rng(sorted(RANDOM_KINDS).index(kind))
    verdicts, certified = [], []
    for case in range(75):
        program = RANDOM_KINDS[kind](rng)
        trials, seed = (50, 200)[case % 2], int(rng.integers(0, 1000))
        verdict = is_commutative(program, trials=trials, seed=seed)
        assert verdict == _reference_is_commutative(program, trials, seed), case
        certified.append(_certified(program, trials, seed))
        assert certified[-1] == _per_position_certificate(_padded(program)), case
        if case < 10:
            perms = [program.order.perm] + sample_orders(program.n, 8, seed)
            _assert_profiles_match(program, perms)
        verdicts.append(verdict)
    assert 10 <= sum(verdicts) <= 65
    assert 10 <= sum(certified) <= 65   # both routes decide cases of every kind


# --------------------------------------------------------------------------
# the certificate against the all-states check and against every order:
# seeded programs of every kind, n <= 6, k <= 2, mixed level widths


def _core_program(rng, kind):
    """A program whose operators commute on a core of nodes that holds the
    start and maps into itself, and act at random on the nodes outside it. In
    two thirds of the programs one operator is redrawn at random, on the core
    or across the whole next level; a layer end may leave the core."""
    n, k, c = int(rng.integers(1, 7)), int(rng.integers(1, 3)), int(rng.integers(2, 5))
    order = _random_order(rng, n)
    if kind == "quantum":
        return _core_quantum(rng, n, k, c, order)
    widths = [c + int(e) for e in rng.integers(0, 3, size=k * n + 1)]
    core, redrawn = np.arange(c), int(rng.integers(0, 3 * k * n))
    steps = []
    for ell in range(k * n):
        w, w_next = widths[ell], widths[ell + 1]
        pair = []
        for bit in (0, 1):
            if 2 * ell + bit == redrawn:
                rows = int(rng.choice([c, w_next]))
                op = _random_rows(rng, kind, w, rows, w_next)
            else:
                op = _random_rows(rng, kind, w, w_next, w_next)
                if kind == "obdd":
                    op[:c] = (core + rng.integers(0, c)) % c
                elif kind == "nobdd":
                    op[:c] = 0
                    op[:c, :c] = _circulant(rng, c, rng.random(c) < 0.4) > 0
                else:
                    op[:c] = 0
                    op[:c, :c] = _circulant(rng, c, rng.dirichlet(np.ones(c)))
            pair.append(op)
        steps.append(pair)
    ends = []
    for j in range(k):
        w = widths[(j + 1) * n]
        end = rng.integers(0, w, w)
        if rng.random() < 0.75:
            end[:c] = rng.integers(0, c, c)
        ends.append(None if rng.random() < 0.5 else end)
    fields = dict(n=n, k=k, order=order, widths=widths, start=0, layer_ends=ends)
    if kind == "obdd":
        return LeveledObdd(steps=[np.stack(pair, axis=1) for pair in steps],
                           sink_values=_some(rng, widths[-1]), **fields)
    accepting = np.flatnonzero(_some(rng, widths[-1]))
    if kind == "nobdd":
        rows = [[tuple(tuple(int(t) for t in np.flatnonzero(op[node])) for op in pair)
                 for node in range(pair[0].shape[0])] for pair in steps]
        return Nobdd(steps=rows, accepting=accepting, **fields)
    return Pobdd(steps=[np.stack(pair, axis=1) for pair in steps], accepting=accepting,
                 epsilon=0.1, **fields)


def _random_rows(rng, kind, w, targets, w_next):
    """w random rows that reach only the first `targets` of w_next nodes."""
    if kind == "obdd":
        return rng.integers(0, targets, w)
    op = np.zeros((w, w_next), dtype=bool if kind == "nobdd" else np.float64)
    if kind == "nobdd":
        op[:, :targets] = rng.random((w, targets)) < 0.4
    else:
        op[:, :targets] = rng.dirichlet(np.ones(targets), size=w)
    return op


def _core_quantum(rng, n, k, c, order):
    """Unitaries block-diagonal on the core (a commuting family) and on the
    rest (random); the initial state lies in the core."""
    dim = c + int(rng.integers(2, 4))   # random blocks of size 1 would commute
    basis, redrawn = _random_unitary(rng, c), int(rng.integers(0, 3 * n))
    steps = []
    for v in range(n):
        pair = []
        for bit in (0, 1):
            if 2 * v + bit == redrawn:
                pair.append(_random_unitary(rng, dim))
                continue
            g = np.zeros((dim, dim), dtype=np.complex128)
            g[:c, :c] = (basis * np.exp(2j * np.pi * rng.random(c))) @ basis.conj().T
            if dim > c:
                g[c:, c:] = _random_unitary(rng, dim - c)
            pair.append(g)
        steps.append(pair)
    initial = np.zeros(dim, dtype=np.complex128)
    initial[:c] = rng.normal(size=c) + 1j * rng.normal(size=c)
    return QuantumProgram(n=n, dim=dim, order=order, initial=initial / np.linalg.norm(initial),
                          steps=steps, k=k, accept=1 + np.flatnonzero(_some(rng, dim)))


@pytest.mark.parametrize("kind", sorted(RANDOM_KINDS))
def test_the_certificate_is_sound_and_refines_the_all_states_check(kind):
    rng = np.random.default_rng(100 + sorted(RANDOM_KINDS).index(kind))
    seen = {(True, True): 0, (True, False): 0, (False, False): 0}
    for case in range(60):
        program = _core_program(rng, kind)
        padded = _padded(program)
        certified = _commutes_pairwise(padded, limits.TOL)
        assert certified == _per_position_certificate(padded), case
        by_reference = _reference_commutes_pairwise(padded)
        assert certified or not by_reference, case
        seen[certified, by_reference] += 1
        if certified:   # then all n! orders give the own order's outputs
            own = _reference_profile(padded, program.order.perm)
            for perm in itertools.permutations(range(1, program.n + 1)):
                np.testing.assert_allclose(_reference_profile(padded, perm), own,
                                           rtol=0, atol=limits.TOL, err_msg=str(case))
    # every outcome occurs, and at least half the certified programs fail the all-states check
    assert min(seen.values()) >= 3
    assert seen[True, False] >= seen[True, True]


# --------------------------------------------------------------------------
# batching: O(k*n) products per certificate, not one per pair of variables


def test_the_certificate_batches_its_products(monkeypatch):
    # pj-2k's operators are index maps, so each product is a gather (`_then`)
    program = parse_program_spec("pj-2k:2,4")
    padded = _padded(program)
    then, calls = diagrams._then, []

    def counted(images, ops):
        calls.append(ops.shape)
        return then(images, ops)

    monkeypatch.setattr(diagrams, "_then", counted)
    assert _commutes_pairwise(padded, limits.TOL)
    k, n = program.k, program.n
    assert (k, n) == (4, 24)
    assert 0 < len(calls) <= 4 * k * n < 4 * k * math.comb(n, 2)


@pytest.mark.parametrize("spec", PROGRAM_SPECS + ["or-nobdd:8", "or-nobdd:12", "eq-obdd:8",
                                                  "eq-pobdd:8", "rpj-2k:1,2", "pj-2k:2,4"])
def test_the_batched_certificate_matches_the_per_position_one_on_zoo_bases(spec):
    padded = _padded(parse_program_spec(spec))
    assert _commutes_pairwise(padded, limits.TOL) == _per_position_certificate(padded)


@pytest.mark.parametrize("chunk_rows", [limits.CHUNK_ROWS, 16])
def test_the_certificate_verdict_does_not_depend_on_the_chunk(chunk_rows, monkeypatch):
    # at 16 rows every chunk holds one pair of index maps, or one position
    # against one later one for matrices
    monkeypatch.setattr(limits, "CHUNK_ROWS", chunk_rows)
    for spec in ("pj-2k:3,2", "eq-pobdd:8", "or-nobdd:8", "eq-qobdd:4", "rpj-2k:1,2"):
        padded = _padded(parse_program_spec(spec))
        assert _commutes_pairwise(padded, limits.TOL) == (spec in CERTIFIED), spec


# --------------------------------------------------------------------------
# memory: one order's table at a time, of at most limits.CHUNK_ROWS state rows


def _tagged_counter(n):
    """A mod-3 counter of the ones read, tagged with the last variable that
    read a one (node 3*tag + count); the readout ignores the tag. Every order
    gives the same count, but the bit-1 maps of two variables leave different
    tags on every state, so the certificate fails and the sample decides."""
    w = 3 * (n + 1)
    node = np.arange(w)
    steps = [np.stack([node, 3 * v + (node + 1) % 3], axis=1) for v in range(1, n + 1)]
    return LeveledObdd(n=n, k=1, order=VarOrder.identity(n), widths=[w] * (n + 1), start=0,
                       steps=steps, sink_values=(node % 3 == 0).astype(np.uint8))


def _budget_program(spec):
    name, _, kind = spec.partition(" as ")
    if name.startswith("tagged:"):
        program = _tagged_counter(int(name.split(":")[1]))
    else:
        program = parse_program_spec(name)
    embed = {"": lambda p: p, "nobdd": embed_obdd_as_nobdd, "pobdd": embed_obdd_as_pobdd,
             "nobdd rows": lambda p: embedded_from_rows(p, Nobdd),
             "pobdd rows": lambda p: embedded_from_rows(p, Pobdd)}
    return embed[kind](program)


# the tagged counters fail the certificate, so the fallback runs every order
# of a commutative program; or-nobdd:12 and pj-2k:3,2 certify. "as nobdd"
# keeps the counter's index maps, and "as nobdd rows" builds it from per-node
# rows, whose operators are matrices
@pytest.mark.parametrize("spec, trials", [("tagged:8", 200), ("tagged:12", 50),
                                          ("tagged:8 as nobdd", 200), ("tagged:12 as nobdd", 50),
                                          ("tagged:8 as pobdd", 200), ("tagged:12 as pobdd", 50),
                                          ("tagged:8 as nobdd rows", 200),
                                          ("tagged:12 as nobdd rows", 50),
                                          ("tagged:8 as pobdd rows", 200),
                                          ("tagged:12 as pobdd rows", 50),
                                          ("or-nobdd:12", 200), ("pj-2k:3,2", 200)])
def test_commutativity_check_stays_within_the_chunk_budget(spec, trials):
    program = _budget_program(spec)
    padded = _padded(program)
    state_bytes = limits.CHUNK_ROWS * width(program) * padded._first(1).dtype.itemsize
    operator_bytes = sum(op.nbytes for pair in padded.steps for op in pair)
    assert _commutes_pairwise(padded, limits.TOL) == (spec in CERTIFIED)
    assert is_commutative(program, trials=1)   # fills the input-table caches
    # a program keeps its padded copy, table and verdict, so a fresh one is measured
    program = _budget_program(spec)
    tracemalloc.start()
    try:
        assert is_commutative(program, trials=trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * state_bytes + operator_bytes


# --------------------------------------------------------------------------
# the sampled route: one whole-table pass per order it compares


def test_the_sampled_route_runs_one_table_per_order(monkeypatch):
    calls, profile = [], diagrams._permuted_profile

    def counted(padded, perm):
        calls.append(perm)
        return profile(padded, perm)

    monkeypatch.setattr(diagrams, "_permuted_profile", counted)
    assert is_commutative(_tagged_counter(8), trials=50)   # commutative, not certified
    assert calls == sample_orders(8, 50, seed=0)
    # the own order is skipped, and the first other order differs
    for spec, first_other in (("tree:eq:4", (1, 2, 4, 3)), ("tree:eq:2", (2, 1))):
        calls.clear()
        assert not is_commutative(parse_program_spec(spec))
        assert calls == [first_other]
