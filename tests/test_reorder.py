"""Block layouts, function/program reordering, and totalization."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddlab.boolfn import BoolFn, PartialBoolFn, VarOrder, evaluate
from ddlab.diagrams import acceptance_table, build_binary_tree_obdd, function_of, width
from ddlab.errors import CommutativityError, ConsistencyError, ShapeError
from ddlab.fixtures import eq_multipliers
from ddlab.quantum import (QuantumProgram, accept_probability, check_unitary)
from ddlab.reorder import (BlockLayout, allowed_input_indexes, reorder_function,
                           reorder_nobdd, reorder_obdd, reorder_pobdd, totalize,
                           xor_reorder_qobdd)
from ddlab.zoo import (eq, eq_geometric_pobdd, eq_weighted_obdd, fingerprint_eq_qobdd,
                       or_guess_nobdd)


def test_block_layout_shape():
    with pytest.raises(ShapeError):
        BlockLayout(3)
    with pytest.raises(ShapeError):
        BlockLayout(1)
    two = BlockLayout(2)
    assert (two.q, two.p, two.n) == (2, 1, 4)
    four = BlockLayout(4)
    assert (four.q, four.p, four.n) == (4, 2, 12)
    assert four.address_positions(1) == (1, 2)
    assert four.value_position(1) == 3
    assert four.address_positions(2) == (4, 5)
    assert four.value_position(2) == 6
    assert four.address_positions(4) == (10, 11)
    assert four.value_position(4) == 12


def test_block_addresses_direct_and_xor():
    four = BlockLayout(4)
    x = (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1)
    # address bits per block: (1,0)=2, (0,1)=1, (1,0)=2, (0,1)=1
    assert four.block_addresses(x, "direct") == (2, 1, 2, 1)
    # running xor: 2, 2^1=3, 3^2=1, 1^1=0
    assert four.block_addresses(x, "xor") == (2, 3, 1, 0)
    assert four.block_values(x) == (1, 0, 1, 1)
    assert not four.is_allowed(x, "direct")
    assert four.is_allowed(x, "xor")
    with pytest.raises(ShapeError):
        four.block_addresses(x, "sideways")
    with pytest.raises(ShapeError):
        four.block_addresses(x[:-1], "direct")


def _reference_decode(layout, x, mode):
    """The per-input decoding loop: block addresses (0-based) and value bits
    of one input, read bit by bit."""
    bits = [int(b) for b in x]
    out = []
    running = 0
    for i in range(1, layout.q + 1):
        a = 0
        for pos in layout.address_positions(i):
            a = (a << 1) | bits[pos - 1]
        if mode == "xor":
            running ^= a
            out.append(running)
        else:
            out.append(a)
    return tuple(out), tuple(bits[layout.value_position(i) - 1] for i in range(1, layout.q + 1))


def _assert_decode_matches_reference(layout, rows, mode):
    addr, vals = layout.decode(rows, mode)
    assert addr.shape == vals.shape == (len(rows), layout.q)
    for x, a, v in zip(rows, addr, vals):
        assert (tuple(map(int, a)), tuple(map(int, v))) == _reference_decode(layout, x, mode)


@pytest.mark.parametrize("mode", ["direct", "xor"])
@pytest.mark.parametrize("q", [2, 4])
def test_decode_matches_the_per_input_loop_on_every_input(q, mode):
    layout = BlockLayout(q)
    rows = np.array(list(itertools.product((0, 1), repeat=layout.n)))
    _assert_decode_matches_reference(layout, rows, mode)
    table_addr, table_vals = layout.addresses_and_values(mode)
    addr, vals = layout.decode(rows, mode)
    assert np.array_equal(table_addr, addr) and np.array_equal(table_vals, vals)


@pytest.mark.parametrize("mode", ["direct", "xor"])
@pytest.mark.parametrize("q", [8, 16])
def test_decode_matches_the_per_input_loop_on_sampled_inputs(q, mode):
    # n = 32 and n = 80: no 2**n table exists, and decode needs none
    layout = BlockLayout(q)
    rng = np.random.default_rng(q)
    _assert_decode_matches_reference(layout, rng.integers(0, 2, size=(200, layout.n)), mode)
    assert layout.is_allowed(layout.assemble_input(rng.permutation(q), [1] * q, mode), mode)


@pytest.mark.parametrize("mode", ["direct", "xor"])
def test_is_allowed_holds_at_every_block_count(mode):
    # q = 64 and 128 need more address bits than an int64 mask holds
    for q in (2, 16, 64, 128):
        layout = BlockLayout(q)
        perm = list(range(q))[::-1]
        assert layout.is_allowed(layout.assemble_input(perm, [0] * q, mode), mode)
        perm[0] = perm[-1]
        assert not layout.is_allowed(layout.assemble_input(perm, [0] * q, mode), mode)


def test_layout_reads_refuse_entries_that_are_not_bits():
    two = BlockLayout(2)
    for call in (lambda: two.block_addresses((2, 0, 0, 0), "direct"),
                 lambda: two.is_allowed((2, 0, 0, 0), "direct"),
                 lambda: two.block_values((0, 0, 0, -1)),
                 lambda: two.decode([[0, 1, 0, 0.5]], "xor"),
                 lambda: two.decode([0, 1, 0, 1], "xor"),
                 lambda: two.assemble_input([0, 1], [2, 0], "direct")):
        with pytest.raises(ShapeError):
            call()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 4]), st.sampled_from(["direct", "xor"]),
       st.randoms(use_true_random=False))
def test_assemble_input_inverts_block_reads(q, mode, rng):
    layout = BlockLayout(q)
    perm = list(range(q))
    rng.shuffle(perm)
    vals = [rng.randint(0, 1) for _ in range(q)]
    x = layout.assemble_input(perm, vals, mode)
    assert len(x) == layout.n
    assert layout.block_addresses(x, mode) == tuple(perm)
    assert layout.block_values(x) == tuple(vals)
    assert layout.is_allowed(x, mode)


def test_assemble_input_accepts_non_permutations():
    two = BlockLayout(2)
    x = two.assemble_input([1, 1], [0, 1], "direct")
    assert two.block_addresses(x, "direct") == (1, 1)
    assert not two.is_allowed(x, "direct")
    with pytest.raises(ShapeError):
        two.assemble_input([0, 2], [0, 0], "direct")
    with pytest.raises(ShapeError):
        two.assemble_input([0], [0, 0], "direct")


def test_allowed_input_counts():
    two = BlockLayout(2)
    four = BlockLayout(4)
    for mode in ("direct", "xor"):
        assert allowed_input_indexes(two, mode).shape[0] == 8
        # 4! address arrangements times 2**4 value patterns
        assert allowed_input_indexes(four, mode).shape[0] == 384


def test_reorder_function_worked_values():
    two = BlockLayout(2)
    fp = reorder_function(eq(2), two, "direct")
    assert isinstance(fp, PartialBoolFn)
    assert fp.n == 4
    assert fp.defined_count() == 8
    # x = (a1, v1, a2, v2); address j supplies argument j+1
    assert evaluate(fp, (0, 1, 1, 0)) == 0
    assert evaluate(fp, (0, 1, 1, 1)) == 1
    assert evaluate(fp, (0, 0, 1, 0)) == 1
    assert evaluate(fp, (1, 1, 0, 1)) == 1
    assert evaluate(fp, (1, 1, 0, 0)) == 0
    assert evaluate(fp, (0, 1, 0, 0)) is None  # duplicate addresses
    assert evaluate(fp, (1, 0, 1, 1)) is None


def test_reorder_function_xor_mode_addressing():
    two = BlockLayout(2)
    fp = reorder_function(eq(2), two, "xor")
    # allowed iff the second block's raw address bit is 1
    for bits in itertools.product((0, 1), repeat=4):
        v = evaluate(fp, bits)
        if bits[2] == 0:
            assert v is None
        else:
            first = bits[1] if bits[0] == 0 else bits[3]
            second = bits[3] if bits[0] == 0 else bits[1]
            assert v == (1 if first == second else 0)


def test_reorder_function_rejects_mismatched_arity():
    with pytest.raises(ShapeError):
        reorder_function(eq(4), BlockLayout(2), "direct")
    with pytest.raises(ShapeError):
        reorder_function(PartialBoolFn(2, [1, 1, 1, 1], [1, 0, 0, 1]),
                         BlockLayout(2), "direct")


def test_totalize_agreement_and_conflict():
    two = BlockLayout(2)
    base = eq_weighted_obdd(2)
    lifted = reorder_obdd(base, two, "direct")
    fp = reorder_function(eq(2), two, "direct")
    total = totalize(fp, lifted)
    assert isinstance(total, BoolFn)
    # defined points keep their values
    defined = fp.defined.astype(bool)
    assert np.array_equal(total.table[defined], fp.values[defined])
    # a partial function that contradicts the program is rejected
    flipped = fp.values.copy()
    first = int(np.nonzero(fp.defined)[0][0])
    flipped[first] ^= 1
    wrong = PartialBoolFn(fp.n, fp.defined, flipped)
    with pytest.raises(ConsistencyError):
        totalize(wrong, lifted)


def test_totalize_accepts_total_functions():
    prog = build_binary_tree_obdd(eq(4))
    assert totalize(eq(4), prog) == eq(4)
    with pytest.raises(ConsistencyError):
        totalize(BoolFn(4, 1 - eq(4).table), prog)


@pytest.mark.parametrize("mode", ["direct", "xor"])
@pytest.mark.parametrize("q", [2, 4])
def test_obdd_lift_width_and_function(q, mode):
    layout = BlockLayout(q)
    base = eq_weighted_obdd(q)
    lifted = reorder_obdd(base, layout, mode)
    assert lifted.n == layout.n
    assert all(w == q * width(base) for w in lifted.widths)
    fp = reorder_function(eq(q), layout, mode)
    table = function_of(lifted).table
    for idx in allowed_input_indexes(layout, mode):
        assert table[idx] == fp.values[idx]


@pytest.mark.parametrize("mode", ["direct", "xor"])
def test_nobdd_lift_width_and_function(mode):
    layout = BlockLayout(2)
    base = or_guess_nobdd(2)
    lifted = reorder_nobdd(base, layout, mode)
    assert all(w == 2 * width(base) for w in lifted.widths)
    fp = reorder_function(function_of(base), layout, mode)
    table = function_of(lifted).table
    for idx in allowed_input_indexes(layout, mode):
        assert table[idx] == fp.values[idx]


@pytest.mark.parametrize("mode", ["direct", "xor"])
def test_pobdd_lift_width_and_function(mode):
    layout = BlockLayout(2)
    base = eq_geometric_pobdd(2)
    lifted = reorder_pobdd(base, layout, mode)
    assert all(w == 2 * width(base) for w in lifted.widths)
    assert lifted.epsilon == base.epsilon
    fp = reorder_function(eq(2), layout, mode)
    probs = acceptance_table(lifted)
    for idx in allowed_input_indexes(layout, mode):
        if fp.values[idx]:
            assert probs[idx] == pytest.approx(1.0, abs=1e-9)
        else:
            assert probs[idx] <= 0.25 + 1e-9


def test_quantum_lift_dimension_margins_and_unitarity():
    layout = BlockLayout(2)
    ks = eq_multipliers(2)["multipliers"]
    base = fingerprint_eq_qobdd(2, ks)
    lifted = xor_reorder_qobdd(base, layout)
    assert lifted.dim == 2 * base.dim
    assert check_unitary(lifted).passed
    fp = reorder_function(eq(2), layout, "xor")
    for idx in allowed_input_indexes(layout, "xor"):
        bits = tuple((int(idx) >> (layout.n - i)) & 1 for i in range(1, layout.n + 1))
        prob = accept_probability(lifted, bits)
        if fp.values[idx]:
            assert prob == pytest.approx(1.0, abs=1e-9)
        else:
            assert prob <= 1.0 / 3.0 + 1e-9


def test_classical_lifts_reject_non_commutative_bases():
    tree = build_binary_tree_obdd(eq(2))
    with pytest.raises(CommutativityError):
        reorder_obdd(tree, BlockLayout(2), "direct")


def test_quantum_lift_rejects_non_commutative_and_multilayer():
    eye = np.eye(2, dtype=np.complex128)
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
                   dtype=np.complex128)
    had = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
    doomed = QuantumProgram(n=2, dim=2, order=VarOrder.identity(2),
                            initial=np.array([1.0, 0.0]), steps=[(eye, rot), (eye, had)],
                            accept=[2])
    with pytest.raises(CommutativityError):
        xor_reorder_qobdd(doomed, BlockLayout(2))
    ks = eq_multipliers(2)["multipliers"]
    base = fingerprint_eq_qobdd(2, ks)
    two_layer = QuantumProgram(n=base.n, dim=base.dim, order=base.order,
                               initial=base.initial, steps=list(base.steps),
                               accept=sorted(base.accept), k=2)
    with pytest.raises(ShapeError):
        xor_reorder_qobdd(two_layer, BlockLayout(2))


def test_lift_type_checks():
    with pytest.raises(ShapeError):
        reorder_obdd(or_guess_nobdd(2), BlockLayout(2), "direct")
    with pytest.raises(ShapeError):
        reorder_nobdd(eq_weighted_obdd(2), BlockLayout(2), "direct")
    with pytest.raises(ShapeError):
        reorder_pobdd(eq_weighted_obdd(2), BlockLayout(2), "direct")
    with pytest.raises(ShapeError):
        xor_reorder_qobdd(eq_weighted_obdd(2), BlockLayout(2))
