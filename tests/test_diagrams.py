"""Leveled programs: construction, evaluation, extraction, commutativity, text."""
import time
import warnings

import numpy as np
import pytest
from conftest import dense_op, embedded_from_rows

from ddlab import diagrams, limits
from ddlab.boolfn import BoolFn, VarOrder
from ddlab.diagrams import (LeveledObdd, Nobdd, Pobdd, _commutes_pairwise, acceptance_table,
                            build_binary_tree_obdd, embed_obdd_as_nobdd, embed_obdd_as_pobdd,
                            eval_nobdd, eval_obdd, eval_pobdd, function_of, is_commutative,
                            sample_orders, size, to_text, width)
from ddlab.errors import CapacityError, DependencyError, ShapeError, StructuralError
from ddlab.experiments import parse_program_spec
from ddlab.quantum import QuantumProgram, accept_probability
from ddlab.reorder import BlockLayout, reorder_nobdd
from ddlab.zoo import eq, eq_geometric_pobdd, eq_weighted_obdd, or_guess_nobdd, pj_2k_obdd, ws_b


def _xor2_obdd():
    # parity of two bits: two levels of width <= 2
    return LeveledObdd(
        n=2, k=1, order=VarOrder.identity(2), widths=[1, 2, 2], start=0,
        steps=[[(0, 1)], [(0, 1), (1, 0)]], sink_values=[0, 1],
    )


def test_eval_obdd_walk():
    prog = _xor2_obdd()
    assert [eval_obdd(prog, ((i >> 1) & 1, i & 1)) for i in range(4)] == [0, 1, 1, 0]
    assert width(prog) == 2
    assert size(prog) == 5


def test_quantum_programs_report_level_widths():
    # every one of the k*n + 1 levels of a quantum program holds dim states
    prog = parse_program_spec("eq-qobdd:2")
    assert prog.widths == (prog.dim,) * (prog.n + 1)
    assert width(prog) == prog.dim
    assert size(prog) == (prog.n + 1) * prog.dim
    two_layer = QuantumProgram(n=prog.n, dim=prog.dim, order=prog.order, initial=prog.initial,
                               steps=list(prog.steps), accept=prog.accept, k=2)
    assert size(two_layer) == (2 * prog.n + 1) * prog.dim


def test_obdd_validation():
    with pytest.raises(ShapeError):
        LeveledObdd(n=2, k=1, order=VarOrder.identity(2), widths=[1, 2], start=0,
                    steps=[[(0, 1)], [(0, 1), (1, 0)]], sink_values=[0, 1])
    with pytest.raises(StructuralError):
        LeveledObdd(n=2, k=1, order=VarOrder.identity(2), widths=[1, 2, 2], start=0,
                    steps=[[(0, 2)], [(0, 1), (1, 0)]], sink_values=[0, 1])
    with pytest.raises(ShapeError):
        LeveledObdd(n=2, k=1, order=VarOrder.identity(1), widths=[1, 2, 2], start=0,
                    steps=[[(0, 1)], [(0, 1), (1, 0)]], sink_values=[0, 1])
    with pytest.raises(ShapeError):   # ragged rows
        LeveledObdd(n=2, k=1, order=VarOrder.identity(2), widths=[1, 2, 2], start=0,
                    steps=[[(0, 1)], [(0,), (1, 0)]], sink_values=[0, 1])


def test_layer_ends_are_applied_between_layers():
    # one variable, two layers; the layer-end map swaps the two nodes, so the
    # program computes NOT x_1 even though every transition is the identity
    ends = [np.array([1, 0]), None]
    prog = LeveledObdd(
        n=1, k=2, order=VarOrder.identity(1), widths=[2] * 3, start=0,
        steps=[[(0, 0), (1, 1)], [(0, 0), (1, 1)]], sink_values=[0, 1],
        layer_ends=ends,
    )
    assert eval_obdd(prog, (0,)) == 1
    assert eval_obdd(prog, (1,)) == 1
    f = function_of(prog)
    assert f.table.tolist() == [1, 1]


def test_eval_nobdd_existential():
    prog = or_guess_nobdd(3)
    f = function_of(prog)
    assert f.table.tolist() == [0, 1, 1, 1, 1, 1, 1, 1]
    assert eval_nobdd(prog, (0, 0, 0)) == 0
    assert eval_nobdd(prog, (0, 1, 0)) == 1


def test_nobdd_successors_must_be_node_indexes():
    def build(rows):
        return Nobdd(n=1, k=1, order=VarOrder.identity(1), widths=[1, 2], start=0,
                     steps=[rows], accepting=[1])

    assert function_of(build([((0,), (np.int64(1),))])).table.tolist() == [0, 1]
    # x1 written in the Pobdd level shape (w, 2, w'): a boolean row per bit
    for rows in (np.array([[[True, False], [False, True]]]), [([True], [1])],
                 [((0,), (np.True_,))], [((0.0,), (1,))], [((0,), (np.array([1]),))]):
        with pytest.raises(ShapeError):
            build(rows)


def test_nobdd_rows_must_be_successor_pairs():
    def build(rows):
        return Nobdd(n=1, k=1, order=VarOrder.identity(1), widths=[1, 2], start=0,
                     steps=[rows], accepting=[1])

    # one successor set, three successor sets, and a row of scalars
    for rows in ([((0,),)], [((0,), (1,), (0,))], [(0, 1)], [0]):
        with pytest.raises(ShapeError):
            build(rows)


def test_eval_pobdd_acceptance():
    prog = eq_geometric_pobdd(2)
    acc = acceptance_table(prog)
    table = eq(2).table
    assert acc[table == 1].min() == pytest.approx(1.0, abs=1e-12)
    assert acc[table == 0].max() == pytest.approx(0.25, abs=1e-12)
    assert eval_pobdd(prog, (0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert eval_pobdd(prog, (0, 1)) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("support", [[], [3], [0, 2, 5], list(range(7))])
def test_per_input_step_equals_the_dense_product(support):
    # the scalar step walks only the live states; it must equal state @ op.
    # A first step sends the start node to the state under test.
    rng = np.random.default_rng(len(support))
    w, w_next = 7, 5
    reached = np.zeros(w, dtype=bool)
    reached[support] = True
    relation = rng.random((w, w_next)) < 0.4
    nobdd = or_guess_nobdd(2)
    first = np.zeros((nobdd.start + 1, w), dtype=bool)
    first[nobdd.start] = reached
    got = nobdd._walk([nobdd._form(first), nobdd._form(relation)])
    assert got == set(np.flatnonzero(reached @ relation).tolist())
    dist = np.where(reached, rng.random(w), 0.0)
    stochastic = rng.random((w, w_next))
    stochastic /= stochastic.sum(axis=1, keepdims=True)
    pobdd = eq_geometric_pobdd(2)
    first = np.zeros((pobdd.start + 1, w))
    first[pobdd.start] = dist
    got = pobdd._walk([pobdd._form(first), pobdd._form(stochastic)])
    assert set(got) == (set(range(w_next)) if support else set())
    np.testing.assert_allclose([got.get(t, 0.0) for t in range(w_next)],
                               dist @ stochastic, rtol=0, atol=1e-15)


def test_nobdd_evaluation_never_counts_paths():
    # two successors per node on each of 64 levels: 2**64 paths reach the
    # last level, whose bit-1 operator alone reaches the accepting node
    n = 64
    both = [((0, 1), (0, 1))] * 2
    last = [((0,), (1,))] * 2
    prog = Nobdd(n=n, k=1, order=VarOrder.identity(n), widths=[2] * (n + 1), start=0,
                 steps=[both] * (n - 1) + [last], accepting=[1])
    eval_nobdd(prog, (0,) * n)   # builds the per-input forms
    start = time.perf_counter()
    got = [eval_nobdd(prog, (b,) * n) for b in (0, 1)]
    assert time.perf_counter() - start < 0.5
    assert got == [0, 1]


@pytest.mark.parametrize("states, ops", [((5, 7), (7, 4)), ((600, 7), (7, 4)),
                                         ((3, 1, 5, 7), (1, 2, 7, 4)), ((2, 600, 7), (2, 7, 4)),
                                         ((1, 1, 2, 9, 6), (7, 2, 1, 6, 6)),
                                         ((3, 40, 300), (3, 300, 20)), ((4, 2, 0, 7), (2, 7, 3))])
def test_boolean_product_equals_the_integer_product(states, ops):
    # stacks of operators broadcast against stacks of states, as the
    # commutativity certificate uses them, and large ones go in blocks of rows
    rng = np.random.default_rng(sum(states) + sum(ops))
    reached, relation = rng.random(states) < 0.3, rng.random(ops) < 0.3
    product = or_guess_nobdd(2)._act(reached, relation)
    expected = (reached.astype(np.int64) @ relation.astype(np.int64)) > 0
    assert product.dtype == bool and np.array_equal(product, expected)


def _per_entry_product(states, op):
    # the boolean product, one batch entry and one state row at a time
    batch = np.broadcast_shapes(states.shape[:-2], op.shape[:-2])
    states = np.broadcast_to(states != 0, batch + states.shape[-2:])
    op = np.broadcast_to(op != 0, batch + op.shape[-2:])
    out = np.zeros(batch + (states.shape[-2], op.shape[-1]), dtype=bool)
    for i in np.ndindex(batch):
        for r, row in enumerate(states[i]):
            out[i][r] = (row[:, None] & op[i]).any(axis=0)
    return out


@pytest.mark.parametrize("chunk_rows", [limits.CHUNK_ROWS, 64])
def test_boolean_product_on_the_certificate_stacks_equals_a_per_entry_product(chunk_rows,
                                                                              monkeypatch):
    # every product the certificate makes on two boolean bases, one of them
    # layered (built from per-node rows, so its operators are matrices): each
    # is one 2-d product on operators set side by side; at 64 chunk rows a
    # float block holds 4 state rows, and a product one or two later positions
    calls, product = [], Nobdd._product

    def recorded(self, states, op, out=None):
        out = product(self, states, op, out)
        calls.append((states, op, out))
        return out

    monkeypatch.setattr(limits, "CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(Nobdd, "_product", recorded)
    for program in (or_guess_nobdd(8), embedded_from_rows(pj_2k_obdd(2, 2), Nobdd)):
        assert _commutes_pairwise(diagrams._padded(program), limits.TOL)
    assert calls and {(states.ndim, op.ndim) for states, op, _ in calls} == {(2, 2)}
    for states, op, out in calls:
        assert out.dtype == bool and np.array_equal(out, _per_entry_product(states, op))


@pytest.mark.parametrize("embed", [embed_obdd_as_nobdd, embed_obdd_as_pobdd])
def test_layer_end_forms_equal_the_forms_of_their_dense_matrices(embed):
    program = embed(pj_2k_obdd(2, 2))
    forms = program._per_input()[1]
    assert [form is None for form in forms] == [end is None for end in program.layer_ends]
    assert any(end is not None for end in program.layer_ends)
    for j, end in enumerate(program.layer_ends):
        if end is not None:
            assert repr(forms[j]) == repr(program._form(dense_op(program, end)))   # types too
    # the embedded levels are the deterministic program's maps, onto the next level's width
    for ell, (pair, level) in enumerate(zip(program.steps, program._per_input()[0])):
        for op, form in zip(pair, level):
            assert op.dtype.kind == "i"
            assert repr(form) == repr(program._form(dense_op(program, op, program.widths[ell + 1])))


@pytest.mark.parametrize("spec, evaluate", [("eq-obdd:4", eval_obdd), ("or-nobdd:4", eval_nobdd),
                                            ("eq-pobdd:4", eval_pobdd),
                                            ("eq-qobdd:4", accept_probability)])
def test_every_evaluator_reads_the_same_inputs_and_refuses_the_same_ones(spec, evaluate):
    program = parse_program_spec(spec)
    x = [1, 0, 1, 1]
    expected = evaluate(program, x)
    # bools, numpy ints and arrays, and strings that int() reads as bits
    for same in ([True, False, True, True], np.array(x), np.array(x, dtype=bool),
                 [np.int64(b) for b in x], "1011", ["1", " 0", "01", "1"]):
        assert evaluate(program, same) == expected
    # a wrong length is named first, even when an entry is not a bit
    for wrong in ([1, 0, 1], "10110", np.ones(5, dtype=np.int64), [1, 0, 2, 1, 1]):
        with pytest.raises(ShapeError, match="expected 4 input bits, got %d" % len(wrong)):
            evaluate(program, wrong)
    for wrong in ([1, 0, 2, 1], "1201", np.array([1, 0, 2, 1]), [1, 0, 1, -1],
                  [1.0, 0.0, 2.0, 1.0]):
        with pytest.raises(ShapeError, match="input bits must be 0 or 1"):
            evaluate(program, wrong)


@pytest.mark.parametrize("program", [eq_geometric_pobdd(2), or_guess_nobdd(2)],
                         ids=["float", "bool"])
def test_layer_end_adds_in_the_order_of_np_add_at(program):
    # sources 0, 3, 4 and 6 all land on node 2, and node 4 receives none;
    # the large entries make a float sum depend on the order of its terms
    rng = np.random.default_rng(6)
    end = np.array([2, 0, 5, 2, 2, 1, 2, 3])
    if program._DTYPE is bool:
        states = rng.random((300, 8)) < 0.3
    else:
        states = rng.random((300, 8)) * 10.0 ** rng.integers(-8, 17, (300, 8))
        states[:, [0, 3, 4, 6]] *= [1.0, 1.0, -1.0, 1.0]
    reference = np.zeros_like(states)
    np.add.at(reference.T, end, states.T)
    mapped = program._act(states, end)
    assert mapped.dtype == states.dtype and np.array_equal(mapped, reference)
    if program._DTYPE is not bool:
        # a sum in another order than np.add.at's differs on some row
        reordered = states[:, [6, 4, 3, 0]].sum(axis=1)
        assert not np.array_equal(mapped[:, 2], reordered)


def _column_loop_end(states, end):
    # the layer end as a loop over the state columns, in source order
    mapped = np.zeros_like(states)
    for i, t in enumerate(end.tolist()):
        mapped[:, t] += states[:, i]
    return mapped


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, bool])
def test_layer_end_equals_the_column_loop_bit_for_bit(dtype):
    # a 2-to-1 direct-mode map ((slot, node) -> end[node], end a bijection,
    # over two slots) and the (slot, node) -> node map of four slots
    rng = np.random.default_rng(7)
    w = 8
    node = np.arange(4 * w) % w
    maps = [rng.permutation(w)[node[: 2 * w]], node]
    program = or_guess_nobdd(2) if dtype is bool else eq_geometric_pobdd(2)
    for end in maps:
        shape = (300, end.shape[0])
        if dtype is bool:
            states = rng.random(shape) < 0.3
        else:
            states = rng.random(shape) * 10.0 ** rng.integers(-8, 17, shape)
            if dtype is np.complex128:
                states = states + 1j * rng.random(shape) * 10.0 ** rng.integers(-8, 17, shape)
        mapped, reference = program._act(states, end), _column_loop_end(states, end)
        assert mapped.dtype == reference.dtype and mapped.shape == reference.shape
        assert np.ascontiguousarray(mapped).tobytes() == reference.tobytes()


def test_pobdd_rows_must_be_stochastic():
    good = np.array([0.5, 0.5])
    with pytest.raises(StructuralError):
        Pobdd(n=1, k=1, order=VarOrder.identity(1), widths=[2, 2], start=0,
              steps=[[(np.array([0.6, 0.6]), good), (good, good)]],
              accepting=[1], epsilon=0.1)
    with pytest.raises(StructuralError):
        Pobdd(n=1, k=1, order=VarOrder.identity(1), widths=[2, 2], start=0,
              steps=[[(np.array([1.2, -0.2]), good), (good, good)]],
              accepting=[1], epsilon=0.1)


def test_pobdd_rows_must_be_pairs_of_full_rows():
    good = np.array([0.5, 0.5])
    for rows in ([(good, np.array([1.0])), (good, good)],   # ragged
                 [(good, good, good), (good, good)],        # not a pair
                 [(np.array([0.5, 0.25, 0.25]),) * 2] * 2):  # too long
        with pytest.raises(ShapeError):
            Pobdd(n=1, k=1, order=VarOrder.identity(1), widths=[2, 2], start=0,
                  steps=[rows], accepting=[1], epsilon=0.1)


def test_binary_tree_widths_for_equality():
    prog = build_binary_tree_obdd(eq(4))
    assert tuple(prog.widths) == (1, 2, 4, 3, 2)
    assert width(prog) == 4
    assert function_of(prog) == eq(4)


def test_binary_tree_live_set():
    f = BoolFn.from_callable(3, lambda x: x[0])
    prog = build_binary_tree_obdd(f, live={1})
    assert width(prog) <= 2
    assert function_of(prog) == f
    with pytest.raises(DependencyError):
        build_binary_tree_obdd(f, live={2, 3})


def test_binary_tree_padded_weighted_sum_width():
    f = ws_b(6, 3)
    prog = build_binary_tree_obdd(f)
    assert width(prog) <= 8
    assert function_of(prog) == f


def test_function_of_caps():
    big = LeveledObdd(
        n=17, k=1, order=VarOrder.identity(17), widths=[1] * 18, start=0,
        steps=[[(0, 0)] for _ in range(17)], sink_values=[0],
    )
    with pytest.raises(CapacityError):
        function_of(big)


def test_is_commutative_positive_and_negative():
    assert is_commutative(eq_weighted_obdd(4))
    assert is_commutative(or_guess_nobdd(3))
    assert is_commutative(eq_geometric_pobdd(2))
    tree = build_binary_tree_obdd(eq(2))
    assert not is_commutative(tree)


@pytest.mark.parametrize("spec", ["tree:eq:6", "tree:eq:8", "tree:ws:8"])
@pytest.mark.parametrize("trials", [0, -3])
def test_is_commutative_refuses_fewer_than_one_trial(spec, trials):
    # above n = 5 the orders are sampled: with no trials the own order would
    # only be compared with itself and a non-commutative program would pass
    program = parse_program_spec(spec)
    assert not is_commutative(program, trials=1)
    with pytest.raises(ShapeError):
        is_commutative(program, trials=trials)


def test_is_commutative_capacity():
    # bit 1 sets node 1 on odd levels and node 0 on even ones: two such maps
    # do not commute, so the sampled check, capped at n = 12, has to decide
    prog = LeveledObdd(
        n=13, k=1, order=VarOrder.identity(13), widths=[2] * 14, start=0,
        steps=[[(s, 1 - ell % 2) for s in range(2)] for ell in range(13)], sink_values=[0, 1],
    )
    assert not _commutes_pairwise(prog, limits.TOL)
    with pytest.raises(CapacityError):
        is_commutative(prog)


def test_a_certified_program_needs_no_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("the certified route built a 2**n table")

    monkeypatch.setattr(diagrams, "_all_inputs", refuse)
    monkeypatch.setattr(diagrams, "_permuted_profile", refuse)
    prog = or_guess_nobdd(16)
    assert prog.n == 16 > limits.COMMUTATIVITY_CAP
    assert is_commutative(prog)
    lifted = reorder_nobdd(prog, BlockLayout(16), "direct")   # the lift's gate passes too
    assert (lifted.n, width(lifted)) == (80, 16 * width(prog))


def test_sample_orders_deterministic_and_exhaustive():
    small = sample_orders(3, trials=99, seed=5)
    assert len(small) == 6  # all permutations below the exhaustive cap
    big1 = sample_orders(8, trials=7, seed=42)
    big2 = sample_orders(8, trials=7, seed=42)
    assert big1 == big2
    assert len(big1) == 7


def test_embeddings_preserve_the_function():
    base = eq_weighted_obdd(2)
    f = function_of(base)
    as_n = embed_obdd_as_nobdd(base)
    assert function_of(as_n) == f
    as_p = embed_obdd_as_pobdd(base)
    acc = acceptance_table(as_p)
    assert np.array_equal((acc > 0.5).astype(np.uint8), f.table)
    assert as_p.epsilon == 0.5


def test_to_text_golden_obdd():
    prog = build_binary_tree_obdd(eq(2))
    expected = (
        "obdd 2 1 2 order=1,2\n"
        "L1 var=1: 0:0,1\n"
        "L2 var=2: 0:0,1 1:1,0\n"
        "sinks: 0=1 1=0\n"
    )
    assert to_text(prog) == expected


def test_to_text_nobdd_and_layer_end_lines():
    prog = or_guess_nobdd(2)
    text = to_text(prog)
    assert text.startswith("nobdd 2 1 4 order=1,2\n")
    assert "accepting: 3" in text
    ends = [np.array([1, 0]), None]
    two_layer = LeveledObdd(
        n=1, k=2, order=VarOrder.identity(1), widths=[2] * 3, start=0,
        steps=[[(0, 0), (1, 1)], [(0, 0), (1, 1)]], sink_values=[0, 1],
        layer_ends=ends,
    )
    assert "Lend1: 1,0" in to_text(two_layer)


def test_to_text_refuses_a_quantum_program_before_reading_it():
    prog = parse_program_spec("eq-qobdd:2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no complex entry is cast to a float
        with pytest.raises(ShapeError, match="quantum.to_json"):
            to_text(prog)
