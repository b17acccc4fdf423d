"""Dual-route agreement: the per-input evaluators against the whole table.

The per-input route (`eval_obdd`, `eval_nobdd`, `eval_pobdd`,
`accept_probability`) walks one input through the levels; the table route
(`function_of`, both `acceptance_table`s) propagates every input at once. The
routes must agree on every input: exactly for 0/1 outputs and within 1e-12
for acceptance probabilities. Where no table exists (the q = 8 lifts, n = 32)
the per-input route is compared with the lift's meaning, propagated through
the base program: each input is decoded into block addresses and value bits,
and each block applies the padded base's operator of its addressed variable.
"""
import numpy as np
import pytest
from conftest import embedded_from_rows

from ddlab.diagrams import (LeveledObdd, Nobdd, Pobdd, _padded, acceptance_table,
                            embed_obdd_as_nobdd, embed_obdd_as_pobdd, eval_nobdd, eval_obdd,
                            eval_pobdd, function_of)
from ddlab.experiments import parse_program_spec
from ddlab.quantum import QuantumProgram, accept_probability
from ddlab.quantum import acceptance_table as quantum_acceptance_table
from ddlab.reorder import (BlockLayout, lift, reorder_nobdd, reorder_obdd, reorder_pobdd,
                           xor_reorder_qobdd)
from ddlab.zoo import fingerprint_eq_qobdd, pj_2k_obdd

PROGRAM_SPECS = ["eq-obdd:4", "or-nobdd:4", "eq-pobdd:4", "eq-qobdd:4", "modp-qobdd:3,5",
                 "tree:eq:4", "pj-2k:2,2", "rpj-core:1,2"]

CLASSICAL_LIFTS = {"eq-obdd": reorder_obdd, "or-nobdd": reorder_nobdd,
                   "eq-pobdd": reorder_pobdd}


def _inputs(n):
    idx = np.arange(1 << n)
    return [tuple(int(b) for b in row)
            for row in (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1]


def _assert_single_matches(program, xs, reference):
    """The per-input evaluator of `program` on each of `xs` against a batch route's outputs."""
    if isinstance(program, (Pobdd, QuantumProgram)):
        evaluate = accept_probability if isinstance(program, QuantumProgram) else eval_pobdd
        single = np.array([evaluate(program, x) for x in xs])
        np.testing.assert_allclose(single, reference, rtol=0, atol=1e-12)
    else:
        evaluate = eval_obdd if isinstance(program, LeveledObdd) else eval_nobdd
        assert isinstance(program, (LeveledObdd, Nobdd))
        assert [evaluate(program, x) for x in xs] == np.asarray(reference).tolist()


def _assert_routes_agree(program):
    if isinstance(program, QuantumProgram):
        table = quantum_acceptance_table(program)
    elif isinstance(program, Pobdd):
        table = acceptance_table(program)
    else:
        table = function_of(program).table
    _assert_single_matches(program, _inputs(program.n), table)


@pytest.mark.parametrize("spec", PROGRAM_SPECS)
def test_per_input_route_matches_table_on_programs(spec):
    _assert_routes_agree(parse_program_spec(spec))


@pytest.mark.parametrize("embed", [embed_obdd_as_nobdd, embed_obdd_as_pobdd,
                                   lambda p: embedded_from_rows(p, Nobdd),
                                   lambda p: embedded_from_rows(p, Pobdd)],
                         ids=["embed_obdd_as_nobdd", "embed_obdd_as_pobdd", "nobdd_from_rows",
                              "pobdd_from_rows"])
def test_per_input_route_matches_table_on_matrix_kinds_with_layer_ends(embed):
    # the per-input route remaps the live nodes at each layer end, on levels
    # that are the deterministic program's maps or matrices built from rows
    program = embed(pj_2k_obdd(2, 2))
    assert isinstance(program, (Nobdd, Pobdd))
    assert any(end is not None for end in program.layer_ends)
    _assert_routes_agree(program)


@pytest.mark.parametrize("mode", ["direct", "xor"])
@pytest.mark.parametrize("family", sorted(CLASSICAL_LIFTS))
@pytest.mark.parametrize("q", [2, 4])
def test_per_input_route_matches_table_on_classical_lifts(q, family, mode):
    base = parse_program_spec("%s:%d" % (family, q))
    _assert_routes_agree(CLASSICAL_LIFTS[family](base, BlockLayout(q), mode))


@pytest.mark.parametrize("q", [2, 4])
def test_per_input_route_matches_table_on_quantum_lifts(q):
    base = parse_program_spec("eq-qobdd:%d" % q)
    _assert_routes_agree(xor_reorder_qobdd(base, BlockLayout(q)))


Q8_LIFTS = [("eq-obdd:8", "xor"), ("or-nobdd:8", "direct"), ("eq-pobdd:8", "xor"),
            ("eq-qobdd-recombined:8", "xor"), ("eq-obdd:8", "direct"), ("or-nobdd:8", "xor"),
            ("eq-pobdd:8", "direct")]


def _lift_meaning(base, layout, mode, xs):
    """The lift's output on each of `xs`, propagated through the padded base
    (a single-layer one): block by block, the base operator of the addressed
    variable selected by the block's value bit, then the base's readout."""
    padded = _padded(base)
    assert padded.k == 1 and padded.layer_ends == (None,)
    position = {v: ell for ell, v in enumerate(padded.order.perm)}
    addr, vals = layout.decode(np.array(xs), mode)
    out = []
    for blocks in zip(addr.tolist(), vals.tolist()):
        state = padded._first(1)
        for a, v in zip(*blocks):
            state = padded._act(state, padded._pair(position[a + 1])[v])
        out.append(padded._readout(state)[0])
    return np.array(out)


def _drawn_inputs(layout, mode, seed, allowed, arbitrary):
    """Seeded allowed inputs of the layout, then seeded arbitrary ones."""
    rng = np.random.default_rng(seed)
    return ([layout.assemble_input(rng.permutation(layout.q), rng.integers(0, 2, layout.q), mode)
             for _ in range(allowed)]
            + [tuple(int(b) for b in rng.integers(0, 2, layout.n)) for _ in range(arbitrary)])


@pytest.mark.parametrize("spec,mode", Q8_LIFTS)
def test_per_input_route_matches_propagate_on_q8_lifts(spec, mode):
    # n = 32: no truth table exists, so the reference is the lift's meaning
    layout, base = BlockLayout(8), parse_program_spec(spec)
    program = lift(base, layout, mode)
    xs = _drawn_inputs(layout, mode, 32, 24, 200)
    _assert_single_matches(program, xs, _lift_meaning(base, layout, mode, xs))


Q16_MULTIPLIERS = (129, 139, 143, 155, 161, 187, 239, 249)


def test_per_input_route_matches_the_meaning_of_the_q16_quantum_lift():
    # the xor lift of the q = 16 equality tester: n = 80 and dim 256
    layout, base = BlockLayout(16), fingerprint_eq_qobdd(16, Q16_MULTIPLIERS)
    program = xor_reorder_qobdd(base, layout)
    assert (program.n, program.dim) == (80, 256)
    xs = _drawn_inputs(layout, "xor", 16, 32, 96)
    _assert_single_matches(program, xs, _lift_meaning(base, layout, "xor", xs))


@pytest.mark.parametrize("spec,mode", Q8_LIFTS)
def test_per_input_forms_are_built_once_per_distinct_operator(spec, mode, monkeypatch):
    # a q = 8 lift repeats 8 operator objects over its 32 levels
    layout, base = BlockLayout(8), parse_program_spec(spec)
    program = lift(base, layout, mode)
    built, form = [], type(program)._form

    def counted(self, op):
        built.append(op)
        return form(self, op)

    monkeypatch.setattr(type(program), "_form", counted)
    rng = np.random.default_rng(8)
    xs = [tuple(int(b) for b in rng.integers(0, 2, program.n)) for _ in range(3)]
    meaning = _lift_meaning(base, layout, mode, xs)
    _assert_single_matches(program, xs, meaning)
    _assert_single_matches(program, xs, meaning)
    operators = {id(op) for pair in program.steps for op in pair}
    ends = sum(end is not None for end in program.layer_ends)
    assert len(operators) == 8 * program.k
    # each operator's and each layer end's form is built once
    assert len(built) == len(operators) + ends
    assert operators <= {id(op) for op in built}
