"""An index map acts on every program kind as its dense matrix does, bit for bit.

A level operator is an index map (node i -> m[i]) or a dense matrix. On a
batch of vector states, `_act` gathers through a permutation and adds any
other map's entries into their targets in source order. Both must give the
dense product's numbers exactly, not within a tolerance: a 0/1 product adds
only exact zeros to the one term of a permutation's column, and the two
terms of a 2-to-1 column commute. So every lift, whose address levels are
maps, has the table and per-input outputs of the same lift rebuilt with
dense operators (`conftest.dense_program`). The deterministic kind's states
are nodes, not vectors, so it has only maps and no dense form to compare.
"""
import numpy as np
import pytest
from conftest import dense_op, dense_program

from ddlab.boolfn import VarOrder
from ddlab.diagrams import _all_inputs, _evaluate, _whole_table
from ddlab.experiments import parse_program_spec
from ddlab.quantum import QuantumProgram
from ddlab.reorder import BlockLayout, lift

# a program of each vector kind, whose `_act` and dtype the maps are tried on
KINDS = {"nobdd": "or-nobdd:2", "pobdd": "eq-pobdd:2", "quantum": "eq-qobdd:2"}


def _states(rng, program, shape):
    """Seeded states of the kind's dtype; numbers span 25 decades, with both signs."""
    if program._DTYPE is bool:
        return rng.random(shape) < 0.3
    states = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 17, shape)
    if program._DTYPE is np.complex128:
        states = states + 1j * rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 17, shape)
    return states


def _maps(rng, q, w):
    """Permutations of (slot, node) pairs, and the 2-to-1 direct-mode address
    maps (slot -> 2·slot + bit mod q) with the identity on nodes."""
    slot, node = np.divmod(np.arange(q * w), w)
    perms = [rng.permutation(q * w), ((slot ^ 1) * w + node), np.arange(q * w)]
    direct = [((2 * slot + bit) % q) * w + node for bit in (0, 1)]
    return perms, direct


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_map_acts_as_its_dense_matrix_bit_for_bit(kind):
    program = parse_program_spec(KINDS[kind])
    rng = np.random.default_rng(sorted(KINDS).index(kind))
    for q, w in ((2, 3), (4, 6), (8, 5)):
        perms, direct = _maps(rng, q, w)
        for m in perms + direct:
            # one batch of rows, and the stacked (2, rows, w) form of a pair's halves
            for shape in ((300, q * w), (2, 150, q * w)):
                states = _states(rng, program, shape)
                mapped = program._act(states, m)
                dense = program._act(states, dense_op(program, m))
                assert mapped.dtype == dense.dtype and mapped.shape == dense.shape
                assert np.array_equal(mapped, dense)
        # the direct-mode maps are 2-to-1, so they take the column scatter
        assert all(np.bincount(m).max() == 2 for m in direct)


LIFTS = [("eq-obdd", "xor"), ("eq-obdd", "direct"), ("or-nobdd", "direct"), ("or-nobdd", "xor"),
         ("eq-pobdd", "xor"), ("eq-pobdd", "direct"), ("eq-qobdd", "xor")]


@pytest.mark.parametrize("family, mode", LIFTS)
@pytest.mark.parametrize("q", [2, 4])
def test_lifts_equal_their_dense_rebuilds_bit_for_bit(q, family, mode):
    program = lift(parse_program_spec("%s:%d" % (family, q)), BlockLayout(q), mode)
    ops = [op for pair in program.steps for op in pair]
    assert sum(op.dtype.kind == "i" for op in ops) >= len(ops) // 2   # the address levels
    dense = dense_program(program)
    if family != "eq-obdd":   # a deterministic lift has only maps
        assert all(op.dtype.kind != "i" for pair in dense.steps for op in pair)
    assert np.array_equal(_whole_table(program), _whole_table(dense))
    rng = np.random.default_rng(q)
    rows = np.arange(1 << program.n) if q == 2 else rng.integers(0, 1 << program.n, 300)
    xs = _all_inputs(program.n)[rows]
    assert [_evaluate(program, x) for x in xs] == [_evaluate(dense, x) for x in xs]


def test_a_value_level_that_mixes_maps_and_matrices_is_a_matrix():
    # variable 1's bit-1 unitary is the swap X, stored as a map, and variable
    # 2's is exp(0.3i·X), which commutes with it but stays dense; the lift's
    # bit-1 value level mixes them, so it is one block-diagonal matrix
    swap = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    turn = np.cos(0.3) * np.eye(2) + 1j * np.sin(0.3) * swap
    base = QuantumProgram(n=2, dim=2, order=VarOrder.identity(2), initial=np.array([1.0, 0.0]),
                          steps=[(np.eye(2), swap), (np.eye(2), turn)], accept=[1])
    assert [g.dtype.kind for pair in base.steps for g in pair] == ["i", "i", "i", "c"]
    program = lift(base, BlockLayout(2), "xor")
    value = program.steps[1]
    assert value[0].dtype.kind == "i" and value[1].dtype.kind == "c"
    assert np.array_equal(value[1][2:, 2:], turn) and np.array_equal(value[1][:2, :2], swap)
    dense = dense_program(program)
    assert np.array_equal(_whole_table(program), _whole_table(dense))
    xs = _all_inputs(program.n)
    assert [_evaluate(program, x) for x in xs] == [_evaluate(dense, x) for x in xs]
