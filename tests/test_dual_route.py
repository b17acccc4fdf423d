"""Dual-route agreement: the per-input evaluators against the whole-table routines.

The per-input route (`eval_obdd`, `eval_nobdd`, `eval_pobdd`,
`accept_probability`) walks one input through the levels; the table route
(`function_of`, both `acceptance_table`s) propagates every input at once. Both
must agree on every input: exactly for 0/1 outputs and within 1e-12 for
acceptance probabilities.
"""
import numpy as np
import pytest

from ddlab.diagrams import (LeveledObdd, Nobdd, Pobdd, acceptance_table, eval_nobdd,
                            eval_obdd, eval_pobdd, function_of)
from ddlab.experiments import parse_program_spec
from ddlab.quantum import QuantumProgram, accept_probability
from ddlab.quantum import acceptance_table as quantum_acceptance_table
from ddlab.reorder import (BlockLayout, reorder_nobdd, reorder_obdd, reorder_pobdd,
                           xor_reorder_qobdd)

PROGRAM_SPECS = ["eq-obdd:4", "or-nobdd:4", "eq-pobdd:4", "eq-qobdd:4", "modp-qobdd:3,5",
                 "tree:eq:4", "pj-2k:2,2", "rpj-core:1,2"]

CLASSICAL_LIFTS = {"eq-obdd": reorder_obdd, "or-nobdd": reorder_nobdd,
                   "eq-pobdd": reorder_pobdd}


def _inputs(n):
    idx = np.arange(1 << n)
    return [tuple(int(b) for b in row)
            for row in (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1]


def _assert_routes_agree(program):
    xs = _inputs(program.n)
    if isinstance(program, QuantumProgram):
        table = quantum_acceptance_table(program)
        single = np.array([accept_probability(program, x) for x in xs])
        np.testing.assert_allclose(single, table, rtol=0, atol=1e-12)
    elif isinstance(program, Pobdd):
        table = acceptance_table(program)
        single = np.array([eval_pobdd(program, x) for x in xs])
        np.testing.assert_allclose(single, table, rtol=0, atol=1e-12)
    else:
        evaluate = eval_obdd if isinstance(program, LeveledObdd) else eval_nobdd
        assert isinstance(program, (LeveledObdd, Nobdd))
        single = [evaluate(program, x) for x in xs]
        assert single == function_of(program).table.tolist()


@pytest.mark.parametrize("spec", PROGRAM_SPECS)
def test_per_input_route_matches_table_on_programs(spec):
    _assert_routes_agree(parse_program_spec(spec))


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
