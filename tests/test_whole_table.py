"""The prefix-trie table against the per-input route on every input.

`diagrams._whole_table` builds a program's whole truth table in one pass in
its own order: the first layer's levels double a prefix trie of states, and
the levels past log2(limits.CHUNK_ROWS) are fixed per block of rows. The
per-input route, `diagrams._evaluate`, propagates one input at a time through
the levels. On every input both must give the same outputs: exactly for 0/1
outputs and within 1e-12 for acceptance probabilities. The table must also
stay within the memory of one chunk of state rows, and refuse an n above
limits.TABLE_CAP before any operator acts.
"""
import tracemalloc

import numpy as np
import pytest
from conftest import embedded_from_rows
from test_commutativity_routes import RANDOM_KINDS
from test_dual_route import _assert_single_matches

from ddlab import diagrams, limits, quantum
from ddlab.boolfn import BoolFn
from ddlab.diagrams import (LeveledObdd, Nobdd, Pobdd, _all_inputs, _whole_table,
                            embed_obdd_as_nobdd, embed_obdd_as_pobdd, rounded_table)
from ddlab.errors import CapacityError
from ddlab.experiments import parse_program_spec
from ddlab.reorder import BlockLayout, lift
from ddlab.zoo import pj_2k_obdd

# test_dual_route.py compares the same two routes on its program specs and on
# the lifts of eq-obdd, or-nobdd, eq-pobdd and eq-qobdd at q = 2 and 4; these
# are the programs and lifts that it does not run
PROGRAMS = ["pj-2k:3,2", "rpj-2k:1,2", "tree:eq:6", "modp-qobdd:13,13"]
LIFTS = [("rpj-core:1,2", mode) for mode in ("direct", "xor")]


def _assert_table_matches_propagate(program):
    # the per-input route propagates each input through the levels
    table = _whole_table(program)
    assert table.shape == (1 << program.n,)
    _assert_single_matches(program, _all_inputs(program.n), table)


@pytest.mark.parametrize("spec", PROGRAMS)
def test_table_matches_propagate_on_programs(spec):
    _assert_table_matches_propagate(parse_program_spec(spec))


@pytest.mark.parametrize("spec, mode", LIFTS)
def test_table_matches_propagate_on_lifts(spec, mode):
    base = parse_program_spec(spec)
    _assert_table_matches_propagate(lift(base, BlockLayout(base.n), mode))


@pytest.mark.parametrize("kind", sorted(RANDOM_KINDS))
def test_table_matches_propagate_on_random_programs(kind):
    # n <= 7, k <= 2, mixed level widths except for the quantum kind
    rng = np.random.default_rng(100 + sorted(RANDOM_KINDS).index(kind))
    for _ in range(40):
        _assert_table_matches_propagate(RANDOM_KINDS[kind](rng))


# --------------------------------------------------------------------------
# memory: at most limits.CHUNK_ROWS state rows at a time; the cap comes first


def _n12_programs():
    layout = BlockLayout(4)
    lifts = [lift(parse_program_spec(spec), layout, mode)
             for spec, mode in [("eq-obdd:4", "xor"), ("or-nobdd:4", "direct"),
                                ("eq-pobdd:4", "xor"), ("eq-qobdd:4", "xor")]]
    return lifts + [parse_program_spec("rpj-2k:1,2")]


def test_table_in_blocks_of_chunk_rows_matches_and_stays_within_the_budget(monkeypatch):
    whole = [_whole_table(p) for p in _n12_programs()]
    # a program keeps its table, so the blocks run on fresh copies
    monkeypatch.setattr(limits, "CHUNK_ROWS", 64)
    for program, expected in zip(_n12_programs(), whole):
        assert program.n == 12
        state_bytes = 64 * program._first(1).nbytes
        operator_bytes = sum(op.nbytes for pair in program.steps for op in pair)
        index_bytes = 8 << program.n   # the gather into truth-table order
        tracemalloc.start()
        try:
            table = _whole_table(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(table, expected)
        assert peak <= 4 * state_bytes + operator_bytes + 4 * index_bytes


@pytest.mark.parametrize("embed", [lambda p: embedded_from_rows(p, Nobdd),
                                   lambda p: embedded_from_rows(p, Pobdd),
                                   embed_obdd_as_nobdd, embed_obdd_as_pobdd],
                         ids=["nobdd_from_rows", "pobdd_from_rows", "embed_obdd_as_nobdd",
                              "embed_obdd_as_pobdd"])
def test_stacked_levels_in_blocks_match_the_per_input_route_on_layered_programs(embed,
                                                                                monkeypatch):
    # n = 8 above c = log2(64) = 6: the table runs in four blocks of 64 rows,
    # and each of the three layers after the first re-splits its first six
    # levels, as products on stacked operator pairs when the program is built
    # from per-node rows, and per map on the embedded deterministic maps
    program = embed(pj_2k_obdd(2, 2))
    assert (program.n, program.k) == (8, 4)
    monkeypatch.setattr(limits, "CHUNK_ROWS", 64)
    _assert_table_matches_propagate(program)


@pytest.fixture(scope="module")
def q8_lifts():
    layout = BlockLayout(8)
    return [lift(parse_program_spec(spec), layout, mode)
            for spec, mode in [("eq-obdd:8", "xor"), ("or-nobdd:8", "direct"),
                               ("eq-pobdd:8", "xor"), ("eq-qobdd:8", "xor")]]


def _table_routines(program):
    # a stand-in target of the lift's arity: no table of n = 32 can be stored
    target = BoolFn.__new__(BoolFn)
    target.n = program.n
    routines = [rounded_table, quantum.acceptance_table,
                lambda p: quantum.computes_with_bounded_error(p, target, 0.1)]
    if isinstance(program, (LeveledObdd, Nobdd)):
        routines.append(diagrams.function_of)
    if isinstance(program, Pobdd):
        routines.append(diagrams.acceptance_table)
    return routines


def test_every_table_routine_checks_the_cap_before_an_operator_acts(q8_lifts, monkeypatch):
    def refuse(*args):
        raise AssertionError("an operator acted above the table cap")

    for program in q8_lifts:
        assert program.n == 32
        monkeypatch.setattr(type(program), "_act", refuse)
        for routine in _table_routines(program):
            with pytest.raises(CapacityError):
                routine(program)
