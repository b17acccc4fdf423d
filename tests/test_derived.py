"""What a program derives once and keeps: the padded copy, the whole table,
the certificate's verdict per tolerance, and for a quantum program the
deviation from unitarity that its constructor measured.

A program is immutable, so each of these is derived on first use and kept on
the program object. The tests check that the kept values belong to one object
only, that the table cannot be written through any caller, that the lift's
gate reuses the verdict that `is_commutative` found, that a dropped program is
freed by reference counting alone (no reference cycle), and that
`check_unitary` reports the deviation a recomputation over the stored
matrices gives, bit for bit.
"""
import gc
import weakref

import numpy as np
import pytest
from conftest import dense_op

from ddlab import diagrams
from ddlab.boolfn import VarOrder
from ddlab.diagrams import (LeveledObdd, _padded, _whole_table, acceptance_table, function_of,
                            is_commutative, rounded_table)
from ddlab.experiments import parse_program_spec
from ddlab.quantum import QuantumProgram, check_unitary, computes_with_bounded_error
from ddlab.quantum import acceptance_table as quantum_acceptance_table
from ddlab.reorder import BlockLayout, lift, reorder_function, totalize
from ddlab.zoo import eq

KIND_SPECS = ["eq-obdd:4", "or-nobdd:4", "eq-pobdd:4", "eq-qobdd:4"]
QUANTUM_SPECS = ["eq-qobdd:2", "eq-qobdd:4", "eq-qobdd-recombined:8", "modp-qobdd:3,5",
                 "modp-qobdd:3,12", "modp-qobdd:5,8"]


def _xor_obdd():
    """x1 xor x2 with level widths 2, 2, 3, whose last node nothing reaches:
    not its own padded copy, and commutative."""
    flip = [(0, 1), (1, 0)]
    return LeveledObdd(n=2, k=1, order=VarOrder.identity(2), widths=[2, 2, 3], start=0,
                       steps=[flip, flip], sink_values=[0, 1, 0])


NAMES = KIND_SPECS + ["xor-widths-2-2-3"]


def _build(name):
    """A new program object each call, so that no test sees another's kept values."""
    return _xor_obdd() if name == NAMES[-1] else parse_program_spec(name)


def test_derived_values_are_kept_per_object_and_never_shared():
    for spec in KIND_SPECS:
        first, second = parse_program_spec(spec), parse_program_spec(spec)
        table = _whole_table(first)
        assert _whole_table(first) is table
        assert second._table is None and second._certificates == {}
        assert _whole_table(second) is not table
        assert is_commutative(first) and first._certificates and not second._certificates
        copy = first._rebuilt()   # a program built from the same fields starts empty
        assert copy._table is None and copy._certificates == {} and copy._forms is None
    program = _xor_obdd()
    padded = _padded(program)
    assert padded is not program and _padded(program) is padded
    assert padded._padded_copy is None and _padded(padded) is padded
    assert _padded(_xor_obdd()) is not padded
    assert _whole_table(padded) is not _whole_table(program)


@pytest.mark.parametrize("name", NAMES)
def test_the_kept_table_is_read_only_and_equals_a_rebuilt_copy(name):
    program = _build(name)
    table = _whole_table(program)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1
    fresh = _whole_table(program._rebuilt())
    assert fresh is not table and fresh.dtype == table.dtype and np.array_equal(fresh, table)
    padded = _padded(program)
    assert not _whole_table(padded).flags.writeable
    assert np.array_equal(_whole_table(padded), table)
    # the table routes hand out the kept table read-only, or a copy of it
    outputs = [rounded_table(program)]
    if isinstance(program, QuantumProgram):
        outputs.append(quantum_acceptance_table(program))
    elif isinstance(program, diagrams.Pobdd):
        outputs.append(acceptance_table(program))
    else:
        outputs.append(function_of(program).table)
    for out in outputs:
        assert not np.shares_memory(out, table) or not out.flags.writeable


def test_a_write_into_acceptance_table_raises_or_leaves_the_next_call_unchanged():
    program = parse_program_spec("eq-pobdd:4")
    before = acceptance_table(program).copy()
    try:
        acceptance_table(program)[:] = 7.0
    except ValueError:
        pass
    assert np.array_equal(acceptance_table(program), before)
    quantum = parse_program_spec("eq-qobdd:4")
    written = quantum_acceptance_table(quantum)
    written[:] = 7.0   # a copy: the kept table does not change
    assert not np.array_equal(quantum_acceptance_table(quantum), written)


@pytest.mark.parametrize("name, mode", [(name, mode) for name in NAMES for mode in ("direct", "xor")
                                        if mode == "xor" or "qobdd" not in name])
def test_is_commutative_then_lift_runs_the_certificate_once(name, mode, monkeypatch):
    program = _build(name)
    calls, certificate = [], diagrams._commutes_pairwise

    def counted(padded, tol):
        calls.append(padded)
        return certificate(padded, tol)

    monkeypatch.setattr(diagrams, "_commutes_pairwise", counted)
    assert is_commutative(program)
    lifted = lift(program, BlockLayout(program.n), mode)
    assert len(calls) == 1 and calls[0] is _padded(program)
    # the lift is a new program: its own table and certificate start empty
    assert lifted._table is None and lifted._certificates == {}


def test_totalizing_and_checking_margins_build_the_lift_table_once(monkeypatch):
    program = parse_program_spec("eq-qobdd:4")
    layout = BlockLayout(4)
    lifted = lift(program, layout, "xor")
    passes, in_table_order = [], diagrams._in_table_order   # the last step of a table pass

    def counted(outputs, perm):
        passes.append(perm)
        return in_table_order(outputs, perm)

    monkeypatch.setattr(diagrams, "_in_table_order", counted)
    fp = reorder_function(eq(4), layout, "xor")
    quantum_acceptance_table(lifted)
    totalize(fp, lifted)
    assert computes_with_bounded_error(lifted, fp, 1.0 / 6.0).passed
    assert len(passes) == 1


def test_dropped_programs_are_freed_without_the_cycle_collector():
    # a uniform program is its own padded copy and keeps no reference to
    # itself; a padded copy keeps none to the program it came from
    enabled = gc.isenabled()
    gc.disable()
    try:
        uniform = parse_program_spec("or-nobdd:4")
        assert _padded(uniform) is uniform and is_commutative(uniform)
        _whole_table(uniform)
        ref = weakref.ref(uniform)
        del uniform
        assert ref() is None
        program = _xor_obdd()
        padded = _padded(program)
        assert is_commutative(program)
        _whole_table(program), _whole_table(padded)
        refs = weakref.ref(program), weakref.ref(padded)
        del program
        assert refs[0]() is None and refs[1]() is padded
        del padded
        assert refs[1]() is None
    finally:
        if enabled:
            gc.enable()


def _recomputed_deviation(program):
    """The running max over the stored operators' matrices of max|G†G - I|."""
    worst = 0.0
    for pair in program.steps:
        for g in (dense_op(program, op) for op in pair):
            worst = max(worst, float(np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0])))))
    return worst


@pytest.mark.parametrize("spec", QUANTUM_SPECS)
def test_check_unitary_reports_the_constructor_deviation_bit_for_bit(spec):
    program = parse_program_spec(spec)
    programs = [program]
    if program.n in (2, 4, 8):
        programs.append(lift(program, BlockLayout(program.n), "xor"))
    for p in programs:
        report = check_unitary(p)
        assert report.max_deviation.hex() == _recomputed_deviation(p).hex()
        assert report.passed and report.matrices_checked == 2 * p.n
