"""Quantum leveled programs: validation, simulation, margins, serialization."""
import math

import numpy as np
import pytest

from ddlab.boolfn import BoolFn, PartialBoolFn, VarOrder
from ddlab.diagrams import Pobdd, eval_obdd, eval_pobdd
from ddlab.errors import CapacityError, StructuralError
from ddlab.fixtures import eq_multipliers, modp_multipliers
from ddlab.quantum import (QuantumProgram, accept_probability, acceptance_table, check_unitary,
                           computes_with_bounded_error, from_json, is_commutative_quantum,
                           programs_equal, reorder_quantum, to_json)
from ddlab.zoo import (eq, eq_geometric_pobdd, eq_weighted_obdd, fingerprint_eq_qobdd,
                       fingerprint_modp_qobdd, mod_p)


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _single_rotation_program(n, theta):
    eye = np.eye(2, dtype=np.complex128)
    return QuantumProgram(
        n=n, dim=2, order=VarOrder.identity(n),
        initial=np.array([1.0, 0.0], dtype=np.complex128),
        steps=[(eye, _rot(theta)) for _ in range(n)],
        accept=[2],
    )


def test_constructor_rejects_non_unitary_steps():
    bad = 1.1 * np.eye(2, dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    with pytest.raises(StructuralError):
        QuantumProgram(n=1, dim=2, order=VarOrder.identity(1),
                       initial=np.array([1.0, 0.0]), steps=[(eye, bad)], accept=[1])


def test_constructor_rejects_bad_initial_norm_and_accept_range():
    eye = np.eye(2, dtype=np.complex128)
    with pytest.raises(StructuralError):
        QuantumProgram(n=1, dim=2, order=VarOrder.identity(1),
                       initial=np.array([1.0, 0.5]), steps=[(eye, eye)], accept=[1])
    with pytest.raises(StructuralError):
        QuantumProgram(n=1, dim=2, order=VarOrder.identity(1),
                       initial=np.array([1.0, 0.0]), steps=[(eye, eye)], accept=[3])
    with pytest.raises(StructuralError):
        QuantumProgram(n=1, dim=2, order=VarOrder.identity(1),
                       initial=np.array([1.0, 0.0]), steps=[(eye, eye)], accept=[0])


def test_check_unitary_on_raw_matrices():
    report = check_unitary([1.1 * np.eye(2)])
    assert not report.passed
    assert report.max_deviation > 0.1
    good = check_unitary([_rot(0.3), np.eye(2)])
    assert good.passed
    assert good.max_deviation <= 1e-9


def test_accept_probability_closed_form():
    theta = math.pi / 7
    prog = _single_rotation_program(3, theta)
    for idx in range(8):
        x = tuple((idx >> (2 - i)) & 1 for i in range(3))
        m = sum(x)
        expected = math.sin(m * theta) ** 2  # accept state 1 is the sine component
        assert accept_probability(prog, x) == pytest.approx(expected, abs=1e-12)
    table = acceptance_table(prog)
    assert table.shape == (8,)
    assert table[0] == pytest.approx(0.0, abs=1e-15)


def test_acceptance_dimension_cap():
    # the operator entry cap is checked from n and dim, before the matrices are read
    with pytest.raises(CapacityError):
        QuantumProgram(n=1, dim=8192, order=VarOrder.identity(1), initial=[1.0],
                       steps=[(None, None)], accept=[1])


def test_bounded_error_verdicts():
    ks = eq_multipliers(4)["multipliers"]
    prog = fingerprint_eq_qobdd(4, ks)
    verdict = computes_with_bounded_error(prog, eq(4), 1.0 / 6.0)
    assert verdict.passed
    assert verdict.min_one == pytest.approx(1.0, abs=1e-12)
    assert verdict.max_zero <= 0.5 - 1.0 / 6.0 + 1e-9
    assert verdict.ones_checked == 4 and verdict.zeros_checked == 12
    # the same machine cannot compute the negation
    neg = BoolFn(4, 1 - eq(4).table)
    assert not computes_with_bounded_error(prog, neg, 1.0 / 6.0).passed


def test_bounded_error_vacuous_sides_and_partial_targets():
    prog = _single_rotation_program(2, math.pi / 2)
    # defined only on inputs of weight 1 -> no defined 0-inputs
    defined = [0, 1, 1, 0]
    values = [0, 1, 1, 0]
    target = PartialBoolFn(2, defined, values)
    verdict = computes_with_bounded_error(prog, target, 0.25)
    assert verdict.passed
    assert verdict.max_zero is None
    assert verdict.zeros_checked == 0
    assert verdict.min_one == pytest.approx(1.0, abs=1e-12)


def test_bounded_error_sampled_mode_is_deterministic():
    ks = eq_multipliers(4)["multipliers"]
    prog = fingerprint_eq_qobdd(4, ks)
    v1 = computes_with_bounded_error(prog, eq(4), 1.0 / 6.0, samples=64, seed=7)
    v2 = computes_with_bounded_error(prog, eq(4), 1.0 / 6.0, samples=64, seed=7)
    assert (v1.min_one, v1.max_zero) == (v2.min_one, v2.max_zero)
    assert v1.passed


@pytest.mark.parametrize("build", [eq_geometric_pobdd, eq_weighted_obdd])
def test_sampled_bounded_error_on_classical_programs_beyond_the_table_cap(build):
    # n = 18 is above the 2**16 table cap: only the sampled inputs may be propagated
    n, samples, seed = 18, 64, 11
    prog = build(n)
    idx = np.arange(1 << n)
    target = BoolFn(n, ((idx >> (n // 2)) == (idx & ((1 << (n // 2)) - 1))).astype(np.uint8))
    verdict = computes_with_bounded_error(prog, target, 0.1, samples=samples, seed=seed)
    drawn = np.random.default_rng(seed).integers(0, 1 << n, size=samples, dtype=np.int64)
    evaluate = eval_pobdd if isinstance(prog, Pobdd) else eval_obdd
    probs = np.array([evaluate(prog, [(int(i) >> (n - v)) & 1 for v in range(1, n + 1)])
                      for i in drawn], dtype=np.float64)
    ones, zeros = probs[target.table[drawn] == 1], probs[target.table[drawn] == 0]
    assert (verdict.ones_checked, verdict.zeros_checked) == (ones.size, zeros.size)
    assert verdict.ones_checked + verdict.zeros_checked == samples
    assert verdict.max_zero == pytest.approx(zeros.max(), abs=1e-12)
    if ones.size:
        assert verdict.min_one == pytest.approx(ones.min(), abs=1e-12)
    assert verdict.passed


def test_reorder_quantum_applies_pairs_by_new_order():
    # variable 1 rotates by a, variable 2 by b; swapping the order must swap
    # which input bit triggers which rotation
    eye = np.eye(2, dtype=np.complex128)
    prog = QuantumProgram(
        n=2, dim=2, order=VarOrder.identity(2),
        initial=np.array([1.0, 0.0]), steps=[(eye, _rot(0.3)), (eye, _rot(0.9))],
        accept=[2],
    )
    swapped = reorder_quantum(prog, VarOrder((2, 1)))
    assert accept_probability(swapped, (1, 0)) == pytest.approx(
        accept_probability(prog, (1, 0)), abs=1e-12)
    assert accept_probability(swapped, (1, 0)) == pytest.approx(math.sin(0.3) ** 2, abs=1e-12)


def test_is_commutative_quantum():
    ks = modp_multipliers(5)["multipliers"]
    prog = fingerprint_modp_qobdd(5, 4, ks)
    assert is_commutative_quantum(prog)
    # a rotation and a Hadamard applied in either order give different
    # acceptance probabilities on the all-ones input
    eye = np.eye(2, dtype=np.complex128)
    had = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
    doomed = QuantumProgram(
        n=2, dim=2, order=VarOrder.identity(2),
        initial=np.array([1.0, 0.0]), steps=[(eye, _rot(0.3)), (eye, had)],
        accept=[2],
    )
    assert not is_commutative_quantum(doomed)


@pytest.mark.parametrize("n", [12, 16])
def test_is_commutative_quantum_certifies_above_the_sampled_cap(n):
    # the certificate needs no 2**n table, so no cap applies to it
    ks = modp_multipliers(3)["multipliers"]
    assert is_commutative_quantum(fingerprint_modp_qobdd(3, n, ks))


def test_per_step_norm_drift_detected():
    ks = eq_multipliers(2)["multipliers"]
    prog = fingerprint_eq_qobdd(2, ks)
    report = check_unitary(prog)
    assert report.passed and report.max_deviation <= 1e-9
    assert report.matrices_checked == 2 * prog.n
    # each step deviates from unitarity by about 8e-10, under TOL, so the
    # constructor accepts it; the norm grows by 4e-10 a step and leaves TOL
    # after the third
    grow = (1 + 4e-10) * np.eye(2, dtype=np.complex128)
    drifting = QuantumProgram(n=4, dim=2, order=VarOrder.identity(4),
                              initial=np.array([1.0, 0.0]), steps=[(grow, grow)] * 4,
                              accept=[1])
    with pytest.raises(StructuralError, match="state norm drifted"):
        accept_probability(drifting, (0, 1, 0, 1))


def test_json_round_trip():
    ks = eq_multipliers(4)["multipliers"]
    prog = fingerprint_eq_qobdd(4, ks)
    text = to_json(prog)
    back = from_json(text)
    assert programs_equal(prog, back)
    table_a = acceptance_table(prog)
    table_b = acceptance_table(back)
    assert np.max(np.abs(table_a - table_b)) <= 1e-12


def test_modp_machine_profile_matches_weights():
    p = 3
    ks = modp_multipliers(p)["multipliers"]
    n = 4
    prog = fingerprint_modp_qobdd(p, n, ks)
    f = mod_p(p, n)
    table = acceptance_table(prog)
    assert np.all(table[f.table == 1] >= 1.0 - 1e-12)
    assert np.all(table[f.table == 0] <= 1.0 / 3.0 + 1e-12)
