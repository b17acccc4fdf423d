"""Quantum leveled programs: validation, simulation, margins, serialization."""
import math

import numpy as np
import pytest
from conftest import dense_op

from ddlab import limits, quantum
from ddlab.boolfn import BoolFn, PartialBoolFn, VarOrder
from ddlab.diagrams import LeveledObdd, _evaluate, rounded_table
from ddlab.errors import CapacityError, ShapeError, StructuralError
from ddlab.experiments import parse_program_spec
from ddlab.fixtures import eq_multipliers, modp_multipliers
from ddlab.quantum import (QuantumProgram, accept_probability, acceptance_table, check_unitary,
                           computes_with_bounded_error, from_json, is_commutative_quantum,
                           programs_equal, reorder_quantum, to_json)
from ddlab.reorder import BlockLayout, lift, xor_reorder_qobdd
from ddlab.zoo import (eq, eq_geometric_pobdd, eq_weighted_obdd, fingerprint_eq_qobdd,
                       fingerprint_modp_qobdd, mod_p, or_guess_nobdd)


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


@pytest.mark.parametrize("samples", [0, -2])
def test_bounded_error_refuses_fewer_than_one_sample(samples):
    # with no inputs checked the negation of eq would pass as "verified"
    prog = fingerprint_eq_qobdd(4, eq_multipliers(4)["multipliers"])
    negated = BoolFn(4, 1 - eq(4).table)
    assert not computes_with_bounded_error(prog, negated, 1.0 / 6.0, samples=64).passed
    with pytest.raises(ShapeError):
        computes_with_bounded_error(prog, negated, 1.0 / 6.0, samples=samples)


def test_a_verdict_that_checked_no_input_fails():
    prog = fingerprint_eq_qobdd(4, eq_multipliers(4)["multipliers"])
    nowhere = PartialBoolFn(4, np.zeros(16, dtype=np.uint8), np.zeros(16, dtype=np.uint8))
    verdict = computes_with_bounded_error(prog, nowhere, 1.0 / 6.0)
    assert (verdict.ones_checked, verdict.zeros_checked) == (0, 0)
    assert (verdict.min_one, verdict.max_zero) == (None, None)
    assert not verdict.passed


def test_a_sampled_verdict_that_drew_no_defined_input_fails():
    prog = fingerprint_eq_qobdd(4, eq_multipliers(4)["multipliers"])
    drawn = int(np.random.default_rng(0).integers(0, 16, size=1, dtype=np.int64)[0])
    defined = np.zeros(16, dtype=np.uint8)
    defined[(drawn + 1) % 16] = 1   # defined at one input, not the drawn one
    target = PartialBoolFn(4, defined, eq(4).table & defined)
    verdict = computes_with_bounded_error(prog, target, 1.0 / 6.0, samples=1, seed=0)
    assert (verdict.ones_checked, verdict.zeros_checked) == (0, 0)
    assert not verdict.passed


def _halves_equal(n):
    idx = np.arange(1 << n)
    return (idx >> (n // 2)) == (idx & ((1 << (n // 2)) - 1))


def _weight_divisible_by_3(n):
    idx = np.arange(1 << n)
    return sum((idx >> v) & 1 for v in range(n)) % 3 == 0


def _prefix_weight_counter(n):
    # the ones among the first two thirds of the variables, counted mod 3
    node = np.arange(3)
    steps = [np.stack([node, (node + 1) % 3 if 3 * v <= 2 * n else node], axis=1)
             for v in range(1, n + 1)]
    return LeveledObdd(n=n, k=1, order=VarOrder.identity(n), widths=[3] * (n + 1), start=0,
                       steps=steps, sink_values=[1, 0, 0])


def _prefix_weight_divisible_by_3(n):
    idx = np.arange(1 << n)
    return sum((idx >> (n - v)) & 1 for v in range(1, 2 * n // 3 + 1)) % 3 == 0


@pytest.mark.parametrize("build, target", [
    (eq_geometric_pobdd, _halves_equal), (eq_weighted_obdd, _halves_equal),
    (or_guess_nobdd, lambda n: np.arange(1 << n) != 0),
    (lambda n: fingerprint_modp_qobdd(3, n, modp_multipliers(3)["multipliers"]),
     _weight_divisible_by_3),
    (_prefix_weight_counter, _prefix_weight_divisible_by_3),
], ids=["eq_geometric_pobdd", "eq_weighted_obdd", "or_guess_nobdd", "fingerprint_modp_qobdd",
        "prefix_weight_counter"])
def test_sampled_bounded_error_on_classical_programs_beyond_the_table_cap(build, target):
    # n = 18 is above the 2**16 table cap: only the sampled inputs may be walked,
    # for the quantum weight-mod-3 tester too, whose target zoo.mod_p cannot store;
    # the prefix weight changes when the input is read back to front, and the
    # other targets do not
    n, samples, seed = 18, 64, 11
    prog = build(n)
    target = BoolFn(n, target(n).astype(np.uint8))
    verdict = computes_with_bounded_error(prog, target, 0.1, samples=samples, seed=seed)
    drawn = np.random.default_rng(seed).integers(0, 1 << n, size=samples, dtype=np.int64)
    probs = np.array([_evaluate(prog, [(int(i) >> (n - v)) & 1 for v in range(1, n + 1)])
                      for i in drawn], dtype=np.float64)
    ones, zeros = probs[target.table[drawn] == 1], probs[target.table[drawn] == 0]
    assert (verdict.ones_checked, verdict.zeros_checked) == (ones.size, zeros.size)
    assert verdict.ones_checked + verdict.zeros_checked == samples
    assert verdict.min_one == (pytest.approx(ones.min(), abs=1e-12) if ones.size else None)
    assert verdict.max_zero == (pytest.approx(zeros.max(), abs=1e-12) if zeros.size else None)
    assert verdict.passed


@pytest.mark.parametrize("spec, mode", [("eq-obdd:4", "xor"), ("or-nobdd:4", "direct"),
                                        ("eq-pobdd:4", "xor"), ("eq-qobdd:4", "xor")])
def test_sampled_verdict_reads_the_whole_table_at_the_drawn_inputs(spec, mode):
    # n = 12 <= TABLE_CAP: the per-input walk of the sampled route against the
    # table, on lifts, whose outputs change when the input is read back to front
    prog = lift(parse_program_spec(spec), BlockLayout(4), mode)
    n, samples, seed = prog.n, 256, 5
    # the program's own rounded outputs, on a random half of the inputs
    defined = np.random.default_rng(12).integers(0, 2, 1 << n)
    target = PartialBoolFn(n, defined, rounded_table(prog))
    verdict = computes_with_bounded_error(prog, target, 0.1, samples=samples, seed=seed)
    drawn = np.random.default_rng(seed).integers(0, 1 << n, size=samples, dtype=np.int64)
    drawn = drawn[target.defined[drawn] == 1]
    probs = acceptance_table(prog)[drawn]
    ones, zeros = probs[target.values[drawn] == 1], probs[target.values[drawn] == 0]
    assert ones.size and zeros.size
    assert (verdict.ones_checked, verdict.zeros_checked) == (ones.size, zeros.size)
    assert verdict.min_one == pytest.approx(ones.min(), abs=1e-12)
    assert verdict.max_zero == pytest.approx(zeros.max(), abs=1e-12)


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


def test_reorder_quantum_refuses_a_classical_program_and_a_wrong_length_order():
    with pytest.raises(ShapeError):
        reorder_quantum(eq_weighted_obdd(4), (2, 1, 4, 3))
    with pytest.raises(ShapeError):
        reorder_quantum(_single_rotation_program(3, 0.3), (2, 1))


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


def _dense_walk(program, x):
    """The dense reference walk: `g @ state` at every level, with each
    stored map as its matrix, and the norm checked after each step; then the
    accepting mass."""
    state = program.initial
    for ell in range(program.k * program.n):
        g = program._pair(ell)[x[program.order.perm[ell % program.n] - 1]]
        state = dense_op(program, g) @ state
        norm = math.sqrt(np.vdot(state, state).real)
        if abs(norm - 1.0) > limits.TOL:
            raise StructuralError("state norm drifted to %.15g during the run" % norm)
    return float(np.sum(np.abs(state[..., [s - 1 for s in sorted(program.accept)]]) ** 2,
                        axis=-1))


def _lifted(spec, q):
    return xor_reorder_qobdd(parse_program_spec(spec), BlockLayout(q))


@pytest.mark.parametrize("spec,q", [("eq-qobdd:2", 2), ("eq-qobdd:4", 4),
                                    ("eq-qobdd-recombined:8", 8), ("eq-qobdd:4", None),
                                    ("modp-qobdd:3,5", None)])
def test_gathered_walk_equals_the_dense_walk_exactly(spec, q):
    # a permutation step moves amplitudes without arithmetic, so the walk
    # that gathers them gives the dense walk's acceptance bit for bit
    rng = np.random.default_rng(len(spec))
    if q is None:
        program, xs = parse_program_spec(spec), []
    else:
        layout, program = BlockLayout(q), _lifted(spec, q)
        xs = [layout.assemble_input(rng.permutation(q), rng.integers(0, 2, q), "xor")
              for _ in range(50)]
    xs += [tuple(int(b) for b in rng.integers(0, 2, program.n)) for _ in range(150)]
    assert [accept_probability(program, x) for x in xs] == [_dense_walk(program, x) for x in xs]


def _is_gather(program, op, g):
    """Whether the program stores the unitary g as the map op, whose
    per-input form gathers the amplitudes of g @ state."""
    if op.dtype.kind != "i":
        return False
    assert np.array_equal(dense_op(program, op), g)
    state = np.random.default_rng(1).normal(size=(g.shape[0], 2)) @ [1, 1j]
    assert np.array_equal(g @ state, state[program._form(op)])
    return True


def _stored(g):
    """The operator a one-variable program stores for the unitary g."""
    return QuantumProgram(n=1, dim=g.shape[0], order=VarOrder.identity(1),
                          initial=np.eye(g.shape[0])[0], steps=[(g, g)], accept=[1]).steps[0][0]


def test_exact_permutation_matrices_take_the_gather_form():
    # the constructor stores them as maps, whose per-input form is a gather
    program = _lifted("eq-qobdd-recombined:8", 8)
    eye = np.eye(program.dim, dtype=np.complex128)
    assert _is_gather(program, _stored(eye), eye)
    shuffled = eye[np.random.default_rng(3).permutation(program.dim)]
    assert _is_gather(program, _stored(shuffled), shuffled)
    # the six address maps and the value step's bit-0 identity; its bit-1
    # matrix turns the rotations, so it stays dense
    distinct = {id(g): g for pair in program.steps for g in pair}.values()
    assert len(distinct) == 8
    assert sum(_is_gather(program, g, dense_op(program, g)) for g in distinct) == 7
    # a map is stored as it is given, and must be a permutation
    assert np.array_equal(_stored(np.array([1, 0, 3, 2])), [1, 0, 3, 2])
    with pytest.raises(StructuralError, match="not a permutation"):
        _stored(np.array([1, 1, 3, 2]))


def test_signed_phased_and_scaled_permutations_stay_dense():
    program = _lifted("eq-qobdd:2", 2)
    swap = np.eye(program.dim, dtype=np.complex128)[[1, 0, 3, 2]]
    signed, phased = swap.copy(), swap * 1j
    signed[2, 3] = -1
    scaled = (1 + 4e-10) * np.eye(program.dim, dtype=np.complex128)
    assert _is_gather(program, _stored(swap), swap)
    for g in (signed, phased, scaled):
        stored = _stored(g)
        assert stored.ndim == 2 and np.array_equal(stored, g)
        assert program._form(stored) is stored


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


def test_the_constructor_checks_each_distinct_matrix_once(monkeypatch):
    # the q = 8 lift holds 64 step matrices, 8 of them distinct objects
    base = parse_program_spec("eq-qobdd-recombined:8")
    calls, check = [], quantum._as_unitary

    def counted(mat, dim, where):
        calls.append(where)
        return check(mat, dim, where)

    monkeypatch.setattr(quantum, "_as_unitary", counted)
    lifted = xor_reorder_qobdd(base, BlockLayout(8))
    assert len(calls) == len({id(g) for pair in lifted.steps for g in pair}) == 8


def test_the_equality_tester_checks_its_shared_identity_once(monkeypatch):
    # q = 8 steps share one identity, so 8 rotations and the identity are checked
    calls, check = [], quantum._as_unitary

    def counted(mat, dim, where):
        calls.append(where)
        return check(mat, dim, where)

    monkeypatch.setattr(quantum, "_as_unitary", counted)
    for recombine in (False, True):
        calls.clear()
        program = fingerprint_eq_qobdd(8, eq_multipliers(8)["multipliers"], recombine=recombine)
        assert len(calls) == len({id(g) for pair in program.steps for g in pair}) == 9


def test_a_repeated_non_unitary_matrix_is_refused_at_its_first_step():
    rot, bad = _rot(0.4), np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(StructuralError, match="step 2 bit-1 matrix"):
        QuantumProgram(n=3, dim=2, order=VarOrder.identity(3), initial=np.array([1.0, 0.0]),
                       steps=[(rot, rot), (rot, bad), (bad, bad)], accept=[1])
