"""End-to-end acceptance criteria.

Each test is one numbered criterion; the terminal summary prints a per-criterion
PASS/FAIL line. Stated runtime budgets are asserted, not just hoped for.
"""
import math
import time

import numpy as np
import pytest
from conftest import dense_op

from ddlab.boolfn import BoolFn, Partition, PartialBoolFn, VarOrder, evaluate, n_min, subfunction_count
from ddlab.diagrams import (acceptance_table, build_binary_tree_obdd, function_of,
                            is_commutative, width)
from ddlab.errors import CommutativityError
from ddlab.experiments import report_emit, run_suite
from ddlab.fixtures import eq_multipliers, modp_multipliers, recombined_eq_multipliers
from ddlab.quantum import (QuantumProgram, check_unitary, computes_with_bounded_error)
from ddlab.quantum import acceptance_table as quantum_acceptance_table
from ddlab.reorder import (BlockLayout, allowed_input_indexes, reorder_function,
                           reorder_nobdd, reorder_obdd, reorder_pobdd, totalize,
                           xor_reorder_qobdd)
from ddlab.zoo import (RpjLayout, eq, eq_geometric_pobdd, eq_weighted_obdd,
                       fingerprint_eq_qobdd, fingerprint_modp_qobdd, msw_b,
                       or_guess_nobdd, pj_2k_obdd, pj_bool, req, req_b, rpj,
                       rpj_2k_obdd, ws_b)

SEED = 20240817


def test_criterion_1_identity_order_cut_counts():
    start = time.monotonic()
    for n in (2, 4, 6, 8):
        count = subfunction_count(eq(n), Partition(VarOrder.identity(n), n // 2))
        assert count == 1 << (n // 2)
    assert time.monotonic() - start < 1.0


def test_criterion_2_min_width_of_shifted_equality():
    start = time.monotonic()
    enum2 = n_min(req(2), strategy="enum")  # every order of 4 variables
    auto2 = n_min(req(2), strategy="auto")
    assert enum2 == auto2 == 2
    assert enum2 >= 1 << 1  # 2^(q/2) at q=2
    auto4 = n_min(req(4), strategy="auto")  # subset DP over 12 variables
    assert auto4 == 8
    assert auto4 >= 1 << 2  # 2^(q/2) at q=4
    assert time.monotonic() - start <= 300.0


def test_criterion_3_lifted_equality_tester_margins():
    start = time.monotonic()
    epsilon = 1.0 / 6.0
    for q in (2, 4):
        ks = eq_multipliers(q)["multipliers"]
        base = fingerprint_eq_qobdd(q, ks)
        layout = BlockLayout(q)
        lifted = xor_reorder_qobdd(base, layout)
        assert lifted.dim == q * base.dim
        fp = reorder_function(eq(q), layout, "xor")
        probs = quantum_acceptance_table(lifted)
        for idx in allowed_input_indexes(layout, "xor"):
            if fp.values[idx]:
                assert abs(probs[idx] - 1.0) <= 1e-9
            else:
                assert probs[idx] <= 0.5 - epsilon + 1e-9
    assert time.monotonic() - start <= 60.0


def test_criterion_4_totalized_lift_equals_shifted_equality():
    start = time.monotonic()
    for q in (2, 4):
        ks = eq_multipliers(q)["multipliers"]
        layout = BlockLayout(q)
        lifted = xor_reorder_qobdd(fingerprint_eq_qobdd(q, ks), layout)
        fp = reorder_function(eq(q), layout, "xor")
        assert totalize(fp, lifted) == req(q)
    assert time.monotonic() - start < 1.0


def test_criterion_5_weight_tester_margins():
    start = time.monotonic()
    for p in (2, 3, 5, 7, 11, 13):
        ks = modp_multipliers(p)["multipliers"]
        assert len(ks) <= 4 * math.ceil(math.log2(p))
        n = p  # weights 0..p cover every residue class, 0 twice
        prog = fingerprint_modp_qobdd(p, n, ks)
        probs = quantum_acceptance_table(prog)
        idx = np.arange(1 << n, dtype=np.int64)
        weights = np.zeros(1 << n, dtype=np.int64)
        for b in range(n):
            weights += (idx >> b) & 1
        zero = weights % p == 0
        assert np.max(np.abs(probs[zero] - 1.0)) <= 1e-9
        assert np.max(probs[~zero]) <= 1.0 / 3.0 + 1e-9
    assert time.monotonic() - start < 10.0


def test_criterion_6_classical_lifts_meet_width_and_agree():
    start = time.monotonic()

    def _rounded(program):
        from ddlab.diagrams import Pobdd
        if isinstance(program, Pobdd):
            return (acceptance_table(program) > 0.5).astype(np.uint8)
        return function_of(program).table

    def check(q, base, lift, mode):
        layout = BlockLayout(q)
        lifted = lift(base, layout, mode)
        assert all(w <= q * width(base) for w in lifted.widths)
        fp = reorder_function(BoolFn(base.n, _rounded(base)), layout, mode)
        table = _rounded(lifted)
        allowed = allowed_input_indexes(layout, mode)
        assert np.array_equal(table[allowed], fp.values[allowed])

    for mode in ("direct", "xor"):
        check(2, eq_weighted_obdd(2), reorder_obdd, mode)
        check(2, or_guess_nobdd(2), reorder_nobdd, mode)
        check(2, eq_geometric_pobdd(2), reorder_pobdd, mode)
    check(4, eq_weighted_obdd(4), reorder_obdd, "xor")
    check(4, or_guess_nobdd(4), reorder_nobdd, "direct")
    check(4, eq_geometric_pobdd(4), reorder_pobdd, "xor")
    assert time.monotonic() - start <= 60.0


def test_criterion_7_pointer_jumping_walks():
    start = time.monotonic()
    a = 2
    for k in (1, 2):
        prog = pj_2k_obdd(k, a)
        assert function_of(prog) == pj_bool(k, a)  # all 2**8 inputs
        assert max(prog.widths) <= (2 * a) * (a + 1)
    assert is_commutative(pj_2k_obdd(1, a), trials=1000, seed=SEED)
    lay = RpjLayout(a)
    walker = rpj_2k_obdd(1, lay)
    assert function_of(walker) == rpj(1, lay)  # all 2**12 inputs
    assert max(walker.widths) <= (2 * a) * (a + 1) * lay.b
    assert time.monotonic() - start <= 300.0


def test_criterion_8_infrastructure_soundness(paper_core_reports):
    # unitarity of every quantum machine the acceptance suite relies on
    machines = []
    for q in (2, 4):
        ks = eq_multipliers(q)["multipliers"]
        machines.append(fingerprint_eq_qobdd(q, ks))
        machines.append(fingerprint_eq_qobdd(q, ks, recombine=True))
        machines.append(xor_reorder_qobdd(fingerprint_eq_qobdd(q, ks), BlockLayout(q)))
    for p in (2, 3, 5, 7, 11, 13):
        machines.append(fingerprint_modp_qobdd(p, 6, modp_multipliers(p)["multipliers"]))
    machines.append(
        fingerprint_eq_qobdd(8, recombined_eq_multipliers(8)["multipliers"], recombine=True))
    for m in machines:
        assert check_unitary(m).max_deviation <= 1e-9

    # per-step norm preservation along real runs
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for m in machines:
        for _ in range(5):
            bits = rng.integers(0, 2, size=m.n)
            state = m.initial.copy()
            for _ in range(m.k):
                for pos in range(m.n):
                    var = m.order.perm[pos]
                    state = dense_op(m, m.steps[pos][int(bits[var - 1])]) @ state
                    worst = max(worst, abs(float(np.linalg.norm(state)) - 1.0))
    assert worst <= 1e-9

    # padded inputs ignore their padding bits
    padded = [
        (req_b(6, 4), (5, 6)),
        (ws_b(9, 3), (5, 6, 7, 8, 9)),
        (msw_b(12, 4), (5, 6, 9, 10, 11, 12)),
    ]
    for f, dead in padded:
        for _ in range(1000):
            bits = [int(b) for b in rng.integers(0, 2, size=f.n)]
            flipped = list(bits)
            flipped[int(dead[int(rng.integers(0, len(dead)))]) - 1] ^= 1
            assert evaluate(f, bits) == evaluate(f, flipped)

    # the two exact-width routes agree on random functions
    for trial in range(50):
        n = int(rng.integers(2, 7))
        table = rng.integers(0, 2, size=1 << n)
        if trial % 3 == 2:
            defined = rng.integers(0, 2, size=1 << n)
            f = PartialBoolFn(n, defined, table & defined)
        else:
            f = BoolFn(n, table)
        assert n_min(f, strategy="auto") == n_min(f, strategy="enum")

    # repeated runs emit byte-identical reports
    first = report_emit(paper_core_reports, "json")
    second = report_emit(run_suite("paper-core"), "json")
    assert first.encode("utf-8") == second.encode("utf-8")


def test_criterion_9_negative_controls():
    # order-sensitive bases are rejected by every reordering transform
    tree = build_binary_tree_obdd(eq(2))
    for mode in ("direct", "xor"):
        with pytest.raises(CommutativityError):
            reorder_obdd(tree, BlockLayout(2), mode)
    eye = np.eye(2, dtype=np.complex128)
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]], dtype=np.complex128)
    had = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
    doomed = QuantumProgram(n=2, dim=2, order=VarOrder.identity(2),
                            initial=np.array([1.0, 0.0]),
                            steps=[(eye, rot), (eye, had)], accept=[2])
    with pytest.raises(CommutativityError):
        xor_reorder_qobdd(doomed, BlockLayout(2))

    # the equality tester must fail against the negated target
    ks = eq_multipliers(4)["multipliers"]
    prog = fingerprint_eq_qobdd(4, ks)
    assert computes_with_bounded_error(prog, eq(4), epsilon=1.0 / 6.0).passed
    negated = BoolFn(4, 1 - eq(4).table)
    assert not computes_with_bounded_error(prog, negated, epsilon=1.0 / 6.0).passed
