"""Named function families, their programs, and the multiplier search."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddlab import limits
from ddlab.boolfn import BoolFn, VarOrder, evaluate, n_min
from ddlab.diagrams import Nobdd, function_of, index_bits, is_commutative, width
from ddlab.errors import ShapeError
from ddlab.fixtures import (eq_multipliers, load_multiplier_fixtures, modp_multipliers,
                            recombined_eq_multipliers)
from ddlab.quantum import accept_probability, check_unitary
from ddlab.reorder import BlockLayout
from ddlab.zoo import (PjInstance, RpjLayout, eq, eq_acceptance_formula,
                       eq_geometric_pobdd, eq_weighted_obdd, fingerprint_eq_qobdd,
                       fingerprint_modp_qobdd, modp_acceptance_formula, mod_p, msw_b,
                       or_guess_nobdd, pj_2k_obdd, pj_bool, pj_decode, pj_encode,
                       pj_eval, pj_input_length, pj_output_bit, req, req_b,
                       req_layout_for_bits, rpj, rpj_2k_obdd,
                       search_good_multipliers, ws, ws_b, _pj_outputs, _rpj_core)


def test_eq_basics():
    two = eq(2)
    assert two.table.tolist() == [1, 0, 0, 1]
    four = eq(4)
    for idx in range(16):
        assert four.table[idx] == (1 if (idx >> 2) == (idx & 3) else 0)
    with pytest.raises(ShapeError):
        eq(3)
    with pytest.raises(ShapeError):
        eq(0)


def test_req_frozen_table():
    assert req(2).to_hex() == "a5a5"
    assert req(BlockLayout(2)) == req(2)
    # totality: req is defined on every input, including disallowed ones
    assert req(4).n == 12
    assert req(4).table.shape[0] == 1 << 12


def test_req_vanishing_total_on_allowed_inputs():
    # on allowed inputs req equals equality of the address-arranged halves
    layout = BlockLayout(4)
    f = req(4)
    from ddlab.reorder import allowed_input_indexes, reorder_function
    fp = reorder_function(eq(4), layout, "xor")
    for idx in allowed_input_indexes(layout, "xor"):
        assert f.table[idx] == fp.values[idx]


def test_mod_p_spot_values():
    f = mod_p(3, 5)
    assert f.table[0] == 1  # weight 0
    assert f.table[0b11100] == 1  # weight 3
    assert f.table[0b10000] == 0  # weight 1
    with pytest.raises(ShapeError):
        mod_p(1, 4)


def test_ws_and_padded_ws():
    f = ws(6)
    # weights 1..6 mod 7: (1,1,0,0,0,0) -> s=3 -> x3=0; (1,0,...) -> s=1 -> x1=1
    assert evaluate(f, (1, 1, 0, 0, 0, 0)) == 0
    assert evaluate(f, (1, 0, 0, 0, 0, 0)) == 1
    assert evaluate(f, (0, 0, 0, 0, 0, 0)) == 0  # s=0 selects nothing
    g = ws_b(6, 3)
    # weights 1..3 mod 5 over the first three bits only
    assert evaluate(g, (1, 1, 0, 0, 0, 0)) == 0
    assert evaluate(g, (1, 0, 0, 1, 1, 1)) == 1
    # padding bits do not change the selector, only the selected position
    assert evaluate(g, (1, 1, 0, 1, 1, 1)) == 0
    with pytest.raises(ShapeError):
        ws_b(6, 7)
    with pytest.raises(ShapeError):
        ws_b(6, 0)


def test_msw_b_worked_values():
    f = msw_b(8, 4)
    assert evaluate(f, (1, 0, 1, 0, 1, 0, 0, 0)) == 0  # z=r=1, x1 ^ x5 = 0
    assert evaluate(f, (1, 0, 1, 0, 0, 0, 0, 0)) == 1  # z=r=1, x1 ^ x5 = 1
    assert evaluate(f, (0, 1, 1, 0, 1, 0, 0, 0)) == 0  # z=2, r=1 mismatch
    assert evaluate(f, (0, 0, 0, 0, 1, 1, 1, 1)) == 0  # z=r=0 excluded
    with pytest.raises(ShapeError):
        msw_b(8, 3)
    with pytest.raises(ShapeError):
        msw_b(7, 4)


def test_req_layout_and_padding():
    assert req_layout_for_bits(4).q == 2
    assert req_layout_for_bits(12).q == 4
    with pytest.raises(ShapeError):
        req_layout_for_bits(5)
    padded = req_b(6, 4)
    core = req(2)
    for idx in range(1 << 6):
        assert padded.table[idx] == core.table[idx >> 2]
    with pytest.raises(ShapeError):
        req_b(3, 4)


def test_frozen_min_widths():
    assert n_min(req(2)) == 2
    assert n_min(eq(4)) == 3


def test_pj_instance_walk_and_codec():
    inst = PjInstance(a=2, f_a=(3, 2), f_b=(1, 0), k=3)
    assert pj_eval(inst) == 3
    bits = pj_encode(inst)
    assert bits == (0, 1, 0, 0, 0, 1, 0, 0)
    assert pj_decode(3, 2, bits) == inst
    assert pj_output_bit(3, 2, bits) == 0  # label 3 = 0b11 has even parity
    with pytest.raises(ShapeError):
        PjInstance(a=2, f_a=(1, 2), f_b=(1, 0), k=1)  # f_a must land in side B
    with pytest.raises(ShapeError):
        pj_decode(1, 2, bits[:-1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4]), st.integers(0, 4), st.randoms(use_true_random=False))
def test_pj_codec_round_trip(a, k, rng):
    n = pj_input_length(a)
    bits = tuple(rng.randint(0, 1) for _ in range(n))
    inst = pj_decode(k, a, bits)
    # decode canonicalizes fields mod a; encoding the instance reproduces a
    # bit string that decodes to the same instance
    again = pj_decode(k, a, pj_encode(inst))
    assert again == inst
    assert pj_output_bit(k, a, bits) == bin(pj_eval(inst)).count("1") % 2


def test_pj_bool_one_step_reads_single_field():
    # with one jump from vertex 0 only the first field matters: the reached
    # label is 2 + (field mod 2), whose parity is the negation of bit 2
    f = pj_bool(1, 2)
    assert f.n == 8
    assert f == BoolFn.from_callable(8, lambda x: 1 - x[1])
    assert n_min(f) == 1


@pytest.mark.parametrize("a", [2, 3])
def test_pj_bool_matches_the_per_input_reference(a):
    # a = 3 has n = 18 > TABLE_CAP, so its rows are a seeded sample of inputs
    n = pj_input_length(a)
    if n <= limits.TABLE_CAP:
        idx = limits.table_indexes(n)
    else:
        idx = np.random.default_rng(a).integers(0, 1 << n, size=4096)
    bits = index_bits(idx, n)
    for k in range(4):
        expected = [pj_output_bit(k, a, x) for x in bits]
        assert _pj_outputs(k, a, bits).tolist() == expected
        if n <= limits.TABLE_CAP:
            assert pj_bool(k, a).table.tolist() == expected
    with pytest.raises(ShapeError):
        pj_bool(-1, 2)
    with pytest.raises(ShapeError):
        pj_bool(1, 1)


def test_pj_walk_program_matches_function():
    for k in (1, 2):
        prog = pj_2k_obdd(k, 2)
        assert prog.k == 2 * k
        assert width(prog) == 8
        assert function_of(prog) == pj_bool(k, 2)
    with pytest.raises(ShapeError):
        pj_2k_obdd(0, 2)
    with pytest.raises(ShapeError):
        pj_2k_obdd(1, 3)


def test_rpj_layout_shapes():
    lay = RpjLayout(2)
    assert (lay.a, lay.w, lay.b, lay.n) == (2, 1, 4, 12)
    with pytest.raises(ShapeError):
        RpjLayout(3)
    with pytest.raises(ShapeError):
        RpjLayout(8)  # w=3 gives b=48, not a power of two


def test_rpj_worked_example():
    lay = RpjLayout(2)
    bl = lay.block_layout
    f = rpj(1, lay)
    # one block per vertex; walk 0 -> BV(0)+2, then xor the values landing there
    x = bl.assemble_input([0, 1, 2, 3], [1, 0, 1, 0], "direct")
    assert evaluate(f, x) == 0  # reach vertex 3, owned value 0
    x = bl.assemble_input([0, 1, 2, 3], [1, 0, 1, 1], "direct")
    assert evaluate(f, x) == 1  # reach vertex 3, owned value 1
    x = bl.assemble_input([0, 1, 2, 3], [0, 0, 1, 1], "direct")
    assert evaluate(f, x) == 1  # BV(0)=0: reach vertex 2, owned value 1
    # duplicate addresses accumulate additively: two blocks into vertex 0
    x = bl.assemble_input([0, 0, 2, 3], [1, 1, 1, 0], "direct")
    assert evaluate(f, x) == 1  # BV(0)=2 mod 2=0: reach vertex 2


def _walk_rows(a, fields, k, tail, sink):
    """The row-by-row construction of the pointer-jumping walks, kept as the
    reference for pj_2k_obdd and _rpj_core: `fields` lists (owner, addend) per
    variable, `tail` is the parity-collection map of _rpj_core's extra layer
    (or None) and `sink` maps a node to its sink bit. Returns the widths,
    start, steps, sink values and layer-end maps."""
    width = 2 * a * a

    def node(v, acc):
        return v * a + acc

    def level(owner_v, new_acc):
        rows = []
        for v in range(2 * a):
            for acc in range(a):
                if v == owner_v:
                    rows.append((node(v, acc), node(v, new_acc(acc))))
                else:
                    rows.append((node(v, acc), node(v, acc)))
        return rows

    steps, layer_ends = [], []
    for _layer in range(k):
        for owner_v, addend in fields:
            steps.append(level(owner_v, lambda acc: (acc + addend) % a))
        end = [0] * width
        for v in range(2 * a):
            for acc in range(a):
                end[node(v, acc)] = node(acc + a if v < a else acc, 0)
        layer_ends.append(end)
    if tail is not None:
        for owner_v, _addend in fields:
            steps.append(level(owner_v, tail))
        layer_ends.append(None)
    while len(layer_ends) < 2 * k:
        steps += [[(i, i) for i in range(width)]] * len(fields)
        layer_ends.append(None)
    widths = [width] * (len(steps) + 1)
    return widths, node(0, 0), steps, [sink(i) for i in range(width)], layer_ends


def _pj_2k_rows(k, a):
    w = (2 * a - 1).bit_length()
    fields = [(pos // w, (1 << (w - 1 - pos % w)) % a) for pos in range(2 * a * w)]
    return _walk_rows(a, fields, k, None, lambda i: bin(i // a).count("1") & 1)


def _rpj_core_rows(k, layout):
    a, w = layout.a, layout.w
    fields = [(pos // w, (1 << (pos % w)) % a) for pos in range(layout.b)]
    return _walk_rows(a, fields, k, lambda acc: acc ^ 1 if acc < 2 else acc,
                      lambda i: (i % a) & 1)


@pytest.mark.parametrize("kind,k,a", [("pj", k, a) for k in (1, 2, 3) for a in (2, 4, 8)]
                         + [("rpj", k, a) for k in (1, 2, 3) for a in (2, 4)])
def test_walk_programs_match_the_row_by_row_construction(kind, k, a):
    if kind == "pj":
        prog, ref = pj_2k_obdd(k, a), _pj_2k_rows(k, a)
    else:
        prog, ref = _rpj_core(k, RpjLayout(a)), _rpj_core_rows(k, RpjLayout(a))
    widths, start, steps, sinks, layer_ends = ref
    assert (list(prog.widths), prog.start, prog.k) == (widths, start, 2 * k)
    assert len(prog.steps) == len(steps)
    for (t0, t1), rows in zip(prog.steps, steps):
        assert t0.tolist() == [r[0] for r in rows] and t1.tolist() == [r[1] for r in rows]
    assert prog.sink_values.tolist() == sinks
    assert [None if e is None else e.tolist() for e in prog.layer_ends] == layer_ends


def test_rpj_program_equivalence_and_width():
    lay = RpjLayout(2)
    prog = rpj_2k_obdd(1, lay)
    assert width(prog) == 32
    assert function_of(prog) == rpj(1, lay)
    with pytest.raises(ShapeError):
        rpj_2k_obdd(0, lay)


def test_classical_bases_compute_their_functions():
    assert function_of(eq_weighted_obdd(2)) == eq(2)
    assert function_of(eq_weighted_obdd(4)) == eq(4)
    assert width(eq_weighted_obdd(4)) == 7
    orf = function_of(or_guess_nobdd(3))
    assert orf == BoolFn.from_callable(3, lambda x: int(any(x)))
    assert width(or_guess_nobdd(3)) == 5
    assert is_commutative(eq_weighted_obdd(4))
    assert is_commutative(or_guess_nobdd(3))
    assert is_commutative(eq_geometric_pobdd(4))


def _eq_geometric_rows(q):
    """The row-by-row construction of eq_geometric_pobdd(q), kept as its reference."""
    m = 1 << (q // 2)
    width = 2 * m
    survive = (3.0 / 4.0) ** (1.0 / q)
    steps = []
    for v in range(1, q + 1):
        wv = (1 << (v - 1)) if v <= q // 2 else -(1 << (v - q // 2 - 1))
        rows = [(np.eye(width)[0], np.eye(width)[0])]
        for node in range(1, width):
            delta = node - m
            r0, r1 = np.zeros(width), np.zeros(width)
            r0[0] = r1[0] = 1.0 - survive
            r0[min(max(delta, -(m - 1)), m - 1) + m] = survive
            r1[min(max(delta + wv, -(m - 1)), m - 1) + m] = survive
            rows.append((r0, r1))
        steps.append(rows)
    return steps


def _eq_weighted_rows(q):
    """The row-by-row construction of eq_weighted_obdd(q), kept as its reference."""
    m = 1 << (q // 2)
    steps = []
    for v in eq_weighted_obdd(q).order.perm:
        wv = (1 << (v - 1)) if v <= q // 2 else -(1 << (v - q // 2 - 1))
        steps.append([(node, min(max(node - (m - 1) + wv, -(m - 1)), m - 1) + (m - 1))
                      for node in range(2 * m - 1)])
    return steps


@pytest.mark.parametrize("q", [2, 4, 6])
def test_equality_programs_match_the_row_by_row_construction(q):
    prog = eq_geometric_pobdd(q)
    for (p0, p1), rows in zip(prog.steps, _eq_geometric_rows(q)):
        assert np.array_equal(p0, np.stack([r0 for r0, _ in rows]))
        assert np.array_equal(p1, np.stack([r1 for _, r1 in rows]))
        assert p0.flags.c_contiguous and p1.flags.c_contiguous
    for (t0, t1), rows in zip(eq_weighted_obdd(q).steps, _eq_weighted_rows(q)):
        assert t0.tolist() == [r[0] for r in rows] and t1.tolist() == [r[1] for r in rows]


def _or_guess_rows(q):
    """The row-by-row successor sets of or_guess_nobdd(q), kept as its reference."""
    start, acc = 0, q + 1
    steps = []
    for var in range(1, q + 1):
        rows = []
        for node in range(q + 2):
            if node == start:
                others = tuple(g for g in range(1, q + 1) if g != var)
                rows.append((others, others + (acc,)))
            elif node == acc:
                rows.append(((acc,), (acc,)))
            elif node == var:
                rows.append(((), (acc,)))
            else:
                rows.append(((node,), (node,)))
        steps.append(rows)
    return steps


@pytest.mark.parametrize("q", [1, 2, 4, 8, 16])
def test_or_guess_matches_the_row_by_row_construction(q):
    prog = or_guess_nobdd(q)
    reference = Nobdd(n=q, k=1, order=VarOrder.identity(q), widths=[q + 2] * (q + 1), start=0,
                      steps=_or_guess_rows(q), accepting=[q + 1])
    assert (prog.widths, prog.start, prog.accepting) == (reference.widths, 0, {q + 1})
    for pair, expected in zip(prog.steps, reference.steps):
        for op, want in zip(pair, expected):
            assert op.dtype == want.dtype and np.array_equal(op, want)
            assert op.flags.c_contiguous and not op.flags.writeable


def test_fingerprint_eq_matches_formula():
    for q, recombine in ((2, False), (2, True), (4, False), (4, True)):
        ks = eq_multipliers(q)["multipliers"]
        prog = fingerprint_eq_qobdd(q, ks, recombine=recombine)
        assert prog.dim == 2 * len(ks)
        assert check_unitary(prog).passed
        half = q // 2
        for idx in range(1 << q):
            bits = tuple((idx >> (q - i)) & 1 for i in range(1, q + 1))
            delta = sum((bits[i] - bits[i + half]) << i for i in range(half))
            want = eq_acceptance_formula(q, ks, delta, recombine=recombine)
            assert accept_probability(prog, bits) == pytest.approx(want, abs=1e-9)


def test_fingerprint_modp_matches_formula_and_is_exact_on_multiples():
    p, n = 3, 4
    ks = modp_multipliers(p)["multipliers"]
    prog = fingerprint_modp_qobdd(p, n, ks)
    assert check_unitary(prog).passed
    for idx in range(1 << n):
        bits = tuple((idx >> (n - i)) & 1 for i in range(1, n + 1))
        weight = sum(bits)
        want = modp_acceptance_formula(p, ks, weight)
        got = accept_probability(prog, bits)
        assert got == pytest.approx(want, abs=1e-9)
        if weight % p == 0:
            assert got == pytest.approx(1.0, abs=1e-9)


def test_search_first_hits_are_stable():
    res = search_good_multipliers(2, 1, 0.0)
    assert res.found and res.multipliers == (1,) and res.trials == 1
    assert res.worst <= 1e-12
    res = search_good_multipliers(4, 3, 1.0 / 3.0)
    assert res.found and res.exhaustive
    assert res.multipliers == (1, 1, 2)
    assert res.trials == 11
    assert res.worst == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_search_reports_misses_honestly():
    res = search_good_multipliers(4, 1, 0.1, objective="cos2_mean")
    assert not res.found
    assert res.multipliers is None and res.worst is None
    assert res.exhaustive and res.trials == 3


def test_search_randomized_mode_is_seed_deterministic():
    a = search_good_multipliers(16, 8, 0.6, seed=7)
    b = search_good_multipliers(16, 8, 0.6, seed=7)
    assert not a.exhaustive
    assert (a.multipliers, a.worst, a.trials) == (b.multipliers, b.worst, b.trials)
    other = search_good_multipliers(16, 8, 0.6, seed=8)
    assert not other.exhaustive  # same regime, independent draw sequence


def test_search_validation():
    with pytest.raises(ShapeError):
        search_good_multipliers(1, 2, 0.5)
    with pytest.raises(ShapeError):
        search_good_multipliers(4, 0, 0.5)
    with pytest.raises(ShapeError):
        search_good_multipliers(4, 2, 0.5, objective="median")


def test_fixture_entries_reproduce():
    data = load_multiplier_fixtures()
    assert data["version"] == 1
    for key, entry in list(data["modp"].items()) + [
        ("2", data["eq"]["2"]), ("4", data["eq"]["4"]),
        ("8r", data["recombined_eq"]["8"]),
    ]:
        res = search_good_multipliers(
            entry["modulus"], entry["t_max"], entry["target"],
            objective=entry["objective"], odd_only=entry["odd_only"],
            seed=entry["seed"], budget=entry["budget"],
        )
        assert res.found, key
        assert list(res.multipliers) == entry["multipliers"], key
        assert res.worst == pytest.approx(entry["worst"], abs=1e-12), key
        assert res.trials == entry["trials"], key
        assert res.exhaustive == entry["exhaustive"], key


def test_fixture_randomized_entry_is_certified_by_the_formula():
    entry = eq_multipliers(8)
    ks = entry["multipliers"]
    assert len(ks) <= entry["t_max"]
    worst = max(
        sum(math.cos(math.pi * k * d / entry["modulus"]) ** 2 for k in ks) / len(ks)
        for d in range(1, entry["modulus"])
    )
    assert worst == pytest.approx(entry["worst"], abs=1e-12)
    assert worst <= entry["target"] + 1e-12


def test_recombined_fixture_meets_margin():
    entry = recombined_eq_multipliers(8)
    ks = entry["multipliers"]
    worst = max(
        eq_acceptance_formula(8, ks, d, recombine=True)
        for d in range(1, entry["modulus"])
    )
    assert worst == pytest.approx(entry["worst"], abs=1e-12)
    assert worst <= 1.0 / 3.0 + 1e-12
