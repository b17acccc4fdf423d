"""Caps are defined once, in `ddlab.limits`, and checked before memory is allocated."""
import importlib
import pkgutil
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ddlab
from ddlab import limits
from ddlab.boolfn import BoolFn, VarOrder
from ddlab.diagrams import LeveledObdd, Pobdd, embed_obdd_as_nobdd, rounded_table
from ddlab.errors import CapacityError
from ddlab.experiments import parse_program_spec
from ddlab.fixtures import modp_multipliers
from ddlab.quantum import acceptance_table, computes_with_bounded_error
from ddlab.reorder import BlockLayout, reorder_nobdd
from ddlab.zoo import (RpjLayout, eq, eq_geometric_pobdd, eq_weighted_obdd,
                       fingerprint_modp_qobdd, mod_p, msw_b, or_guess_nobdd, pj_2k_obdd, pj_bool,
                       req, req_b, rpj, rpj_2k_obdd, ws, ws_b, _rpj_core)


def test_caps_and_tolerances_are_defined_only_in_limits():
    pattern = re.compile(r"^[A-Z_]*(CAP|TOL)[A-Z_]*$")
    for info in pkgutil.iter_modules(ddlab.__path__):
        module = importlib.import_module("ddlab." + info.name)
        if module is limits:
            continue
        assert not [name for name in vars(module) if pattern.match(name)], info.name


def test_readme_limits_table_matches_the_limits_module():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| limit | value | what it bounds |", 1)[1].split("\n\n", 1)[0]
    rows = set(re.findall(r"^\| `([A-Z_]+)` \|", table, flags=re.M))
    assert rows and not [name for name in rows if not hasattr(limits, name)]
    constants = {name for name in vars(limits)
                 if re.match(r"^[A-Z_]+_(CAP|ORDERS|CELLS|ROWS)$", name)}
    assert constants - rows == set()


def test_table_indexes():
    assert np.array_equal(limits.table_indexes(3), np.arange(8))
    assert limits.table_indexes(limits.TABLE_CAP).size == 1 << limits.TABLE_CAP
    with pytest.raises(CapacityError):
        limits.table_indexes(limits.TABLE_CAP + 1)


@pytest.mark.parametrize("build", [
    lambda: eq(40), lambda: mod_p(3, 40), lambda: ws(40), lambda: ws_b(40, 3),
    lambda: msw_b(40, 4), lambda: req_b(40, 4), lambda: req(8), lambda: pj_bool(1, 4),
    lambda: rpj(1, RpjLayout(4)), lambda: BlockLayout(8).addresses_and_values("xor"),
], ids=["eq", "mod_p", "ws", "ws_b", "msw_b", "req_b", "req", "pj_bool", "rpj", "layout"])
def test_zoo_tables_refuse_above_the_table_cap(build):
    with pytest.raises(CapacityError):
        build()


def test_program_tables_refuse_above_the_table_cap():
    prog = eq_weighted_obdd(18)
    for table in (rounded_table, acceptance_table):
        with pytest.raises(CapacityError):
            table(prog)
    target = BoolFn(18, np.zeros(1 << 18, dtype=np.uint8))
    with pytest.raises(CapacityError):
        computes_with_bounded_error(prog, target, 0.1)
    with pytest.raises(CapacityError):
        computes_with_bounded_error(prog, target, 0.1, samples=limits.SAMPLE_CAP + 1)


def test_constructors_check_the_entry_cap_before_reading_rows():
    # stand-in rows: the cap is computed from the level widths alone
    with pytest.raises(CapacityError):
        Pobdd(n=1, k=1, order=VarOrder.identity(1), widths=[8192, 8192], start=0,
              steps=[None], accepting=[0], epsilon=0.1)
    with pytest.raises(CapacityError):
        LeveledObdd(n=1, k=1, order=VarOrder.identity(1), widths=[(1 << 25) + 1] * 2,
                    start=0, steps=[None], sink_values=[0])


@pytest.mark.parametrize("build", [
    lambda: eq_weighted_obdd(40), lambda: eq_geometric_pobdd(40), lambda: or_guess_nobdd(10 ** 5),
    lambda: pj_2k_obdd(1, 1024),
    lambda: _rpj_core(1, RpjLayout(256)), lambda: rpj_2k_obdd(1, RpjLayout(256)),
    lambda: fingerprint_modp_qobdd(3, 10 ** 8, modp_multipliers(3)["multipliers"]),
], ids=["eq-obdd", "eq-pobdd", "or-nobdd", "pj-2k", "rpj-core", "rpj-2k", "modp-qobdd"])
def test_program_builders_refuse_above_the_entry_cap(build):
    with pytest.raises(CapacityError):
        build()


@pytest.mark.parametrize("spec", ["eq-obdd:20", "eq-pobdd:14", "or-nobdd:128", "pj-2k:1,16",
                                  "pj-2k:2,8", "rpj-core:1,16"])
def test_program_builders_peak_within_three_times_their_packed_operators(spec):
    # the entry cap bounds the packed operators, so it bounds a build only
    # if the build's scratch memory stays within a small multiple of them
    tracemalloc.start()
    try:
        prog = parse_program_spec(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sum(op.nbytes for pair in prog.steps for op in pair)


def test_lift_checks_the_entry_cap_before_building():
    # 4 lifted levels of two 3000 x 3000 matrices: 7.2e7 entries
    w = 1500
    identity = LeveledObdd(n=2, k=1, order=VarOrder.identity(2), widths=[w] * 3, start=0,
                           steps=[[(i, i) for i in range(w)]] * 2, sink_values=[0] * w)
    with pytest.raises(CapacityError):
        reorder_nobdd(embed_obdd_as_nobdd(identity), BlockLayout(2), "direct")
