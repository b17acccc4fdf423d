"""Self-test of the benchmark's checkers.

Each checker is first given a real result from ddlab, which it must accept,
and then the same result made wrong on purpose, which it must refuse: an
n_min off by one, one flipped output bit, an acceptance shifted by 1e-6, and
a lifted width of q x base - 1.

    python3 perfbench/selftest.py        (exit code 0 when every case is caught)
"""
from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks as C  # noqa: E402
from workloads import LiftedQ8, PaperCore, Programs, Stopwatch, Width  # noqa: E402


def caught(check, out):
    try:
        check(out)
    except C.CheckFailure:
        return True
    return False


def run_ops(workload, labels, index=0):
    """Run the named operations of one pass in order; each must check out."""
    ops = {op.label: op for op in workload.ops(index)}
    done = {}
    for label in labels:
        op = ops[label]
        out = op.run(Stopwatch())
        op.check(out)
        done[label] = (op.check, out)
    return done


def flip_first(table):
    bad = np.array(table, copy=True)
    bad[0] = 1 - bad[0]
    return bad


def width_cases():
    w = Width(0)
    w.setup()
    done = run_ops(w, ["eq:10", "ws:10", "ws:8 enum"])
    check, got = done["eq:10"]
    yield "n_min of eq:10 off by one (closed form 3)", caught(check, got + 1)
    check, got = done["ws:10"]
    yield "n_min of ws:10 off by one (relabelling invariance)", caught(check, got - 1)
    check, (enum, auto) = done["ws:8 enum"]
    yield "n_min of ws:8 off by one on the DP route", caught(check, (enum, auto + 1))
    yield "check_n_min: 2^(q/2) lower bound", caught(
        lambda v: C.check_n_min(v, "req:4", at_least=4), 3)


def programs_cases():
    p = Programs(0)
    p.setup()
    done = run_ops(p, ["lift.obdd", "lift.nobdd", "lift.pobdd", "lift.qobdd",
                       "totalize+bounded-error", "pj-2k:1,2", "rpj-2k:1,2"])
    check, (comm, base_w, lifted_w, table) = done["lift.obdd"]
    yield "eq-obdd lift: one flipped output bit", caught(
        check, (comm, base_w, lifted_w, flip_first(table)))
    yield "eq-obdd lift: width q*base - 1", caught(check, (comm, base_w, lifted_w - 1, table))
    check, (comm, base_w, lifted_w, table) = done["lift.nobdd"]
    yield "or-nobdd lift: one flipped output bit", caught(
        check, (comm, base_w, lifted_w, flip_first(table)))
    check, (comm, base_w, lifted_w, table) = done["lift.pobdd"]
    shifted = np.array(table, copy=True)
    shifted[0] += 1e-6
    yield "eq-pobdd lift: acceptance shifted by 1e-6", caught(
        check, (comm, base_w, lifted_w, shifted))
    check, (comm, base_dim, dim, acc) = done["lift.qobdd"]
    yield "eq-qobdd lift: acceptance shifted by 1e-6", caught(
        check, (comm, base_dim, dim, acc + 1e-6))
    yield "eq-qobdd lift: dimension q*base - 1", caught(check, (comm, base_dim, dim - 1, acc))
    check, (fp, idx, total, verdict, unitary) = done["totalize+bounded-error"]
    bad_total = SimpleNamespace(n=total.n, table=flip_first(total.table))
    yield "totalize: one flipped output bit", caught(check, (fp, idx, bad_total, verdict, unitary))
    bad_verdict = dataclasses.replace(verdict, max_zero=verdict.max_zero + 1e-6)
    yield "bounded error: max 0-acceptance shifted by 1e-6", caught(
        check, (fp, idx, total, bad_verdict, unitary))
    for label in ("pj-2k:1,2", "rpj-2k:1,2"):
        check, (comm, w, table) = done[label]
        yield "%s: one flipped output bit" % label, caught(check, (comm, w, flip_first(table)))


def lifted_cases():
    lq = LiftedQ8(0)
    lq.setup()
    done = run_ops(lq, ["lift.obdd", "lift.nobdd", "lift.pobdd", "lift.qobdd", "eval.allowed",
                        "eval.any"])
    check, (base_w, lifted_w) = done["lift.pobdd"]
    yield "q=8 eq-pobdd lift: width q*base - 1", caught(check, (base_w, lifted_w - 1))
    for label in ("eval.allowed", "eval.any"):
        check, (o, n, p, q) = done[label]
        yield "%s: eq-obdd output flipped" % label, caught(check, (1 - o, n, p, q))
        yield "%s: or-nobdd output flipped" % label, caught(check, (o, 1 - n, p, q))
        yield "%s: eq-pobdd acceptance + 1e-6" % label, caught(check, (o, n, p + 1e-6, q))
        yield "%s: eq-qobdd acceptance + 1e-6" % label, caught(check, (o, n, p, q + 1e-6))


def paper_core_cases():
    pc = PaperCore(0)
    pc.setup()
    done = run_ops(pc, ["eq-cut-count-n4", "modp-margin-p3", "reorder-obdd-q4",
                        "req-min-width-q2"])

    def altered(label, key, delta):
        # re-digested, so that only the closed-form check can catch it
        check, report = done[label]
        bad = copy.deepcopy(report)
        bad.measured[key] += delta
        bad.digest = C.report_digest(bad.emission())
        return check, bad

    yield "eq cut count off by one", caught(*altered("eq-cut-count-n4", "count", 1))
    yield "modp max 0-acceptance shifted by 1e-6", caught(
        *altered("modp-margin-p3", "max_zero", 1e-6))
    yield "reorder-obdd-q4 lifted width q*base - 1", caught(
        *altered("reorder-obdd-q4", "width", -1))
    yield "req:2 n_min off by one (below 2^(q/2))", caught(
        *altered("req-min-width-q2", "n_min", -1))
    check, report = done["eq-cut-count-n4"]
    forged = copy.deepcopy(report)
    forged.claim += " "
    yield "report whose digest no longer matches", caught(check, forged)


def main():
    missed = 0
    total = 0
    for group in (width_cases, programs_cases, lifted_cases, paper_core_cases):
        for desc, ok in group():
            total += 1
            missed += not ok
            print("%-8s %s" % ("caught" if ok else "MISSED", desc))
    print("%d of %d wrong results caught" % (total - missed, total))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
