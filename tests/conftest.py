"""Shared pytest hooks and helpers: a visible per-criterion PASS/FAIL summary,
one paper-core suite run shared by the tests that read it, and the one
test-side densifier of index-map operators."""
from __future__ import annotations

import re

import numpy as np
import pytest

from ddlab.diagrams import LeveledObdd, Nobdd
from ddlab.experiments import run_suite
from ddlab.quantum import QuantumProgram

_CRITERION = re.compile(r"test_criterion_(\d+)")

_DESCRIPTIONS = {
    1: "identity-order equality cut counts are exactly 2^(n/2)",
    2: "exact minimum width of the addressed equality function meets 2^(q/2)",
    3: "xor-lifted quantum equality testers have dimension q*dim and the stated margins",
    4: "totalized xor-lifted equality programs equal the addressed equality function bitwise",
    5: "weight testers accept multiples exactly and everything else below 1/3",
    6: "classical lifts keep the width bound and agree with the function-level transform",
    7: "pointer-jumping layered programs match their functions and commute",
    8: "unitarity, padding independence, dual-route width agreement, report determinism",
    9: "non-commutative bases are refused and the equality tester fails against negation",
}


@pytest.fixture(scope="session")
def paper_core_reports():
    """The reports of one `paper-core` suite run."""
    return run_suite("paper-core")


def dense_op(program, op, width=None):
    """The dense matrix of one of `program`'s operators, as its kind stores
    a matrix: an index map m onto `width` nodes (by default its own length)
    has its 1 of row i in column m[i], transposed on the quantum kind, whose
    amplitudes are columns. Built by indexing, not through the program's own
    action; a matrix, and any operator of the deterministic kind (whose
    states are nodes), is returned as it is."""
    if op.dtype.kind != "i" or isinstance(program, LeveledObdd):
        return op
    width = op.shape[0] if width is None else width
    mat = np.zeros((op.shape[0], width), dtype=program._DTYPE)
    mat[np.arange(op.shape[0]), op] = 1
    return mat.T if isinstance(program, QuantumProgram) else mat


def dense_program(program):
    """The same program with every level operator a dense matrix; layer ends
    stay maps. The quantum constructor stores permutations as maps, so the
    dense quantum steps are set after it."""
    steps = tuple(tuple(dense_op(program, op, program.widths[ell + 1]) for op in pair)
                  for ell, pair in enumerate(program.steps))
    dense = program._rebuilt(steps=steps)
    if isinstance(program, QuantumProgram):
        dense.steps = steps
        dense._derive_later()
    return dense


def embedded_from_rows(program, kind):
    """The deterministic program as a `kind` (Nobdd or Pobdd) program built
    from per-node rows, so that its operators are matrices, unlike those of
    `embed_obdd_as_nobdd` and `embed_obdd_as_pobdd`, which are its maps."""
    steps = []
    for ell, pair in enumerate(program.steps):
        eye = np.eye(program.widths[ell + 1])
        steps.append([({t0}, {t1}) if kind is Nobdd else (eye[t0], eye[t1])
                      for t0, t1 in zip(*(op.tolist() for op in pair))])
    fields = {} if kind is Nobdd else {"epsilon": 0.5}
    return kind(n=program.n, k=program.k, order=program.order, widths=program.widths,
                start=program.start, steps=steps, accepting=np.flatnonzero(program.sink_values),
                layer_ends=program.layer_ends, **fields)


def pytest_terminal_summary(terminalreporter):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            match = _CRITERION.search(nodeid)
            if match:
                num = int(match.group(1))
                ok = outcome == "passed"
                results[num] = results.get(num, True) and ok
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(results):
        verdict = "PASS" if results[num] else "FAIL"
        desc = _DESCRIPTIONS.get(num, "")
        terminalreporter.write_line("criterion %d: %s — %s" % (num, verdict, desc))
