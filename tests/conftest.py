"""Shared pytest hooks: a visible per-criterion PASS/FAIL summary, and one
paper-core suite run shared by the tests that read it."""
from __future__ import annotations

import re

import pytest

from ddlab.experiments import run_suite

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
