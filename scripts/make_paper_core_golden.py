#!/usr/bin/env python3
"""Regenerate tests/data/paper_core_golden.json and tests/data/negative_golden.json
from runs of the paper-core and negative suites.

Each entry holds one check's check_id, passed, bound, claim and measured
block, in suite order. The files are the regression oracle of refactors: a
change that moves any of these values must regenerate them and say why. Run
from the repository root:

    python scripts/make_paper_core_golden.py
"""
from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ddlab.experiments import run_suite  # noqa: E402

DATA = ROOT / "tests" / "data"


def main():
    for suite_id in ("paper-core", "negative"):
        golden = []
        for report in run_suite(suite_id):
            payload = report.canonical_payload()
            golden.append({"check_id": payload["spec"]["check_id"], "passed": payload["passed"],
                           "bound": payload["bound"], "claim": payload["claim"],
                           "measured": payload["measured"]})
        DATA.mkdir(exist_ok=True)
        out = DATA / ("%s_golden.json" % suite_id.replace("-", "_"))
        out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
