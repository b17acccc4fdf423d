#!/usr/bin/env python3
"""Regenerate tests/data/paper_core_golden.json from a run of the paper-core suite.

Each entry holds one check's check_id, passed, bound, claim and measured
block, in suite order. The file is the regression oracle of refactors: a
change that moves any of these values must regenerate it and say why. Run
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

OUT = ROOT / "tests" / "data" / "paper_core_golden.json"


def main():
    golden = []
    for report in run_suite("paper-core"):
        payload = report.canonical_payload()
        golden.append({"check_id": payload["spec"]["check_id"], "passed": payload["passed"],
                       "bound": payload["bound"], "claim": payload["claim"],
                       "measured": payload["measured"]})
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
