"""Experiment specs, runners, reports, digests, and the named suites."""
import json
import pathlib
import re

import numpy as np
import pytest

from ddlab.diagrams import rounded_table
from ddlab.errors import UsageError
from ddlab.experiments import (_FUNCTIONS, _PROGRAMS, ExperimentSpec, find_check,
                               parse_function_spec, parse_program_spec, report_emit,
                               reports_from_emission, resolve, run, run_suite,
                               suite_checks)
from ddlab.quantum import QuantumProgram
from ddlab.zoo import eq

# one small spec of every family of both tables, and of tree:
FAMILY_EXAMPLES = ["eq:4", "req:2", "modp:3,5", "ws:4", "wsb:9,3", "mswb:12,4", "reqb:6,4",
                   "pj:1,2", "rpj:1,2", "eq-obdd:2", "or-nobdd:2", "eq-pobdd:2", "eq-qobdd:2",
                   "eq-qobdd-recombined:8", "modp-qobdd:3,5", "pj-2k:1,2", "rpj-2k:1,2",
                   "rpj-core:1,2", "tree:eq:2"]


def test_spec_parsers():
    assert parse_function_spec("eq:4") == eq(4)
    assert parse_function_spec("modp:3,5").n == 5
    prog = parse_program_spec("eq-obdd:2")
    assert prog.n == 2
    with pytest.raises(UsageError):
        parse_function_spec("eq")
    with pytest.raises(UsageError):
        parse_function_spec("eq:4,4")
    with pytest.raises(UsageError):
        parse_function_spec("eq:three")
    with pytest.raises(UsageError):
        parse_program_spec("eq:4")
    with pytest.raises(UsageError, match="not a program spec"):
        resolve("eq:4", program=True)
    with pytest.raises(UsageError):
        ExperimentSpec(kind="mystery", params={})


def test_the_family_tables_match_the_readme_mini_spec_table():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| spec | object |", 1)[1].split("\n\n", 1)[0]
    first_cells = re.findall(r"^\| ([^|]+) \|", table, flags=re.M)
    families = {spec.split(":", 1)[0] for cell in first_cells
                for spec in re.findall(r"`([^`]+)`", cell)}
    assert families == set(_FUNCTIONS) | set(_PROGRAMS) | {"tree"}


def test_the_family_tables_are_disjoint_and_leave_tree_out():
    assert not set(_FUNCTIONS) & set(_PROGRAMS)
    assert "tree" not in _FUNCTIONS and "tree" not in _PROGRAMS
    examples = {spec.split(":", 1)[0] for spec in FAMILY_EXAMPLES}
    assert examples == set(_FUNCTIONS) | set(_PROGRAMS) | {"tree"}


def test_a_program_family_names_a_function_exactly_when_it_is_quantum():
    for spec in FAMILY_EXAMPLES:
        name = spec.split(":", 1)[0]
        if name in _PROGRAMS:
            computes = _PROGRAMS[name][2]
            quantum = isinstance(parse_program_spec(spec), QuantumProgram)
            assert (computes in _FUNCTIONS) if quantum else computes is None, spec


@pytest.mark.parametrize("spec", ["eq-qobdd:2", "eq-qobdd:4", "eq-qobdd-recombined:8",
                                  "modp-qobdd:3,5"])
def test_the_named_function_is_the_testers_rounded_table(spec):
    name, args = spec.split(":", 1)
    f = parse_function_spec("%s:%s" % (_PROGRAMS[name][2], args))
    assert np.array_equal(f.table, rounded_table(parse_program_spec(spec)))


def test_an_equivalence_operand_reports_its_own_parse_error():
    spec = ExperimentSpec(kind="equivalence", check_id="adhoc-bad-operand",
                          params={"left": "eq-obdd:2", "right": "req:3"})
    with pytest.raises(UsageError, match="bad arguments in function spec 'req:3'"):
        run(spec)


def test_run_nsub_and_width_exact():
    spec = ExperimentSpec(
        kind="nsub",
        params={"function": "eq:4", "cut": 2,
                "bound": {"op": "==", "value": 4, "expression": "2^(n/2)"}},
        check_id="adhoc-nsub",
    )
    report = run(spec)
    assert report.passed and report.measured["count"] == 4
    assert report.digest and len(report.digest) == 64
    spec = ExperimentSpec(
        kind="width-exact",
        params={"function": "req:2", "strategy": "both",
                "bound": {"op": ">=", "value": 2, "expression": "2^(q/2)"}},
        check_id="adhoc-width",
    )
    report = run(spec)
    assert report.passed
    assert report.measured["routes_agree"] is True


def test_failed_bound_is_reported_not_raised():
    spec = ExperimentSpec(
        kind="nsub",
        params={"function": "eq:4", "cut": 2, "bound": {"op": ">=", "value": 5}},
        check_id="adhoc-fail",
    )
    report = run(spec)
    assert not report.passed
    assert report.measured["count"] == 4


def test_negative_control_inverts_pass():
    specs = suite_checks("negative")
    assert [s.check_id for s in specs] == [
        "reject-noncommutative-obdd", "eq-tester-rejects-negation"]
    for spec in specs:
        report = run(spec)
        assert report.passed
    inverted = run(specs[1])
    assert "negative control" in inverted.claim


def test_find_check_and_unknown_ids():
    spec = find_check("eq-cut-count-n4")
    assert spec.kind == "nsub"
    with pytest.raises(UsageError):
        find_check("definitely-not-registered")
    with pytest.raises(UsageError):
        run_suite("no-such-suite")


def test_canonical_payload_excludes_duration():
    report = run(find_check("eq-cut-count-n4"))
    payload = report.canonical_payload()
    assert "duration_s" not in payload and "digest" not in payload
    with_duration = report.emission(with_duration=True)
    assert "duration_s" in with_duration
    assert with_duration["digest"] == report.digest
    # duration never feeds the digest
    without = report.emission()
    assert without["digest"] == with_duration["digest"]


def test_emission_round_trip_and_tamper_detection():
    reports = run_suite("quick")
    text = report_emit(reports, "json")
    payloads = json.loads(text)
    back = reports_from_emission(payloads)
    assert [r.spec.check_id for r in back] == [r.spec.check_id for r in reports]
    payloads[0]["passed"] = False
    with pytest.raises(UsageError):
        reports_from_emission(payloads)


def test_csv_emission_shape():
    reports = run_suite("quick")
    lines = report_emit(reports, "csv", with_duration=True).strip().splitlines()
    assert lines[0].split(",")[:3] == ["check_id", "kind", "passed"]
    assert lines[0].endswith("duration_s")
    assert len(lines) == len(reports) + 1


def test_single_report_json_is_unwrapped():
    report = run(find_check("eq-cut-count-n4"))
    payload = json.loads(report_emit(report, "json"))
    assert isinstance(payload, dict) and payload["spec"]["check_id"] == "eq-cut-count-n4"


def test_seeded_reruns_are_identical():
    a = report_emit(run_suite("quick", seed=5), "json")
    b = report_emit(run_suite("quick", seed=5), "json")
    assert a == b


def test_paper_core_is_seed_free(paper_core_reports):
    # every paper-core verdict is exhaustive or certified: the seed changes nothing
    for a, b in zip(paper_core_reports, run_suite("paper-core", seed=7), strict=True):
        assert (a.measured, a.passed, a.claim) == (b.measured, b.passed, b.claim), a.spec.check_id
        assert "sampled" not in a.claim and "seeded" not in a.claim, a.spec.check_id


def test_pad_flips_check_every_input_at_every_position():
    # both positions of eq:2 are live: flipping either changes all 4 outputs
    params = {"variant": "pad-flips", "function": "eq:2", "dead": [1, 2]}
    report = run(ExperimentSpec(kind="equivalence", check_id="adhoc-flips", params=params))
    assert report.measured == {"violations": 8, "dead_positions": [1, 2], "inputs_checked": 4}
    assert not report.passed


def test_commutativity_of_an_equivalence_is_decided_by_the_certificate():
    # the binary tree of eq:4 computes eq:4 but its operators do not commute
    report = run(ExperimentSpec(kind="equivalence", check_id="adhoc-comm",
                                params={"left": "tree:eq:4", "right": "eq:4", "commutative": True}))
    assert report.measured["mismatches"] == 0
    assert report.measured["commutative"] is False and not report.passed


GOLDEN = pathlib.Path(__file__).with_name("data") / "paper_core_golden.json"


def _same_measured(got, want):
    """Equal, except that floats need only agree within 1e-12."""
    if isinstance(want, float):
        return isinstance(got, (int, float)) and got == pytest.approx(want, rel=0, abs=1e-12)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same_measured(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same_measured(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def test_paper_core_matches_the_golden_file(paper_core_reports):
    # tests/data/paper_core_golden.json is written by scripts/make_paper_core_golden.py
    golden = json.loads(GOLDEN.read_text())
    assert len(paper_core_reports) == len(golden)
    for report, want in zip(paper_core_reports, golden):
        payload = report.canonical_payload()
        assert payload["spec"]["check_id"] == want["check_id"]
        assert payload["passed"] == want["passed"], want["check_id"]
        assert payload["bound"] == want["bound"], want["check_id"]
        assert payload["claim"] == want["claim"], want["check_id"]
        assert _same_measured(payload["measured"], want["measured"]), want["check_id"]


def test_negative_suite_matches_the_golden_file():
    # tests/data/negative_golden.json is written by scripts/make_paper_core_golden.py
    golden = json.loads(GOLDEN.with_name("negative_golden.json").read_text())
    for report, want in zip(run_suite("negative"), golden, strict=True):
        payload = report.canonical_payload()
        assert payload["spec"]["check_id"] == want["check_id"]
        for field in ("passed", "bound", "claim"):
            assert payload[field] == want[field], want["check_id"]
        assert _same_measured(payload["measured"], want["measured"]), want["check_id"]
