"""Command-line interface: outputs, exit codes, determinism."""
import json
import shutil
import subprocess
import time

import pytest

from ddlab.cli import main
from ddlab.experiments import _digest


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_eval_function(capsys):
    rc, out, _ = run_cli(capsys, "eval", "eq:4", "--input", "0101")
    assert (rc, out.strip()) == (0, "1")
    rc, out, _ = run_cli(capsys, "eval", "eq:4", "--input", "0110")
    assert (rc, out.strip()) == (0, "0")


def test_eval_programs(capsys):
    rc, out, _ = run_cli(capsys, "eval", "eq-obdd:2", "--input", "11")
    assert (rc, out.strip()) == (0, "1")
    rc, out, _ = run_cli(capsys, "eval", "or-nobdd:2", "--input", "00")
    assert (rc, out.strip()) == (0, "0")
    rc, out, _ = run_cli(capsys, "eval", "eq-pobdd:2", "--input", "11")
    assert rc == 0 and out.strip() == "1.000000000000"
    rc, out, _ = run_cli(capsys, "eval", "eq-pobdd:2", "--input", "10")
    assert rc == 0 and out.strip() == "0.250000000000"
    rc, out, _ = run_cli(capsys, "eval", "eq-qobdd:2", "--input", "11")
    assert rc == 0 and out.strip() == "1.000000000000"


def test_eval_usage_errors(capsys):
    rc, _, err = run_cli(capsys, "eval", "eq:4", "--input", "01")
    assert rc == 2 and "usage error" in err
    rc, _, err = run_cli(capsys, "eval", "mystery:4", "--input", "0101")
    assert rc == 2
    rc, _, err = run_cli(capsys, "eval", "eq:3", "--input", "010")
    assert rc == 2


def test_nsub(capsys):
    rc, out, _ = run_cli(capsys, "nsub", "eq:4", "--cut", "2")
    assert (rc, out.strip()) == (0, "4")
    rc, out, _ = run_cli(capsys, "nsub", "eq:4", "--order", "1,3,2,4", "--cut", "3")
    assert (rc, out.strip()) == (0, "3")
    rc, _, _ = run_cli(capsys, "nsub", "eq-obdd:2", "--cut", "1")
    assert rc == 2  # programs have no subfunction count


def test_nsub_flag_usage_errors(capsys):
    rc, _, err = run_cli(capsys, "nsub", "eq:4", "--order", "1,2,x", "--cut", "2")
    assert rc == 2 and "usage error" in err
    rc, _, err = run_cli(capsys, "nsub", "eq:4", "--order", "1,2,3", "--cut", "2")
    assert rc == 2 and "usage error" in err
    rc, _, err = run_cli(capsys, "nsub", "eq:4", "--order", "1,1,2,3", "--cut", "2")
    assert rc == 2 and "permutation" in err
    rc, _, err = run_cli(capsys, "nsub", "eq:4", "--cut", "9")
    assert rc == 2 and "cut" in err


def test_reorder_layout_usage_error(capsys):
    rc, _, err = run_cli(capsys, "reorder", "eq-obdd:2", "--layout", "3")
    assert rc == 2 and "power of two" in err


def test_reorder_arity_mismatch_is_a_usage_error(capsys):
    for mode in ("direct", "xor"):
        rc, _, err = run_cli(capsys, "reorder", "rpj-core:2,2", "--layout", "8", "--mode", mode)
        assert rc == 2 and "arity 4 does not match layout q=8" in err
    rc, _, err = run_cli(capsys, "reorder", "eq-obdd:4", "--layout", "2", "--text")
    assert rc == 2 and "arity" in err


def _with_digest(body):
    return json.dumps(dict(body, digest=_digest(body)))


# valid JSON that is not a report; the last two carry the digest of their body
NOT_REPORTS = {
    "list.json": "[1]", "string.json": '"x"', "no-spec.json": _with_digest({}),
    "scalar-bound.json": _with_digest({
        "spec": {"kind": "width-exact", "params": {}, "check_id": None, "tolerance": 0, "seed": 0},
        "measured": {}, "bound": 1, "passed": True, "claim": ""}),
}


def _write_non_reports(tmp_path):
    for name, text in NOT_REPORTS.items():
        (tmp_path / name).write_text(text)
    return [tmp_path / name for name in NOT_REPORTS]


def test_report_rejects_non_json_file(tmp_path, capsys):
    path = tmp_path / "not-json.csv"
    path.write_text("check_id,kind,passed\n")
    rc, _, err = run_cli(capsys, "report", str(path))
    assert rc == 2 and "not a JSON report" in err
    rc, _, err = run_cli(capsys, "report", str(tmp_path / "missing.json"))
    assert rc == 2 and "cannot read" in err
    for path in _write_non_reports(tmp_path):
        rc, _, err = run_cli(capsys, "report", str(path), "--format", "csv")
        assert rc == 2 and "not a report" in err, path.name


def test_width_exact(capsys):
    rc, out, _ = run_cli(capsys, "width-exact", "req:2")
    assert (rc, out.strip()) == (0, "2")
    rc, out, _ = run_cli(capsys, "width-exact", "req:2", "--strategy", "both")
    assert rc == 0 and out.strip() == "auto=2 enum=2 agree=True"


def test_capacity_exit_code(capsys):
    rc, _, err = run_cli(capsys, "width-exact", "modp:3,17")
    assert rc == 3 and "capacity error" in err


def test_enumeration_cap_is_checked_before_any_search(capsys, monkeypatch):
    import ddlab.cli
    import ddlab.experiments
    from ddlab.errors import CapacityError
    from ddlab.experiments import ExperimentSpec, run

    def no_search(f, strategy="auto"):
        raise AssertionError("n_min ran before the enumeration cap was checked")

    monkeypatch.setattr(ddlab.cli, "n_min", no_search)
    monkeypatch.setattr(ddlab.experiments, "n_min", no_search)
    for strategy in ("both", "enum"):
        rc, _, err = run_cli(capsys, "width-exact", "ws:11", "--strategy", strategy)
        assert rc == 3 and "capacity error" in err
        spec = ExperimentSpec(kind="width-exact", check_id="adhoc-width",
                              params={"function": "ws:11", "strategy": strategy})
        with pytest.raises(CapacityError):
            run(spec)


def test_bad_counts_are_usage_errors(capsys):
    for argv in (["reorder", "eq-obdd:2", "--layout", "2", "--samples", "-5"],
                 ["reorder", "eq-obdd:2", "--layout", "2", "--samples", "0"],
                 ["reorder", "eq-obdd:2", "--layout", "2", "--seed", "-1"],
                 ["verify", "reqb-padding-flips", "--seed", "-1"],
                 ["suite", "negative", "--seed", "x"]):
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2 and "Traceback" not in err, argv


def test_sample_count_above_a_full_table_is_a_capacity_error(capsys):
    from ddlab.limits import SAMPLE_CAP

    rc, _, err = run_cli(capsys, "reorder", "eq-obdd:2", "--layout", "2",
                         "--samples", str(SAMPLE_CAP + 1))
    assert rc == 3 and "capacity error" in err


@pytest.mark.parametrize("spec", ["eq-pobdd:40", "eq-obdd:40"])
def test_oversized_programs_are_refused_before_they_are_built(capsys, spec):
    start = time.perf_counter()
    rc, _, err = run_cli(capsys, "eval", spec, "--input", "0")
    assert rc == 3 and "capacity error" in err
    assert time.perf_counter() - start < 1.0


# one small spec of every function and program family, with its input length
SWEEP_SPECS = {
    "eq:4": 4, "req:2": 4, "modp:3,4": 4, "ws:4": 4, "wsb:5,2": 5, "mswb:4,2": 4,
    "reqb:5,4": 5, "pj:1,2": 8, "rpj:1,2": 12,
    "eq-obdd:4": 4, "or-nobdd:4": 4, "eq-pobdd:4": 4, "eq-qobdd:4": 4,
    "eq-qobdd-recombined:8": 8, "modp-qobdd:3,4": 4, "pj-2k:1,2": 8, "rpj-2k:1,2": 12,
    "rpj-core:1,2": 4, "tree:eq:4": 4,
}


def _sweep_commands(tmp_path):
    saved = tmp_path / "negative.json"
    for spec, n in SWEEP_SPECS.items():
        layout = str(n) if n in (2, 4, 8) else "2"
        yield ["eval", spec, "--input", "0" * n]
        yield ["nsub", spec, "--cut", "1"]
        yield ["width-exact", spec]
        yield ["build", spec]
        yield ["reorder", spec, "--layout", layout, "--mode", "xor"]
        yield ["reorder", spec, "--layout", layout, "--mode", "direct", "--text"]
    yield ["verify", "eq-cut-count-n4", "--format", "csv"]
    yield ["verify", "reject-noncommutative-obdd"]
    yield ["suite", "negative", "--out", str(saved)]
    yield ["report", str(saved)]
    yield ["suite", "quick", "--out", str(tmp_path / "missing" / "quick.json")]
    yield ["report", str(tmp_path / "missing.json")]
    for path in _write_non_reports(tmp_path):
        yield ["report", str(path)]
    yield ["reorder", "eq-obdd:2", "--layout", "2", "--samples", "-5"]
    yield ["verify", "reqb-padding-flips", "--seed", "-1"]
    yield ["reorder", "eq-obdd:2", "--layout", "2", "--seed", "-1"]
    yield ["eval", "eq-pobdd:40", "--input", "0"]
    yield ["eval", "eq-obdd:40", "--input", "0"]
    yield ["reorder", "eq-obdd:16", "--layout", "16"]


def test_every_subcommand_ends_with_a_documented_exit_code(tmp_path, capsys):
    # any exception escaping main fails the test with its traceback
    for argv in _sweep_commands(tmp_path):
        rc, _, _ = run_cli(capsys, *argv)
        assert rc in (0, 1, 2, 3), argv


def test_build(capsys):
    rc, out, _ = run_cli(capsys, "build", "eq:2")
    assert rc == 0
    assert out.startswith("obdd 2 1 2")
    assert "sinks:" in out
    assert out.rstrip().endswith("width 2")


def test_reorder_roundtrip_report(capsys):
    rc, out, _ = run_cli(capsys, "reorder", "eq-obdd:2", "--layout", "2",
                         "--mode", "direct")
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["spec"]["kind"] == "reorder-roundtrip"


def test_reorder_text_mode(capsys):
    rc, out, _ = run_cli(capsys, "reorder", "eq-obdd:2", "--layout", "2",
                         "--mode", "direct", "--text")
    assert rc == 0
    assert out.startswith("obdd 4 1 6")


def test_reorder_quantum_base_reports_its_dimension_as_width(capsys):
    from ddlab.experiments import parse_program_spec

    # the width of a quantum program is its dimension: the lift keeps dim <= q * base dim
    rc, out, err = run_cli(capsys, "reorder", "eq-qobdd:4", "--layout", "4")
    assert rc == 0 and "Traceback" not in err
    payload = json.loads(out)
    assert payload["passed"] is True
    base = payload["measured"]["base_width"]
    assert base == parse_program_spec("eq-qobdd:4").dim
    assert payload["measured"]["width"] <= 4 * base == payload["bound"]["value"]


def test_reorder_rejects_non_commutative_base(capsys):
    rc, _, err = run_cli(capsys, "reorder", "tree:eq:2", "--layout", "2",
                         "--mode", "direct")
    assert rc == 1 and "error" in err


def test_verify_single_check(capsys):
    rc, out, _ = run_cli(capsys, "verify", "eq-cut-count-n4")
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["spec"]["check_id"] == "eq-cut-count-n4"
    rc, _, _ = run_cli(capsys, "verify", "no-such-check")
    assert rc == 2


def test_suite_quick_and_csv(capsys):
    rc, out, _ = run_cli(capsys, "suite", "quick")
    assert rc == 0
    payloads = json.loads(out)
    assert len(payloads) == 6 and all(p["passed"] for p in payloads)
    rc, out, _ = run_cli(capsys, "suite", "quick", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("check_id,kind,passed")
    assert len(lines) == 7


def test_suite_output_and_report_round_trip(tmp_path, capsys):
    path = tmp_path / "quick.json"
    rc, out, _ = run_cli(capsys, "suite", "quick", "--out", str(path))
    assert rc == 0 and "wrote 6 reports" in out
    rc, out, _ = run_cli(capsys, "report", str(path))
    assert rc == 0
    assert json.loads(out) == json.loads(path.read_text())
    rc, out, _ = run_cli(capsys, "report", str(path), "--format", "csv")
    assert rc == 0 and out.startswith("check_id,")


def test_suite_output_to_a_missing_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    import ddlab.cli

    ran = []
    monkeypatch.setattr(ddlab.cli, "run_suite", lambda *args, **kwargs: ran.append(args) or [])
    path = tmp_path / "missing" / "quick.json"
    rc, out, err = run_cli(capsys, "suite", "quick", "--out", str(path))
    assert rc == 2 and "usage error" in err and "Traceback" not in err
    assert out == "" and ran == [] and not path.parent.exists()


def test_report_detects_tampering(tmp_path, capsys):
    path = tmp_path / "quick.json"
    rc, _, _ = run_cli(capsys, "suite", "quick", "--out", str(path))
    assert rc == 0
    payloads = json.loads(path.read_text())
    payloads[0]["measured"] = 999
    path.write_text(json.dumps(payloads))
    rc, _, err = run_cli(capsys, "report", str(path))
    assert rc == 2 and "digest" in err


def test_suite_emission_is_deterministic(capsys):
    rc, first, _ = run_cli(capsys, "suite", "quick")
    assert rc == 0
    rc, second, _ = run_cli(capsys, "suite", "quick")
    assert rc == 0
    assert first == second


def test_argparse_usage_exit(capsys):
    assert main([]) == 2
    assert main(["suite"]) == 2
    assert main(["width-exact", "req:2", "--strategy", "guess"]) == 2


@pytest.mark.skipif(shutil.which("ddlab") is None, reason="console script not installed")
def test_console_script():
    proc = subprocess.run(["ddlab", "eval", "eq:2", "--input", "11"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"
