"""Named, reproducible experiment checks and suites.

An ExperimentSpec is pure data (kind + parameters + tolerance + seed); run()
produces an ExperimentReport whose canonical payload — spec echo, measured
values, bound, verdict, and a self-contained claim sentence — is byte-stable
for a fixed spec and seed. Wall-clock duration is recorded on the report
object but deliberately excluded from the canonical payload and its sha256
digest, so identical runs emit identical bytes.

Object mini-specs used inside params:
  functions  "eq:4", "req:2", "modp:3,5", "ws:4", "wsb:9,3", "mswb:12,4",
             "reqb:6,4", "pj:1,2", "rpj:1,2"
  programs   "eq-obdd:4", "or-nobdd:4", "eq-pobdd:4", "eq-qobdd:4",
             "eq-qobdd-recombined:8", "modp-qobdd:3,5", "pj-2k:1,2",
             "rpj-2k:1,2", "rpj-core:1,2", "tree:eq:4"
  dicts      {"lift-of": <program>, "layout": q, "mode": ..., "totalize": bool}
             {"reorder-of": <function>, "layout": q, "mode": ...}
             {"negate-of": <function>}
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import fixtures, limits, zoo
from .boolfn import (BoolFn, PartialBoolFn, Partition, VarOrder, n_min, require_enumerable,
                     subfunction_count)
from .diagrams import (LeveledObdd, Nobdd, Pobdd, build_binary_tree_obdd, is_commutative,
                       rounded_table, width)
from .errors import ShapeError, UsageError
from .quantum import QuantumProgram, accept_probability, check_unitary, computes_with_bounded_error
from .quantum import acceptance_table as quantum_acceptance_table
from .reorder import (BlockLayout, allowed_input_indexes, reorder_function, reorder_nobdd,
                      reorder_obdd, reorder_pobdd, totalize, xor_reorder_qobdd)

KINDS = ("width-exact", "nsub", "equivalence", "error-margin",
         "reorder-roundtrip", "hierarchy-probe")

SUITES = ("paper-core", "quick", "negative")


# ---------------------------------------------------------------------------
# object mini-spec parsing (shared with the command-line interface)


def _spec_args(text):
    if ":" not in text:
        return text, []
    name, rest = text.split(":", 1)
    return name, rest


def parse_function_spec(text):
    """BoolFn described by a string like "eq:4" or "modp:3,5"."""
    name, rest = _spec_args(text)
    try:
        args = [int(a) for a in rest.split(",")] if rest else []
        if name == "eq":
            (n,) = args
            return zoo.eq(n)
        if name == "req":
            (q,) = args
            return zoo.req(BlockLayout(q))
        if name == "modp":
            p, n = args
            return zoo.mod_p(p, n)
        if name == "ws":
            (n,) = args
            return zoo.ws(n)
        if name == "wsb":
            n, b = args
            return zoo.ws_b(n, b)
        if name == "mswb":
            n, b = args
            return zoo.msw_b(n, b)
        if name == "reqb":
            n, b = args
            return zoo.req_b(n, b)
        if name == "pj":
            k, a = args
            return zoo.pj_bool(k, a)
        if name == "rpj":
            k, a = args
            return zoo.rpj(k, zoo.RpjLayout(a))
    except (ValueError, ShapeError):
        raise UsageError("bad arguments in function spec %r" % text) from None
    raise UsageError("unknown function family %r" % name)


def parse_program_spec(text):
    """Program described by a string like "eq-obdd:4" or "tree:eq:4"."""
    name, rest = _spec_args(text)
    if name == "tree":
        return build_binary_tree_obdd(parse_function_spec(rest))
    try:
        args = [int(a) for a in rest.split(",")] if rest else []
        if name == "eq-obdd":
            (q,) = args
            return zoo.eq_weighted_obdd(q)
        if name == "or-nobdd":
            (q,) = args
            return zoo.or_guess_nobdd(q)
        if name == "eq-pobdd":
            (q,) = args
            return zoo.eq_geometric_pobdd(q)
        if name == "eq-qobdd":
            (q,) = args
            ks = fixtures.eq_multipliers(q)["multipliers"]
            return zoo.fingerprint_eq_qobdd(q, ks)
        if name == "eq-qobdd-recombined":
            (q,) = args
            ks = fixtures.recombined_eq_multipliers(q)["multipliers"]
            return zoo.fingerprint_eq_qobdd(q, ks, recombine=True)
        if name == "modp-qobdd":
            p, n = args
            ks = fixtures.modp_multipliers(p)["multipliers"]
            return zoo.fingerprint_modp_qobdd(p, n, ks)
        if name == "pj-2k":
            k, a = args
            return zoo.pj_2k_obdd(k, a)
        if name == "rpj-2k":
            k, a = args
            return zoo.rpj_2k_obdd(k, zoo.RpjLayout(a))
        if name == "rpj-core":
            k, a = args
            return zoo._rpj_core(k, zoo.RpjLayout(a))
    except (ValueError, ShapeError):
        raise UsageError("bad arguments in program spec %r" % text) from None
    raise UsageError("unknown program family %r" % name)


def _lift_program(base, layout, mode):
    if isinstance(base, QuantumProgram):
        if mode != "xor":
            raise UsageError("quantum lifts are defined for xor mode only")
        return xor_reorder_qobdd(base, layout)
    if isinstance(base, Pobdd):
        return reorder_pobdd(base, layout, mode)
    if isinstance(base, Nobdd):
        return reorder_nobdd(base, layout, mode)
    if isinstance(base, LeveledObdd):
        return reorder_obdd(base, layout, mode)
    raise UsageError("cannot lift object of type %s" % type(base).__name__)


def _resolve_program(obj):
    """Program from a mini-spec string or a lift dict."""
    if isinstance(obj, str):
        return parse_program_spec(obj)
    if isinstance(obj, dict) and "lift-of" in obj:
        base = parse_program_spec(obj["lift-of"])
        layout = BlockLayout(obj["layout"])
        return _lift_program(base, layout, obj.get("mode", "xor"))
    raise UsageError("cannot resolve program spec %r" % (obj,))


def _resolve_target(obj):
    """Total or partial target function from a spec string or dict."""
    if isinstance(obj, str):
        return parse_function_spec(obj)
    if isinstance(obj, dict) and "reorder-of" in obj:
        f = parse_function_spec(obj["reorder-of"])
        return reorder_function(f, BlockLayout(obj["layout"]), obj.get("mode", "xor"))
    if isinstance(obj, dict) and "negate-of" in obj:
        f = parse_function_spec(obj["negate-of"])
        return BoolFn(f.n, 1 - f.table)
    raise UsageError("cannot resolve target spec %r" % (obj,))


def _resolve_table(obj):
    """(table, n, description) for either side of an equivalence check."""
    if isinstance(obj, str):
        try:
            f = parse_function_spec(obj)
            return f.table, f.n, obj
        except UsageError:
            p = parse_program_spec(obj)
            return rounded_table(p), p.n, obj
    if isinstance(obj, dict) and "lift-of" in obj:
        program = _resolve_program(obj)
        desc = "%s-lift of %s" % (obj.get("mode", "xor"), obj["lift-of"])
        if obj.get("totalize"):
            fp = reorder_function(_base_function(obj["lift-of"]),
                                  BlockLayout(obj["layout"]), obj.get("mode", "xor"))
            f = totalize(fp, program)
            return f.table, f.n, "totalize(%s)" % desc
        return rounded_table(program), program.n, desc
    raise UsageError("cannot resolve table spec %r" % (obj,))


def _base_function(program_spec):
    """The function a named base program computes (for reorder_function)."""
    program = parse_program_spec(program_spec)
    if isinstance(program, QuantumProgram):
        name, rest = _spec_args(program_spec)
        if name.startswith("eq-qobdd"):
            return zoo.eq(int(rest.split(",")[0]))
        if name == "modp-qobdd":
            p, n = (int(a) for a in rest.split(","))
            return zoo.mod_p(p, n)
        raise UsageError("no function route for %r" % program_spec)
    return BoolFn(program.n, rounded_table(program))


# ---------------------------------------------------------------------------
# spec and report


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    params: dict
    check_id: str | None = None
    tolerance: float = limits.TOL
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError("unknown experiment kind %r (one of %s)" % (self.kind, ", ".join(KINDS)))

    def to_dict(self):
        return {
            "kind": self.kind,
            "params": _plain(self.params),
            "check_id": self.check_id,
            "tolerance": self.tolerance,
            "seed": self.seed,
        }


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    measured: dict
    bound: dict | None
    passed: bool
    claim: str
    digest: str = ""
    duration_s: float = field(default=0.0, compare=False)

    def canonical_payload(self):
        """Everything the digest covers; excludes duration by design."""
        return {
            "spec": self.spec.to_dict(),
            "measured": _plain(self.measured),
            "bound": _plain(self.bound),
            "passed": bool(self.passed),
            "claim": self.claim,
        }

    def emission(self, with_duration=False):
        out = self.canonical_payload()
        out["digest"] = self.digest
        if with_duration:
            out["duration_s"] = self.duration_s
        return out


def _plain(obj):
    """JSON-stable copy: numpy scalars to python, tuples to lists, sorted sets."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_plain(v) for v in obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def _bound_ok(value, bound, tol):
    op = bound["op"]
    target = bound["value"]
    if op == "<=":
        return value <= target + tol
    if op == ">=":
        return value >= target - tol
    if op == "==":
        return abs(value - target) <= tol
    raise UsageError("unknown bound op %r" % op)


def _digest(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


# ---------------------------------------------------------------------------
# kind runners


def _run_nsub(spec):
    p = spec.params
    f = parse_function_spec(p["function"])
    order = VarOrder(p["order"]) if p.get("order") else VarOrder.identity(f.n)
    cut = int(p["cut"])
    count = subfunction_count(f, Partition(order, cut))
    bound = dict(p["bound"])
    passed = _bound_ok(count, bound, spec.tolerance)
    claim = ("distinct subfunctions of %s after the first %d variables of order %s: "
             "measured %d, required %s %s (%s)") % (
        p["function"], cut, list(order.perm), count, bound["op"], bound["value"],
        bound.get("expression", ""))
    return {"count": count}, bound, passed, claim


def _run_width_exact(spec):
    p = spec.params
    f = parse_function_spec(p["function"])
    strategy = p.get("strategy", "auto")
    if strategy in ("enum", "both"):
        require_enumerable(f)
    measured = {}
    if strategy in ("auto", "both"):
        measured["n_min"] = n_min(f, strategy="auto")
    if strategy in ("enum", "both"):
        measured["n_min_enum"] = n_min(f, strategy="enum")
        if strategy == "enum":
            measured["n_min"] = measured.pop("n_min_enum")
    passed = True
    if strategy == "both":
        measured["routes_agree"] = measured["n_min"] == measured["n_min_enum"]
        passed = measured["routes_agree"]
    bound = dict(p["bound"]) if p.get("bound") else None
    if bound:
        passed = passed and _bound_ok(measured["n_min"], bound, spec.tolerance)
    claim = "exact minimum program width of %s: measured %d" % (p["function"], measured["n_min"])
    if strategy == "both":
        claim += " (subset-DP and order-enumeration routes agree)"
    if bound:
        claim += ", required %s %s (%s)" % (bound["op"], bound["value"], bound.get("expression", ""))
    return measured, bound, passed, claim


def _run_equivalence(spec):
    p = spec.params
    if p.get("variant") == "pad-flips":
        return _run_pad_flips(spec)
    left_table, ln, left_desc = _resolve_table(p["left"])
    right_table, rn, right_desc = _resolve_table(p["right"])
    if ln != rn:
        raise ShapeError("equivalence operands disagree on arity (%d vs %d)" % (ln, rn))
    scope = p.get("scope", "all")
    if scope == "allowed":
        layout = BlockLayout(p["layout"])
        idx = allowed_input_indexes(layout, p.get("mode", "xor"))
    else:
        idx = np.arange(left_table.shape[0])
    diff = np.nonzero(left_table[idx] != right_table[idx])[0]
    measured = {
        "inputs_checked": int(idx.size),
        "mismatches": int(diff.size),
        "first_mismatch": int(idx[diff[0]]) if diff.size else None,
    }
    passed = diff.size == 0
    if p.get("commutative-trials"):
        prog = _resolve_program(p["left"])
        comm = is_commutative(prog, trials=int(p["commutative-trials"]), seed=spec.seed)
        measured["commutative"] = bool(comm)
        measured["commutative_trials"] = int(p["commutative-trials"])
        passed = passed and comm
    bound = None
    if p.get("width-bound"):
        bound = dict(p["width-bound"])
        prog = _resolve_program(p["left"])
        measured["width"] = width(prog)
        passed = passed and _bound_ok(measured["width"], bound, spec.tolerance)
    claim = "%s equals %s on %s %d checked inputs" % (
        left_desc, right_desc, "all" if scope == "all" else "the allowed", measured["inputs_checked"])
    if "commutative" in measured:
        claim += "; per-layer transition tables commute under %d sampled orders" % measured["commutative_trials"]
    if bound:
        claim += "; width %d %s %s (%s)" % (measured["width"], bound["op"], bound["value"],
                                            bound.get("expression", ""))
    return measured, bound, passed, claim


def _run_pad_flips(spec):
    p = spec.params
    f = parse_function_spec(p["function"])
    dead = [int(d) for d in p["dead"]]
    if any(not 1 <= d <= f.n for d in dead):
        raise ShapeError("padding positions out of range")
    flips = int(p.get("flips", 1000))
    rng = np.random.default_rng(spec.seed)
    idx = rng.integers(0, 1 << f.n, size=flips)
    pos = np.asarray(dead)[rng.integers(0, len(dead), size=flips)]
    flipped = idx ^ (1 << (f.n - pos))
    violations = int(np.count_nonzero(f.table[idx] != f.table[flipped]))
    measured = {"flips": flips, "violations": violations, "dead_positions": dead}
    passed = violations == 0
    claim = ("flipping any padding bit of %s (positions %s) never changes the output "
             "(%d seeded random flips, %d violations)") % (p["function"], dead, flips, violations)
    return measured, None, passed, claim


def _margin_formula_gap(spec, program):
    """Max gap between the simulated acceptance and the closed-form profile."""
    p = spec.params
    formula = p.get("formula")
    if not formula:
        return None
    kind = formula["kind"]
    if kind == "modp":
        mod = int(formula["p"])
        ks = fixtures.modp_multipliers(mod)["multipliers"]
        gap = 0.0
        for m in range(program.n + 1):
            x = tuple([1] * m + [0] * (program.n - m))
            gap = max(gap, abs(accept_probability(program, x)
                               - zoo.modp_acceptance_formula(mod, ks, m)))
        return gap
    if kind == "eq":
        q = int(formula["q"])
        entry = (fixtures.recombined_eq_multipliers(q) if formula.get("recombine")
                 else fixtures.eq_multipliers(q))
        ks = entry["multipliers"]
        acc = quantum_acceptance_table(program)
        half = q // 2
        gap = 0.0
        for i in range(1 << q):
            top, bottom = i >> half, i & ((1 << half) - 1)
            delta = _lsb_value(top, half) - _lsb_value(bottom, half)
            cf = zoo.eq_acceptance_formula(q, ks, delta, recombine=bool(formula.get("recombine")))
            gap = max(gap, abs(float(acc[i]) - cf))
        return gap
    raise UsageError("unknown formula kind %r" % kind)


def _lsb_value(bits, half):
    """Value of a half viewed with variable i carrying weight 2^(i-1)."""
    v = 0
    for i in range(half):
        v += ((bits >> (half - 1 - i)) & 1) << i
    return v


def _run_error_margin(spec):
    p = spec.params
    program = _resolve_program(p["program"])
    target = _resolve_target(p["target"])
    eps = float(p["epsilon"])
    verdict = computes_with_bounded_error(program, target, eps)
    measured = {
        "min_one": verdict.min_one,
        "max_zero": verdict.max_zero,
        "ones_checked": verdict.ones_checked,
        "zeros_checked": verdict.zeros_checked,
        "epsilon": eps,
    }
    passed = verdict.passed
    if p.get("exact-one"):
        ok = verdict.min_one is not None and verdict.min_one >= 1.0 - spec.tolerance
        measured["one_side_exact"] = bool(ok)
        passed = passed and ok
    if isinstance(program, QuantumProgram):
        dev = check_unitary(program).max_deviation
        measured["unitarity_deviation"] = dev
        passed = passed and dev <= spec.tolerance
    gap = _margin_formula_gap(spec, program) if isinstance(program, QuantumProgram) else None
    if gap is not None:
        measured["routes_max_gap"] = gap
        passed = passed and gap <= spec.tolerance
    bound = {"op": "<=", "value": 0.5 - eps, "expression": "1/2 - eps"}
    prog_desc = p["program"] if isinstance(p["program"], str) else "xor-lift of %s" % p["program"]["lift-of"]
    claim = ("%s accepts every defined 1-input of its target with probability >= %s and every "
             "defined 0-input with probability <= %s (eps=%s); measured min-1 %s, max-0 %s") % (
        prog_desc, 0.5 + eps, 0.5 - eps, eps, verdict.min_one, verdict.max_zero)
    if p.get("exact-one"):
        claim += "; the 1-side is exactly 1 within %g" % spec.tolerance
    if gap is not None:
        claim += "; closed-form and simulated acceptances agree within %g" % spec.tolerance
    return measured, bound, passed, claim


def _run_reorder_roundtrip(spec):
    p = spec.params
    base = parse_program_spec(p["base"])
    layout = BlockLayout(p["layout"])
    mode = p.get("mode", "xor")
    samples = p.get("samples")
    limits.check(int(samples or 0), limits.SAMPLE_CAP, "the sample count")
    if p.get("expect") == "reject":
        try:
            _lift_program(base, layout, mode)
        except Exception as exc:  # noqa: BLE001 - the exception type is the measurement
            measured = {"raised": type(exc).__name__}
            passed = type(exc).__name__ == "CommutativityError"
            claim = ("lifting the non-commutative base %s must be refused: raised %s") % (
                p["base"], measured["raised"])
            return measured, None, passed, claim
        return {"raised": None}, None, False, (
            "lifting the non-commutative base %s must be refused: nothing was raised" % p["base"])
    lifted = _lift_program(base, layout, mode)
    w = width(lifted)
    base_w = width(base)
    bound = dict(p.get("width-bound") or
                 {"op": "<=", "value": layout.q * base_w, "expression": "q*width(base)"})
    lift_table = rounded_table(lifted)
    if p.get("right"):
        ref = parse_function_spec(p["right"])
        idx = limits.table_indexes(lifted.n)
        ref_vals = ref.table
        scope_desc = "all %d inputs" % idx.size
    else:
        fp = reorder_function(BoolFn(base.n, rounded_table(base)), layout, mode)
        idx = allowed_input_indexes(layout, mode)
        ref_vals = fp.values
        scope_desc = "all %d allowed inputs" % idx.size
    mism = int(np.count_nonzero(lift_table[idx] != ref_vals[idx]))
    measured = {"width": w, "base_width": base_w, "inputs_checked": int(idx.size),
                "mismatches": mism}
    if samples:
        rng = np.random.default_rng(spec.seed)
        s_idx = np.asarray(idx)[rng.integers(0, len(idx), size=int(samples))]
        measured["samples"] = int(samples)
        measured["sample_mismatches"] = int(
            np.count_nonzero(lift_table[s_idx] != ref_vals[s_idx]))
    passed = (mism == 0 and measured.get("sample_mismatches", 0) == 0
              and _bound_ok(w, bound, spec.tolerance))
    claim = ("%s-mode lift of %s over %d blocks: width %d %s %s (%s); agrees with the "
             "function-level transform on %s") % (
        mode, p["base"], layout.q, w, bound["op"], bound["value"],
        bound.get("expression", ""), scope_desc)
    if samples:
        claim += " and on %d seeded samples" % samples
    return measured, bound, passed, claim


def _run_hierarchy_probe(spec):
    p = spec.params
    which = p["which"]
    k, a = int(p["k"]), int(p["a"])
    if which == "pj":
        program = zoo.pj_2k_obdd(k, a)
        f = zoo.pj_bool(k, a)
        bound_val = (2 * a) * (a + 1)
        expr = "(2a)(a+1)"
    elif which == "rpj":
        layout = zoo.RpjLayout(a)
        program = zoo.rpj_2k_obdd(k, layout)
        f = zoo.rpj(k, layout)
        bound_val = (2 * a) * (a + 1) * layout.b
        expr = "(2a)(a+1)*b"
    else:
        raise UsageError("unknown hierarchy probe target %r" % which)
    w = width(program)
    exact = n_min(f)
    measured = {"layered_width": w, "layers": program.k, "obdd_min_width": exact}
    bound = {"op": "<=", "value": bound_val, "expression": expr}
    passed = _bound_ok(w, bound, spec.tolerance)
    claim = ("the %d-layer %s program (k=%d, a=%d) has width %d %s %d (%s); the exact "
             "single-pass minimum width of the same function measures %d") % (
        program.k, which, k, a, w, bound["op"], bound_val, expr, exact)
    return measured, bound, passed, claim


_RUNNERS = {
    "nsub": _run_nsub,
    "width-exact": _run_width_exact,
    "equivalence": _run_equivalence,
    "error-margin": _run_error_margin,
    "reorder-roundtrip": _run_reorder_roundtrip,
    "hierarchy-probe": _run_hierarchy_probe,
}


def run(spec):
    """Execute one experiment spec and return its report (digest filled in).

    A spec with params {"expect": "fail"} is a negative control: its verdict
    is inverted, so the report passes exactly when the underlying check fails.
    """
    t0 = time.perf_counter()
    measured, bound, passed, claim = _RUNNERS[spec.kind](spec)
    if spec.params.get("expect") == "fail":
        passed = not passed
        claim += " [negative control: the margin check is required to fail]"
    report = ExperimentReport(spec=spec, measured=measured, bound=bound,
                              passed=bool(passed), claim=claim)
    report.digest = _digest(report.canonical_payload())
    report.duration_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# suites


def _paper_core_checks(seed):
    checks = []
    for n in (2, 4, 6, 8):
        checks.append(ExperimentSpec(
            kind="nsub", check_id="eq-cut-count-n%d" % n, seed=seed,
            params={"function": "eq:%d" % n, "order": None, "cut": n // 2,
                    "bound": {"op": "==", "value": 1 << (n // 2), "expression": "2^(n/2)"}}))
    checks.append(ExperimentSpec(
        kind="width-exact", check_id="req-min-width-q2", seed=seed,
        params={"function": "req:2", "strategy": "both",
                "bound": {"op": ">=", "value": 2, "expression": "2^(q/2)"}}))
    checks.append(ExperimentSpec(
        kind="width-exact", check_id="req-min-width-q4", seed=seed,
        params={"function": "req:4", "strategy": "auto",
                "bound": {"op": ">=", "value": 4, "expression": "2^(q/2)"}}))
    for q in (2, 4):
        checks.append(ExperimentSpec(
            kind="error-margin", check_id="xor-lift-eq-margin-q%d" % q, seed=seed,
            params={"program": {"lift-of": "eq-qobdd:%d" % q, "layout": q, "mode": "xor"},
                    "target": {"reorder-of": "eq:%d" % q, "layout": q, "mode": "xor"},
                    "epsilon": 1.0 / 6.0, "exact-one": True}))
        checks.append(ExperimentSpec(
            kind="equivalence", check_id="totalize-req-q%d" % q, seed=seed,
            params={"left": {"lift-of": "eq-qobdd:%d" % q, "layout": q, "mode": "xor",
                             "totalize": True},
                    "right": "req:%d" % q, "scope": "all"}))
    for p in (2, 3, 5, 7, 11, 13):
        checks.append(ExperimentSpec(
            kind="error-margin", check_id="modp-margin-p%d" % p, seed=seed,
            params={"program": "modp-qobdd:%d,%d" % (p, p), "target": "modp:%d,%d" % (p, p),
                    "epsilon": 1.0 / 6.0, "exact-one": True,
                    "formula": {"kind": "modp", "p": p}}))
    checks.append(ExperimentSpec(
        kind="error-margin", check_id="recombined-eq-margin-q8", seed=seed,
        params={"program": "eq-qobdd-recombined:8", "target": "eq:8",
                "epsilon": 1.0 / 6.0, "exact-one": True,
                "formula": {"kind": "eq", "q": 8, "recombine": True}}))
    for q in (2, 4):
        checks.append(ExperimentSpec(
            kind="reorder-roundtrip", check_id="reorder-obdd-q%d" % q, seed=seed,
            params={"base": "eq-obdd:%d" % q, "layout": q, "mode": "xor",
                    "samples": 10000 if q == 4 else None}))
        checks.append(ExperimentSpec(
            kind="reorder-roundtrip", check_id="reorder-nobdd-q%d" % q, seed=seed,
            params={"base": "or-nobdd:%d" % q, "layout": q, "mode": "direct",
                    "samples": 10000 if q == 4 else None}))
        checks.append(ExperimentSpec(
            kind="reorder-roundtrip", check_id="reorder-pobdd-q%d" % q, seed=seed,
            params={"base": "eq-pobdd:%d" % q, "layout": q, "mode": "xor",
                    "samples": 10000 if q == 4 else None}))
    for k in (1, 2):
        checks.append(ExperimentSpec(
            kind="equivalence", check_id="pj-walk-equivalence-k%d" % k, seed=seed,
            params={"left": "pj-2k:%d,2" % k, "right": "pj:%d,2" % k, "scope": "all",
                    "commutative-trials": 1000}))
    checks.append(ExperimentSpec(
        kind="reorder-roundtrip", check_id="rpj-lift-roundtrip", seed=seed,
        params={"base": "rpj-core:1,2", "layout": 4, "mode": "direct",
                "right": "rpj:1,2",
                "width-bound": {"op": "<=", "value": 48, "expression": "(2a)(a+1)*b"}}))
    checks.append(ExperimentSpec(
        kind="hierarchy-probe", check_id="pj-hierarchy-probe-k2", seed=seed,
        params={"which": "pj", "k": 2, "a": 2}))
    checks.append(ExperimentSpec(
        kind="hierarchy-probe", check_id="rpj-hierarchy-probe-k1", seed=seed,
        params={"which": "rpj", "k": 1, "a": 2}))
    checks.append(ExperimentSpec(
        kind="equivalence", check_id="reqb-padding-flips", seed=seed,
        params={"variant": "pad-flips", "function": "reqb:6,4", "dead": [5, 6],
                "flips": 1000}))
    checks.append(ExperimentSpec(
        kind="equivalence", check_id="wsb-padding-flips", seed=seed,
        params={"variant": "pad-flips", "function": "wsb:9,3", "dead": [5, 6, 7, 8, 9],
                "flips": 1000}))
    checks.append(ExperimentSpec(
        kind="equivalence", check_id="mswb-padding-flips", seed=seed,
        params={"variant": "pad-flips", "function": "mswb:12,4",
                "dead": [5, 6, 9, 10, 11, 12], "flips": 1000}))
    return checks


_QUICK_IDS = (
    "eq-cut-count-n4",
    "req-min-width-q2",
    "totalize-req-q2",
    "modp-margin-p3",
    "reorder-obdd-q2",
    "pj-walk-equivalence-k1",
)


def _negative_checks(seed):
    return [
        ExperimentSpec(
            kind="reorder-roundtrip", check_id="reject-noncommutative-obdd", seed=seed,
            params={"base": "tree:eq:2", "layout": 2, "mode": "xor", "expect": "reject"}),
        ExperimentSpec(
            kind="error-margin", check_id="eq-tester-rejects-negation", seed=seed,
            params={"program": "eq-qobdd:4", "target": {"negate-of": "eq:4"},
                    "epsilon": 1.0 / 6.0, "expect": "fail"}),
    ]


def suite_checks(suite_id, seed=0):
    """The ordered spec list for a named suite."""
    if suite_id == "paper-core":
        return _paper_core_checks(seed)
    if suite_id == "quick":
        core = {c.check_id: c for c in _paper_core_checks(seed)}
        return [core[cid] for cid in _QUICK_IDS]
    if suite_id == "negative":
        return _negative_checks(seed)
    raise UsageError("unknown suite %r (one of %s)" % (suite_id, ", ".join(SUITES)))


def run_suite(suite_id, seed=0):
    return [run(spec) for spec in suite_checks(suite_id, seed)]


def find_check(check_id, seed=0):
    """The registered suite spec with the given id (searches all suites)."""
    for suite_id in ("paper-core", "negative"):
        for spec in suite_checks(suite_id, seed):
            if spec.check_id == check_id:
                return spec
    raise UsageError("no registered check named %r" % check_id)


def reports_from_emission(payloads):
    """Rebuild report objects from emitted JSON payloads, verifying digests.
    Anything that is not a report object or a list of them is a UsageError."""
    if isinstance(payloads, dict):
        payloads = [payloads]
    if not isinstance(payloads, list) or not all(isinstance(p, dict) for p in payloads):
        raise UsageError("not a report emission: expected a report object or a list of them")
    reports = []
    for payload in payloads:
        body = {k: v for k, v in payload.items() if k not in ("digest", "duration_s")}
        recorded = payload.get("digest", "")
        try:
            if _digest(body) != recorded:
                raise UsageError("digest mismatch for check %r — payload was altered"
                                 % body.get("spec", {}).get("check_id"))
            sd = body["spec"]
            if not isinstance(body["measured"], dict) or not isinstance(body["bound"] or {}, dict):
                raise TypeError("measured and bound must be JSON objects")
            spec = ExperimentSpec(kind=sd["kind"], params=sd["params"],
                                  check_id=sd.get("check_id"), tolerance=sd["tolerance"],
                                  seed=sd["seed"])
            report = ExperimentReport(spec=spec, measured=body["measured"],
                                      bound=body["bound"], passed=body["passed"],
                                      claim=body["claim"], digest=recorded)
        except (AttributeError, KeyError, TypeError) as exc:
            raise UsageError("not a report: %s %s" % (type(exc).__name__, exc)) from None
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# emission


def report_emit(reports, fmt="json", with_duration=False):
    """Serialize one report or a list of reports. JSON is canonical (sorted
    keys); CSV has one row per check."""
    if isinstance(reports, ExperimentReport):
        reports = [reports]
    if fmt == "json":
        payload = [r.emission(with_duration) for r in reports]
        if len(payload) == 1:
            return json.dumps(payload[0], sort_keys=True, indent=2) + "\n"
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        fields = ["check_id", "kind", "passed", "bound_op", "bound_value",
                  "bound_expression", "measured", "claim", "digest"]
        if with_duration:
            fields.append("duration_s")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for r in reports:
            bound = r.bound or {}
            row = [
                r.spec.check_id or "",
                r.spec.kind,
                "pass" if r.passed else "fail",
                bound.get("op", ""),
                bound.get("value", ""),
                bound.get("expression", ""),
                json.dumps(_plain(r.measured), sort_keys=True),
                r.claim,
                r.digest,
            ]
            if with_duration:
                row.append("%.6f" % r.duration_s)
            writer.writerow(row)
        return buf.getvalue()
    raise UsageError("unknown report format %r" % fmt)
