"""Named, reproducible experiment checks and suites.

An ExperimentSpec is pure data (kind + parameters + tolerance + seed); run()
produces an ExperimentReport whose canonical payload — spec echo, measured
values, bound, verdict, and a self-contained claim sentence — is byte-stable
for a fixed spec and seed. Wall-clock duration is recorded on the report
object but deliberately excluded from the canonical payload and its sha256
digest, so identical runs emit identical bytes.

Object mini-specs used inside params are "family:args" strings, whose
families are the keys of `_FUNCTIONS` and `_PROGRAMS` (plus "tree:<function
spec>", a program), and three dict forms:
  {"lift-of": <program>, "layout": q, "mode": ..., "totalize": bool}
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

from . import diagrams, fixtures, limits, zoo
from .boolfn import BoolFn, Partition, VarOrder, n_min, require_enumerable, subfunction_count
from .diagrams import LeveledProgram, build_binary_tree_obdd, rounded_table, width
from .errors import ShapeError, UsageError
from .quantum import QuantumProgram, accept_probability, check_unitary, computes_with_bounded_error
from .quantum import acceptance_table as quantum_acceptance_table
from .reorder import BlockLayout, allowed_input_indexes, lift, reorder_function, totalize


# ---------------------------------------------------------------------------
# object mini-spec parsing (shared with the command-line interface)
#
# Each builder looks `zoo` and `fixtures` up when it is called, never at
# import, so that a tracer which patches those modules' attributes sees
# every build.

# family: (argument count, builder)
_FUNCTIONS = {
    "eq": (1, lambda n: zoo.eq(n)),
    "req": (1, lambda q: zoo.req(BlockLayout(q))),
    "modp": (2, lambda p, n: zoo.mod_p(p, n)),
    "ws": (1, lambda n: zoo.ws(n)),
    "wsb": (2, lambda n, b: zoo.ws_b(n, b)),
    "mswb": (2, lambda n, b: zoo.msw_b(n, b)),
    "reqb": (2, lambda n, b: zoo.req_b(n, b)),
    "pj": (2, lambda k, a: zoo.pj_bool(k, a)),
    "rpj": (2, lambda k, a: zoo.rpj(k, zoo.RpjLayout(a))),
}

# family: (argument count, builder, the function family that a quantum
# tester computes with the same arguments, or None for the classical kinds)
_PROGRAMS = {
    "eq-obdd": (1, lambda q: zoo.eq_weighted_obdd(q), None),
    "or-nobdd": (1, lambda q: zoo.or_guess_nobdd(q), None),
    "eq-pobdd": (1, lambda q: zoo.eq_geometric_pobdd(q), None),
    "eq-qobdd": (1, lambda q: zoo.fingerprint_eq_qobdd(
        q, fixtures.eq_multipliers(q)["multipliers"]), "eq"),
    "eq-qobdd-recombined": (1, lambda q: zoo.fingerprint_eq_qobdd(
        q, fixtures.recombined_eq_multipliers(q)["multipliers"], recombine=True), "eq"),
    "modp-qobdd": (2, lambda p, n: zoo.fingerprint_modp_qobdd(
        p, n, fixtures.modp_multipliers(p)["multipliers"]), "modp"),
    "pj-2k": (2, lambda k, a: zoo.pj_2k_obdd(k, a), None),
    "rpj-2k": (2, lambda k, a: zoo.rpj_2k_obdd(k, zoo.RpjLayout(a)), None),
    "rpj-core": (2, lambda k, a: zoo._rpj_core(k, zoo.RpjLayout(a)), None),
}


def _build(text, table, what):
    """The object that `text` names in `table`. The integers are checked
    first, then the family name, then the argument count."""
    name, _, rest = text.partition(":")
    bad = UsageError("bad arguments in %s spec %r" % (what, text))
    try:
        args = [int(a) for a in rest.split(",")] if rest else []
    except ValueError:
        raise bad from None
    if name not in table:
        raise UsageError("unknown %s family %r" % (what, name))
    count, build = table[name][:2]
    if len(args) != count:
        raise bad
    try:
        return build(*args)
    except (ValueError, ShapeError):
        raise bad from None


def parse_function_spec(text):
    """BoolFn described by a string like "eq:4" or "modp:3,5"."""
    return _build(text, _FUNCTIONS, "function")


def parse_program_spec(text):
    """Program described by a string like "eq-obdd:4" or "tree:eq:4"."""
    name, _, rest = text.partition(":")
    if name == "tree":
        return build_binary_tree_obdd(parse_function_spec(rest))
    return _build(text, _PROGRAMS, "program")


def resolve(obj, program=False):
    """The function or program that a mini-spec string or dict names; a
    string is a function spec exactly when its family is in `_FUNCTIONS`.
    With `program`, anything but a program is a usage error."""
    if isinstance(obj, str):
        parse = parse_function_spec if obj.partition(":")[0] in _FUNCTIONS else parse_program_spec
        out = parse(obj)
    elif isinstance(obj, dict) and "lift-of" in obj:
        out = lift(parse_program_spec(obj["lift-of"]), BlockLayout(obj["layout"]),
                   obj.get("mode", "xor"))
    elif isinstance(obj, dict) and "reorder-of" in obj:
        out = reorder_function(parse_function_spec(obj["reorder-of"]), BlockLayout(obj["layout"]),
                               obj.get("mode", "xor"))
    elif isinstance(obj, dict) and "negate-of" in obj:
        f = parse_function_spec(obj["negate-of"])
        out = BoolFn(f.n, 1 - f.table)
    else:
        raise UsageError("cannot resolve spec %r" % (obj,))
    if program and not isinstance(out, LeveledProgram):
        raise UsageError("%r is not a program spec" % (obj,))
    return out


def _operand_table(obj, resolved):
    """(table, description) of one side of an equivalence check, a spec
    string or a lift dict, from the object `resolved` that it names."""
    if isinstance(obj, str):
        return (resolved.table if isinstance(resolved, BoolFn) else rounded_table(resolved)), obj
    if "lift-of" not in obj:
        raise UsageError("cannot resolve table spec %r" % (obj,))
    mode = obj.get("mode", "xor")
    desc = "%s-lift of %s" % (mode, obj["lift-of"])
    if not obj.get("totalize"):
        return rounded_table(resolved), desc
    # the base's function: a quantum tester's family row names it, and a
    # classical base's rounded table is it
    name, _, rest = obj["lift-of"].partition(":")
    computes = _PROGRAMS.get(name, (None,) * 3)[2]
    if computes:
        base = parse_function_spec("%s:%s" % (computes, rest))
    else:
        base_program = parse_program_spec(obj["lift-of"])
        base = BoolFn(base_program.n, rounded_table(base_program))
    f = totalize(reorder_function(base, BlockLayout(obj["layout"]), mode), resolved)
    return f.table, "totalize(%s)" % desc


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
    left = resolve(p["left"], program=bool(p.get("commutative") or p.get("width-bound")))
    right = resolve(p["right"])
    left_table, left_desc = _operand_table(p["left"], left)
    right_table, right_desc = _operand_table(p["right"], right)
    if left.n != right.n:
        raise ShapeError("equivalence operands disagree on arity (%d vs %d)" % (left.n, right.n))
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
    if p.get("commutative"):
        # the pairwise certificate alone: no orders are sampled
        measured["commutative"] = diagrams._commutes_pairwise(diagrams._padded(left),
                                                              spec.tolerance)
        passed = passed and measured["commutative"]
    bound = None
    if p.get("width-bound"):
        bound = dict(p["width-bound"])
        measured["width"] = width(left)
        passed = passed and _bound_ok(measured["width"], bound, spec.tolerance)
    claim = "%s equals %s on %s %d checked inputs" % (
        left_desc, right_desc, "all" if scope == "all" else "the allowed", measured["inputs_checked"])
    if "commutative" in measured:
        claim += "; within each layer, the operators of every two variables commute"
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
    idx = limits.table_indexes(f.n)
    violations = sum(int(np.count_nonzero(f.table != f.table[idx ^ (1 << (f.n - d))]))
                     for d in dead)
    measured = {"violations": violations, "dead_positions": dead, "inputs_checked": int(idx.size)}
    passed = violations == 0
    claim = ("flipping any padding bit of %s (positions %s) never changes the output "
             "(all %d inputs checked at each position, %d violations)") % (
        p["function"], dead, idx.size, violations)
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
    program = resolve(p["program"], program=True)
    target = resolve(p["target"])
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
    if p.get("expect") == "reject":
        try:
            lift(base, layout, mode)
        except Exception as exc:  # noqa: BLE001 - the exception type is the measurement
            measured = {"raised": type(exc).__name__}
            passed = type(exc).__name__ == "CommutativityError"
            claim = ("lifting the non-commutative base %s must be refused: raised %s") % (
                p["base"], measured["raised"])
            return measured, None, passed, claim
        return {"raised": None}, None, False, (
            "lifting the non-commutative base %s must be refused: nothing was raised" % p["base"])
    lifted = lift(base, layout, mode)
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
    passed = mism == 0 and _bound_ok(w, bound, spec.tolerance)
    claim = ("%s-mode lift of %s over %d blocks: width %d %s %s (%s); agrees with the "
             "function-level transform on %s") % (
        mode, p["base"], layout.q, w, bound["op"], bound["value"],
        bound.get("expression", ""), scope_desc)
    return measured, bound, passed, claim


def _run_hierarchy_probe(spec):
    p = spec.params
    which = p["which"]
    k, a = int(p["k"]), int(p["a"])
    if which not in ("pj", "rpj"):
        raise UsageError("unknown hierarchy probe target %r" % which)
    program = parse_program_spec("%s-2k:%d,%d" % (which, k, a))
    f = parse_function_spec("%s:%d,%d" % (which, k, a))
    bound_val, expr = (2 * a) * (a + 1), "(2a)(a+1)"
    if which == "rpj":
        bound_val, expr = bound_val * zoo.RpjLayout(a).b, expr + "*b"
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
    "width-exact": _run_width_exact,
    "nsub": _run_nsub,
    "equivalence": _run_equivalence,
    "error-margin": _run_error_margin,
    "reorder-roundtrip": _run_reorder_roundtrip,
    "hierarchy-probe": _run_hierarchy_probe,
}

KINDS = tuple(_RUNNERS)


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
            params={"base": "eq-obdd:%d" % q, "layout": q, "mode": "xor"}))
        checks.append(ExperimentSpec(
            kind="reorder-roundtrip", check_id="reorder-nobdd-q%d" % q, seed=seed,
            params={"base": "or-nobdd:%d" % q, "layout": q, "mode": "direct"}))
        checks.append(ExperimentSpec(
            kind="reorder-roundtrip", check_id="reorder-pobdd-q%d" % q, seed=seed,
            params={"base": "eq-pobdd:%d" % q, "layout": q, "mode": "xor"}))
    for k in (1, 2):
        checks.append(ExperimentSpec(
            kind="equivalence", check_id="pj-walk-equivalence-k%d" % k, seed=seed,
            params={"left": "pj-2k:%d,2" % k, "right": "pj:%d,2" % k, "scope": "all",
                    "commutative": True}))
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
        params={"variant": "pad-flips", "function": "reqb:6,4", "dead": [5, 6]}))
    checks.append(ExperimentSpec(
        kind="equivalence", check_id="wsb-padding-flips", seed=seed,
        params={"variant": "pad-flips", "function": "wsb:9,3", "dead": [5, 6, 7, 8, 9]}))
    checks.append(ExperimentSpec(
        kind="equivalence", check_id="mswb-padding-flips", seed=seed,
        params={"variant": "pad-flips", "function": "mswb:12,4",
                "dead": [5, 6, 9, 10, 11, 12]}))
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


_SUITES = {
    "paper-core": _paper_core_checks,
    "quick": lambda seed: [c for c in _paper_core_checks(seed) if c.check_id in _QUICK_IDS],
    "negative": _negative_checks,
}

SUITES = tuple(_SUITES)


def suite_checks(suite_id, seed=0):
    """The ordered spec list for a named suite."""
    if suite_id not in _SUITES:
        raise UsageError("unknown suite %r (one of %s)" % (suite_id, ", ".join(SUITES)))
    return _SUITES[suite_id](seed)


def run_suite(suite_id, seed=0):
    return [run(spec) for spec in suite_checks(suite_id, seed)]


def find_check(check_id, seed=0):
    """The registered suite spec with the given id (searches all suites)."""
    for suite_id in SUITES:
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
