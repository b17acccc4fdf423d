"""Spans around ddlab's public functions, for the traced run only.

`Tracer.install()` replaces each traced function in every loaded ddlab module
that binds it (module attributes and `from x import f` copies alike) by a
wrapper that records a span: name, start, end, parent span, phase and a work
count computed from the call's arguments or result. `uninstall()` puts the
originals back. ddlab itself is not changed, and the end-to-end runs never
install the tracer.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_PROGRAM_KINDS = {"LeveledObdd": "obdd", "Nobdd": "nobdd", "Pobdd": "pobdd"}


def _levels(prog):
    return prog.k * prog.n


def _table_name(args, kwargs):
    return "diagrams.table." + _PROGRAM_KINDS.get(type(args[0]).__name__, "other")


def _table_work(args, kwargs, result):
    return (1 << args[0].n) * _levels(args[0])


def _eval_work(args, kwargs, result):
    return _levels(args[0])


_TABLES = ("eq", "req", "mod_p", "ws", "ws_b", "msw_b", "req_b", "pj_bool", "rpj")
_PROGRAMS = ("eq_weighted_obdd", "or_guess_nobdd", "eq_geometric_pobdd", "fingerprint_eq_qobdd",
             "fingerprint_modp_qobdd", "pj_2k_obdd", "rpj_2k_obdd", "_rpj_core")

# (module, attribute, span name or a function of the call arguments, work count or None)
SPANS = (
    [("zoo", f, "zoo.table", None) for f in _TABLES]
    + [("zoo", f, "zoo.program", None) for f in _PROGRAMS]
    + [
        ("boolfn", "n_min", "boolfn.n_min", None),
        ("boolfn", "_n_min_partial", "boolfn.n_min_partial", None),
        ("boolfn", "subfunction_count", "boolfn.subfunction_count", None),
        ("kernels", "all_subset_costs", "kernels.all_subset_costs",
         lambda args, kwargs, result: 1 << int(args[1])),
        ("diagrams", "function_of", _table_name, _table_work),
        ("diagrams", "acceptance_table", "diagrams.table.pobdd", _table_work),
        ("quantum", "_acceptance_for_inputs", "quantum.table",
         lambda args, kwargs, result: len(args[1]) * _levels(args[0])),
        ("diagrams", "eval_obdd", "diagrams.eval.obdd", _eval_work),
        ("diagrams", "eval_nobdd", "diagrams.eval.nobdd", _eval_work),
        ("diagrams", "eval_pobdd", "diagrams.eval.pobdd", _eval_work),
        ("quantum", "accept_probability", "quantum.eval", _eval_work),
        ("diagrams", "is_commutative", "diagrams.is_commutative", None),
        ("quantum", "is_commutative_quantum", "quantum.is_commutative_quantum", None),
        ("reorder", "reorder_obdd", "reorder.lift.obdd", None),
        ("reorder", "reorder_nobdd", "reorder.lift.nobdd", None),
        ("reorder", "reorder_pobdd", "reorder.lift.pobdd", None),
        ("reorder", "xor_reorder_qobdd", "reorder.lift.qobdd", None),
        ("reorder", "reorder_function", "reorder.reorder_function", None),
        ("reorder", "totalize", "reorder.totalize", None),
        ("reorder", "allowed_input_indexes", "reorder.allowed_input_indexes", None),
        ("quantum", "computes_with_bounded_error", "quantum.bounded_error", None),
        ("quantum", "check_unitary", "quantum.check_unitary", None),
        ("experiments", "run", "experiments.run", None),
        ("experiments", "report_emit", "experiments.emit",
         lambda args, kwargs, result: len(result.encode("utf-8"))),
        ("experiments", "reports_from_emission", "experiments.reload", None),
    ]
)

# (module, attribute, spans whose work the call adds one to when innermost)
COUNTERS = (
    ("boolfn", "_count_for_varset", ("boolfn.n_min", "boolfn.n_min_partial")),  # a subset costed
    ("diagrams", "_permuted_profile", ("diagrams.is_commutative",)),            # an order tried
    ("quantum", "reorder_quantum", ("quantum.is_commutative_quantum",)),         # an order tried
)

NAME, START, END, PARENT, WORK, PHASE = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.phase = "setup"
        self._wrappers = []
        self._patched = []

        for mod, attr, name, work in SPANS:
            orig = getattr(sys.modules["ddlab." + mod], attr)
            self._wrappers.append((orig, self._span_wrapper(orig, name, work)))
        for mod, attr, into in COUNTERS:
            orig = getattr(sys.modules["ddlab." + mod], attr)
            self._wrappers.append((orig, self._count_wrapper(orig, into)))

    def _span_wrapper(self, fn, name, work):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, 0, self.phase]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if work is not None:
                rec[WORK] += work(args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, into):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] in into:
                spans[stack[-1]][WORK] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        replace = dict((id(orig), wrapper) for orig, wrapper in self._wrappers)
        for modname, mod in list(sys.modules.items()):
            if modname != "ddlab" and not modname.startswith("ddlab."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def summarize(spans):
    """Per span name: calls, work, and self and inclusive seconds per phase,
    summed over all spans of that name."""
    child = defaultdict(float)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    out = {}
    for i, rec in enumerate(spans):
        row = out.setdefault(rec[NAME], {"calls": 0, "work": 0, "setup_self_s": 0.0,
                                         "pass_self_s": 0.0, "setup_incl_s": 0.0,
                                         "pass_incl_s": 0.0})
        dur = rec[END] - rec[START]
        row["calls"] += 1
        row["work"] += rec[WORK]
        row[rec[PHASE] + "_self_s"] += dur - child[i]
        row[rec[PHASE] + "_incl_s"] += dur
    return out


def layer_metrics(spans, passes, overhead_s):
    """The per-layer metrics of BENCHMARK.json, as {name: (value, unit)}.

    A time is the layer's seconds in one set-up plus one traced pass (self
    time, or inclusive where the name says so below); a rate is the layer's
    work over its seconds in the set-up and all traced passes.
    """
    summary = summarize(spans)
    passes = max(passes, 1)

    def s(name, kind="self"):
        row = summary.get(name)
        return row["setup_%s_s" % kind] + row["pass_%s_s" % kind] / passes if row else 0.0

    def r(work_names, time_names, kind="self"):
        work = sum(summary[n]["work"] for n in work_names if n in summary)
        secs = sum(summary[n]["setup_%s_s" % kind] + summary[n]["pass_%s_s" % kind]
                   for n in time_names if n in summary)
        return work / secs if secs > 0 else 0.0

    m = {
        "zoo.table_s": (s("zoo.table"), "s"),
        "zoo.program_s": (s("zoo.program"), "s"),
        "boolfn.n_min_s": (s("boolfn.n_min"), "s"),
        # subsets costed (2^n per kernel call, one per lazily costed subset)
        # per second of n_min, children included
        "boolfn.subsets_per_s": (r(["kernels.all_subset_costs", "boolfn.n_min",
                                    "boolfn.n_min_partial"], ["boolfn.n_min"], "incl"), "1/s"),
        "boolfn.n_min_partial_s": (s("boolfn.n_min_partial"), "s"),
        "kernels.all_subset_costs_s": (s("kernels.all_subset_costs"), "s"),
        "boolfn.subfunction_count_s": (s("boolfn.subfunction_count"), "s"),
    }
    for layer in ("diagrams.table.obdd", "diagrams.table.nobdd", "diagrams.table.pobdd",
                  "quantum.table", "diagrams.eval.obdd", "diagrams.eval.nobdd",
                  "diagrams.eval.pobdd", "quantum.eval"):
        m[layer + ".inputs_levels_per_s"] = (r([layer], [layer]), "1/s")
    # commutativity checks are timed inclusive of the propagation they run
    m["diagrams.is_commutative_s"] = (s("diagrams.is_commutative", "incl"), "s")
    m["diagrams.orders_per_s"] = (r(["diagrams.is_commutative"], ["diagrams.is_commutative"],
                                    "incl"), "1/s")
    m["quantum.is_commutative_quantum_s"] = (s("quantum.is_commutative_quantum", "incl"), "s")
    for kind in ("obdd", "nobdd", "pobdd", "qobdd"):
        m["reorder.lift.%s_s" % kind] = (s("reorder.lift." + kind), "s")
    for name in ("reorder_function", "totalize", "allowed_input_indexes"):
        m["reorder.%s_s" % name] = (s("reorder." + name), "s")
    m["quantum.bounded_error_s"] = (s("quantum.bounded_error"), "s")
    m["quantum.check_unitary_s"] = (s("quantum.check_unitary"), "s")
    m["experiments.run_self_s"] = (s("experiments.run"), "s")
    m["experiments.emit_s"] = (s("experiments.emit"), "s")
    emit = summary.get("experiments.emit")
    m["experiments.emit_bytes"] = (emit["work"] / passes if emit else 0, "bytes")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m, summary
