"""The four benchmark workloads.

A workload builds its inputs once (`setup`) and then hands out passes: a pass
is a fixed list of operations. Each operation times only its calls into ddlab
(inside `with sw:` blocks), returns what they produced, and is checked by the
harness afterwards, outside the clock. Fresh seeded inputs are drawn for every
pass wherever the workload allows it, so that a cache keyed on an input
cannot turn later passes into lookups.
"""
from __future__ import annotations

import json
import time

import numpy as np

from ddlab import boolfn, diagrams, experiments, fixtures, quantum, reorder, zoo
from ddlab.errors import CommutativityError

import checks as C


class Stopwatch:
    """Sums the wall time of the `with` blocks it is used in."""

    __slots__ = ("elapsed", "_t0")

    def __init__(self):
        self.elapsed = 0.0
        self._t0 = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self._t0
        return False


class Op:
    """One operation: `run(sw)` calls ddlab under the stopwatch and returns
    the output; `check(output)` raises checks.CheckFailure if it is wrong."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def relabel_program(prog, perm):
    """The program that reads x_perm[v] wherever `prog` reads x_v, with the
    same transitions; it computes g(x) = f(y) with y_v = x_perm[v]."""
    order = [perm[v - 1] for v in prog.order.perm]
    if isinstance(prog, quantum.QuantumProgram):
        return quantum.QuantumProgram(n=prog.n, dim=prog.dim, order=order, initial=prog.initial,
                                      steps=list(prog.steps), accept=prog.accept, k=prog.k)
    if isinstance(prog, diagrams.LeveledObdd):
        steps = [list(zip(t0.tolist(), t1.tolist())) for t0, t1 in prog.steps]
        return diagrams.LeveledObdd(n=prog.n, k=prog.k, order=order, widths=prog.widths,
                                    start=prog.start, steps=steps, sink_values=prog.sink_values,
                                    layer_ends=list(prog.layer_ends))
    if isinstance(prog, diagrams.Nobdd):
        steps = [[(tuple(np.nonzero(a0[s])[0].tolist()), tuple(np.nonzero(a1[s])[0].tolist()))
                  for s in range(a0.shape[0])] for a0, a1 in prog.steps]
        return diagrams.Nobdd(n=prog.n, k=prog.k, order=order, widths=prog.widths,
                              start=prog.start, steps=steps, accepting=prog.accepting,
                              layer_ends=list(prog.layer_ends))
    steps = [[(p0[s], p1[s]) for s in range(p0.shape[0])] for p0, p1 in prog.steps]
    return diagrams.Pobdd(n=prog.n, k=prog.k, order=order, widths=prog.widths, start=prog.start,
                          steps=steps, accepting=prog.accepting, epsilon=prog.epsilon,
                          layer_ends=list(prog.layer_ends))


def draw_perm(rng, n):
    return tuple(int(v) + 1 for v in rng.permutation(n))


class Workload:
    name = ""
    salt = 0

    def __init__(self, seed):
        self.seed = int(seed)

    def rng(self, pass_index):
        return np.random.default_rng((self.seed, self.salt, pass_index))

    def setup(self):
        raise NotImplementedError

    def ops(self, pass_index):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# paper-core: the registered suites, as `ddlab suite` / `ddlab verify` run them


# Widths of the commutative base programs, from their constructions:
# a clamped accumulator over +-(2^(q/2)-1), the same plus an absorbing
# state, start + q guesses + accept, and (vertex, mod-a accumulator) pairs.
def base_width(spec):
    name, args = spec.split(":")
    vals = [int(a) for a in args.split(",")]
    if name == "eq-obdd":
        return 2 * (1 << (vals[0] // 2)) - 1
    if name == "eq-pobdd":
        return 2 * (1 << (vals[0] // 2))
    if name == "or-nobdd":
        return vals[0] + 2
    if name in ("rpj-core", "pj-2k"):
        a = vals[1]
        return 2 * a * a
    raise KeyError(spec)


class PaperCore(Workload):
    name = "paper-core"
    salt = 1

    def setup(self):
        fixtures.load_multiplier_fixtures()
        self.specs = (experiments.suite_checks("paper-core", seed=self.seed)
                      + experiments.suite_checks("negative", seed=self.seed))
        self.first_emission = None

    def ops(self, pass_index):
        state = {"reports": []}
        out = [Op(spec.check_id, self._runner(spec, state), self._checker(spec))
               for spec in self.specs]
        out.append(Op("emit", lambda sw: self._emit(sw, state), self._check_emit))
        out.append(Op("reload", lambda sw: self._reload(sw, state), self._check_reload))
        return out

    @staticmethod
    def _runner(spec, state):
        def run(sw):
            with sw:
                report = experiments.run(spec)
            state["reports"].append(report)
            return report
        return run

    @staticmethod
    def _emit(sw, state):
        with sw:
            text = experiments.report_emit(state["reports"])
        state["emitted"] = text
        return text

    @staticmethod
    def _reload(sw, state):
        with sw:
            reloaded = experiments.reports_from_emission(json.loads(state["emitted"]))
        return state["reports"], reloaded

    def _check_emit(self, text):
        payloads = json.loads(text)
        C.check_equal(len(payloads), len(self.specs), "emitted report count")
        for payload in payloads:
            C.check_equal(payload["digest"], C.report_digest(payload),
                          "digest of %s" % payload["spec"]["check_id"])
        if self.first_emission is None:
            self.first_emission = text
        C.require(text == self.first_emission, "emitted bytes differ from the first pass")

    @staticmethod
    def _check_reload(pair):
        reports, reloaded = pair
        C.check_equal(len(reloaded), len(reports), "reloaded report count")
        for a, b in zip(reports, reloaded):
            C.check_equal(b.digest, a.digest, "reloaded digest of %s" % a.spec.check_id)
            C.check_equal(b.passed, a.passed, "reloaded verdict of %s" % a.spec.check_id)

    def _checker(self, spec):
        def check(report):
            cid = spec.check_id
            C.require(report.passed, "%s did not pass: %s" % (cid, report.claim))
            C.check_equal(report.digest, C.report_digest(report.emission()), "digest of " + cid)
            m, p = report.measured, spec.params
            if spec.kind == "nsub":
                n = int(p["function"].split(":")[1])
                C.check_equal(m["count"], C.eq_cut_count(n), cid + " cut count")
            elif spec.kind == "width-exact":
                q = int(p["function"].split(":")[1])
                C.check_n_min(m["n_min"], cid, at_least=1 << (q // 2))
            elif spec.kind == "reorder-roundtrip" and p.get("expect") == "reject":
                C.check_equal(m["raised"], "CommutativityError", cid)
            elif spec.kind == "reorder-roundtrip":
                C.check_equal(m["base_width"], base_width(p["base"]), cid + " base width")
                C.check_lifted_width(m["width"], int(p["layout"]), m["base_width"], cid)
                C.check_equal(m["mismatches"], 0, cid + " mismatches")
                C.check_equal(m.get("sample_mismatches", 0), 0, cid + " sample mismatches")
            elif spec.kind == "hierarchy-probe":
                a = int(p["a"])
                bound = C.pj_width_bound(a)
                if p["which"] == "rpj":
                    bound *= 2 * a * max(1, (a - 1).bit_length())
                C.require(m["layered_width"] <= bound,
                          "%s: width %d above (2a)(a+1)-bound %d" % (cid, m["layered_width"], bound))
            elif spec.kind == "error-margin" and p.get("expect") != "fail":
                self._check_margin(spec, m)
            elif spec.kind == "equivalence" and p.get("variant") == "pad-flips":
                C.check_equal(m["violations"], 0, cid + " violations")
            elif spec.kind == "equivalence":
                C.check_equal(m["mismatches"], 0, cid + " mismatches")
                n = 8 if cid.startswith("pj-walk") else C.layout_size(int(cid[-1]))
                C.check_equal(m["inputs_checked"], 1 << n, cid + " inputs checked")
                if "commutative" in m:
                    C.check_equal(m["commutative"], True, cid + " commutative")
        return check

    @staticmethod
    def _check_margin(spec, m):
        """Closed forms of the rotation testers' worst acceptances."""
        cid = spec.check_id
        prog = spec.params["program"]
        if cid.startswith("modp-margin"):
            p = int(spec.params["formula"]["p"])
            ks = fixtures.modp_multipliers(p)["multipliers"]
            ones = [C.modp_tester_acceptance(ks, p, w) for w in range(0, p + 1, p)]
            zeros = [C.modp_tester_acceptance(ks, p, w) for w in range(p + 1) if w % p]
        else:
            if isinstance(prog, dict):
                q, recombined = int(spec.params["program"]["layout"]), False
                ks = fixtures.eq_multipliers(q)["multipliers"]
            else:
                q, recombined = int(prog.split(":")[1]), True
                ks = fixtures.recombined_eq_multipliers(q)["multipliers"]
            m_half = 1 << (q // 2)
            deltas = np.arange(-(m_half - 1), m_half)
            acc = C.eq_tester_acceptance(ks, deltas, q, recombined)
            ones = acc[deltas == 0].tolist()
            zeros = acc[deltas != 0].tolist()
        C.check_close(m["min_one"], min(ones), cid + " min acceptance on 1-inputs")
        C.check_close(m["max_zero"], max(zeros), cid + " max acceptance on 0-inputs")


# ---------------------------------------------------------------------------
# width: the exact-width oracle alone


class Width(Workload):
    name = "width"
    salt = 2
    PARTIAL = "eq:4 xor-reordered"
    ENUM = "ws:8 enum"

    def setup(self):
        layout = reorder.BlockLayout(4)
        # Four n = 8 instances below three n = 10 ones, and the enumeration and
        # three n = 12 instances above them: op_p50_s then falls in the middle
        # of the n = 10 cluster, which has three samples per pass.
        self.tables = {
            "eq:8": zoo.eq(8),
            "modp:3,8": zoo.mod_p(3, 8),
            "modp:5,8": zoo.mod_p(5, 8),
            "wsb:8,4": zoo.ws_b(8, 4),
            "ws:10": zoo.ws(10),
            "rpj:1,2": zoo.rpj(1, zoo.RpjLayout(2)),
            "eq:10": zoo.eq(10),
            "modp:3,10": zoo.mod_p(3, 10),
            "req:4": zoo.req(layout),
            self.PARTIAL: reorder.reorder_function(zoo.eq(4), layout, "xor"),
            self.ENUM: zoo.ws(8),
        }
        self.first = {}
        self.tables_verified = False

    def _relabelled(self, f, perm):
        src = C.relabel_source(f.n, perm)
        if isinstance(f, boolfn.PartialBoolFn):
            return boolfn.PartialBoolFn(f.n, f.defined[src], f.values[src])
        return boolfn.BoolFn(f.n, f.table[src])

    def ops(self, pass_index):
        rng = self.rng(pass_index)
        state = {}
        out = []
        for name, f in self.tables.items():
            g = self._relabelled(f, draw_perm(rng, f.n))
            out.append(Op(name, self._runner(name, g, state), self._checker(name, g, state)))
        return out

    def _runner(self, name, g, state):
        def run(sw):
            with sw:
                if name == self.ENUM:
                    got = boolfn.n_min(g, strategy="enum"), boolfn.n_min(g)
                else:
                    got = boolfn.n_min(g)
            state[name] = got
            return got
        return run

    def _checker(self, name, g, state):
        def check(got):
            if not self.tables_verified:
                self.verify_tables()
                self.tables_verified = True
            if name == self.ENUM:
                enum, auto = got
                C.check_equal(auto, enum, "n_min of ws:8: subset DP against n! enumeration")
                got = enum
            ref = self.first.setdefault(name, got)
            family, _, args = name.partition(":")
            kw = {}
            if family == "eq" and name != self.PARTIAL:
                kw["equals"] = 3
            elif family == "modp":
                kw["equals"] = int(args.split(",")[0])
            elif family == "req":
                kw["at_least"] = 1 << (int(args) // 2)
            if name == self.PARTIAL:
                kw["at_most"] = state["req:4"]
            else:
                kw["at_most"] = C.identity_order_width(g.table, g.n)
            C.check_n_min(got, name, reference=ref, **kw)
        return check

    def verify_tables(self):
        """The zoo tables against their definitions (harness side, untimed)."""
        t = self.tables
        C.check_bits(t["ws:10"].table, C.ws_table(10), "zoo ws:10")
        C.check_bits(t[self.ENUM].table, C.ws_table(8), "zoo ws:8")
        C.check_bits(t["wsb:8,4"].table, C.ws_table(8, 4), "zoo wsb:8,4")
        C.check_bits(t["eq:8"].table, C.eq_table(8), "zoo eq:8")
        C.check_bits(t["eq:10"].table, C.eq_table(10), "zoo eq:10")
        C.check_bits(t["rpj:1,2"].table, C.rpj_table(1, 2), "zoo rpj:1,2")
        for name in ("modp:3,8", "modp:5,8", "modp:3,10"):
            p, n = (int(v) for v in name.split(":")[1].split(","))
            weight = C.input_bits(n).sum(axis=1)
            C.check_bits(t[name].table, (weight % p == 0), "zoo " + name)
        addr, vals = C.decode_blocks(C.input_bits(12), 4, "xor")
        delta = C.half_difference(addr + 1, vals, 4)
        C.check_bits(t["req:4"].table, (delta % 4 == 0), "zoo req:4")
        allowed = C.allowed_rows(addr)
        part = t[self.PARTIAL]
        C.check_bits(part.defined, allowed, "defined inputs of the reordered eq:4")
        C.check_bits(part.values[allowed], C.eq_of(C.arranged(addr + 1, vals, 4))[allowed],
                     "values of the reordered eq:4")


# ---------------------------------------------------------------------------
# programs: every program kind at q = 4, propagated over all 2^12 inputs


class Programs(Workload):
    name = "programs"
    salt = 3
    Q = 4
    TRIALS = 200

    def setup(self):
        self.layout = reorder.BlockLayout(self.Q)
        self.rpj_layout = zoo.RpjLayout(2)
        self.ks = tuple(fixtures.eq_multipliers(self.Q)["multipliers"])
        self._ref = {}

    def ref(self, key, make):
        if key not in self._ref:
            self._ref[key] = make()
        return self._ref[key]

    def decoded(self, mode):
        n = C.layout_size(self.Q)
        return self.ref(("decode", mode), lambda: C.decode_blocks(C.input_bits(n), self.Q, mode))

    def ops(self, pass_index):
        rng = self.rng(pass_index)
        seed = int(rng.integers(1 << 30))
        state = {}
        q, lay = self.Q, self.layout
        kinds = [
            ("obdd", lambda: zoo.eq_weighted_obdd(q),
             lambda p: reorder.reorder_obdd(p, lay, "xor"), "xor"),
            ("nobdd", lambda: zoo.or_guess_nobdd(q),
             lambda p: reorder.reorder_nobdd(p, lay, "direct"), "direct"),
            ("pobdd", lambda: zoo.eq_geometric_pobdd(q),
             lambda p: reorder.reorder_pobdd(p, lay, "xor"), "xor"),
        ]
        out = []
        for kind, build, lift, mode in kinds:
            perm = draw_perm(rng, q)
            out.append(Op("lift." + kind, self._classical(build, lift, perm, seed),
                          self._classical_check(kind, mode, perm)))
        perm = draw_perm(rng, q)
        out.append(Op("lift.qobdd", self._quantum(perm, seed, state), self._quantum_check(perm)))
        out.append(Op("totalize+bounded-error", self._totalize(perm, state),
                      self._totalize_check(perm)))
        for k in (1, 2, 3):
            perm = draw_perm(rng, 8)
            out.append(Op("pj-2k:%d,2" % k, self._walk(lambda k=k: zoo.pj_2k_obdd(k, 2), perm, seed),
                          self._walk_check(("pj", k), perm)))
        perm = draw_perm(rng, C.layout_size(self.Q))
        out.append(Op("rpj-2k:1,2", self._walk(lambda: zoo.rpj_2k_obdd(1, self.rpj_layout), perm,
                                              None), self._walk_check(("rpj", 1), perm)))
        out.append(Op("refuse tree:eq:4", self._refuse, self._refuse_check))
        return out

    def _classical(self, build, lift, perm, seed):
        def run(sw):
            with sw:
                base = build()
            prog = relabel_program(base, perm)
            with sw:
                comm = diagrams.is_commutative(prog, trials=self.TRIALS, seed=seed)
                lifted = lift(prog)
                if isinstance(lifted, diagrams.Pobdd):
                    table = diagrams.acceptance_table(lifted)
                else:
                    table = diagrams.function_of(lifted).table
            return comm, max(prog.widths), max(lifted.widths), table
        return run

    def _classical_check(self, kind, mode, perm):
        def check(out):
            comm, base_w, lifted_w, table = out
            C.check_equal(comm, True, kind + " base is commutative")
            C.check_lifted_width(lifted_w, self.Q, base_w, kind)
            addr, vals = self.decoded(mode)
            var = C.base_variables(addr, perm)
            allowed = C.allowed_rows(addr)
            if kind == "nobdd":
                on_allowed = vals.max(axis=1)
                elsewhere = C.or_guess_accepts(var, vals, self.Q)
            else:
                on_allowed = C.eq_of(C.arranged(var, vals, self.Q))
                elsewhere = C.clamped_zero(var, vals, self.Q)
            expected = np.where(allowed, on_allowed, elsewhere)
            if kind == "pobdd":
                C.check_close(table, 0.25 + 0.75 * expected, "pobdd lift acceptance")
                C.check_close(table[allowed], np.where(on_allowed[allowed] == 1, 1.0, 0.25),
                              "pobdd lift acceptance on allowed inputs")
            else:
                C.check_bits(table, expected, kind + " lift outputs")
        return check

    def _quantum(self, perm, seed, state):
        def run(sw):
            with sw:
                base = zoo.fingerprint_eq_qobdd(self.Q, self.ks)
            prog = relabel_program(base, perm)
            with sw:
                comm = quantum.is_commutative_quantum(prog, seed=seed)
                lifted = reorder.xor_reorder_qobdd(prog, self.layout)
                acc = quantum.acceptance_table(lifted)
            state["lifted"] = lifted
            return comm, prog.dim, lifted.dim, acc
        return run

    def _quantum_check(self, perm):
        def check(out):
            comm, base_dim, dim, acc = out
            C.check_equal(comm, True, "quantum base is commutative")
            C.check_lifted_width(dim, self.Q, base_dim, "qobdd")
            addr, vals = self.decoded("xor")
            delta = C.half_difference(C.base_variables(addr, perm), vals, self.Q)
            C.check_close(acc, C.eq_tester_acceptance(self.ks, delta, self.Q, False),
                          "qobdd lift acceptance")
        return check

    def _totalize(self, perm, state):
        def run(sw):
            eq4 = self.ref("eq4", lambda: C.eq_table(self.Q))
            f = boolfn.BoolFn(self.Q, eq4[C.relabel_source(self.Q, perm)])
            lifted = state["lifted"]
            with sw:
                fp = reorder.reorder_function(f, self.layout, "xor")
                idx = reorder.allowed_input_indexes(self.layout, "xor")
                total = reorder.totalize(fp, lifted)
                verdict = quantum.computes_with_bounded_error(lifted, fp, 1.0 / 6.0)
                unitary = quantum.check_unitary(lifted)
            return fp, idx, total, verdict, unitary
        return run

    def _totalize_check(self, perm):
        def check(out):
            fp, idx, total, verdict, unitary = out
            addr, vals = self.decoded("xor")
            var = C.base_variables(addr, perm)
            allowed = C.allowed_rows(addr)
            eq = C.eq_of(C.arranged(var, vals, self.Q))
            C.check_bits(fp.defined, allowed, "reorder_function defined inputs")
            C.check_bits(fp.values, eq * allowed, "reorder_function values")
            C.check_bits(idx, np.nonzero(allowed)[0], "allowed_input_indexes")
            delta = C.half_difference(var, vals, self.Q)
            C.check_bits(total.table, (delta % (1 << (self.Q // 2)) == 0), "totalize")
            acc = C.eq_tester_acceptance(self.ks, delta, self.Q, False)
            C.require(verdict.passed, "bounded-error verdict failed")
            C.check_close(verdict.min_one, acc[allowed & (eq == 1)].min(), "bounded-error min-1")
            C.check_close(verdict.max_zero, acc[allowed & (eq == 0)].max(), "bounded-error max-0")
            C.check_equal(verdict.ones_checked, int(np.sum(allowed & (eq == 1))), "1-inputs checked")
            C.check_equal(verdict.zeros_checked, int(np.sum(allowed & (eq == 0))), "0-inputs checked")
            C.require(unitary.passed, "lifted steps are not unitary")
        return check

    def _walk(self, build, perm, seed):
        def run(sw):
            with sw:
                base = build()
            prog = relabel_program(base, perm)
            with sw:
                table = diagrams.function_of(prog).table
                comm = None if seed is None else diagrams.is_commutative(
                    prog, trials=self.TRIALS, seed=seed)
            return comm, max(prog.widths), table
        return run

    def _walk_check(self, which, perm):
        family, k = which

        def check(out):
            comm, w, table = out
            if family == "pj":
                ref = self.ref(which, lambda: C.pj_table(k, 2))
                C.check_equal(comm, True, "pj walk commutes within layers")
                C.require(w <= C.pj_width_bound(2), "pj walk width %d above (2a)(a+1)" % w)
            else:
                ref = self.ref(which, lambda: C.rpj_table(k, 2))
                C.check_lifted_width(w, self.rpj_layout.b, base_width("rpj-core:%d,2" % k),
                                     "rpj walk")
            C.check_bits(table, ref[C.relabel_source(len(perm), perm)],
                         "%s-2k:%d,2 outputs" % which)
        return check

    def _refuse(self, sw):
        f = zoo.eq(self.Q)
        with sw:
            tree = diagrams.build_binary_tree_obdd(f)
            comm = diagrams.is_commutative(tree)
            try:
                reorder.reorder_obdd(tree, self.layout, "xor")
            except CommutativityError:
                return comm, True
        return comm, False

    @staticmethod
    def _refuse_check(out):
        comm, refused = out
        C.check_equal(comm, False, "tree:eq:4 commutativity")
        C.check_equal(refused, True, "lift of tree:eq:4 refused")


# ---------------------------------------------------------------------------
# lifted-q8: q = 8 lifts (n = 32) evaluated one input at a time


class LiftedQ8(Workload):
    name = "lifted-q8"
    salt = 4
    Q = 8
    SAMPLES = 32   # allowed inputs per pass, and as many arbitrary inputs

    def setup(self):
        q = self.Q
        self.layout = reorder.BlockLayout(q)
        self.ks = tuple(fixtures.recombined_eq_multipliers(q)["multipliers"])
        self.bases = {
            "obdd": zoo.eq_weighted_obdd(q),
            "nobdd": zoo.or_guess_nobdd(q),
            "pobdd": zoo.eq_geometric_pobdd(q),
            "qobdd": zoo.fingerprint_eq_qobdd(q, self.ks, recombine=True),
        }

    def ops(self, pass_index):
        rng = self.rng(pass_index)
        lifts = {}
        perms = {kind: draw_perm(rng, self.Q) for kind in self.bases}
        out = [Op("lift." + kind, self._lift(kind, perms[kind], lifts), self._lift_check(kind))
               for kind in self.bases]
        for _ in range(self.SAMPLES):
            addresses = [int(a) for a in rng.permutation(self.Q)]
            values = [int(v) for v in rng.integers(0, 2, self.Q)]
            xs = {"xor": C.assemble(addresses, values, "xor"),
                  "direct": C.assemble(addresses, values, "direct")}
            out.append(Op("eval.allowed", self._eval(xs, lifts), self._eval_check(xs, perms, True)))
        for _ in range(self.SAMPLES):
            x = tuple(int(b) for b in rng.integers(0, 2, self.layout.n))
            xs = {"xor": x, "direct": x}
            out.append(Op("eval.any", self._eval(xs, lifts), self._eval_check(xs, perms, False)))
        return out

    def _lift(self, kind, perm, lifts):
        def run(sw):
            prog = relabel_program(self.bases[kind], perm)
            with sw:
                if kind == "obdd":
                    lifted = reorder.reorder_obdd(prog, self.layout, "xor")
                elif kind == "nobdd":
                    lifted = reorder.reorder_nobdd(prog, self.layout, "direct")
                elif kind == "pobdd":
                    lifted = reorder.reorder_pobdd(prog, self.layout, "xor")
                else:
                    lifted = reorder.xor_reorder_qobdd(prog, self.layout)
            lifts[kind] = lifted
            if kind == "qobdd":
                return prog.dim, lifted.dim
            return max(prog.widths), max(lifted.widths)
        return run

    def _lift_check(self, kind):
        def check(widths):
            C.check_lifted_width(widths[1], self.Q, widths[0], kind + " q=8")
        return check

    @staticmethod
    def _eval(xs, lifts):
        def run(sw):
            with sw:
                return (diagrams.eval_obdd(lifts["obdd"], xs["xor"]),
                        diagrams.eval_nobdd(lifts["nobdd"], xs["direct"]),
                        diagrams.eval_pobdd(lifts["pobdd"], xs["xor"]),
                        quantum.accept_probability(lifts["qobdd"], xs["xor"]))
        return run

    def _eval_check(self, xs, perms, allowed):
        def check(out):
            got_o, got_n, got_p, got_q = out
            q = self.Q
            decoded = {mode: C.decode_blocks(np.asarray([x]), q, mode) for mode, x in xs.items()}
            addr, vals = decoded["xor"]
            if allowed:
                C.require(C.allowed_rows(addr)[0] and C.allowed_rows(decoded["direct"][0])[0],
                          "drawn input is not allowed")
                eq_o = C.eq_of(C.arranged(C.base_variables(addr, perms["obdd"]), vals, q))
                eq_p = C.eq_of(C.arranged(C.base_variables(addr, perms["pobdd"]), vals, q))
                want_n = vals.max(axis=1)
                want_p = np.where(eq_p == 1, 1.0, 0.25)
                want_o = eq_o
            else:
                want_o = C.clamped_zero(C.base_variables(addr, perms["obdd"]), vals, q)
                want_p = 0.25 + 0.75 * C.clamped_zero(C.base_variables(addr, perms["pobdd"]),
                                                      vals, q)
                d_addr, d_vals = decoded["direct"]
                want_n = C.or_guess_accepts(C.base_variables(d_addr, perms["nobdd"]), d_vals, q)
            delta = C.half_difference(C.base_variables(addr, perms["qobdd"]), vals, q)
            want_q = C.eq_tester_acceptance(self.ks, delta, q, True)
            C.check_bits([got_o], want_o, "eq-obdd q=8 lift")
            C.check_bits([got_n], want_n, "or-nobdd q=8 lift")
            C.check_close([got_p], want_p, "eq-pobdd q=8 lift acceptance")
            C.check_close([got_q], want_q, "eq-qobdd q=8 lift acceptance")
        return check


WORKLOADS = {cls.name: cls for cls in (PaperCore, Width, Programs, LiftedQ8)}
