"""Command-line interface.

Subcommands: eval, nsub, width-exact, build, reorder, verify, suite, report.
Exit codes: 0 = checks passed, 1 = a check failed, 2 = usage error,
3 = capacity cap exceeded. All configuration is by flags — there is no config
file and no environment-variable configuration of experiments.
"""
from __future__ import annotations

import argparse
import json
import sys

from .boolfn import Partition, VarOrder, evaluate, n_min, require_enumerable, subfunction_count
from .diagrams import LeveledObdd, Nobdd, Pobdd, eval_nobdd, eval_obdd, eval_pobdd, to_text, width
from .errors import CapacityError, DdlabError, ShapeError, UsageError
from .experiments import (ExperimentSpec, find_check, parse_function_spec, parse_program_spec,
                          report_emit, reports_from_emission, resolve, run, run_suite)
from .quantum import QuantumProgram, accept_probability
from .quantum import to_json as quantum_to_json


def _parse_input_bits(text, n):
    bits = text.strip()
    if len(bits) != n or any(c not in "01" for c in bits):
        raise UsageError("--input must be %d characters of 0/1" % n)
    return tuple(int(c) for c in bits)


def _cmd_eval(args):
    obj = resolve(args.spec)
    x = _parse_input_bits(args.input, obj.n)
    if isinstance(obj, QuantumProgram):
        print("%.12f" % accept_probability(obj, x))
    elif isinstance(obj, Pobdd):
        print("%.12f" % eval_pobdd(obj, x))
    elif isinstance(obj, Nobdd):
        print(eval_nobdd(obj, x))
    elif isinstance(obj, LeveledObdd):
        print(eval_obdd(obj, x))
    else:
        v = evaluate(obj, x)
        print("undefined" if v is None else v)
    return 0


def _cmd_nsub(args):
    f = parse_function_spec(args.spec)
    try:
        order = VarOrder([int(v) for v in args.order.split(",")]) if args.order else VarOrder.identity(f.n)
        if order.n != f.n:
            raise ShapeError("order arity %d does not match function arity %d" % (order.n, f.n))
        cut = Partition(order, args.cut)
    except ValueError:
        raise UsageError("--order must be comma-separated integers") from None
    except ShapeError as exc:
        raise UsageError(str(exc)) from None
    print(subfunction_count(f, cut))
    return 0


def _cmd_width_exact(args):
    f = parse_function_spec(args.spec)
    if args.strategy != "auto":
        require_enumerable(f)
    if args.strategy == "both":
        a = n_min(f, strategy="auto")
        e = n_min(f, strategy="enum")
        print("auto=%d enum=%d agree=%s" % (a, e, a == e))
        return 0 if a == e else 1
    print(n_min(f, strategy=args.strategy))
    return 0


def _cmd_build(args):
    from .diagrams import build_binary_tree_obdd
    f = parse_function_spec(args.spec)
    program = build_binary_tree_obdd(f)
    sys.stdout.write(to_text(program))
    print("width %d" % width(program))
    return 0


def _cmd_reorder(args):
    from .reorder import BlockLayout, lift
    try:
        layout = BlockLayout(args.layout)
    except ShapeError as exc:
        raise UsageError(str(exc)) from None
    base = parse_program_spec(args.spec)
    if base.n != layout.q:
        raise UsageError("base program arity %d does not match layout q=%d" % (base.n, layout.q))
    if isinstance(base, QuantumProgram) and args.mode != "xor":
        raise UsageError("quantum lifts are defined for xor mode only")
    if args.text:
        lifted = lift(base, layout, args.mode)
        if isinstance(lifted, QuantumProgram):
            sys.stdout.write(quantum_to_json(lifted) + "\n")
        else:
            sys.stdout.write(to_text(lifted))
        return 0
    params = {"base": args.spec, "layout": args.layout, "mode": args.mode}
    spec = ExperimentSpec(kind="reorder-roundtrip", params=params, seed=args.seed,
                          check_id="reorder-%s-%s" % (args.mode, args.spec))
    report = run(spec)
    sys.stdout.write(report_emit(report, args.format, args.with_duration))
    return 0 if report.passed else 1


def _cmd_verify(args):
    spec = find_check(args.check_id, seed=args.seed)
    report = run(spec)
    sys.stdout.write(report_emit(report, args.format, args.with_duration))
    return 0 if report.passed else 1


def _cmd_suite(args):
    # the output file is opened first, so that an unwritable path fails before the suite runs
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (args.out, exc)) from None
    try:
        reports = run_suite(args.suite_id, seed=args.seed)
        out.write(report_emit(reports, args.format, args.with_duration))
    finally:
        if args.out:
            out.close()
    if args.out:
        print("wrote %d reports to %s" % (len(reports), args.out))
    failed = [r.spec.check_id for r in reports if not r.passed]
    if failed:
        print("FAILED: %s" % ", ".join(str(c) for c in failed), file=sys.stderr)
        return 1
    return 0


def _cmd_report(args):
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            payloads = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (args.file, exc)) from None
    except ValueError:
        raise UsageError("%s is not a JSON report file" % args.file) from None
    reports = reports_from_emission(payloads)
    sys.stdout.write(report_emit(reports, args.format, with_duration=False))
    return 0


def _count(minimum):
    """An argparse type: an integer of at least `minimum`."""
    def integer(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError("expected an integer >= %d, got %d" % (minimum, value))
        return value
    return integer


def build_parser():
    parser = argparse.ArgumentParser(prog="ddlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, fmt=True):
        if seed:
            p.add_argument("--seed", type=_count(0), default=0,
                           help="seed recorded in each report (no registered check samples)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")
            p.add_argument("--with-duration", action="store_true",
                           help="include wall-clock duration (excluded from canonical output)")

    p = sub.add_parser("eval", help="evaluate a function or program on one input")
    p.add_argument("spec", help="object mini-spec, e.g. eq:4 or pj-2k:1,2")
    p.add_argument("--input", required=True, help="input bits, e.g. 0101")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("nsub", help="count distinct subfunctions at a cut")
    p.add_argument("spec")
    p.add_argument("--order", help="comma-separated variable order, e.g. 1,3,2,4")
    p.add_argument("--cut", type=int, required=True)
    p.set_defaults(func=_cmd_nsub)

    p = sub.add_parser("width-exact", help="exact minimum program width of a function")
    p.add_argument("spec")
    p.add_argument("--strategy", choices=("auto", "enum", "both"), default="auto")
    p.set_defaults(func=_cmd_width_exact)

    p = sub.add_parser("build", help="build and print the leveled program of a function")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("reorder", help="lift a program over an addressed layout and check it")
    p.add_argument("spec", help="base program mini-spec, e.g. eq-obdd:4")
    p.add_argument("--layout", type=int, required=True, help="block count q (power of two)")
    p.add_argument("--mode", choices=("direct", "xor"), default="xor")
    p.add_argument("--text", action="store_true", help="print the lifted program instead of a report")
    common(p)
    p.set_defaults(func=_cmd_reorder)

    p = sub.add_parser("verify", help="run one registered check by id")
    p.add_argument("check_id")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("suite", help="run a named suite of checks")
    p.add_argument("suite_id", help="paper-core, quick, or negative")
    p.add_argument("--out", help="write the emission to a file instead of stdout")
    common(p)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("report", help="re-emit a saved JSON report (verifies digests)")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; preserve that contract
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except CapacityError as exc:
        print("capacity error: %s" % exc, file=sys.stderr)
        return 3
    except DdlabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
