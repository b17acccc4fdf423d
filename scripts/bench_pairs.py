#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and judge each metric.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload programs \
        --pairs 10 --seconds 25 --seed 1 [--out results.json]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. Pair i runs
`perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0` once in
each checkout, parent first in even pairs and change first in odd ones, so
both sides see the same seeds and neither always runs first. For every
end-to-end metric of the change's BENCHMARK.json the script prints each
side's median and quartiles, the pairs each side won (a tie counts for
neither), the parent's interquartile range and a verdict:

  gain        the change won at least nine tenths of the pairs, and its
              median is better than the parent's by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more than the
              metric's bound (a fraction of the parent's median);
  unresolved  not worse, but the parent's interquartile range is wider than
              the bound, and not every run of the change beats every run of
              the parent, so a change within the bound cannot be told apart;
  same        none of these.

Every run's metrics and the verdicts are written as JSON to --out (by
default a new file under the system's temporary directory). A pair whose
run fails ends the script with exit code 1; the pairs before it are kept.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

GAIN_SHARE = 0.9   # share of the pairs a gain must win


def quartiles(values):
    """(first quartile, median, third quartile) of at least one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Judge one metric from paired runs: parent[i] and change[i] ran as pair i.

    `better` is "lower" or "higher"; `bound` is the largest allowed change
    for the worse, as a fraction of the parent's median."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    # gap > 0 when the change is better
    gaps = [sign * (p - c) for p, c in zip(parent, change)]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    iqr = p3 - p1
    won = sum(g > 0 for g in gaps)
    lost = sum(g < 0 for g in gaps)
    gain = sign * (pm - cm)
    worse_by = -gain / abs(pm) if pm else 0.0
    if won >= GAIN_SHARE * len(gaps) and gain > iqr:
        call = "gain"
    elif worse_by > bound:
        call = "worse"
    elif pm and iqr / abs(pm) > bound and not (
            max(sign * c for c in change) < min(sign * p for p in parent)):
        call = "unresolved"
    else:
        call = "same"
    return {"parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "pairs": len(gaps), "won": won, "lost": lost, "parent_iqr": iqr,
            "worse_by": worse_by, "verdict": call}


def run_once(checkout, workload, seed, seconds):
    """The metrics of one untraced run in `checkout`: {name: value}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("run in %s failed (exit %d): %s"
                           % (checkout, proc.returncode, proc.stderr.strip()[-500:]))
    line = json.loads(lines[-1])
    return {"correct": line["correct"], "attempted": line["attempted"], "failed": line["failed"],
            "metrics": {name: m["value"] for name, m in line["metrics"].items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i uses seed + i")
    ap.add_argument("--out", type=Path, help="JSON file to write (default: a new temporary file)")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    out = args.out
    if out is None:
        fd, name = tempfile.mkstemp(prefix="bench_pairs-%s-" % args.workload, suffix=".json")
        os.close(fd)
        out = Path(name)

    runs, code = [], 0
    for i in range(args.pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": args.seed + i, "first": sides[0]}
        try:
            for side in sides:
                pair[side] = run_once(getattr(args, side), args.workload, args.seed + i,
                                      args.seconds)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            code = 1
            break
        runs.append(pair)
        print("pair %d (seed %d, %s first): %s" % (
            i, pair["seed"], pair["first"],
            ", ".join("%s %.4g/%.4g" % (name, pair["parent"]["metrics"][name],
                                        pair["change"]["metrics"][name])
                      for name in pair["parent"]["metrics"])), flush=True)

    verdicts = {}
    if runs:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            verdicts[name] = verdict([r["parent"]["metrics"][name] for r in runs],
                                     [r["change"]["metrics"][name] for r in runs],
                                     metric["better"], metric["bound"])
        print("%-14s %34s %34s %8s %10s  %s" % ("metric", "parent q1/median/q3",
                                                "change q1/median/q3", "won", "parent IQR",
                                                "verdict"))
        for name, v in verdicts.items():
            print("%-14s %34s %34s %8s %10.4g  %s" % (
                name, "%.4g / %.4g / %.4g" % (v["parent"]["q1"], v["parent"]["median"],
                                              v["parent"]["q3"]),
                "%.4g / %.4g / %.4g" % (v["change"]["q1"], v["change"]["median"],
                                        v["change"]["q3"]),
                "%d/%d" % (v["won"], v["pairs"]), v["parent_iqr"], v["verdict"]))
        failed = [(r["seed"], side) for r in runs for side in ("parent", "change")
                  if r[side]["failed"] or not r[side]["correct"]]
        if failed:
            print("runs with failed or wrong operations: %s" % failed)
    out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                               "parent": str(args.parent), "change": str(args.change),
                               "runs": runs, "verdicts": verdicts}, indent=1) + "\n")
    print("written to %s" % out)
    return code


if __name__ == "__main__":
    sys.exit(main())
