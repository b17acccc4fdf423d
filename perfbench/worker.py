"""One workload in one fresh process: set up, say READY, run passes, report.

Started by run.py, never by hand. It imports ddlab from the `src` directory of
the checkout it lives in and refuses any other copy. Its last line of
standard output is a JSON object with the raw measurements.

  --setup-only        set up, print READY and exit (a set-up time sample)
  --passes N          run exactly N passes (the smoke mode) instead of timing
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import ddlab  # noqa: E402
from ddlab import kernels  # noqa: E402

import checks  # noqa: E402
from run import PINS  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Stopwatch  # noqa: E402

MAX_FAILURES_KEPT = 10


def fingerprint():
    """What the figures depend on besides the code."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "ddlab_backend": kernels.BACKEND,
        "ddlab_version": ddlab.__version__,
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_config": blas.get("openblas configuration", ""),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "pins": {k: os.environ.get(k) for k in PINS},
    }


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []

    def note(self, label, message, wrong):
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append("%s: %s" % (label, message))


def run_pass(workload, index, tally):
    """One pass: returns (summed op seconds, [(label, op seconds)])."""
    total = 0.0
    timings = []
    for op in workload.ops(index):
        tally.attempted += 1
        sw = Stopwatch()
        try:
            out = op.run(sw)
        except Exception:  # noqa: BLE001 - a raising operation is a failed one
            tally.note(op.label, traceback.format_exc(limit=3).strip().splitlines()[-1], False)
            continue
        total += sw.elapsed
        timings.append((op.label, sw.elapsed))
        try:
            op.check(out)
        except checks.CheckFailure as exc:
            tally.note(op.label, str(exc), True)
    return total, timings


def run_timed(workload, tally, start_index, until, min_passes=1):
    """Passes, each started only after the last ended, until `until`."""
    passes = []
    index = start_index
    while len(passes) < min_passes or time.perf_counter() < until:
        passes.append(run_pass(workload, index, tally))
        index += 1
    return passes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--passes", type=int, default=0)
    args = ap.parse_args(argv)

    if not Path(ddlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print("ddlab was imported from %s, not from this checkout" % ddlab.__file__,
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    t_setup = time.perf_counter()
    workload.setup()
    t_ready = time.perf_counter()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    result = {"env": fingerprint(), "inner_setup_s": t_ready - t_setup}
    if args.passes:
        warm = [run_pass(workload, i, tally) for i in range(args.passes)]
    elif tracer is None:
        # pass 0 warms caches and lazy imports; the clock then runs `seconds`
        start = time.perf_counter()
        warm = run_timed(workload, tally, 0, start + args.seconds, min_passes=2)[1:]
    else:
        # untraced passes for half the time, then traced passes for the rest
        tracer.uninstall()
        start = time.perf_counter()
        warm = run_timed(workload, tally, 0, start + args.seconds / 2, min_passes=2)[1:]
        tracer.phase = "pass"
        tracer.install()
        traced = run_timed(workload, tally, len(warm) + 1, start + args.seconds)
        tracer.uninstall()
        overhead = (statistics.median(p[0] for p in traced)
                    - statistics.median(p[0] for p in warm))
        metrics, summary = layer_metrics(tracer.spans, len(traced), overhead)
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["spans"] = summary
        result["traced_pass_s"] = [p[0] for p in traced]

    by_label = {}
    for _, timings in warm:
        for label, t in timings:
            by_label.setdefault(label, []).append(t)
    result.update({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "failures": tally.failures,
        "pass_s": [p[0] for p in warm],
        "op_s": [t for p in warm for _, t in p[1]],
        "op_median_s": {label: statistics.median(ts) for label, ts in by_label.items()},
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
