"""Benchmark of ddlab, run from the root of a checkout.

  python3 perfbench/run.py --workload width --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all --seed 1       # every workload in turn
  python3 perfbench/run.py --smoke                       # checker self-test + one pass each

Each workload runs in fresh worker processes (worker.py) with the BLAS and
OpenMP threads pinned to 1. Untraced runs (--trace 0) report the end-to-end
metrics; traced runs (--trace 1) the per-layer ones. A table goes to standard
error; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Raw measurements, the environment
fingerprint and the trace summary are written to perfbench/results/.

Exit code 0 when every worker ran to its end (whatever the checks found),
1 when a worker failed, timed out or could not import ddlab from src/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SELFTEST = HERE / "selftest.py"
RESULTS = HERE / "results"
WORKLOADS = ("paper-core", "width", "programs", "lifted-q8")
SETUPS = 5        # set-up samples per untraced run, the measured worker's included
GRACE_S = 150     # how long a worker may run past --seconds before it is killed
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class WorkerError(Exception):
    pass


class Worker:
    """A worker process; `ready_s` is the time from its start to READY."""

    def __init__(self, args, timeout):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(WORKER)] + args, stdout=subprocess.PIPE,
                                     env=dict(os.environ, **PINS), text=True)
        self.timer = threading.Timer(timeout, self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.finish()
            raise WorkerError("worker %s did not finish its set-up" % " ".join(args))

    def finish(self):
        """Wait for the worker and return its last line of output, parsed."""
        try:
            out = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        if code != 0:
            raise WorkerError("worker exited with code %d" % code)
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def measure(workload, seed, seconds, trace, passes=0):
    """One run of one workload: (result line, raw measurements)."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    timeout = seconds + GRACE_S
    setups = []
    if not trace and not passes:
        for _ in range(SETUPS - 1):
            probe = Worker(base + ["--setup-only"], timeout)
            probe.finish()
            setups.append(probe.ready_s)
    worker = Worker(base + (["--passes", str(passes)] if passes else []), timeout)
    setups.append(worker.ready_s)
    raw = worker.finish()
    raw["setup_samples_s"] = setups
    if trace:
        metrics = raw["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(raw["pass_s"]), "unit": "s"},
            "op_p50_s": {"value": statistics.median(raw["op_s"]), "unit": "s"},
            "peak_rss_mib": {"value": raw["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
    line = {"correct": raw["wrong"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}
    return line, raw


def table(workload, line, raw):
    rows = ["%s: attempted %d, failed %d, correct %s, %d timed passes"
            % (workload, line["attempted"], line["failed"], line["correct"], len(raw["pass_s"]))]
    for name, m in line["metrics"].items():
        rows.append("  %-44s %16.6g %s" % (name, m["value"], m["unit"]))
    rows.extend("  FAILED " + f for f in raw["failures"])
    return "\n".join(rows)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the checker self-test and one pass of every workload")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    names = WORKLOADS if args.smoke or args.workload == "all" else (args.workload,)
    RESULTS.mkdir(exist_ok=True)
    lines = {}
    try:
        if args.smoke:
            code = subprocess.run([sys.executable, str(SELFTEST)], env=dict(os.environ, **PINS),
                                  timeout=GRACE_S).returncode
            if code != 0:
                raise WorkerError("checker self-test failed")
        for name in names:
            line, raw = measure(name, args.seed, args.seconds, args.trace,
                                passes=1 if args.smoke else 0)
            lines[name] = line
            tag = "smoke" if args.smoke else "trace%d" % args.trace
            out = RESULTS / ("%s-seed%d-%s.json" % (name, args.seed, tag))
            out.write_text(json.dumps(raw, indent=1) + "\n")
            print(table(name, line, raw), file=sys.stderr, flush=True)
    except (WorkerError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1

    print(json.dumps({"env": raw["env"]}))
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {"%s/%s" % (w, k): m for w, v in lines.items()
                        for k, m in v["metrics"].items()},
        }))
    if args.smoke and not all(v["correct"] and v["failed"] == 0 for v in lines.values()):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
