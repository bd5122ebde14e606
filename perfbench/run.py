#!/usr/bin/env python3
"""Builds the perfbench harness from the repository's sources and runs it.

One run (what BENCHMARK.json's command invokes, from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench (CMake, into $CARGO_TARGET_DIR or .bench_build), runs one
workload in a fresh process and passes its output through: the last line
is the result object {correct, attempted, failed, metrics}.

Steadiness mode, the check that two sets of runs of the same code agree:

    python3 perfbench/run.py --steady 10 [--workloads a,b] [--seconds S]

runs each workload N times with seeds 1..N and prints, for every
end-to-end metric, the median, the quartiles and the spread (interquartile
range over median), flagging each spread above the metric's bound in
BENCHMARK.json.  Without --seconds, runs last BENCHMARK.json's run_seconds.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the harness; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "rpc", "event_runtime.h")):
        log("no runtime sources under src/; nothing to benchmark")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd + gen, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(2)
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = tempfile.mkdtemp(prefix="work-", dir=build_dir())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
        return 3, []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out.splitlines()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(binary, runs, workloads, seconds):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = workloads or [w["name"] for w in spec["workloads"]]
    flagged = []
    summary = {}
    for wl in names:
        values = {m: [] for m in bounds}
        for seed in range(1, runs + 1):
            code, lines = run_once(binary, wl, seed, seconds, 0)
            if code != 0 or not lines:
                log(f"{wl} seed {seed}: exit {code}")
                flagged.append(f"{wl}: run failed")
                continue
            metrics = json.loads(lines[-1])["metrics"]
            for name, m in metrics.items():
                values[name].append(m["value"])
            print(f"  {wl} seed {seed}: " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in metrics.items()),
                flush=True)
        print(f"\n{wl}: {runs} runs, seeds 1..{runs}")
        print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        summary[wl] = {}
        for name, vals in values.items():
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if spread > bounds[name]:
                flag = "  SPREAD > BOUND"
                flagged.append(f"{wl}/{name}")
            print(f"  {name:26} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bounds[name]:6.3f}{flag}")
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3,
                                 "spread": spread, "bound": bounds[name]}
    print(json.dumps({"steady": summary, "flagged": flagged}))
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N",
                    help="run every workload N times and report spreads")
    ap.add_argument("--workloads", help="comma-separated subset (--steady)")
    args = ap.parse_args()
    if not args.steady and not args.workload:
        ap.error("--workload or --steady is required")

    binary = build()
    seconds = args.seconds or load_spec()["run_seconds"]
    if args.steady:
        subset = args.workloads.split(",") if args.workloads else None
        return steady(binary, args.steady, subset, seconds)
    code, lines = run_once(binary, args.workload, args.seed, seconds,
                           args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
