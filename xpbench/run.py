#!/usr/bin/env python3
"""Repo benchmark: build the engine and the xpbench program from source,
run one workload for a fixed time, and print its metrics.

    python3 xpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each repetition is one xpbench process
(set-up, the measured phases, the correctness checks) on the same seeded
inputs, and every metric is the median over repetitions. --seconds sets
how many repetitions run: seconds / REP_SECONDS[workload] (the length of
one repetition on a 4-core host), at least MIN_REPS. The count is fixed
rather than filled up to a deadline so that one seed always attempts the
same ops and, since every check is deterministic, fails the same ones.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics, the per-layer
span table and trace.overhead_frac.

A repetition that dies without a result (an engine assert, a signal, a
hang past its time limit) or whose result lacks a metric named in
BENCHMARK.json counts all of its planned ops as failed. A
failed exact-sum or oracle check sets "correct": false and the exit code
to 1. The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Host seconds of one untraced repetition on a 4-core host.
REP_SECONDS = {"analytics": 6.0, "churn_recover": 3.4}
MIN_REPS = 3
# Host totals of whole phases and the latency tails. The host's speed
# drifts by a fifth within minutes (bursts of hypervisor CPU steal),
# which moves them by up to a quarter between runs, so they are per-layer
# metrics without a bound; the untraced run still prints them.
HOST_TOTALS = ("ingest_host_eps", "churn_host_ops_per_s", "write_p99_us",
               "read_p99_us", "query_host_s", "recovery_host_s")
RUN_LIMIT_S = 165  # the whole run, build excluded, must end by then


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build xpbench under .bench_build; return its path."""
    build_dir = os.path.join(os.getcwd(), ".bench_build", "xpbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build_dir, "-j", jobs,
                 "--target", "xpbench"]):
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            raise SystemExit("xpbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "xpbench")


def run_rep(binary, args, trace, index, limit_s):
    """One repetition. Returns (result dict or None, planned ops, rc)."""
    run_dir = os.path.join(os.getcwd(), ".bench_run",
                           "%s-%d-%d" % (args.workload, args.seed, index))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--run-dir", run_dir, "--trace", "1" if trace else "0",
           "--scale-delta", str(args.scale_delta)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             timeout=limit_s)
        out, err, rc = res.stdout, res.stderr, res.returncode
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (
            exc.stdout or "")
        err, rc = "timed out after %ds" % limit_s, -9
    planned, result, table = 0, None, []
    for line in out.splitlines():
        if line.startswith("PLAN "):
            planned = int(line.split()[1])
        elif line.startswith("{"):
            result = json.loads(line)
        elif result is None and line.strip():
            table.append(line)
    for line in err.splitlines():
        log("  " + line)
    if trace and result is not None:
        spans = os.path.join(run_dir, "spans.json")
        if os.path.exists(spans):
            shutil.copy(spans, os.path.join(
                os.path.dirname(run_dir),
                "spans-%s-%d.json" % (args.workload, args.seed)))
        result["table"] = table
    shutil.rmtree(run_dir, ignore_errors=True)
    return result, planned, rc


def expected_metrics():
    """End-to-end and per-layer metric names a repetition must report."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"})


def median_metrics(results, key):
    names = list(results[0][key].keys())
    out = {}
    for name in names:
        unit = results[0][key][name][1]
        out[name] = {"value": float(statistics.median(
            r[key][name][0] for r in results)), "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(REP_SECONDS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Shrinks every dataset by 2^k (smoke tests only).
    ap.add_argument("--scale-delta", type=int, default=0)
    args = ap.parse_args()

    want_e2e, want_layer = expected_metrics()
    binary = build()
    reps = max(MIN_REPS, round(args.seconds / REP_SECONDS[args.workload]))
    if args.trace:
        reps += reps % 2  # untraced and traced in pairs
    start = time.monotonic()
    untraced, traced = [], []
    attempted = failed = 0
    correct = True
    aborted = 0
    longest = 0.0
    for index in range(reps):
        if time.monotonic() + longest - start > RUN_LIMIT_S - 5:
            log("xpbench: run limit reached after %d of %d repetitions"
                % (index, reps))
            break
        trace = bool(args.trace) and len(untraced) > len(traced)
        t0 = time.monotonic()
        # A repetition still running at the run limit is a hang.
        limit = max(5, int(RUN_LIMIT_S - (t0 - start)))
        result, planned, rc = run_rep(binary, args, trace, index, limit)
        longest = max(longest, time.monotonic() - t0)
        if result is not None and not (want_e2e <= set(result["e2e"]) and
                                       want_layer <= set(result["layer"])):
            log("xpbench: repetition %d reported incomplete metrics"
                % (index + 1))
            result = None
        if result is None:
            # Aborted: every op of the repetition counts as failed.
            aborted += 1
            attempted += max(planned, 1)
            failed += max(planned, 1)
            log("xpbench: repetition %d aborted (exit %d); %d ops failed"
                % (index + 1, rc, planned))
            if aborted > MIN_REPS:
                break
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"] and rc == 0
        (traced if trace else untraced).append(result)

    if not untraced or (args.trace and not traced):
        raise SystemExit("xpbench: no repetition produced a result")

    if args.trace:
        metrics = median_metrics(traced, "layer")
        t_on = statistics.median(r["timed_host_s"] for r in traced)
        t_off = statistics.median(r["timed_host_s"] for r in untraced)
        metrics["trace.overhead_frac"] = {"value": t_on / t_off - 1.0,
                                          "unit": "ratio"}
        for line in traced[-1]["table"]:
            print(line)
    else:
        metrics = median_metrics(untraced, "e2e")
        layer = median_metrics(untraced, "layer")
        print("p50/p99 samples per repetition: %d writes, %d reads"
              % (layer["churn.write_samples"]["value"],
                 layer["churn.read_samples"]["value"]))
        print("host totals (per-layer, no bound):")
        for name in HOST_TOTALS:
            print("  %-40s %18.6f %s" % (name, layer[name]["value"],
                                         layer[name]["unit"]))

    print("workload %s seed %d: %d repetitions (%d traced, %d aborted), "
          "medians" % (args.workload, args.seed, len(untraced) + len(traced),
                       len(traced), aborted))
    for name, m in metrics.items():
        print("  %-40s %18.6f %s" % (name, m["value"], m["unit"]))
    print("  ops_attempted %d" % attempted)
    print("  ops_failed %d" % failed)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
