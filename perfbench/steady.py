#!/usr/bin/env python3
"""Steadiness check for the benchmark: run workloads repeatedly, report spreads.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                [--save FILE] [--against FILE] [--counts]

Each workload runs once per seed (first-seed, first-seed+1, ...) through
run.py with --trace 0. For every end-to-end metric the report gives the
median, the quartiles (statistics.quantiles with n=4) and the distance
between them as a share of the median, beside the metric's bound in
BENCHMARK.json. A spread of a third of the bound or more is marked WIDE
(setup_s is reported but not judged: its bound limits drift between
medians, not spread). --save writes the raw values as JSON; --against
compares the medians with a saved set and marks each metric whose median
is worse by more than its bound. --counts instead runs each workload
traced twice on one seed and requires every sim.* count to repeat
exactly. The exit status is 1 if a run fails, an output is wrong, or a
check is not met.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WALL = []  # wall seconds of every run, build included


def bench_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    WALL.append(time.time() - t0)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, out.returncode))
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit("%s seed %d: correct=%s failed=%d" % (workload, seed, res["correct"], res["failed"]))
    return {k: v["value"] for k, v in res["metrics"].items()}


def worse(metric, new, old):
    """How much worse new is than old, as a share of old."""
    return (old - new) / old if metric["better"] == "higher" else (new - old) / old


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--save")
    ap.add_argument("--against")
    ap.add_argument("--counts", action="store_true")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True

    if args.counts:
        for w in names:
            a, b = (bench_run(w, args.first_seed, args.seconds, 1) for _ in range(2))
            counts = sorted(k for k in a if k.startswith("sim.") and "ns_per_ref" not in k and "_ms" not in k)
            differ = [k for k in counts if a[k] != b[k]]
            print("%-16s %d sim.* counts, %s" % (w, len(counts), "differ: %s" % differ if differ else "identical"))
            ok = ok and not differ
        return 0 if ok else 1

    saved = {}
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)
    values = {}
    for w in names:
        del WALL[:]
        runs = [bench_run(w, args.first_seed + i, args.seconds, 0) for i in range(args.runs)]
        values[w] = {m["name"]: [r[m["name"]] for r in runs] for m in bench["end_to_end"]}
        print("%s (%d runs, %.1f s each on average)" % (w, args.runs, statistics.mean(WALL)))
        print("  %-18s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in bench["end_to_end"]:
            xs = values[w][m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            mark = ""
            if m["name"] != "setup_s" and spread >= m["bound"] / 3:
                mark, ok = "WIDE", False
            if w in saved:
                drift = worse(m, med, statistics.median(saved[w][m["name"]]))
                mark += " drift %+.3f" % drift
                if drift > m["bound"]:
                    mark, ok = mark + " WORSE", False
            print("  %-18s %14.6g %14.6g %14.6g %8.4f %6.3f %s" % (m["name"], med, q1, q3, spread, m["bound"], mark))
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
