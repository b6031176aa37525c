#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics across seeds.

    python3 perfbench/spread.py --workloads score-hour,serve-replay --seeds 1-10
    python3 perfbench/spread.py --workloads serve-replay --seeds 1-10 --sets 2

Runs perfbench/run.py once per (workload, seed) and prints, for every metric,
the median of the runs and the distance between their first and third
quartiles (statistics.quantiles(values, n=4)) as a share of that median,
next to the metric's bound from BENCHMARK.json. A change to the benchmark is
steady enough when every spread stays under a third of its bound (verdict
"ok"; "WIDE" otherwise). With --sets 2 every workload runs its seeds, and
then every workload runs them again; each metric also gets the change of
its median from the first set to the second, in the metric's worse
direction, against the bound ("holds" or "BREAKS").
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(workload, seeds, seconds, trace):
    """Every seed once; returns ({metric: [values]}, all correct)."""
    values = {}
    ok = True
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=ROOT)
        result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("%s seed %d: %s" % (workload, seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)
    return values, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    workloads = args.workloads.split(",")
    medians = {}  # (workload, metric) -> median of each set
    for n in range(args.sets):
        for workload in workloads:
            values, correct = run_set(workload, seeds_of(args.seeds), seconds,
                                      args.trace)
            ok = ok and correct
            for name, v in values.items():
                med = statistics.median(v)
                medians.setdefault((workload, name), []).append(med)
                q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
                spread = (q[2] - q[0]) / med if med else 0.0
                bound = metrics.get(name, {}).get("bound")
                verdict = ""
                if bound is not None:
                    verdict = "ok" if spread < bound / 3 else "WIDE"
                print("%-16s set %d %-22s median %14.6f  spread %7.4f  bound %s %s"
                      % (workload, n + 1, name, med, spread, bound, verdict),
                      flush=True)
    for (workload, name), meds in medians.items():
        if len(meds) < 2 or name not in metrics:
            continue
        m = metrics[name]
        change = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
        worse = change if m["better"] == "lower" else -change
        print("%-16s %-22s median %g -> %g: %+.4f worse, bound %s %s" % (
            workload, name, meds[0], meds[1], worse, m["bound"],
            "holds" if worse <= m["bound"] else "BREAKS"), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
