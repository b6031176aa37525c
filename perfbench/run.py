#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of netsample (see perfbench/README.md).

    python3 perfbench/run.py --workload score-hour --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root. Builds the library and the benchmark from
source into .perfbench/build (Release), runs the benchmark's self-test, then
runs the workload. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Exit status: 0 when every
op's output matched its reference, 1 when any did not, 2 when the benchmark
could not be built or run.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
BUILD = os.path.join(STATE, "build")
WORK = os.path.join(STATE, "work")
BINARY = os.path.join(BUILD, "perfbench_e2e")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
WORKLOADS = ["score-hour", "sweep-ladder", "workers-ladder", "serve-replay"]
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def call(cmd):
    """Run a build step with its output on stderr; die when it fails."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        die("'%s' exited %d" % (" ".join(cmd), proc.returncode))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no library sources at %s; run from a full checkout"
            % os.path.join(ROOT, "src"))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                subprocess.run(["rm", "-rf", BUILD], check=True)
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["which", "ninja"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0:
            cmd += ["-G", "Ninja"]
        call(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    call(["cmake", "--build", BUILD, "--target", "perfbench_e2e",
          "perfbench_selftest", "-j", jobs])
    call([SELFTEST])


def run_one(workload, seed, seconds, trace, echo):
    """Run one workload; returns (exit code, its JSON line, parsed)."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", WORK]
    # Own session, so a timeout can stop the daemon and workers it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = out.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        print(out, file=sys.stderr)
        die("%s printed no result (exit %d)" % (workload, proc.returncode))
    return proc.returncode, lines[-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    if args.workload != "all":
        code, line, _ = run_one(args.workload, args.seed, args.seconds,
                                args.trace, echo=True)
        print(line)
        sys.exit(code)

    # Every workload in turn; one table of every metric by name and unit.
    worst = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for w in WORKLOADS:
        code, _, result = run_one(w, args.seed, args.seconds, args.trace,
                                  echo=False)
        worst = max(worst, code)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][w + "." + name] = m
            rows.append((w, name, m["value"], m["unit"]))
        rows.append((w, "failed_share",
                     result["failed"] / max(1, result["attempted"]), "ratio"))
    for w, name, value, unit in rows:
        print("%-16s %-22s %16.6f %s" % (w, name, value, unit))
    print(json.dumps(total))
    sys.exit(worst)


if __name__ == "__main__":
    main()
