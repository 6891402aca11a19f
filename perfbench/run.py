#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload ttcp_bulk --seed 1 --trace 0
    python3 perfbench/run.py --self-test

The first call builds the simulator from ../src and the benchmark into
.bench_build/perfbench (RelWithDebInfo, like the repository's default).
--seconds defaults to BENCHMARK.json's run_seconds, the length the
bounds were set for. The last line of standard output is the result
object; build output goes to standard error. --self-test runs every
workload at minimal length, untraced and traced, and checks the result
lines against BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("ttcp_bulk", "ttcp_small", "flow_churn")
# Seed whose first-repetition record stream digests.json pins.
DEFAULT_SEED = 1
# Host seconds a run may take beyond its measuring time.
SLACK_SECONDS = 100


def run_seconds():
    """The measuring time BENCHMARK.json fixes for one run."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def build():
    """Configure once, then build incrementally; output to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_once(workload, seed, seconds, trace, capture=False):
    """Run the benchmark binary; returns its stdout when capturing."""
    work = ROOT / ".bench_build" / f"work-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)]
    if trace:
        cmd += ["--span-file",
                str(ROOT / ".bench_build" / f"spans-{workload}.jsonl")]
    digests = json.loads((HERE / "digests.json").read_text())
    if seed == DEFAULT_SEED and workload in digests:
        cmd += ["--expect-digest", digests[workload]]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE if capture else None, text=True,
            timeout=seconds + SLACK_SECONDS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench exited with {proc.returncode}")
    return proc.stdout


def self_test():
    """Every workload at minimal length: names, units, parse, agreement."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise SystemExit("self-test: BENCHMARK.json workloads differ")
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run_once(workload, DEFAULT_SEED, 0, trace, capture=True)
            result = json.loads(out.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit(f"self-test: bad keys {sorted(result)}")
            units = {m["name"]: m["unit"] for m in wanted[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                raise SystemExit(
                    f"self-test: {workload} trace={trace} metrics differ: "
                    f"{sorted(set(got.items()) ^ set(units.items()))}")
            # A traced record that differs from the untraced one counts
            # as a failed point, so failed == 0 means they agree.
            if not result["correct"] or result["failed"] != 0:
                raise SystemExit(f"self-test: {workload} trace={trace} "
                                 f"failed: {result}")
            print(f"self-test: {workload} trace={trace} ok "
                  f"({result['attempted']} points)")
    print("self-test OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise SystemExit("perfbench: simulator sources (src/) not found")
    build()
    if args.self_test:
        self_test()
    else:
        run_once(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
