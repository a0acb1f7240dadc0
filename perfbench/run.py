#!/usr/bin/env python3
"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the C++ driver (perfbench/, a CMake
project over the repository's libraries) in Release into
.bench_build/perfbench, runs the arithmetic self-test, then runs one
workload. --self-test instead runs the whole self-test, which adds the
open-loop generator against a server that stalls. Prints the workload's context lines, a fingerprint line, a table
of every metric it measured, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1). A per-layer metric of a layer that does no
work on the workload is reported as 0. Exits nonzero without a result when
the build, the self-test or the workload fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cluster_paper", "fleet_geo", "fleet_fluid", "live_open_loop")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(command, timeout):
    """Runs a build step with its output on stderr; fails the benchmark on error."""
    try:
        subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        fail(f"{' '.join(command[:2])} failed: {error}")


def build(self_test_args=()):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
              BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)
    run_quiet([os.path.join(BUILD, "perfbench_selftest"), *self_test_args], 60)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")


def select_metrics(measured, wanted, fill_missing):
    """The metrics BENCHMARK.json names, in its order."""
    selected = {}
    for entry in wanted:
        name = entry["name"]
        if name in measured:
            selected[name] = measured[name]
        elif fill_missing:
            selected[name] = {"value": 0.0, "unit": entry["unit"]}
        else:
            fail(f"workload did not measure end-to-end metric {name}")
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run only the self-test, including "
                             "the generator against a stalled server")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    spec = load_spec()
    build(("--loopback",) if args.self_test else ())
    if args.self_test:
        return

    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", os.path.join(BUILD, "work")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    raw = json.loads(lines[-1])
    measured = raw["metrics"]

    for line in lines[:-1]:
        print(line)
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"# error_rate: {failed / max(attempted, 1):.6g} "
          f"({failed} failed of {attempted} attempted)")
    width = max(len(name) for name in measured)
    for name, metric in measured.items():
        print(f"# {name:<{width}}  {metric['value']:.6g} {metric['unit']}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": raw["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": select_metrics(measured, wanted, fill_missing=bool(args.trace)),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
