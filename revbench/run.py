#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 revbench/run.py --workload scan_ingest --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds revbench (and the libraries
under src/ it links) in Release mode into .bench_build/, runs one workload,
passes the report through, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list (a per-layer metric that the chosen
workload does not exercise reads 0). Exits non-zero, without a result line,
when the build or the run fails, and with the binary's code (1) when a
correctness check failed.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("revbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once and builds the revbench target; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to revbench/: run from a full checkout")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "revbench", "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "revbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--inject", default="")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)

    build_dir = os.path.join(ROOT, ".bench_build")
    # Keep the compiler's and the program's scratch files in the checkout.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size,
           "--trace-dir", os.path.join(build_dir, "traces")]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("no result line (exit code %d)" % proc.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    measured = raw["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in measured:
            if measured[name]["unit"] != m["unit"]:
                fail("%s: unit %s, BENCHMARK.json says %s"
                     % (name, measured[name]["unit"], m["unit"]))
            metrics[name] = {"value": measured[name]["value"], "unit": m["unit"]}
        elif args.trace:
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            fail("workload did not report end-to-end metric " + name)
    if args.trace:
        skipped = [m["name"] for m in wanted if m["name"] not in measured]
        if skipped:
            print("not exercised by %s (reported as 0): %s"
                  % (args.workload, ", ".join(skipped)))
    result = {"correct": bool(raw["correct"]) and proc.returncode == 0,
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
