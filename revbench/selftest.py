#!/usr/bin/env python3
"""Tests for the benchmark itself, at a tiny input size.

    python3 revbench/selftest.py

For every workload in BENCHMARK.json it checks that:
  - an untraced run prints every end-to-end metric, by name and with its
    unit, in the report and in the JSON result line, and exits 0 exactly
    when its result reads "correct": true;
  - a traced run prints every per-layer metric with its unit;
  - a deliberately wrong answer (--inject wrong) trips the correctness
    check: the run exits non-zero, reports "correct": false, and counts
    more failures than the same run without it.
Whether the program under test is correct is the benchmark's verdict, not
this test's: a workload whose clean run fails its check is listed as such.
It runs crl_crawl with bit-flipped CRL bodies (--inject corrupt) and says
whether the crawler's known defect still shows. It also checks that run.py
fails without a result line in a directory that
holds only BENCHMARK.json and revbench/. Exits 1 if any check fails.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "revbench", "run.py")] + args,
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", workload, "--seed", "2", "--seconds", "2",
                "--size", "tiny"]
        proc, result = run(base + ["--trace", "0"])
        check(result is not None and
              (proc.returncode == 0) == bool(result["correct"]),
              "%s: tiny run prints a result and exits 0 iff correct" % workload)
        clean_failed = (result or {}).get("failed", 0)
        if result is not None and not result["correct"]:
            print("info  %s: the clean run fails its correctness check "
                  "(%d failed)" % (workload, clean_failed))
        for m in spec["end_to_end"]:
            got = (result or {}).get("metrics", {}).get(m["name"])
            check(got is not None and got["unit"] == m["unit"] and
                  isinstance(got["value"], (int, float)) and got["value"] > 0,
                  "%s: result has %s > 0 in %s" % (workload, m["name"], m["unit"]))
            check(any(line.split()[:1] == [m["name"]] and
                      line.rstrip().endswith(" " + m["unit"])
                      for line in proc.stdout.split("\n")),
                  "%s: report prints %s with its unit" % (workload, m["name"]))

        proc, result = run(base + ["--trace", "1"])
        check(result is not None,
              "%s: traced tiny run prints a result" % workload)
        names = set((result or {}).get("metrics", {}))
        check(names == {m["name"] for m in spec["per_layer"]},
              "%s: traced result has exactly the per-layer metrics" % workload)

        proc, result = run(base + ["--trace", "0", "--inject", "wrong"])
        check(proc.returncode != 0 and result is not None and
              not result["correct"] and result["failed"] > clean_failed,
              "%s: an injected wrong answer fails the correctness check"
              % workload)

    # crl_crawl's known defect (README): bit-flipped CRL bodies that still
    # parse reach the crawler's database. --inject corrupt adds them back.
    proc, result = run(["--workload", "crl_crawl", "--seed", "1", "--seconds",
                        "2", "--size", "tiny", "--trace", "0", "--inject",
                        "corrupt"])
    check(result is not None and
          (proc.returncode == 0) == bool(result["correct"]),
          "crl_crawl: --inject corrupt prints a result and exits 0 iff correct")
    if result is not None:
        print("info  crl_crawl: " + (
            "bit-flipped CRL bodies put %d unsound entries in the database"
            % result["failed"] if not result["correct"] else
            "bit-flipped CRL bodies no longer reach the database; put the "
            "bit-flip rule back in the fault plan"))

    # A directory holding only BENCHMARK.json and revbench/ cannot build.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "revbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run(["--workload", spec["workloads"][0]["name"], "--seed",
                        "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and result is None,
          "bare directory: run.py exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
