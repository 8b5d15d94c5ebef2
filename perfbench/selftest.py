#!/usr/bin/env python3
"""Short-mode self-test of the perfbench benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload at tiny size, timed (--trace 0) and traced
(--trace 1), and checks that
  * each run is correct, with nothing failed, and prints exactly the
    end-to-end or per-layer metric names, each with its unit;
  * the timed and the traced run report the same results digest;
  * serve sheds nothing under the `block` overload policy;
  * BENCHMARK.json lists exactly these workloads and metric names;
  * the benchmark exits non-zero, printing no result, when the checkout
    holds nothing but BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True
import run as bench  # noqa: E402

ROOT = os.getcwd()
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def parse(proc):
    """(detail, result) from a run's stdout, or (None, None)."""
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or \
            not lines[-2].startswith("detail "):
        sys.stderr.write(proc.stderr[-2000:])
        return None, None
    return json.loads(lines[-2][len("detail "):]), json.loads(lines[-1])


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
          "BENCHMARK.json workloads are " + ", ".join(bench.WORKLOADS))
    for key, names in (("end_to_end", bench.END_TO_END),
                       ("per_layer", bench.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        check(listed == list(names),
              "BENCHMARK.json %s lists the benchmark's metrics" % key)


def check_workload(workload):
    digests = {}
    for trace, names in ((0, bench.END_TO_END), (1, bench.PER_LAYER)):
        detail, result = parse(run_bench(workload, trace))
        what = "%s --trace %d" % (workload, trace)
        check(result is not None, what + " prints a result")
        if result is None:
            continue
        check(result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1, what + " is correct")
        printed = [(n, m["unit"]) for n, m in result["metrics"].items()]
        check(sorted(printed) == sorted(names),
              what + " prints every metric with its unit")
        digests[trace] = detail.get("digest")
        if workload == "serve_jsonl":
            check(detail.get("shed") == 0, what + " sheds nothing")
    check(digests.get(0) is not None and digests.get(0) == digests.get(1),
          workload + " timed and traced digests agree")


def check_bare_checkout():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_fig7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "a checkout without sources exits non-zero with no result")


def main():
    check_benchmark_json()
    for workload in bench.WORKLOADS:
        check_workload(workload)
    check_bare_checkout()
    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
