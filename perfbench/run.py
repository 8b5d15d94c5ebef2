#!/usr/bin/env python3
"""perfbench: the jpm simulator's end-to-end benchmark (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_fig7 --seed 1 --seconds 10 --trace 0

It builds the `jpm` CLI and the `jpmbench` driver from the checkout's
sources (into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench),
runs one workload, checks the simulated results against their expected
digest, and prints one JSON object as the last line of standard output:
the end-to-end metrics with --trace 0, the per-layer split with --trace 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS_FILE = os.path.join(BENCH_DIR, "expected_digests.json")

WORKLOADS = ("sweep_fig7", "replay_writes", "serve_jsonl")

# (name, unit) of every metric a run prints; BENCHMARK.json lists the same.
END_TO_END = (
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_energy_pct", "%"),
    ("sim_energy_kj", "kJ"),
)
PER_LAYER = (
    ("spec.load_s", "s"),
    ("workload.synth_s", "s"),
    ("workload.synth_events_per_s", "1/s"),
    ("sim.replay_s.joint", "s"),
    ("sim.replay_s.fixed", "s"),
    ("sim.replay_s.bank", "s"),
    ("sim.replay_events_per_s.joint", "1/s"),
    ("sim.replay_events_per_s.fixed", "1/s"),
    ("sim.replay_events_per_s.bank", "1/s"),
    ("util.parallel_efficiency", "ratio"),
    ("tracefile.encode_s", "s"),
    ("tracefile.decode_s", "s"),
    ("tracefile.decode_events_per_s", "1/s"),
    ("sim.begin_s", "s"),
    ("sim.push_s", "s"),
    ("sim.push_events_per_s", "1/s"),
    ("sim.boundary_s", "s"),
    ("sim.boundary_ms_p50", "ms"),
    ("sim.boundaries", "count"),
    ("sim.finish_s", "s"),
    ("sim.disk_writes", "count"),
    ("stream.decode_s", "s"),
    ("stream.decode_events_per_s", "1/s"),
    ("stream.offer_s", "s"),
    ("stream.blocked_s", "s"),
    ("stream.pump_s", "s"),
    ("stream.pumps", "count"),
    ("stream.events_per_pump", "count"),
    ("stream.max_occupancy", "count"),
    ("cli.serve_overhead_s", "s"),
    ("trace_overhead_pct", "%"),
)

# Every child process gets this long; a run must end within 180 s.
CHILD_TIMEOUT_S = 170


class BuildError(Exception):
    """The checkout cannot be built: no result is printed."""


class BenchError(Exception):
    """A workload run failed: the result says so."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(root, jobs):
    for needed in ("src/CMakeLists.txt", "scenarios/fig7_dataset.json",
                   "scenarios/serve_demo.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            raise BuildError("missing %s: run from the root of a jpm checkout"
                             % needed)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs),
                    "--target", "jpmbench", "jpm"],
                   stdout=sys.stderr, check=True)
    work = os.path.join(build_dir, "work")
    os.makedirs(work, exist_ok=True)
    return os.path.join(build_dir, "jpmbench"), \
        os.path.join(build_dir, "jpm", "jpm"), work


class Bench:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.threads = len(os.sched_getaffinity(0))
        self.jpmbench, self.jpm, self.work = build(root, self.threads)
        self.size = "tiny" if args.tiny else "full"
        with open(DIGESTS_FILE) as f:
            self.digests = json.load(f)
        self.seed_key = "default" if args.seed is None else str(args.seed)
        self.detail = {"workload": args.workload, "seed": self.seed_key,
                       "size": self.size}
        self.reference = None

    def expected_digest(self):
        return self.digests.get(self.size, {}).get(
            self.args.workload, {}).get(self.seed_key)

    def record_digest(self, digest):
        table = self.digests.setdefault(self.size, {}).setdefault(
            self.args.workload, {})
        table[self.seed_key] = digest
        with open(DIGESTS_FILE, "w") as f:
            json.dump(self.digests, f, indent=2, sort_keys=True)
            f.write("\n")
        log("recorded %s/%s/%s = %s" % (self.size, self.args.workload,
                                        self.seed_key, digest))

    def run_jpmbench(self, mode, *extra, seconds=None):
        out = os.path.join(self.work, mode + ".out.json")
        if os.path.exists(out):
            os.remove(out)
        if seconds is None:
            seconds = self.args.seconds
        cmd = [self.jpmbench, mode, "--root", self.root, "--work", self.work,
               "--out", out, "--seconds", str(seconds)]
        if self.args.seed is not None:
            cmd += ["--seed", str(self.args.seed)]
        if self.args.tiny:
            cmd.append("--tiny")
        cmd += list(extra)
        env = dict(os.environ, JPM_THREADS=str(self.threads))
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("%s exited with %d" % (mode, proc.returncode))
        with open(out) as f:
            return json.load(f)

    # The digest every run of this seed must reproduce: the checked-in one
    # when there is one, else the independently computed reference.
    def check_digest(self, reference):
        expected = self.expected_digest()
        if reference is not None and expected is not None \
                and reference != expected:
            raise BenchError("reference digest %s != expected %s"
                             % (reference, expected))
        self.reference = reference
        return expected if expected is not None else reference

    # ---- timed runs (--trace 0) --------------------------------------------

    def timed_inprocess(self, mode):
        need_reference = self.expected_digest() is None or self.args.record
        res = self.run_jpmbench(mode, *(["--reference"] if need_reference
                                        else []))
        expected = self.check_digest(res.get("reference_digest"))
        reps = res["reps"]
        failed = sum(1 for r in reps if r["digest"] != expected)
        self.detail.update(digest=reps[0]["digest"], expected=expected,
                           reps=len(reps), threads=res.get("threads", 1))
        rates = [r["events"] / r["wall_s"] for r in reps]
        metrics = dict(res["sim"])
        metrics.update(events_per_s=statistics.median(rates),
                       setup_s=statistics.median(res["setup_s"]),
                       peak_rss_mb=res["peak_rss_mb"])
        return len(reps), failed, metrics

    def serve_setup(self):
        setup = self.run_jpmbench("serve-setup")
        return setup, self.check_digest(setup["reference_digest"])

    def timed_serve(self):
        setup, expected = self.serve_setup()
        run = self.run_jpmbench("serve-run", "--jpm", self.jpm)
        events = setup["events"]
        attempted = failed = shed = 0
        rates = []
        for rep in run["reps"]:
            attempted += events
            if not rep["ok"] or rep["digest"] != expected:
                failed += events
                continue
            failed += events - int(rep["events_processed"])
            shed += int(rep["shed"])
            rates.append(rep["events_processed"] / rep["wall_s"])
        reps = run["reps"]
        self.detail.update(digest=reps[0].get("digest"), expected=expected,
                           reps=len(reps), shed=shed)
        metrics = dict(setup["sim"])
        metrics.update(
            events_per_s=statistics.median(rates) if rates else 0.0,
            setup_s=statistics.median(setup["setup_s"]),
            peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in reps))
        return attempted, failed, metrics

    # ---- traced runs (--trace 1) ---------------------------------------------

    def traced_inprocess(self, mode):
        res = self.run_jpmbench(mode, "--trace")
        expected = self.expected_digest()
        ok = res["trace_digests_agree"] and \
            (expected is None or res["digest"] == expected)
        self.detail.update(digest=res["digest"], expected=expected,
                           trace_digests_agree=res["trace_digests_agree"])
        return 1, 0 if ok else 1, res["layers"]

    def traced_serve(self):
        setup, expected = self.serve_setup()
        served = self.run_jpmbench("serve-run", "--jpm", self.jpm,
                                   seconds=0)["reps"][0]
        res = self.run_jpmbench("serve-trace", "--expect", expected)
        ok = served["ok"] and served["digest"] == expected and \
            res["trace_digests_agree"] and res["shed_or_undecodable"] == 0
        layers = res["layers"]
        layers["cli.serve_overhead_s"] = \
            served["wall_s"] - res["traced_total_s"]
        self.detail.update(digest=served.get("digest"), expected=expected,
                           trace_digests_agree=res["trace_digests_agree"],
                           shed=res["shed_or_undecodable"])
        return 1, 0 if ok else 1, layers

    def run(self):
        wl = self.args.workload
        serve = wl == "serve_jsonl"
        mode = "sweep" if wl == "sweep_fig7" else "replay"
        if self.args.trace:
            attempted, failed, values = self.traced_serve() if serve \
                else self.traced_inprocess(mode)
            names = PER_LAYER
        else:
            attempted, failed, values = self.timed_serve() if serve \
                else self.timed_inprocess(mode)
            names = END_TO_END
        if self.args.record:
            if failed or self.reference is None:
                raise BenchError("nothing to record: the run failed or has "
                                 "no reference digest")
            self.record_digest(self.reference)
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit in names}
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the scenario's own)")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the self-test")
    p.add_argument("--record", action="store_true",
                   help="store this seed's reference digest as expected")
    args = p.parse_args()
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be nonnegative")

    try:
        bench = Bench(args, os.getcwd())
    except (BuildError, subprocess.SubprocessError, OSError) as e:
        log("error: %s" % e)
        return 1
    try:
        result = bench.run()
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log("error: %s" % e)
        names = PER_LAYER if args.trace else END_TO_END
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {name: {"value": 0.0, "unit": unit}
                              for name, unit in names}}
    print("detail " + json.dumps(bench.detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
