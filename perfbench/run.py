#!/usr/bin/env python3
"""Runs one stedb benchmark workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds perfbench/ (CMake, Release)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, checks the
benchmark's own arithmetic (perfbench_selftest), runs the workload and
prints, as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The full report (run descriptors,
operations by kind, failed checks, sample counts) is written to
.bench_out/<workload>.report.json and summarized on stderr; a traced run
also writes its spans to .bench_out/<workload>.spans.tsv.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no stedb sources (src/) next to perfbench/")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("no BENCHMARK.json at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    build(build_dir)
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")])
    if selftest.returncode != 0:
        fail("selftest failed")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, args.workload + ".report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    try:
        done = subprocess.run(
            [os.path.join(build_dir, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", out_dir],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish in %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0 or not os.path.exists(report_path):
        fail("workload exited with code %d" % done.returncode)
    with open(report_path) as f:
        report = json.load(f)

    report["descriptors"]["git_sha"] = git_sha()
    report["descriptors"]["source_digest"] = source_digest()
    report["descriptors"]["trace"] = str(args.trace)
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    section, values = ("per_layer", report["per_layer"]) if args.trace \
        else ("end_to_end", report["end_to_end"])
    problems = ["%s: %s" % (c["name"], c["detail"])
                for c in report["failed_checks"]]
    metrics = {}
    for m in spec[section]:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            problems.append("metric %s missing" % m["name"])
            continue
        if section == "end_to_end" and value == 0:
            problems.append("metric %s is 0" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = sum(op["attempted"] for op in report["ops"].values())
    failed = sum(op["failed"] for op in report["ops"].values())

    desc = report["descriptors"]
    print("perfbench %s seed=%s trace=%d nproc=%s threads=%s simd=%s "
          "flush=%s rate=%s served=%s arrivals=%s git=%s src=%s" % (
              args.workload, desc["seed"], args.trace, desc["nproc"],
              desc["threads"], desc["simd"], desc["flush_policy"],
              desc["arrival_rate_per_s"], desc["served_facts"],
              desc["arrivals"], desc["git_sha"][:12],
              desc["source_digest"]), file=sys.stderr)
    for name, op in sorted(report["ops"].items()):
        print("  ops %-18s attempted %9d  failed %d" % (
            name, op["attempted"], op["failed"]), file=sys.stderr)
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]),
              file=sys.stderr)
    for p in problems:
        print("  CHECK FAILED " + p, file=sys.stderr)

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
