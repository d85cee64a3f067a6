#!/usr/bin/env python3
"""Diff BENCH_*.json bench reports against committed baselines.

Usage:
    scripts/bench_compare.py [--baseline-dir bench/baselines]
                             [--tolerance 3.0] [--report PATH]
                             [--fail-on-timing]
                             CANDIDATE.json [CANDIDATE.json ...]

Each candidate report is matched to the baseline file of the same name
under --baseline-dir and compared numeric leaf by numeric leaf. The
reports and the bench binaries that write them (into their working
directory, through bench::Report in bench/bench_common.h):

    BENCH_parallel.json   micro_hotpaths
    BENCH_store.json      table7_store_io
    BENCH_serving.json    table8_serving
    BENCH_serve.json      table9_serve
    BENCH_ann.json        table10_ann

(`recall_at_10` is additionally gated at 0.95 inside table10_ann itself —
a recall drop fails the bench binary before the comparison ever runs.)

Comparison model: CI and developer machines differ wildly, so wall-clock
values are only gated by a generous multiplicative tolerance — a metric
REGRESSES when `candidate > baseline * tolerance` (for metrics where
bigger is worse) or `candidate < baseline / tolerance` (for the
`speedup` / `*_speedup` / `*_reduction` ratio metrics, where bigger is
better). Count metrics (`vectors`, `dim`, `*_fsyncs`) are shape checks
and compared exactly; a mismatch there means the workload changed, not
the machine, so it is STRUCTURAL and always fails the gate. Machine
descriptors (`hardware_concurrency`, thread counts, load-gen sizes) are
reported but never compared.

Ratio metrics are only portable between machines with the same core
count — a 4-core baseline's `parallel_speedup` is unreachable on a
1-core runner no matter how healthy the code is. When the baseline and
candidate reports record different `hardware_concurrency`, every
bigger-is-better comparison is SKIPPED instead of judged.

Exit code: structural problems (shape mismatches, metrics that vanished,
a candidate report that was never produced, a candidate with no baseline
to compare against) always exit 1 — CI blocks on those. Timing/ratio regressions are reported but exit 0 unless
--fail-on-timing is given, so noisy-machine wall-clock drift stays a
trend signal rather than a gate.
"""

import argparse
import json
import os
import sys

# Metric-name suffixes (or exact leaves) where larger is BETTER (ratios
# engineered so the bench passing means the number is high). Everything
# else numeric is a cost (seconds, ns, us) where larger is worse.
BIGGER_IS_BETTER_SUFFIXES = ("_speedup", "_reduction")
BIGGER_IS_BETTER_LEAVES = ("speedup", "qps", "recall_at_10",
                           "multi_thread_share")
# Exact-match shape fields: machine-independent workload descriptors. A
# mismatch is structural (the workload changed), not timing noise.
EXACT_FIELDS = ("vectors", "dim", "synced_fsyncs", "grouped_fsyncs")
# Machine/load descriptors: recorded so humans (and the core-count skip
# below) can interpret the numbers, but never themselves a regression.
MACHINE_FIELDS = ("hardware_concurrency", "threads", "load_threads",
                  "served_facts", "requests", "queries")


def flatten(node, prefix=""):
    """Yields (dotted_path, value) for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in sorted(node.items()):
            yield from flatten(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, list):
        for item in node:
            # Rows are keyed by their "name" field when present, so list
            # order changes don't produce phantom diffs.
            tag = item.get("name") if isinstance(item, dict) else None
            label = f"{prefix}[{tag}]" if tag else f"{prefix}[]"
            yield from flatten(item, label)
    elif isinstance(node, bool):
        return  # bools are config, not metrics
    elif isinstance(node, (int, float)):
        yield prefix, float(node)


def classify(path):
    leaf = path.rsplit(".", 1)[-1]
    if leaf in MACHINE_FIELDS:
        return "machine"
    if leaf in EXACT_FIELDS:
        return "exact"
    if leaf in BIGGER_IS_BETTER_LEAVES or leaf.endswith(
            BIGGER_IS_BETTER_SUFFIXES):
        return "bigger_better"
    return "smaller_better"


def compare(baseline, candidate, tolerance):
    """Returns (rows, structural, timing, skipped) for two reports.

    `structural` counts shape changes and vanished metrics (blocking);
    `timing` counts tolerance-exceeded wall-clock/ratio drifts (advisory);
    `skipped` counts bigger-is-better comparisons not judged because the
    baseline and candidate machines have different core counts.
    """
    base = dict(flatten(baseline))
    cand = dict(flatten(candidate))
    same_cores = base.get("hardware_concurrency") == cand.get(
        "hardware_concurrency")
    rows = []
    structural = 0
    timing = 0
    skipped = 0
    for path in sorted(set(base) | set(cand)):
        if path not in base:
            rows.append((path, None, cand[path], "NEW"))
            continue
        kind = classify(path)
        if path not in cand:
            if kind == "machine":
                rows.append((path, base[path], None, "machine"))
            else:
                rows.append((path, base[path], None, "MISSING"))
                structural += 1
            continue
        b, c = base[path], cand[path]
        verdict = "ok"
        if kind == "machine":
            verdict = "machine"
        elif kind == "exact":
            if b != c:
                verdict = "SHAPE-CHANGED"
                structural += 1
        elif kind == "bigger_better":
            if not same_cores:
                verdict = "skipped (cores differ)"
                skipped += 1
            elif b > 0 and c < b / tolerance:
                verdict = "REGRESSED"
                timing += 1
        else:
            if b > 0 and c > b * tolerance:
                verdict = "REGRESSED"
                timing += 1
        rows.append((path, b, c, verdict))
    return rows, structural, timing, skipped


def render(name, rows):
    lines = [f"== {name} =="]
    width = max((len(r[0]) for r in rows), default=20)
    for path, b, c, verdict in rows:
        fb = "-" if b is None else f"{b:.6g}"
        fc = "-" if c is None else f"{c:.6g}"
        ratio = ""
        if b and c and b > 0:
            ratio = f" ({c / b:.2f}x)"
        marker = ("" if verdict in ("ok", "NEW", "machine",
                                    "skipped (cores differ)")
                  else "  <<< ")
        lines.append(
            f"  {path:<{width}}  base={fb:>12}  now={fc:>12}{ratio}"
            f"  {verdict}{marker}")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(
        description="Compare BENCH_*.json against committed baselines")
    parser.add_argument("candidates", nargs="+",
                        help="candidate BENCH_*.json files")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--tolerance", type=float, default=3.0,
                        help="multiplicative slack for timing metrics "
                             "(default 3.0; CI machines are noisy)")
    parser.add_argument("--report", default=None,
                        help="also write the rendered comparison here")
    parser.add_argument("--fail-on-timing", action="store_true",
                        help="also exit nonzero on tolerance-exceeded "
                             "timing drift (default: structural only)")
    args = parser.parse_args()

    chunks = []
    total_structural = 0
    total_timing = 0
    total_skipped = 0
    for candidate_path in args.candidates:
        name = os.path.basename(candidate_path)
        baseline_path = os.path.join(args.baseline_dir, name)
        if not os.path.exists(candidate_path):
            chunks.append(f"== {name} ==\n  candidate missing "
                          f"({candidate_path}) — bench did not run?")
            total_structural += 1
            continue
        with open(candidate_path) as f:
            candidate = json.load(f)
        if not os.path.exists(baseline_path):
            # A report nothing compares would pass silently forever.
            chunks.append(f"== {name} ==\n  no baseline at {baseline_path} "
                          "— commit one to start tracking")
            total_structural += 1
            continue
        with open(baseline_path) as f:
            baseline = json.load(f)
        rows, structural, timing, skipped = compare(baseline, candidate,
                                                    args.tolerance)
        total_structural += structural
        total_timing += timing
        total_skipped += skipped
        chunks.append(render(name, rows))

    report = "\n\n".join(chunks)
    timing_note = (", blocking via --fail-on-timing"
                   if args.fail_on_timing else "")
    report += (f"\n\ntolerance: {args.tolerance}x, "
               f"structural: {total_structural} (blocking), "
               f"timing: {total_timing} (advisory{timing_note})\n")
    if total_skipped:
        # One unmissable line: silence must never read as coverage.
        report += (f"skipped: {total_skipped} bigger-is-better ratio "
                   "comparison(s) not judged (baseline and candidate "
                   "core counts differ)\n")
    print(report)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report)
    if total_structural:
        return 1
    if args.fail_on_timing and total_timing:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
