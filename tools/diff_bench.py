#!/usr/bin/env python3
"""Diff two bench_micro JSON outputs (Google Benchmark format).

    tools/diff_bench.py BASELINE.json CURRENT.json [--key REGEX]

Prints a table of real-time ratios (current / baseline) for every
benchmark present in both files, highlighting the key benchmarks the
perf trajectory tracks (end-to-end explore, evaluation hot paths) by
default. Files written by tools/run_bench.sh hold repeated runs reported
as aggregates: the `median` aggregate is compared and each side's
coefficient of variation (CV) is printed, and a ratio further from 1
than the root-sum-square of the two CVs is flagged `!`. Older files with one plain
entry per benchmark are compared on that entry, with no CV.
Informational only — exits 0 regardless of regressions, since shared CI
runners are too noisy to gate on; the table in the job log is the
artifact.
"""
import argparse
import json
import math
import re
import sys

KEY_DEFAULT = r"bm_explore|bm_eval_full|bm_sa_neighborhood_step|bm_strategy_search|bm_search"

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def to_ns(bench):
    # real_time is expressed in the entry's own time_unit, which can
    # differ per benchmark and per file — normalize before comparing.
    return bench["real_time"] * UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)


def load(path):
    """Benchmark name -> (real time in ns, CV or None)."""
    with open(path) as handle:
        doc = json.load(handle)
    plain, aggregates = {}, {}
    for bench in doc.get("benchmarks", []):
        # UseRealTime() appends "/real_time" to the name; strip it so a
        # bench keeps its history across that switch (real_time is what
        # is compared either way).
        name = bench.get("run_name", bench["name"]).removesuffix("/real_time")
        if bench.get("run_type") == "aggregate":
            aggregates.setdefault(name, {})[bench.get("aggregate_name")] = bench
        else:
            plain[name] = bench
    out = {name: (to_ns(bench), None) for name, bench in plain.items()}
    for name, stats in aggregates.items():
        if "median" not in stats:
            continue
        cv = None
        if "cv" in stats:
            cv = stats["cv"]["real_time"]
        elif "stddev" in stats and "mean" in stats and stats["mean"]["real_time"]:
            cv = stats["stddev"]["real_time"] / stats["mean"]["real_time"]
        out[name] = (to_ns(stats["median"]), cv)
    return out


def fmt(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:10.1f}{unit}"
    return f"{ns:10.1f}ns"


def fmt_cv(cv):
    return f"{100 * cv:6.1f}%" if cv is not None else f"{'-':>7}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--key", default=KEY_DEFAULT,
                        help="regex naming the key benchmarks to mark (default: %(default)s)")
    args = parser.parse_args()

    try:
        baseline = load(args.baseline)
    except OSError as error:
        print(f"diff_bench: no baseline ({error}); nothing to diff", file=sys.stderr)
        return 0
    current = load(args.current)
    key = re.compile(args.key)

    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("diff_bench: no common benchmarks between the two files", file=sys.stderr)
        return 0

    width = max(len(name) for name in shared)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'base cv':>7}  {'current':>12}"
          f"  {'cur cv':>7}  {'ratio':>7}")
    for name in shared:
        base_t, base_cv = baseline[name]
        cur_t, cur_cv = current[name]
        ratio = cur_t / base_t if base_t else float("inf")
        noisy = ""
        if base_cv is not None and cur_cv is not None:
            if abs(ratio - 1.0) > math.hypot(base_cv, cur_cv):
                noisy = " !"
        mark = " *" if key.search(name) else ""
        print(f"{name:<{width}}  {fmt(base_t)}  {fmt_cv(base_cv)}  {fmt(cur_t)}"
              f"  {fmt_cv(cur_cv)}  {ratio:>6.2f}x{noisy}{mark}")
    only_new = sorted(set(current) - set(baseline))
    if only_new:
        print(f"\nnew benchmarks (no baseline): {', '.join(only_new)}")
    print("\n(* = key perf-trajectory benchmark; ratio < 1 is faster than baseline;"
          " ! = beyond the two sides' combined CV)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
