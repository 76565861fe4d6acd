#!/usr/bin/env python3
"""Diff two bench_micro JSON outputs (Google Benchmark format).

    tools/diff_bench.py BASELINE.json CURRENT.json [--key REGEX]

Prints a table of real-time ratios (current / baseline) for every
benchmark present in both files, highlighting the key benchmarks the
perf trajectory tracks (end-to-end explore, evaluation hot paths) by
default. Informational only — exits 0 regardless of regressions, since
shared CI runners are too noisy to gate on; the table in the job log is
the artifact.
"""
import argparse
import json
import re
import sys

KEY_DEFAULT = r"bm_explore|bm_eval_full|bm_sa_neighborhood_step|bm_strategy_search"


def load(path):
    with open(path) as handle:
        doc = json.load(handle)
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        # UseRealTime() appends "/real_time" to the name; strip it so a
        # bench keeps its history across that switch (real_time is what
        # is compared either way).
        out[bench["name"].removesuffix("/real_time")] = bench
    return out


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

    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

    def to_ns(bench):
        # real_time is expressed in the entry's own time_unit, which can
        # differ per benchmark and per file — normalize before comparing.
        return bench["real_time"] * unit_ns.get(bench.get("time_unit", "ns"), 1.0)

    def fmt(ns):
        for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
            if ns >= scale:
                return f"{ns / scale:10.1f}{unit}"
        return f"{ns:10.1f}ns"

    width = max(len(name) for name in shared)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  {'ratio':>7}")
    for name in shared:
        base_t = to_ns(baseline[name])
        cur_t = to_ns(current[name])
        ratio = cur_t / base_t if base_t else float("inf")
        mark = " *" if key.search(name) else ""
        print(f"{name:<{width}}  {fmt(base_t)}  {fmt(cur_t)}  {ratio:>6.2f}x{mark}")
    only_new = sorted(set(current) - set(baseline))
    if only_new:
        print(f"\nnew benchmarks (no baseline): {', '.join(only_new)}")
    print("\n(* = key perf-trajectory benchmark; ratio < 1 is faster than baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
