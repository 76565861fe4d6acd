#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 wallbench/smoke_test.py

Runs every workload run.py knows (tgff1000 included, though
BENCHMARK.json leaves it out) once at minimum size: one explore, one
campaign, one traced pass, in both modes. Asserts that:
  - the run is correct: digests match, nothing failed, something ran;
  - every metric BENCHMARK.json names for that mode is emitted, with its
    unit, and no other;
  - the traced run's 1-thread layer reconciliation (producer + per-slot
    setup x searches + search time, over the 1-thread explore time) is
    within +-15% on acceptance and tgff1000.
Exits 1 on the first failed check.
"""
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RECONCILED = {"acceptance", "tgff1000"}

sys.path.insert(0, str(BENCH_DIR))
from run import WORKLOADS  # noqa: E402


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            where = f"{workload} --trace {trace}"
            check(done.returncode == 0, f"{where} exited {done.returncode}: {done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where}: correct={result['correct']} failed={result['failed']} "
                  f"attempted={result['attempted']}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace], f"{where}: metrics/units {units}")
            if trace == 1 and workload in RECONCILED:
                ratio = result["metrics"]["recon.accounted_frac"]["value"]
                check(abs(ratio - 1.0) <= 0.15,
                      f"{where}: 1-thread layers account for {ratio:.3f} of explore time")
            print(f"ok: {where} ({result['attempted']} operations)")


if __name__ == "__main__":
    main()
