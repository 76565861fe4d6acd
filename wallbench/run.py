#!/usr/bin/env python3
"""Build and run the seamap wall-clock benchmark.

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds the benchmark (Release) into $CARGO_TARGET_DIR, or .bench_build
when it is unset, both taken relative to the checkout; later runs only
rebuild what changed. Build output goes to <build dir>/build.log, so the
last stdout line is the benchmark's JSON result. Exits non-zero without a
result when the sources or the build are missing or broken.
"""
import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("acceptance", "tgff1000", "mpeg2_campaign")


def fail(message):
    print(f"wallbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / configured / "wallbench").resolve()


def build():
    """Configure once, then let the build system rebuild what changed."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no seamap sources next to {BENCH_DIR.name}/ (expected CMakeLists.txt and src/)")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / "build.lock", "w") as lock, open(out / "build.log", "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any((out / name).is_file() for name in ("Makefile", "build.ninja")):
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "wallbench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build step failed: {' '.join(step)} (log: {out / 'build.log'})")
    return out / "wallbench"


def git_sha():
    # Only ask git when the checkout itself is a repository; never let it
    # search the directories above.
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                          capture_output=True, text=True, env=env)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-digests", action="store_true",
                        help="print the reference line for this workload and seed")
    args = parser.parse_args()

    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", str(BENCH_DIR / "reference.txt"), "--git-sha", git_sha()]
    if args.print_digests:
        command.append("--print-digests")
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
