#!/usr/bin/env python3
"""seamap_lint — the repo's determinism & hot-path invariant linter.

The project's standing guarantee is that every optimization is pinned
bit-identical across eval paths, prune on/off, and thread counts. The
properties that make that guarantee *possible* are static, so they are
enforced here, at analysis time, instead of living in reviewers' heads:

  rng            No ambient randomness. `rand()`, `srand()`,
                 `std::random_device`, and raw `<random>` engines are
                 banned outside src/util/rng.* — all stochastic code
                 takes an explicit 64-bit seed through seamap::Rng.
  unordered-iter No order-unstable containers in result- or
                 JSON-producing paths (src/api/, src/core/). Iterating
                 an unordered container feeds hash-order into results;
                 hash order is not part of the determinism contract.
  float-eq       No raw floating-point `==`/`!=` outside
                 src/util/float_compare.h. Exact comparisons that are
                 *deliberate* (determinism total orders, staircase
                 dedup) go through exactly_equal()/exactly_zero() so
                 the intent is visible and greppable.
  time           No wall-clock reads (`::now()`, `std::time`, `clock()`)
                 in search/eval code. Timing flows only through the
                 sanctioned deadline/cancellation utilities
                 (src/util/cancellation.*), which every stop condition
                 already shares.
  hot-path-alloc In files marked `// seamap-lint: hot-path`, no
                 allocation-shaped calls (new, make_unique/shared,
                 container growth) outside explicitly allowed setup
                 regions. This keeps the PR 3 "zero steady-state
                 allocation" property a build-time fact, not a hope.

Suppressions use the shared reasoned-directive grammar (see
tools/lint/scanlib.py, which owns the scanner and the grammar — the
architecture analyzer arch_check.py shares both):

  // seamap-lint: allow(rule[,rule]) -- reason
  // seamap-lint: push-allow(rule[,rule]) -- reason
  // seamap-lint: pop-allow(rule[,rule])
  // seamap-lint: hot-path

A suppression without a `-- reason`, or an unbalanced push/pop, is
itself an error (rule id: bad-suppression) — the suppression file/line
budget stays reviewable.

Usage:
  seamap_lint.py [--root DIR] [PATH...]   lint PATHs (default: src)
  seamap_lint.py --self-test              run the fixture suite
  seamap_lint.py --list-rules             print rule ids and summaries

Exit status: 0 clean, 1 findings, 2 usage/internal error.

Implementation note: this is deliberately AST-lite (comment/string
stripping + operand extraction + a harvested symbol table of
double-typed fields), not libclang — it must run anywhere python3
runs, with zero dependencies, in well under a second for the whole
tree.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from scanlib import (Finding, SourceFile, Suppressions, collect_files,  # noqa: E402
                     load_source)

# --------------------------------------------------------------------------
# Rules

RULES = {
    "rng": "ambient randomness outside src/util/rng.* (use seamap::Rng with an explicit seed)",
    "unordered-iter": "order-unstable container in a result/JSON-producing path (src/api/, src/core/)",
    "float-eq": "raw floating-point ==/!= (use util/float_compare.h: nearly_equal/exactly_equal/exactly_zero)",
    "time": "wall-clock read in search/eval code (timing only via util/cancellation.h)",
    "hot-path-alloc": "allocation in a `// seamap-lint: hot-path` file outside an allowed setup region",
    "bad-suppression": "malformed seamap-lint suppression (missing reason or unbalanced push/pop)",
}

DIRECTIVE_PREFIX = "seamap-lint"
MARKERS = ("hot-path",)

# Path scoping, relative to the lint root (forward slashes).
#   rng:            everywhere except src/util/rng.*
#   unordered-iter: src/api/**, src/core/**
#   time:           everywhere except src/util/cancellation.*
#   float-eq:       everywhere except src/util/float_compare.h
#   hot-path-alloc: files carrying the hot-path marker


def rule_applies(rule: str, relpath: str) -> bool:
    p = relpath.replace(os.sep, "/")
    if rule == "rng":
        return not p.startswith("src/util/rng.")
    if rule == "unordered-iter":
        return p.startswith("src/api/") or p.startswith("src/core/")
    if rule == "time":
        return not p.startswith("src/util/cancellation.")
    if rule == "float-eq":
        return p != "src/util/float_compare.h"
    if rule == "hot-path-alloc":
        return True  # gated on the in-file marker instead of the path
    return True


RNG_RE = re.compile(
    r"\bsrand\s*\(|(?<![:\w])rand\s*\(|std::random_device\b|\brandom_device\b"
    r"|std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|ranlux\w+|knuth_b)\b"
)
UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")
TIME_RE = re.compile(
    r"::now\s*\(|\bstd::time\s*\(|(?<![:\w])clock\s*\(\s*\)|\bgettimeofday\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
)
ALLOC_RE = re.compile(
    r"(?<![:\w])new\b(?!\s*\()"  # `new T`, but not the rare `new (place) T` — placement new is also flagged below
    r"|(?<![:\w])new\s*\("
    r"|\bmake_unique\s*<|\bmake_shared\s*<"
    # `.assign(` is deliberately absent: Mapping::assign(task, core) is
    # the inner-loop mutation API and shares the name with the vector
    # growth call; real growth is still caught by resize/reserve/
    # push_back/insert here and by the runtime operator-new guard test.
    r"|\.\s*(?:push_back|emplace_back|emplace|resize|reserve|insert|append|push_front|emplace_front)\s*\("
    r"|\bstd::(?:vector|string|deque|list|map|set|unordered_\w+)\s*<[^;=]{0,120}>\s+\w+\s*[({]"
    r"|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\("
)

FLOAT_LITERAL_RE = re.compile(
    r"\b\d+\.\d*(?:[eE][+-]?\d+)?[fFlL]?|(?<![\w.])\.\d+(?:[eE][+-]?\d+)?[fFlL]?|\b\d+[eE][+-]?\d+[fFlL]?"
)
# Declarations that make an identifier float-typed for this file:
#   double x; double x = ...; const double& x(...); float foo(...)
DECL_RE = re.compile(
    r"\b(?:double|float)\s*(?:const\b)?\s*[&*]?\s*([A-Za-z_]\w*)\s*[;=,)({\[]"
)
# Integer-typed declarations in the same file veto the global float-name
# table: `const std::uint64_t bits = ...` must not be treated as float
# just because some other file declares a `double bits`.
INT_DECL_RE = re.compile(
    r"\b(?:std::)?(?:u?int(?:8|16|32|64)?_t|size_t|ptrdiff_t|unsigned|short"
    r"|long|int|bool|char|TaskId|CoreId|RegisterId|ScalingLevel)\b"
    r"\s*(?:const\b)?\s*[&*]?\s*([A-Za-z_]\w*)\s*[;=,)({\[]"
)
TRAILING_IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*(\(\s*\))?\s*$")

EQ_OP_RE = re.compile(r"==|!=")


def load(path: str, relpath: str) -> SourceFile:
    return load_source(path, relpath, DIRECTIVE_PREFIX, RULES, MARKERS)


# --------------------------------------------------------------------------
# float-eq operand analysis

_OPERAND_STOP = set(";{},?")


def _extract_left(line: str, pos: int) -> str:
    depth = 0
    j = pos - 1
    while j >= 0:
        c = line[j]
        if c in ")]":
            depth += 1
        elif c in "([":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0:
            if c in _OPERAND_STOP:
                break
            if c in "&|" and j > 0 and line[j - 1] == c:  # && ||
                break
            if c == "=" and j > 0 and line[j - 1] not in "<>=!":
                break
            if c in "<>!" and j + 1 < len(line) and line[j + 1] == "=":
                break
        j -= 1
    return line[j + 1:pos].strip()


def _extract_right(line: str, pos: int) -> str:
    depth = 0
    j = pos
    while j < len(line):
        c = line[j]
        if c in "([":
            depth += 1
        elif c in ")]":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0:
            if c in _OPERAND_STOP:
                break
            if c in "&|" and j + 1 < len(line) and line[j + 1] == c:
                break
        j += 1
    return line[pos:j].strip()


def operand_is_float(operand: str, float_names: set, int_names: set) -> bool:
    if not operand:
        return False
    if FLOAT_LITERAL_RE.search(operand):
        return True
    m = TRAILING_IDENT_RE.search(operand)
    if m and m.group(1) in float_names and m.group(1) not in int_names:
        return True
    return False


def harvest_float_names(root: str, paths: list) -> set:
    """Names of double/float fields, variables, parameters and 0-arg
    accessors declared anywhere in the linted tree. Single- and
    two-letter names are kept per-file only (too collision-prone
    globally) — harvest_file_float_names adds those."""
    names = set()
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        for m in DECL_RE.finditer(text):
            if len(m.group(1)) >= 3:
                names.add(m.group(1))
    return names


def harvest_file_float_names(src: SourceFile) -> set:
    names = set()
    for line in src.code_lines:
        for m in DECL_RE.finditer(line):
            names.add(m.group(1))
    return names


def harvest_file_int_names(src: SourceFile) -> set:
    """Names declared with an integer type in this file; they veto the
    cross-file float-name table but never a same-file double declaration."""
    names = set()
    for line in src.code_lines:
        for m in INT_DECL_RE.finditer(line):
            names.add(m.group(1))
    return names


# --------------------------------------------------------------------------
# Lint driver


def lint_file(path: str, relpath: str, global_float_names: set) -> list:
    src = load(path, relpath)
    sup = Suppressions(src)
    hot_path = any(d.kind == "hot-path" for d in src.directives)
    findings = [Finding(relpath, line, "bad-suppression", msg) for line, msg in sup.errors]
    file_float_names = harvest_file_float_names(src)
    float_names = global_float_names | file_float_names
    int_names = harvest_file_int_names(src) - file_float_names

    for idx, line in enumerate(src.code_lines):
        line_no = idx + 1

        def report(rule: str, message: str):
            if not rule_applies(rule, relpath):
                return
            if sup.allowed(line_no, rule):
                return
            findings.append(Finding(relpath, line_no, rule, message))

        if rule_applies("rng", relpath):
            m = RNG_RE.search(line)
            if m:
                report("rng", "`%s` — all randomness flows through seamap::Rng "
                              "with an explicit seed" % m.group(0).strip())
        if rule_applies("unordered-iter", relpath):
            m = UNORDERED_RE.search(line)
            if m:
                report("unordered-iter",
                       "`%s` in a result-producing path — hash order is not "
                       "deterministic across libraries; use a sorted container "
                       "or sort before emitting" % m.group(0))
        if rule_applies("time", relpath):
            m = TIME_RE.search(line)
            if m:
                report("time", "`%s` — search/eval code takes time only through "
                               "CancellationToken (util/cancellation.h)"
                       % m.group(0).strip())
        if hot_path:
            m = ALLOC_RE.search(line)
            if m:
                report("hot-path-alloc",
                       "`%s` in a hot-path file — steady-state evaluation must "
                       "not allocate; move growth to a setup region "
                       "(push-allow) or justify per line" % m.group(0).strip())
        if rule_applies("float-eq", relpath):
            for m in EQ_OP_RE.finditer(line):
                start = m.start()
                if start > 0 and line[start - 1] in "<>=!+-*/%&|^(":
                    continue
                if m.end() < len(line) and line[m.end()] == "=":
                    continue
                left = _extract_left(line, start)
                right = _extract_right(line, m.end())
                if operand_is_float(left, float_names, int_names) or \
                        operand_is_float(right, float_names, int_names):
                    report("float-eq",
                           "raw float `%s` on `%s` / `%s` — use nearly_equal() "
                           "for tolerant checks or exactly_equal()/exactly_zero() "
                           "(util/float_compare.h) when bit-exactness is the "
                           "point" % (m.group(0), left or "?", right or "?"))
    return findings


def run_lint(root: str, paths: list) -> list:
    files = collect_files(root, paths)
    global_float_names = harvest_float_names(root, files)
    findings = []
    for path in files:
        relpath = os.path.relpath(path, root).replace(os.sep, "/")
        findings.extend(lint_file(path, relpath, global_float_names))
    findings.sort(key=lambda f: (f.relpath, f.line, f.rule))
    return findings


# --------------------------------------------------------------------------
# Self-test over the checked-in fixtures. Every fixture declares its own
# expectation:   // seamap-lint-fixture: expect rule [rule...]
#            or  // seamap-lint-fixture: expect-clean
# and the suite fails if any fixture's *set of fired rules* differs.

FIXTURE_RE = re.compile(r"//\s*seamap-lint-fixture:\s*(.+?)\s*$", re.MULTILINE)


def run_self_test(fixtures_root: str) -> int:
    files = collect_files(fixtures_root, ["src"])
    if not files:
        print("self-test: no fixtures under %s" % fixtures_root, file=sys.stderr)
        return 2
    global_float_names = harvest_float_names(fixtures_root, files)
    failures = []
    checked = 0
    for path in files:
        relpath = os.path.relpath(path, fixtures_root).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
        m = FIXTURE_RE.search(text)
        if not m:
            failures.append("%s: fixture lacks a `// seamap-lint-fixture: expect ...` line" % relpath)
            continue
        spec = m.group(1).split()
        if spec == ["expect-clean"]:
            expected = set()
        elif spec and spec[0] == "expect":
            expected = set(spec[1:])
            unknown = expected - set(RULES)
            if unknown:
                failures.append("%s: unknown rule(s) in expectation: %s" % (relpath, sorted(unknown)))
                continue
        else:
            failures.append("%s: bad fixture expectation %r" % (relpath, m.group(1)))
            continue
        fired = {f.rule for f in lint_file(path, relpath, global_float_names)}
        if fired != expected:
            failures.append("%s: expected rules %s, got %s" %
                            (relpath, sorted(expected) or "[clean]", sorted(fired) or "[clean]"))
        checked += 1
    if failures:
        for msg in failures:
            print("self-test FAIL: %s" % msg, file=sys.stderr)
        return 1
    print("self-test OK: %d fixtures behaved as declared" % checked)
    return 0


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seamap_lint.py",
        description="determinism & hot-path invariant linter (see module docstring)")
    parser.add_argument("--root", default=None,
                        help="repo root paths are resolved and reported against "
                             "(default: parent of tools/lint/)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the checked-in fixtures and verify each fires "
                             "exactly its declared rules")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories, relative to --root (default: src)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in RULES.items():
            print("%-15s %s" % (rule, summary))
        return 0

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root) if args.root else os.path.dirname(os.path.dirname(script_dir))

    if args.self_test:
        return run_self_test(os.path.join(script_dir, "fixtures"))

    paths = args.paths or ["src"]
    try:
        findings = run_lint(root, paths)
    except FileNotFoundError as e:
        print("seamap_lint: no such path: %s" % e, file=sys.stderr)
        return 2
    for f in findings:
        print(f.render())
    if findings:
        print("seamap_lint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
