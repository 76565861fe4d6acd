#!/usr/bin/env python3
"""arch_check — the repo's architecture conformance analyzer.

Where seamap_lint.py (PR 6) enforces line-level determinism invariants,
this tool enforces the *architecture-level* ones: the acyclic module
layering that lets every PR refactor freely, include hygiene, header
self-containment, and a committed snapshot of the public API surface.
It extracts the full `#include` graph of the tree and checks:

  layer               Every cross-module include must be an edge the
                      checked-in layer DAG (tools/lint/layers.toml)
                      declares. A back-edge (one that inverts declared
                      layering) or an undeclared edge is a finding,
                      with the offending declared chain printed.
  cycle               No include cycles among project files, at file
                      granularity (module cycles are already impossible
                      when every edge is declared and the declared DAG
                      is acyclic — which is itself validated).
  unused-include      IWYU-lite: a quoted include whose header
                      contributes no symbol the including file
                      references is dead weight and a hidden layering
                      liability. Symbols are regex-harvested per header
                      (declaration scope only) by the same stripping
                      scanner seamap_lint uses (tools/lint/scanlib.py).
                      `// arch-check: export` on an include line marks
                      a deliberate re-export (umbrella headers): the
                      include is exempt and its symbols count as
                      provided by the including header.
  transitive-include  A public header that references a symbol whose
                      home header it only receives *transitively* will
                      break when an unrelated include chain is cleaned
                      up. Headers must include what they use directly.
  self-contained      A header that references a symbol whose home
                      header it does not include at all (not even
                      transitively) only compiles by courtesy of its
                      includers. This is the static half of the
                      `header_selfcheck` build target, which compiles a
                      one-line TU per public header as proof.
  header-guard        Tree standard is `#pragma once`; a header without
                      it (or carrying an `#ifndef` guard instead) is
                      flagged.
  api-surface         The normalized declaration surface of every
                      header reachable from the public umbrella
                      (src/seamap/seamap.h) is snapshotted into
                      tools/lint/api_surface.txt. Any drift — a
                      signature, enum, default argument, or inline body
                      in an installed header — fails until the snapshot
                      is deliberately regenerated with `--update`.
  dead-api            Every function declared in a src/ header outside a
                      private or protected section must be named in the
                      code of some scanned root other than tests/ (own
                      module included), not counting declarations and
                      definitions. Constructors, destructors, operators,
                      overrides and deleted functions are exempt. Names
                      are matched, not overloads, so a shared name counts
                      as a caller; a parameter or local variable of that
                      name, or a name qualified by `std::`, does not.
                      Test oracles go in the `[dead_api] allow` list of
                      layers.toml as "Name -- reason" (Name as findings
                      print it, e.g. `Class::method`); an entry without a
                      reason, or naming a function that is missing or now
                      has a caller, is itself a finding. Inline
                      suppressions do not apply to this rule.
  bad-suppression     Malformed/unreasoned/unbalanced directives, as in
                      seamap_lint.

Suppressions use the shared reasoned-directive grammar of
tools/lint/scanlib.py with the `arch-check:` prefix:

  // arch-check: allow(rule[,rule]) -- reason
  // arch-check: push-allow(rule[,rule]) -- reason
  // arch-check: pop-allow(rule[,rule])
  // arch-check: export          (include re-export marker, see above)

Usage:
  arch_check.py [--root DIR] [--layers FILE]   analyze the configured tree
  arch_check.py --update                       regenerate api_surface.txt
  arch_check.py --self-test                    run the fixture suite
  arch_check.py --list-rules                   print rule ids

Exit status: 0 clean, 1 findings, 2 usage/internal error.

Zero dependencies beyond python3 (tomllib when available, with a
fallback parser for the layers.toml subset), so it runs identically on
dev machines and CI.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import deque, namedtuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from scanlib import Finding, Suppressions, collect_files, load_source  # noqa: E402

RULES = {
    "layer": "cross-module include not declared in the layer DAG (tools/lint/layers.toml)",
    "cycle": "include cycle among project files",
    "unused-include": "included header contributes no referenced symbol (IWYU-lite)",
    "transitive-include": "public header relies on a transitive include for a referenced symbol",
    "self-contained": "header references a symbol no include path provides (not self-contained)",
    "header-guard": "header guard inconsistent with the tree standard (#pragma once)",
    "api-surface": "public API surface drifted from the committed snapshot (regenerate with --update)",
    "dead-api": "public src/ function that only tests/ name, or a stale [dead_api] allow entry",
    "bad-suppression": "malformed arch-check suppression (missing reason or unbalanced push/pop)",
}

DIRECTIVE_PREFIX = "arch-check"
MARKERS = ("export",)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*(["<])([^">]+)[">]')
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b", re.MULTILINE)
IFNDEF_GUARD_RE = re.compile(
    r"^\s*#\s*ifndef\s+([A-Za-z_]\w*)\s*\n\s*#\s*define\s+\1\b", re.MULTILINE)
DEFINE_RE = re.compile(r"^\s*#\s*define\s+([A-Za-z_]\w*)", re.MULTILINE)
IDENT_RE = re.compile(r"[A-Za-z_]\w*")

# Words never treated as cross-header symbol references by the
# transitive-include/self-contained rules: keywords, ubiquitous
# vocabulary-type member names, and fundamental types. The rules also
# ignore words shorter than 4 characters — single loop variables and
# terse locals are far too collision-prone for a regex symbol table.
STOPWORDS = frozenset("""
    alignas alignof auto bool break case catch char class concept const
    constexpr consteval constinit continue decltype default delete do
    double else enum explicit export extern false final float for friend
    goto if inline int long mutable namespace new noexcept nullptr
    operator override private protected public register requires return
    short signed sizeof static struct switch template this throw true try
    typedef typename union unsigned using virtual void volatile while
    begin end size data empty front back first second push_back clear
    reserve resize count find insert erase emplace_back value type name
    std size_t uint8_t uint16_t uint32_t uint64_t int8_t int16_t int32_t
    int64_t ptrdiff_t string string_view vector array span optional
    nullopt pair tuple move swap forward make_pair make_unique make_shared
    unique_ptr shared_ptr function
""".split())


# --------------------------------------------------------------------------
# layers.toml

class ConfigError(Exception):
    pass


def _parse_toml_fallback(text: str) -> dict:
    """Minimal parser for the layers.toml subset ([section], key = [..]
    / "*" / "string" lists of strings, arrays may span lines), for
    pythons without tomllib."""
    doc = {}
    section = None
    pending = ""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if pending or ("= [" in line and not line.endswith("]")):
            pending += " " + line
            if not line.endswith("]"):
                continue
            line, pending = pending.strip(), ""
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            doc[section] = {}
            continue
        if "=" not in line or section is None:
            raise ConfigError("layers.toml: cannot parse line %r" % raw)
        key, _, value = line.partition("=")
        key, value = key.strip().strip('"'), value.strip()
        if value.startswith("["):
            items = re.findall(r'"([^"]*)"', value)
            doc[section][key] = list(items)
        elif value.startswith('"'):
            doc[section][key] = value.strip('"')
        else:
            raise ConfigError("layers.toml: unsupported value %r" % value)
    return doc


def load_layers_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        import tomllib
        doc = tomllib.loads(text)
    except ModuleNotFoundError:
        doc = _parse_toml_fallback(text)
    if "layers" not in doc or not isinstance(doc["layers"], dict):
        raise ConfigError("layers.toml: missing [layers] table")
    config = {
        "layers": doc["layers"],
        "roots": doc.get("scan", {}).get("roots", ["src"]),
        "exclude": doc.get("scan", {}).get("exclude", []),
        "umbrella": doc.get("api_surface", {}).get("umbrella"),
        "snapshot": doc.get("api_surface", {}).get("snapshot"),
        "dead_api_allow": doc.get("dead_api", {}).get("allow", []),
    }
    for module, deps in config["layers"].items():
        if deps == "*":
            continue
        if not isinstance(deps, list) or not all(isinstance(d, str) for d in deps):
            raise ConfigError("layers.toml: deps of %r must be a list or \"*\"" % module)
    return config


def declared_cycle(layers: dict):
    """Return one cycle (list of modules) in the declared DAG, or None.
    Harness modules ("*") are sinks of the check: they may depend on
    anything, but nothing may depend on them unless declared."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {m: WHITE for m in layers}
    stack = []

    def dfs(m):
        color[m] = GRAY
        stack.append(m)
        deps = layers[m]
        for d in ([] if deps == "*" else deps):
            if d not in layers:
                continue  # reported separately as a config error
            if color[d] == GRAY:
                return stack[stack.index(d):] + [d]
            if color[d] == WHITE:
                cycle = dfs(d)
                if cycle:
                    return cycle
        stack.pop()
        color[m] = BLACK
        return None

    for m in sorted(layers):
        if color[m] == WHITE:
            cycle = dfs(m)
            if cycle:
                return cycle
    return None


def declared_path(layers: dict, src: str, dst: str):
    """Shortest declared dependency path src -> ... -> dst, or None."""
    if src not in layers:
        return None
    parent = {src: None}
    queue = deque([src])
    while queue:
        m = queue.popleft()
        if m == dst:
            path = []
            while m is not None:
                path.append(m)
                m = parent[m]
            return list(reversed(path))
        deps = layers.get(m, [])
        for d in ([] if deps == "*" else deps):
            if d not in parent:
                parent[d] = m
                queue.append(d)
    return None


# --------------------------------------------------------------------------
# Symbol harvesting (declaration scope only)

_TYPE_HEAD_RE = re.compile(
    r"\b(?:class|struct|union|enum)\s+(?:class\s+|struct\s+)?([A-Za-z_]\w*)")
_TRAILING_IDENT = re.compile(r"([A-Za-z_]\w*)\s*$")


def _strip_template_lists(text: str) -> str:
    prev = None
    while prev != text:
        prev = text
        text = re.sub(r"<[^<>]*>", "", text)
    return text


def _harvest_stmt(stmt: str, symbols: set):
    stmt = _strip_template_lists(stmt.strip())
    if not stmt:
        return
    if stmt.startswith("friend "):
        return
    if stmt.startswith("using "):
        m = re.match(r"using\s+([A-Za-z_]\w*)\s*=", stmt)
        if m:
            symbols.add(m.group(1))
            return
        m = _TRAILING_IDENT.search(stmt)
        if m:
            symbols.add(m.group(1))
        return
    if stmt.startswith("typedef"):
        m = _TRAILING_IDENT.search(stmt)
        if m:
            symbols.add(m.group(1))
        return
    m = _TYPE_HEAD_RE.search(stmt)
    if m:  # forward declaration / head without body
        symbols.add(m.group(1))
        return
    paren = stmt.find("(")
    if paren >= 0:  # function declaration: name is just before the '('
        m = _TRAILING_IDENT.search(stmt[:paren])
        if m and m.group(1) != "operator":
            symbols.add(m.group(1))
        return
    target = re.sub(r"\[[^\]]*\]\s*$", "", stmt.partition("=")[0])
    m = _TRAILING_IDENT.search(target)  # variable / constant declaration
    if m and m.group(1) not in ("public", "private", "protected"):
        symbols.add(m.group(1))


def _classify_brace(head: str) -> str:
    head = _strip_template_lists(head)
    if re.search(r"\bnamespace\b", head) and "(" not in head:
        return "ns"
    if re.search(r"\benum\b", head) and "(" not in head:
        return "enum"
    if re.search(r"\b(?:class|struct|union)\b", head) and "(" not in head \
            and "=" not in head:
        return "type"
    return "body"


def harvest_symbols(stripped_text: str) -> set:
    """Names a header *provides*: macro defines plus every type, alias,
    enumerator, function, method and constant declared at namespace or
    class scope. Function bodies are opaque — locals never pollute the
    table. Deliberately over-approximates member names (a member hit
    counts the include as used); precision matters only for the
    cross-header reference rules, which additionally demand a unique
    owner."""
    symbols = set()
    for m in DEFINE_RE.finditer(stripped_text):
        symbols.add(m.group(1))
    code = re.sub(r"^\s*#[^\n]*", "", stripped_text, flags=re.MULTILINE)

    stack = []  # 'ns' | 'type' | 'enum' | 'body'
    stmt = []

    def decl_scope() -> bool:
        return all(kind != "body" for kind in stack)

    def flush_enum(chunk: str):
        m = re.match(r"\s*([A-Za-z_]\w*)", chunk)
        if m:
            symbols.add(m.group(1))

    for ch in code:
        if ch == "{":
            head = "".join(stmt)
            if decl_scope():
                kind = _classify_brace(head)
                if kind in ("type", "enum"):
                    m = _TYPE_HEAD_RE.search(_strip_template_lists(head))
                    if m:
                        symbols.add(m.group(1))
                elif kind == "body":
                    # Inline function/method definition at decl scope.
                    paren = head.find("(")
                    if paren >= 0:
                        m = _TRAILING_IDENT.search(_strip_template_lists(head[:paren]))
                        if m and m.group(1) != "operator":
                            symbols.add(m.group(1))
            else:
                kind = "body"
            stack.append(kind)
            stmt = []
        elif ch == "}":
            if stack and stack[-1] == "enum" and decl_scope():
                flush_enum("".join(stmt).partition("=")[0])
            if stack:
                stack.pop()
            stmt = []
        elif ch == ";":
            if decl_scope():
                if stack and stack[-1] == "enum":
                    pass  # scoped-enum underlying type, not an enumerator
                else:
                    _harvest_stmt("".join(stmt), symbols)
            stmt = []
        elif ch == "," and stack and stack[-1] == "enum" and decl_scope():
            flush_enum("".join(stmt).partition("=")[0])
            stmt = []
        else:
            stmt.append(ch)
    return symbols


# --------------------------------------------------------------------------
# Declarator scan (dead-api)

# Words after which an identifier is an expression, not a declarator.
EXPR_KEYWORDS = frozenset("""
    return case throw else do new delete sizeof alignof typeid goto
    co_return co_yield co_await not and or
""".split())
# Words that look like a function name before `(` but are not one.
NOT_FUNCTIONS = frozenset("""
    alignas alignof decltype noexcept requires static_assert sizeof
    __attribute__ if for while switch return
""".split())
_PREPROCESSOR_RE = re.compile(r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*", re.MULTILINE)
_ACCESS_RE = re.compile(r"^\s*(public|private|protected)\s*$")


# qualname is Class::name for members, name otherwise; offset is the
# name token's position in the stripped code.
FunctionDecl = namedtuple("FunctionDecl", "name qualname offset public exempt")


def _function_in(head: str, offset: int, classes: list, public: bool):
    """The function a declaration-scope statement or definition head
    declares, or None when it declares no function (a variable with an
    initializer, a using/friend/static_assert, ...)."""
    stripped = head.lstrip()
    if stripped.startswith(("using ", "typedef ", "friend ")):
        return None
    # Blank out attributes and template argument lists in place, so
    # offsets stay valid and `<`/`(` inside them are not misread.
    masked = re.sub(r"\[\[.*?\]\]", lambda m: " " * len(m.group()), head)
    prev = None
    while prev != masked:
        prev = masked
        masked = re.sub(r"<[^<>;{}]*>", lambda m: " " * len(m.group()), masked)
    paren = masked.find("(")
    if paren < 0:
        return None
    before = masked[:paren]
    m = _TRAILING_IDENT.search(before)
    if m is None or m.group(1) in NOT_FUNCTIONS or re.search(r"(?<![=!<>])=(?!=)", before):
        return None
    name, at = m.group(1), offset + m.start(1)
    if re.search(r"::\s*$", before[:m.start()]):
        # An out-of-class definition of a member declared elsewhere.
        return FunctionDecl(name, None, at, False, True)
    exempt = (re.search(r"\boperator\b", before) is not None
              or before[:m.start()].rstrip().endswith("~")
              or (bool(classes) and name == classes[-1])
              or re.search(r"\b(?:override|final)\b|=\s*(?:delete|default)\b",
                           masked[paren:]) is not None)
    return FunctionDecl(name, "::".join(classes + [name]), at, public, exempt)


def scan_functions(code: str) -> list:
    """Every function declared or defined at namespace or class scope of
    comment/string-stripped `code`, with its access: public unless some
    enclosing class section is private or protected."""
    code = _PREPROCESSOR_RE.sub(lambda m: re.sub(r"[^\n]", " ", m.group()), code)
    out = []
    stack = []  # [kind, class name or None, access]
    start = 0

    def decl_scope():
        return all(frame[0] != "body" for frame in stack)

    def context():
        classes = [frame[1] for frame in stack if frame[0] == "type"]
        public = all(frame[2] == "public" for frame in stack if frame[0] == "type")
        return classes, public

    for i, ch in enumerate(code):
        if ch not in "{};:":
            continue
        if ch == ":":
            if stack and stack[-1][0] == "type":
                m = _ACCESS_RE.match(code[start:i])
                if m:
                    stack[-1][2] = m.group(1)
                    start = i + 1
            continue
        head = code[start:i]
        if ch == "{":
            if decl_scope():
                kind = _classify_brace(head)
                name, access = None, None
                if kind == "type":
                    m = _TYPE_HEAD_RE.search(_strip_template_lists(head))
                    name = m.group(1) if m else None
                    access = "private" if re.search(r"\bclass\b", head) else "public"
                elif kind == "body":
                    decl = _function_in(head, start, *context())
                    if decl is not None:
                        out.append(decl)
                stack.append([kind, name, access])
            else:
                stack.append(["body", None, None])
        elif ch == "}":
            if stack:
                stack.pop()
        elif decl_scope() and not (stack and stack[-1][0] == "enum"):
            decl = _function_in(head, start, *context())
            if decl is not None:
                out.append(decl)
        start = i + 1
    return out


def mentions(code: str, declarators: set) -> set:
    """Names `code` may call a function by: every identifier except the
    function declarators at `declarators` (offsets), names qualified by
    `std::` (`std::remove` calls no seamap `remove`), variable and
    parameter declarators (`Type name` before `, ) ; [ { = :`), and bare
    uses of a name the same code declares as a variable or parameter."""
    variables, uses = set(), []
    last = None  # the previous token match
    last_root = None  # the outermost qualifier of the previous token
    for m in IDENT_RE.finditer(code):
        name, begin, end = m.group(), m.start(), m.end()
        prev_match, last = last, m
        p = begin - 1
        while p >= 0 and code[p].isspace():
            p -= 1
        prev = code[p] if p >= 0 else ""
        qualified = prev == ":" and p > 0 and code[p - 1] == ":"
        # `a::b::name` roots at `a`; a name under std:: is never a caller.
        root = last_root if qualified and prev_match is not None and \
            not code[prev_match.end():p - 1].strip() else name
        last_root = root
        if begin in declarators or (qualified and root == "std"):
            continue
        arrow = prev == ">" and p > 0 and code[p - 1] == "-"
        q = end
        while q < len(code) and code[q].isspace():
            q += 1
        nxt = code[q:q + 2]
        if prev in ("*", "&"):
            while p >= 0 and (code[p] in "*&" or code[p].isspace()):
                p -= 1
            typed = p >= 0 and (code[p].isalnum() or code[p] in "_>")
        elif prev.isalnum() or prev == "_":
            typed = prev_match is None or prev_match.group() not in EXPR_KEYWORDS
        else:
            typed = prev == ">" and not arrow
        declares = nxt[:1] in (",", ")", ";", "[", "{") or \
            (nxt[:1] == "=" and nxt != "==") or (nxt[:1] == ":" and nxt != "::")
        if typed and declares:
            variables.add(name)
            continue
        bare = nxt[:1] != "(" and prev not in (".", "&") and not arrow and not qualified
        uses.append((name, bare))
    return {name for name, bare in uses if not (bare and name in variables)}


# --------------------------------------------------------------------------
# Tree model


class File:
    def __init__(self, relpath, src, text_lines, raw_text):
        self.relpath = relpath
        self.src = src  # scanlib.SourceFile (comments+strings stripped)
        self.text_lines = text_lines  # comments stripped, strings intact
        self.raw_text = raw_text
        self.suppressions = Suppressions(src)
        # [(line_no, target_text, resolved_relpath_or_None, exported)]
        self.includes = []
        self.module = module_of(relpath)
        self.is_header = relpath.endswith((".h", ".hpp"))
        self.stripped_text = "\n".join(src.code_lines)
        self.provides = harvest_symbols(self.stripped_text) if self.is_header else set()
        nonincl = [l for l in src.code_lines if not INCLUDE_RE.match(l)]
        self.words = frozenset(IDENT_RE.findall("\n".join(nonincl)))


def module_of(relpath: str) -> str:
    parts = relpath.replace(os.sep, "/").split("/")
    if parts[0] == "src" and len(parts) > 2:
        return parts[1]
    return parts[0]


class Analysis:
    def __init__(self, root: str, config: dict, layers_relpath: str):
        self.root = root
        self.config = config
        self.layers_relpath = layers_relpath
        self.findings = []
        self.files = {}  # relpath -> File
        self._load_tree()
        self._resolve_includes()

    # -- loading ----------------------------------------------------------

    def _load_tree(self):
        exclude = tuple(e.rstrip("/") + "/" for e in self.config["exclude"])
        for rootdir in self.config["roots"]:
            full = os.path.join(self.root, rootdir)
            if not os.path.isdir(full):
                continue
            for path in collect_files(self.root, [rootdir]):
                relpath = os.path.relpath(path, self.root).replace(os.sep, "/")
                if relpath.startswith(exclude):
                    continue
                with open(path, "r", encoding="utf-8", errors="replace") as f:
                    raw = f.read()
                src = load_source(path, relpath, DIRECTIVE_PREFIX, RULES, MARKERS)
                text = load_source(path, relpath, DIRECTIVE_PREFIX, RULES, MARKERS,
                                   keep_strings=True)
                self.files[relpath] = File(relpath, src, text.code_lines, raw)

    def _resolve_includes(self):
        for f in self.files.values():
            exported_lines = set()
            for d in f.src.directives:
                if d.kind == "export":
                    line = d.line
                    if d.standalone:
                        line += 1
                        while line <= len(f.src.code_lines) and \
                                not f.src.code_lines[line - 1].strip():
                            line += 1
                    exported_lines.add(line)
            rootdir = f.relpath.split("/")[0]
            dirname = os.path.dirname(f.relpath)
            for idx, line in enumerate(f.text_lines):
                m = INCLUDE_RE.match(line)
                if not m:
                    continue
                quoted, target = m.group(1) == '"', m.group(2)
                resolved = None
                if quoted:
                    for candidate in ("src/" + target,
                                      rootdir + "/" + target,
                                      (dirname + "/" + target) if dirname else target):
                        candidate = os.path.normpath(candidate).replace(os.sep, "/")
                        if candidate in self.files:
                            resolved = candidate
                            break
                f.includes.append((idx + 1, target, resolved, (idx + 1) in exported_lines))

    # -- reporting --------------------------------------------------------

    def report(self, relpath: str, line: int, rule: str, message: str):
        f = self.files.get(relpath)
        if f is not None and f.suppressions.allowed(line, rule):
            return
        self.findings.append(Finding(relpath, line, rule, message))

    # -- rules ------------------------------------------------------------

    def run(self, check_surface=True):
        self._check_suppressions()
        self._check_layers()
        self._check_cycles()
        self._check_guards()
        self._check_iwyu()
        if check_surface:
            self._check_api_surface()
        self._check_dead_api()
        self.findings.sort(key=lambda f: (f.relpath, f.line, f.rule))
        return self.findings

    def _check_suppressions(self):
        for f in self.files.values():
            for line, msg in f.suppressions.errors:
                self.findings.append(Finding(f.relpath, line, "bad-suppression", msg))

    def _check_layers(self):
        layers = self.config["layers"]
        cycle = declared_cycle(layers)
        if cycle:
            self.findings.append(Finding(
                self.layers_relpath, 1, "layer",
                "the declared layer graph is not a DAG: %s" % " -> ".join(cycle)))
            return
        known = set(layers)
        for dep_list in layers.values():
            if dep_list != "*":
                for d in dep_list:
                    if d not in known:
                        self.findings.append(Finding(
                            self.layers_relpath, 1, "layer",
                            "declared dependency on unknown module %r" % d))
        seen_undeclared_modules = set()
        for relpath in sorted(self.files):
            f = self.files[relpath]
            if f.module not in layers:
                if f.module not in seen_undeclared_modules:
                    seen_undeclared_modules.add(f.module)
                    self.report(relpath, 1, "layer",
                                "module %r (from %s) is not declared in %s"
                                % (f.module, relpath, self.layers_relpath))
                continue
            allowed = layers[f.module]
            for line, target, resolved, _exported in f.includes:
                if resolved is None:
                    continue
                dep = self.files[resolved].module
                if dep == f.module or allowed == "*" or dep in allowed:
                    continue
                back = declared_path(layers, dep, f.module)
                if back and len(back) > 1:
                    detail = ("back-edge: declared layering already orders %s"
                              % " -> ".join(back))
                else:
                    detail = ("undeclared edge %s -> %s; declare it in %s "
                              "or remove the dependency" %
                              (f.module, dep, self.layers_relpath))
                self.report(relpath, line, "layer",
                            "include of %r crosses %s -> %s which the layer DAG "
                            "does not allow (%s)" % (target, f.module, dep, detail))

    def _check_cycles(self):
        # Iterative DFS over the resolved include graph; every cycle is
        # reported once, anchored at its lexicographically smallest file.
        graph = {rel: sorted({r for (_l, _t, r, _e) in f.includes if r})
                 for rel, f in self.files.items()}
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {rel: WHITE for rel in graph}
        reported = set()
        for start in sorted(graph):
            if color[start] != WHITE:
                continue
            stack = [(start, iter(graph[start]))]
            color[start] = GRAY
            path = [start]
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == GRAY:
                        cycle = path[path.index(nxt):] + [nxt]
                        anchor = min(cycle[:-1])
                        key = frozenset(cycle[:-1])
                        if key not in reported:
                            reported.add(key)
                            at = cycle.index(anchor)
                            chain = cycle[at:-1] + cycle[:at] + [anchor]
                            line = next((l for (l, _t, r, _e) in
                                         self.files[anchor].includes
                                         if r == chain[1]), 1)
                            self.report(anchor, line, "cycle",
                                        "include cycle: %s" % " -> ".join(chain))
                    elif color[nxt] == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, iter(graph[nxt])))
                        path.append(nxt)
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
                    path.pop()

    def _check_guards(self):
        for relpath in sorted(self.files):
            f = self.files[relpath]
            if not f.is_header:
                continue
            if PRAGMA_ONCE_RE.search(f.raw_text):
                continue
            m = IFNDEF_GUARD_RE.search(f.raw_text)
            if m:
                line = f.raw_text[:m.start()].count("\n") + 1
                self.report(relpath, line, "header-guard",
                            "`#ifndef %s` include guard — the tree standard is "
                            "`#pragma once`" % m.group(1))
            else:
                self.report(relpath, 1, "header-guard",
                            "header has no include guard; add `#pragma once`")

    # IWYU-lite ----------------------------------------------------------

    def _effective_provides(self):
        """provides + symbols of exported includes, transitively."""
        memo = {}

        def effective(rel, trail):
            if rel in memo:
                return memo[rel]
            if rel in trail:
                return set()  # cycle: already a `cycle` finding
            out = set(self.files[rel].provides)
            for (_l, _t, resolved, exported) in self.files[rel].includes:
                if exported and resolved:
                    out |= effective(resolved, trail | {rel})
            memo[rel] = out
            return out

        for rel in self.files:
            effective(rel, frozenset())
        return memo

    def _closure(self, rel):
        """Transitive include closure (excluding rel itself), with
        parent pointers for chain reconstruction."""
        parent = {}
        queue = deque([rel])
        seen = {rel}
        while queue:
            cur = queue.popleft()
            for (_l, _t, resolved, _e) in self.files[cur].includes:
                if resolved and resolved not in seen:
                    seen.add(resolved)
                    parent[resolved] = cur
                    queue.append(resolved)
        return parent

    @staticmethod
    def _chain(parent, rel, target):
        chain = [target]
        while chain[-1] != rel:
            chain.append(parent[chain[-1]])
        return list(reversed(chain))

    def _check_iwyu(self):
        effective = self._effective_provides()

        # Unique-owner table for cross-header reference checks: a word
        # counts as a resolvable symbol only when exactly one header
        # declares it (collisions are too ambiguous for a regex
        # harvest) and it is long enough to be a deliberate name.
        owners = {}
        for rel, f in sorted(self.files.items()):
            if not f.is_header:
                continue
            for sym in f.provides:
                owners[sym] = rel if sym not in owners else None

        for relpath in sorted(self.files):
            f = self.files[relpath]
            stem = os.path.splitext(relpath)[0]

            direct = set()
            direct_syms = set()
            for (_line, _target, resolved, _exported) in f.includes:
                if resolved:
                    direct.add(resolved)
                    direct_syms |= effective[resolved]

            # unused-include: every quoted, resolved, non-exported
            # include must contribute at least one referenced symbol.
            for (line, target, resolved, exported) in f.includes:
                if resolved is None or exported:
                    continue
                if os.path.splitext(resolved)[0] == stem:
                    continue  # a .cpp's own header is its interface
                contributed = effective[resolved]
                if not contributed:
                    continue  # nothing harvestable — cannot judge
                if contributed & f.words:
                    continue
                self.report(relpath, line, "unused-include",
                            "include of %r is unused: none of its %d harvested "
                            "symbols are referenced here (IWYU-lite; mark "
                            "`// arch-check: export` if it is a deliberate "
                            "re-export)" % (target, len(contributed)))

            # transitive-include / self-contained: headers only.
            if not f.is_header:
                continue
            parent = self._closure(relpath)
            missing = {}  # owner -> (word, reachable)
            for word in sorted(f.words):
                # Only capitalized names (types, constants, macros) are
                # trusted as cross-header references: the tree's types
                # are UpperCamelCase while parameter/member names are
                # lower_snake, and the latter collide across headers far
                # too often for a regex symbol table.
                if len(word) < 4 or not word[0].isupper():
                    continue
                if word in STOPWORDS or word in f.provides:
                    continue
                owner = owners.get(word)
                if owner is None or owner == relpath:
                    continue
                if os.path.splitext(owner)[0] == stem:
                    continue  # partner header (x.h referencing x.cpp names)
                if word in direct_syms:
                    continue  # directly included (possibly via an export)
                if owner in missing:
                    continue
                missing[owner] = (word, owner in parent)
            for owner in sorted(missing):
                word, reachable = missing[owner]
                line = next((i + 1 for i, l in enumerate(f.src.code_lines)
                             if re.search(r"\b%s\b" % re.escape(word), l)), 1)
                if reachable:
                    chain = self._chain(parent, relpath, owner)
                    self.report(relpath, line, "transitive-include",
                                "references `%s` but its home header %s arrives "
                                "only transitively (%s); include it directly"
                                % (word, owner, " -> ".join(chain)))
                else:
                    self.report(relpath, line, "self-contained",
                                "references `%s` (declared in %s) but no include "
                                "path provides it — the header is not "
                                "self-contained" % (word, owner))

    # Dead public API ----------------------------------------------------

    def _check_dead_api(self):
        allow = self.config["dead_api_allow"]
        declared = {}  # qualname -> (relpath, line, name)
        named = set()
        for relpath in sorted(self.files):
            if relpath.startswith("tests/"):
                continue
            f = self.files[relpath]
            functions = scan_functions(f.stripped_text)
            if f.is_header and relpath.startswith("src/"):
                for d in functions:
                    if d.public and not d.exempt:
                        line = f.stripped_text.count("\n", 0, d.offset) + 1
                        declared.setdefault(d.qualname, (relpath, line, d.name))
            named |= mentions(f.stripped_text, {d.offset for d in functions})

        # The allow list is the only way to keep an uncalled function:
        # inline suppressions do not apply to this rule.
        with open(os.path.join(self.root, self.layers_relpath), encoding="utf-8") as fh:
            config_lines = fh.read().splitlines()

        def config_line(entry):
            return next((i + 1 for i, l in enumerate(config_lines) if entry in l), 1)

        def finding(relpath, line, message):
            self.findings.append(Finding(relpath, line, "dead-api", message))

        allowed = {}
        for entry in allow:
            qualname, _, reason = entry.partition(" -- ")
            if not reason.strip():
                finding(self.layers_relpath, config_line(entry),
                        "[dead_api] allow entry %r has no reason; write it as "
                        "\"Name -- reason\"" % entry)
                continue
            allowed[qualname.strip()] = config_line(entry)
        for qualname, (relpath, line, name) in sorted(declared.items()):
            if name not in named and qualname not in allowed:
                finding(relpath, line,
                        "`%s` is public but nothing outside tests/ names it; delete "
                        "it, or keep it as a test oracle with a reasoned entry in "
                        "the [dead_api] allow list of %s" % (qualname, self.layers_relpath))
        for qualname, line in sorted(allowed.items()):
            if qualname not in declared:
                finding(self.layers_relpath, line,
                        "[dead_api] allow entry `%s` names no public function of a "
                        "src/ header; drop the entry" % qualname)
            elif declared[qualname][2] in named:
                finding(self.layers_relpath, line,
                        "[dead_api] allow entry `%s` is stale: the function now has "
                        "a caller outside tests/; drop the entry" % qualname)

    # API surface --------------------------------------------------------

    def surface_lines(self):
        umbrella = self.config["umbrella"]
        if umbrella is None or umbrella not in self.files:
            return None
        closure = {umbrella} | set(self._closure(umbrella))
        out = [
            "# seamap public API surface — every header reachable from %s," % umbrella,
            "# comment-stripped and whitespace-normalized. Generated by",
            "# tools/lint/arch_check.py --update; CI fails on any drift.",
        ]
        for rel in sorted(closure):
            out.append("")
            out.append("== %s" % rel)
            for line in self.files[rel].text_lines:
                norm = " ".join(line.split())
                if norm:
                    out.append(norm)
        return out

    def _check_api_surface(self):
        snapshot = self.config["snapshot"]
        if snapshot is None:
            return
        expected = self.surface_lines()
        if expected is None:
            self.findings.append(Finding(
                self.layers_relpath, 1, "api-surface",
                "umbrella header %r not found in the scanned tree"
                % self.config["umbrella"]))
            return
        path = os.path.join(self.root, snapshot)
        if not os.path.isfile(path):
            self.findings.append(Finding(
                snapshot, 1, "api-surface",
                "snapshot missing — generate it with `arch_check.py --update`"))
            return
        with open(path, "r", encoding="utf-8") as fh:
            actual = fh.read().splitlines()
        if actual == expected:
            return
        line_no, detail = 1, "content differs"
        for i, (a, b) in enumerate(zip(actual, expected)):
            if a != b:
                line_no = i + 1
                detail = "first drift at line %d: snapshot has %r, tree has %r" % (
                    line_no, a, b)
                break
        else:
            line_no = min(len(actual), len(expected)) + 1
            detail = "snapshot has %d lines, tree produces %d" % (
                len(actual), len(expected))
        self.findings.append(Finding(
            snapshot, line_no, "api-surface",
            "public API surface drifted from the snapshot (%s); if the change "
            "is deliberate, regenerate with `arch_check.py --update` and "
            "review the snapshot diff" % detail))


# --------------------------------------------------------------------------
# Self-test: each fixture directory under tools/lint/fixtures/arch/ is a
# miniature tree with its own layers.toml and an EXPECT file naming the
# exact set of rules the analyzer must fire on it (or `clean`).


def run_case(case_root: str, update=False):
    layers_path = os.path.join(case_root, "layers.toml")
    config = load_layers_config(layers_path)
    analysis = Analysis(case_root, config, "layers.toml")
    if update:
        lines = analysis.surface_lines()
        if lines is None:
            print("arch_check: cannot update %r: umbrella %r not in tree"
                  % (config["snapshot"], config["umbrella"]), file=sys.stderr)
            return None
        path = os.path.join(case_root, config["snapshot"])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return analysis
    analysis.run()
    return analysis


def run_self_test(fixtures_root: str) -> int:
    if not os.path.isdir(fixtures_root):
        print("self-test: no fixtures under %s" % fixtures_root, file=sys.stderr)
        return 2
    cases = sorted(d for d in os.listdir(fixtures_root)
                   if os.path.isdir(os.path.join(fixtures_root, d)))
    if not cases:
        print("self-test: no fixture cases under %s" % fixtures_root, file=sys.stderr)
        return 2
    failures = []
    for case in cases:
        case_root = os.path.join(fixtures_root, case)
        expect_path = os.path.join(case_root, "EXPECT")
        if not os.path.isfile(expect_path):
            failures.append("%s: missing EXPECT file" % case)
            continue
        with open(expect_path, "r", encoding="utf-8") as fh:
            spec = [w for w in fh.read().split() if not w.startswith("#")]
        expected = set() if spec == ["clean"] else set(spec)
        unknown = expected - set(RULES)
        if unknown:
            failures.append("%s: unknown rule(s) in EXPECT: %s" % (case, sorted(unknown)))
            continue
        try:
            analysis = run_case(case_root)
        except (ConfigError, OSError) as e:
            failures.append("%s: analyzer error: %s" % (case, e))
            continue
        fired = {f.rule for f in analysis.findings}
        if fired != expected:
            lines = ["%s: expected rules %s, got %s" %
                     (case, sorted(expected) or "[clean]", sorted(fired) or "[clean]")]
            for f in analysis.findings:
                lines.append("    " + f.render())
            failures.append("\n".join(lines))
    if failures:
        for msg in failures:
            print("self-test FAIL: %s" % msg, file=sys.stderr)
        return 1
    print("self-test OK: %d fixture trees behaved as declared" % len(cases))
    return 0


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="arch_check.py",
        description="architecture conformance analyzer (see module docstring)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/lint/)")
    parser.add_argument("--layers", default=None,
                        help="layer DAG declaration (default: tools/lint/layers.toml)")
    parser.add_argument("--update", action="store_true",
                        help="regenerate the api_surface.txt snapshot and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run the analyzer over the fixture trees and verify "
                             "each fires exactly its declared rules")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in RULES.items():
            print("%-19s %s" % (rule, summary))
        return 0

    script_dir = os.path.dirname(os.path.abspath(__file__))
    if args.self_test:
        return run_self_test(os.path.join(script_dir, "fixtures", "arch"))

    root = os.path.abspath(args.root) if args.root \
        else os.path.dirname(os.path.dirname(script_dir))
    layers_path = os.path.abspath(args.layers) if args.layers \
        else os.path.join(script_dir, "layers.toml")
    layers_relpath = os.path.relpath(layers_path, root).replace(os.sep, "/")

    try:
        config = load_layers_config(layers_path)
    except (ConfigError, OSError) as e:
        print("arch_check: %s" % e, file=sys.stderr)
        return 2

    analysis = Analysis(root, config, layers_relpath)
    if args.update:
        lines = analysis.surface_lines()
        if lines is None or config["snapshot"] is None:
            print("arch_check: --update needs [api_surface] umbrella+snapshot in "
                  "layers.toml, with the umbrella present in the tree", file=sys.stderr)
            return 2
        path = os.path.join(root, config["snapshot"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print("arch_check: wrote %s (%d lines)" % (config["snapshot"], len(lines)))
        return 0

    findings = analysis.run()
    for f in findings:
        print(f.render())
    if findings:
        print("arch_check: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
