#!/usr/bin/env python3
"""Determinism lint: project-specific static analysis for the data plane.

Every performance layer in this repo (morsel parallelism, SIMD dispatch,
radix joins, the serving layer) rests on one contract: results are
bit-identical across thread counts, morsel grains, partition bits, and
kernel dispatch. The invariance tests enforce that contract dynamically, by
sampling a few configurations; this lint enforces the *sources* of
order-ambiguity statically, at every call site, on every PR.

Rules (all scoped to ``src/``; ``tests/`` and ``bench/`` are not linted):

  R1 unordered-iteration
      No range-for / iterator traversal of ``std::unordered_map`` /
      ``std::unordered_set`` (directly, through a type alias, or through an
      accessor declared to return one). Hash iteration order is
      libstdc++-, seed-, and history-dependent; anything it feeds (merges,
      first-wins inserts, emitted sequences) silently becomes
      order-dependent. Waivers:
        ``// arraydb-lint: ordered-extract``    the loop only copies into a
                                                container that is sorted (or
                                                is a sorted container) before
                                                anything reads it
        ``// arraydb-lint: order-insensitive``  the loop body is commutative
                                                and duplicate-free (set
                                                membership, exact integer
                                                sums); document why

  R2 nondeterministic-rng
      No ``std::rand``/``srand``, no ``std::random_device``, no RNG
      constructed from a clock (``time(``, ``::now(``). All randomness goes
      through ``util::Rng`` with a caller-provided seed. No waiver.

  R3 side-effecting-macro-arg
      Arguments of ``TELEM_*`` and ``ARRAYDB_CHECK*`` macros must be pure
      expressions: no assignment, no ``++``/``--``. Telemetry compiles out
      (-DARRAYDB_TELEMETRY=OFF) without evaluating its arguments, and check
      macros may be compiled out in future build modes — a side effect in an
      argument makes the compiled-out build diverge. No waiver. (Non-const
      member calls in arguments are only detectable with the AST engine;
      the regex engine checks the token-level mutations.)

  R5 float-accumulation
      In files under ``src/exec/``: no ``std::accumulate`` and no ``+=``
      into a floating-point (or unclassifiable) target inside a loop,
      unless the site carries ``// arraydb-lint: fixed-order`` documenting
      the merge-order contract (what pins the accumulation order: sorted
      chunk list, fixed morsel order, sequential stream, ...). ``+=`` into
      a provably integral target is exact in any order and never flagged.

Waiver comments (``// arraydb-lint: <token> [token...] -- justification``;
the `` -- `` separator keeps prose out of the token list) apply to findings
on the same line and the next two lines.
Any ``arraydb-lint:`` comment carrying an unknown token is itself an error
(W0), so the waiver vocabulary cannot rot.

Engines: ``--engine=regex`` (default fallback, no toolchain needed) scans
comment- and string-stripped source with declaration harvesting across the
file's project includes. ``--engine=clang`` parses each file with
``clang++ -Xclang -ast-dump=json`` and replaces the regex range-for check
of R1 with the AST's actual deduced range type; every other rule is
token-level by nature (macro arguments don't survive preprocessing into
the AST) and always runs on the regex engine. ``--engine=auto`` (default)
uses clang when a working ``clang++`` is on PATH and falls back per-file on
any parse trouble, so the gate never depends on toolchain availability.

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RULES = {
    "R1": "unordered-iteration",
    "R2": "nondeterministic-rng",
    "R3": "side-effecting-macro-arg",
    "R5": "float-accumulation",
    "W0": "unknown-waiver-token",
}

# Waiver vocabulary: token -> rule it can waive.
WAIVER_TOKENS = {
    "ordered-extract": "R1",
    "order-insensitive": "R1",
    "fixed-order": "R5",
}

INT_TYPES = (
    "int",
    "int8_t",
    "int16_t",
    "int32_t",
    "int64_t",
    "uint8_t",
    "uint16_t",
    "uint32_t",
    "uint64_t",
    "size_t",
    "ptrdiff_t",
    "long",
    "short",
    "unsigned",
    "bool",
    "char",
    "NodeId",
)

FP_TYPES = ("double", "float")

# Tokens are lowercase hyphenated words after `arraydb-lint:`; justification
# prose follows after ` -- ` (or a parenthetical), which the token pattern
# cannot cross.
_TOKEN = r"[a-z]+(?:-[a-z]+)*"
WAIVER_RE = re.compile(
    r"//\s*arraydb-lint:\s*(%s(?:[ ,]+%s)*)" % (_TOKEN, _TOKEN)
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        rel = os.path.relpath(self.path, REPO_ROOT)
        return f"{rel}:{self.line}: [{self.rule}:{RULES[self.rule]}] {self.message}"


def strip_comments_and_strings(text):
    """Returns (stripped_text, waivers) with comments/strings blanked.

    Newlines are preserved so character offsets keep mapping to the same
    line numbers. Waivers is a dict line -> set(tokens) harvested from
    ``// arraydb-lint:`` comments before they are blanked. Unknown tokens
    are kept so the caller can report W0.
    """
    out = []
    waivers = {}
    i, n = 0, len(text)
    line = 1
    state = "code"  # code | line_comment | block_comment | string | char
    comment_start = 0
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                comment_start = i
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                comment = text[comment_start:i]
                m = WAIVER_RE.search(comment)
                if m:
                    tokens = [
                        t
                        for t in re.split(r"[ ,]+", m.group(1).strip())
                        if t and t != "-"
                    ]
                    waivers.setdefault(line, set()).update(tokens)
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
            out.append(c if c in '"\n' else " ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
            out.append(c if c in "'\n" else " ")
        if c == "\n":
            line += 1
        i += 1
    return "".join(out), waivers


def blank_preprocessor(stripped):
    """Blanks preprocessor directives (incl. continuation lines)."""
    lines = stripped.split("\n")
    out = []
    in_directive = False
    for ln in lines:
        if in_directive or ln.lstrip().startswith("#"):
            in_directive = ln.rstrip().endswith("\\")
            out.append("")
        else:
            in_directive = False
            out.append(ln)
    return "\n".join(out)


def match_angle(text, start):
    """Given index of '<', returns index one past its matching '>'."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return -1  # Not a template argument list after all.
        i += 1
    return -1


class Decls:
    """Names harvested from a file and its project includes.

    ``positional`` maps name -> sorted [(line, kind)] for declarations in
    the linted file itself; a usage resolves to the nearest preceding
    declaration of its name (C++ shadowing, approximated). The closure-wide
    sets aggregate the file plus its transitive project includes and only
    break ties when the file has no local declaration; a name that is, for
    example, an unordered map in one header and a vector in another is
    ambiguous and never flagged (conservative: the known accessors still
    catch the cross-file cases that matter).

    Kinds: ``unordered`` / ``ordered`` (optionally suffixed ``-fp`` /
    ``-int`` for the element type), ``int``, ``fp``, ``unknown`` (e.g.
    ``auto`` declarations, whose deduced type regexes cannot see -- they
    shadow conservatively).
    """

    def __init__(self):
        self.positional = {}  # name -> [(line, kind)], file-local only.
        self.closure = {}  # name -> set of kinds, file + include closure.
        self.unordered_accessors = set()
        self.ordered_accessors = set()
        self.unordered_aliases = set()

    def add(self, name, line, kind, local):
        if local:
            self.positional.setdefault(name, []).append((line, kind))
        self.closure.setdefault(name, set()).add(kind)

    def finish(self):
        for decl_list in self.positional.values():
            decl_list.sort()

    @staticmethod
    def _collapse(kinds):
        if len(kinds) == 1:
            return next(iter(kinds))
        families = {k.split("-")[0] for k in kinds}
        if len(families) == 1 and families <= {"unordered", "ordered"}:
            return families.pop()  # Same family, mixed element types.
        return "unknown"

    def resolve(self, name, line):
        """Kind of `name` at `line`: nearest preceding local decl, else the
        unambiguous closure kind, else 'unknown'."""
        best = None
        for decl_line, kind in self.positional.get(name, ()):  # Sorted.
            if decl_line <= line:
                best = kind
            else:
                break
        if best is not None:
            return best
        kinds = self.closure.get(name)
        return self._collapse(kinds) if kinds else "unknown"


_DECL_CACHE = {}

INCLUDE_RE = re.compile(r'#include\s+"([^"]+)"')
ALIAS_RE = re.compile(
    r"\b(?:using\s+(\w+)\s*=\s*[^;=]*unordered_(?:map|set)\s*<"
    r"|typedef\s+[^;]*unordered_(?:map|set)\s*<[^;]*?\s(\w+)\s*;)"
)
ORDERED_TMPL = (
    r"(?:std\s*::\s*)?(?:map|multimap|set|multiset|vector|deque|array|"
    r"span|list|pair)"
)
INT_DECL_RE = re.compile(
    r"\b(?:const\s+)?(?:%s)\b\s*(?:const\s*)?[&*]*\s+(\w+)\s*[;,=({\[)]"
    % "|".join(INT_TYPES)
)
FP_DECL_RE = re.compile(
    r"\b(?:const\s+)?(?:%s)\b\s*(?:const\s*)?[&*]*\s+(\w+)\s*[;,=({\[)]"
    % "|".join(FP_TYPES)
)
AUTO_DECL_RE = re.compile(r"\bauto\s*(?:const\s*)?[&*]*\s*(\w+)\s*=")

_NOT_NAMES = ("const", "return", "new", "typename", "struct", "class")


def _harvest_container_decls(stripped, decls, local, alias_names):
    """Finds names declared with container types (unordered and ordered)."""
    jobs = []  # (start_index, flavor)
    for m in re.finditer(r"\bunordered_(?:map|set)\s*<", stripped):
        jobs.append((m.start(), "unordered"))
    for m in re.finditer(r"\b%s\s*<" % ORDERED_TMPL, stripped):
        jobs.append((m.start(), "ordered"))
    for name in alias_names:
        for m in re.finditer(r"\b%s\b(?!\s*[=<.])" % re.escape(name), stripped):
            jobs.append((m.start(), "unordered-alias"))
    for start, flavor in jobs:
        if flavor == "unordered-alias":
            end = start + len(re.match(r"\w+", stripped[start:]).group(0))
        else:
            lt = stripped.find("<", start)
            if lt == -1 or lt - start > 32:
                continue
            end = match_angle(stripped, lt)
            if end == -1:
                continue
        kind = "unordered" if flavor.startswith("unordered") else "ordered"
        if flavor != "unordered-alias":
            inner = stripped[start:end]
            if re.search(r"\b(?:%s)\b" % "|".join(FP_TYPES), inner):
                kind += "-fp"  # Value type wins over integral keys.
            elif re.search(r"\b(?:%s)\b" % "|".join(INT_TYPES), inner):
                kind += "-int"
        tail = stripped[end : end + 160]
        m = re.match(r"\s*(?:const\s*)?[&*]*\s*(\w+)\s*([;,=({])?", tail)
        if not m or not m.group(1) or m.group(1) in _NOT_NAMES:
            continue
        name, sep = m.group(1), m.group(2)
        line = stripped.count("\n", 0, start) + 1
        if sep == "(":
            # Function declared to return this container type.
            (decls.unordered_accessors if kind.startswith("unordered")
             else decls.ordered_accessors).add(name)
        else:
            decls.add(name, line, kind, local)


def harvest_file_decls(path, local=True):
    """Harvests declared names from one file + its project includes."""
    key = (path, local)
    if key in _DECL_CACHE:
        return _DECL_CACHE[key]
    decls = Decls()
    _DECL_CACHE[key] = decls  # Pre-insert: include cycles terminate.
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except OSError:
        return decls
    stripped, _ = strip_comments_and_strings(raw)

    alias_names = set()
    for m in ALIAS_RE.finditer(stripped):
        alias_names.add(m.group(1) or m.group(2))
    decls.unordered_aliases |= alias_names
    _harvest_container_decls(stripped, decls, local, alias_names)

    for m in INT_DECL_RE.finditer(stripped):
        decls.add(m.group(1), stripped.count("\n", 0, m.start()) + 1, "int",
                  local)
    for m in FP_DECL_RE.finditer(stripped):
        decls.add(m.group(1), stripped.count("\n", 0, m.start()) + 1, "fp",
                  local)
    for m in AUTO_DECL_RE.finditer(stripped):
        decls.add(m.group(1), stripped.count("\n", 0, m.start()) + 1,
                  "unknown", local)

    # Merge the closure of project includes (src/-relative), positions
    # dropped: included declarations never shadow file-local ones.
    for m in INCLUDE_RE.finditer(raw):
        inc = os.path.join(REPO_ROOT, "src", m.group(1))
        if os.path.isfile(inc) and os.path.abspath(inc) != os.path.abspath(path):
            sub = harvest_file_decls(os.path.abspath(inc), local=False)
            for name, kinds in sub.closure.items():
                decls.closure.setdefault(name, set()).update(kinds)
            decls.unordered_accessors |= sub.unordered_accessors
            decls.ordered_accessors |= sub.ordered_accessors
            decls.unordered_aliases |= sub.unordered_aliases
    decls.finish()
    return decls


def loop_body_lines(stripped):
    """Lines (1-based) inside for/while loop bodies, braces or single-stmt."""
    in_loop = set()
    n = len(stripped)
    line_of = []
    line = 1
    for c in stripped:
        line_of.append(line)
        if c == "\n":
            line += 1
    for m in re.finditer(r"\b(for|while)\s*\(", stripped):
        # Find the matching ')' of the loop header.
        i = m.end() - 1
        depth = 0
        while i < n:
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= n:
            continue
        j = i + 1
        while j < n and stripped[j] in " \t\n":
            j += 1
        if j >= n:
            continue
        if stripped[j] == "{":
            depth = 0
            k = j
            while k < n:
                if stripped[k] == "{":
                    depth += 1
                elif stripped[k] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            body_end = min(k, n - 1)
        else:
            k = stripped.find(";", j)
            body_end = k if k != -1 else n - 1
        for ln in range(line_of[j], line_of[body_end] + 1):
            in_loop.add(ln)
        # The header line itself can hold the body of a one-liner.
        in_loop.add(line_of[m.start()])
    return in_loop


def extract_macro_args(stripped, start_paren):
    """Returns (args_text, end_index) for a balanced paren group."""
    depth = 0
    i = start_paren
    n = len(stripped)
    while i < n:
        if stripped[i] == "(":
            depth += 1
        elif stripped[i] == ")":
            depth -= 1
            if depth == 0:
                return stripped[start_paren + 1 : i], i
        i += 1
    return None, n


FOR_HEAD_RE = re.compile(r"\bfor\s*\(")
# The range-for colon: a lone `:`, never half of a `::` scope operator.
RANGE_COLON_RE = re.compile(r"(?<!:):(?!:)")


def range_for_ranges(stripped):
    """Yields (start, range expression) for every range-for header.

    The header ends at the parenthesis that closes ``for (``, so the body of
    a braceless one-liner (``for (x : v) m.at(x.k) = 0;``) is never read as
    part of the range expression.
    """
    for m in FOR_HEAD_RE.finditer(stripped):
        header, _ = extract_macro_args(stripped, m.end() - 1)
        if header is None or ";" in header:
            continue
        colon = RANGE_COLON_RE.search(header)
        if colon:
            yield m.start(), header[colon.end() :]


# Iteration needs begin(); a bare `.end()` is the find-lookup idiom
# (`it == m.end()`), which does not expose hash order.
BEGIN_RE = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")
R2_DIRECT_RE = re.compile(
    r"std::rand\b|\bsrand\s*\(|(?<![\w.])rand\s*\(\s*\)|\brandom_device\b"
)
R2_TIME_SEED_RE = re.compile(
    r"\b(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?|"
    r"ranlux\w+|knuth_b|Rng)\b[^;{]*?[({][^;]*?\b(?:time\s*\(|now\s*\()"
)
MACRO_RE = re.compile(r"\b(TELEM_[A-Z_]+|ARRAYDB_CHECK(?:_[A-Z]+)*)\s*\(")
MUTATION_RE = re.compile(
    r"\+\+|--|(?:\+|-|\*|/|%|&|\||\^|<<|>>)=(?!=)|(?<![=!<>+\-*/%&|^])=(?!=)"
)
def accum_lhs(text, plus_idx):
    """Left-hand-side expression of a `+=` at text[plus_idx], extracted by
    scanning backward with bracket balancing (so indexed targets like
    ``minutes[static_cast<size_t>(n)] +=`` survive intact)."""
    j = plus_idx - 1
    while j >= 0 and text[j] in " \t":
        j -= 1
    depth = 0
    while j >= 0:
        c = text[j]
        if c in ")]":
            depth += 1
        elif c in "([":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0:
            ok = (
                c.isalnum()
                or c in "_.>"
                or (c == "-" and text[j + 1] == ">")
                or (
                    c == ":"
                    and ((j > 0 and text[j - 1] == ":") or text[j + 1] == ":")
                )
            )
            if not ok:
                break
        j -= 1
    return text[j + 1 : plus_idx].strip()


def lhs_candidates(lhs):
    """Identifier candidates of a `x += ` left-hand side, for typing.

    Ordered least- to most-specific: base identifier first, then the final
    member access if there is one (``cost.scanned_gb`` -> ``scanned_gb``).
    """
    names = re.findall(r"[A-Za-z_]\w*", lhs)
    if not names:
        return []
    cands = [names[0]]
    m = re.search(r"(?:\.|->)\s*([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*$", lhs)
    if m and m.group(1) != names[0]:
        cands.append(m.group(1))
    return cands


def lint_file(path, decls, args, ast_range_for=None):
    findings = []
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except OSError as e:
        findings.append(Finding(path, 0, "W0", f"unreadable file: {e}"))
        return findings, {}, frozenset()
    stripped_all, waivers = strip_comments_and_strings(raw)
    stripped = blank_preprocessor(stripped_all)
    lines = stripped.split("\n")
    blank_lines = {
        i
        for i, ln in enumerate(stripped_all.split("\n"), start=1)
        if not ln.strip()
    }
    rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")

    def references_unordered(expr, line_no):
        if "unordered_" in expr:
            return True
        for name in re.findall(r"[A-Za-z_]\w*", expr):
            if re.search(r"\b%s\s*\(" % re.escape(name), expr):
                # A call: flag only via the accessor return types, and only
                # when unambiguous across the include closure.
                if (
                    name in decls.unordered_accessors
                    and name not in decls.ordered_accessors
                ):
                    return True
                continue
            if decls.resolve(name, line_no).startswith("unordered"):
                return True
        return False

    # R1: range-for over unordered containers.
    if "R1" in args.rules:
        seen_lines = set()
        if ast_range_for is not None:
            for line_no in ast_range_for:
                findings.append(
                    Finding(
                        path,
                        line_no,
                        "R1",
                        "range-for over an unordered container "
                        "(clang AST: deduced range type is unordered)",
                    )
                )
                seen_lines.add(line_no)
        else:
            for start, expr in range_for_ranges(stripped):
                line_no = stripped.count("\n", 0, start) + 1
                if references_unordered(expr, line_no):
                    findings.append(
                        Finding(
                            path,
                            line_no,
                            "R1",
                            "range-for over an unordered container "
                            f"(`{expr.strip()}`): hash order is not "
                            "deterministic",
                        )
                    )
                    seen_lines.add(line_no)
        for m in BEGIN_RE.finditer(stripped):
            line_no = stripped.count("\n", 0, m.start()) + 1
            if decls.resolve(m.group(1), line_no).startswith("unordered"):
                if line_no in seen_lines:
                    continue
                findings.append(
                    Finding(
                        path,
                        line_no,
                        "R1",
                        f"iterator traversal of unordered `{m.group(1)}`: "
                        "hash order is not deterministic",
                    )
                )
                seen_lines.add(line_no)

    # R2: nondeterministic randomness.
    if "R2" in args.rules:
        for i, ln in enumerate(lines, start=1):
            if R2_DIRECT_RE.search(ln):
                findings.append(
                    Finding(
                        path,
                        i,
                        "R2",
                        "nondeterministic randomness source (rand/srand/"
                        "random_device); use util::Rng with an explicit seed",
                    )
                )
        for m in R2_TIME_SEED_RE.finditer(stripped):
            line_no = stripped.count("\n", 0, m.start()) + 1
            findings.append(
                Finding(
                    path,
                    line_no,
                    "R2",
                    "RNG seeded from a clock; seeds must be explicit inputs",
                )
            )

    # R3: side-effecting TELEM_* / ARRAYDB_CHECK* arguments.
    if "R3" in args.rules:
        for m in MACRO_RE.finditer(stripped):
            args_text, _ = extract_macro_args(stripped, m.end() - 1)
            if args_text is None:
                continue
            mut = MUTATION_RE.search(args_text)
            if mut:
                line_no = stripped.count("\n", 0, m.start()) + 1
                findings.append(
                    Finding(
                        path,
                        line_no,
                        "R3",
                        f"side effect (`{mut.group(0)}`) in {m.group(1)} "
                        "argument; disabled/compiled-out builds would "
                        "diverge",
                    )
                )

    # R5: floating-point accumulation in the reduction-bearing scope.
    r5_scoped = any(rel.startswith(p) for p in args.r5_scope) or (
        "" in args.r5_scope
    )
    if "R5" in args.rules and r5_scoped:
        for m in re.finditer(r"\bstd::accumulate\b", stripped):
            line_no = stripped.count("\n", 0, m.start()) + 1
            findings.append(
                Finding(
                    path,
                    line_no,
                    "R5",
                    "std::accumulate: reduction order must be pinned "
                    "explicitly (fixed-order loop or kernel contract)",
                )
            )
        in_loop = loop_body_lines(stripped)
        for i, ln in enumerate(lines, start=1):
            if i not in in_loop:
                continue
            for m in re.finditer(r"\+=", ln):
                lhs = accum_lhs(ln, m.start())
                cands = lhs_candidates(lhs)
                if not cands:
                    continue
                # Most-specific candidate (final member) wins.
                resolved = "unknown"
                for c in reversed(cands):
                    k = decls.resolve(c, i)
                    if k != "unknown":
                        resolved = k
                        break
                if resolved == "int" or resolved.endswith("-int"):
                    continue  # Integral += is exact in any order.
                if resolved == "fp" or resolved.endswith("-fp"):
                    kind = "floating-point"
                else:
                    kind = "unclassified (possibly floating-point)"
                findings.append(
                    Finding(
                        path,
                        i,
                        "R5",
                        f"{kind} `+=` reduction in a loop "
                        f"(`{lhs} +=`); annotate the "
                        "merge-order contract",
                    )
                )

    return findings, waivers, blank_lines


def apply_waivers(findings, waivers, path, blank_lines=frozenset()):
    """Drops waived findings; reports unknown waiver tokens as W0.

    A waiver's window starts at the last line of its comment block (a
    multi-line justification slides the window down with it, via
    ``blank_lines`` — lines that are empty once comments are stripped) and
    covers that line plus the next two.
    """
    kept = []
    out_w0 = []
    effective = {}
    for line, tokens in sorted(waivers.items()):
        for t in tokens:
            if t not in WAIVER_TOKENS:
                out_w0.append(
                    Finding(
                        path,
                        line,
                        "W0",
                        f"unknown arraydb-lint waiver token `{t}` "
                        f"(known: {', '.join(sorted(WAIVER_TOKENS))})",
                    )
                )
        eff = line
        while eff + 1 in blank_lines:
            eff += 1
        effective.setdefault(eff, set()).update(tokens)
    for f in findings:
        waived = False
        for delta in (0, 1, 2):
            tokens = effective.get(f.line - delta, set())
            if any(WAIVER_TOKENS.get(t) == f.rule for t in tokens):
                waived = True
                break
        if not waived:
            kept.append(f)
    return kept + out_w0


# -- clang AST engine (R1 range-for precision) --------------------------------


def find_clang():
    for name in ("clang++", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def ast_unordered_range_fors(clang, path, verbose):
    """Lines of CXXForRangeStmt whose deduced range type is unordered.

    Returns None when the AST is unavailable (compile error, schema
    surprise, crash) so the caller falls back to the regex engine.
    """
    cmd = [
        clang,
        "-fsyntax-only",
        "-std=c++20",
        "-I",
        os.path.join(REPO_ROOT, "src"),
        "-Xclang",
        "-ast-dump=json",
        path,
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0 or not proc.stdout:
            if verbose:
                print(
                    f"note: clang AST unavailable for {path}; regex fallback",
                    file=sys.stderr,
                )
            return None
        root = json.loads(proc.stdout)
    except Exception:
        if verbose:
            print(
                f"note: clang AST parse failed for {path}; regex fallback",
                file=sys.stderr,
            )
        return None

    main_file = os.path.abspath(path)
    result = set()

    def walk(node, cur_line, cur_file):
        if not isinstance(node, dict):
            return cur_line, cur_file
        loc = node.get("loc") or {}
        # clang omits unchanged file/line fields; carry them forward.
        spelling = loc.get("spellingLoc") or loc.get("expansionLoc") or loc
        if isinstance(spelling, dict):
            cur_file = spelling.get("file", cur_file)
            cur_line = spelling.get("line", cur_line)
        if (
            node.get("kind") == "CXXForRangeStmt"
            and cur_file
            and os.path.abspath(cur_file) == main_file
        ):
            if _range_var_is_unordered(node):
                result.add(cur_line)
        for child in node.get("inner", []) or []:
            cur_line, cur_file = walk(child, cur_line, cur_file)
        return cur_line, cur_file

    def _range_var_is_unordered(for_node):
        for child in for_node.get("inner", []) or []:
            if not isinstance(child, dict):
                continue
            if child.get("kind") == "DeclStmt":
                for var in child.get("inner", []) or []:
                    if (
                        isinstance(var, dict)
                        and var.get("kind") == "VarDecl"
                        and var.get("name", "").startswith("__range")
                    ):
                        qual = (var.get("type") or {}).get("qualType", "")
                        desugared = (var.get("type") or {}).get(
                            "desugaredQualType", ""
                        )
                        if "unordered_" in qual or "unordered_" in desugared:
                            return True
        return False

    walk(root, 0, None)
    return result


# -- driver -------------------------------------------------------------------


def collect_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(os.path.abspath(p))
        else:
            for dirpath, _dirnames, filenames in os.walk(p):
                for fn in sorted(filenames):
                    if fn.endswith((".h", ".cc", ".cpp", ".hpp")):
                        files.append(os.path.abspath(os.path.join(dirpath, fn)))
    return sorted(set(files))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument(
        "paths",
        nargs="*",
        default=[os.path.join(REPO_ROOT, "src")],
        help="files or directories to lint (default: src/)",
    )
    ap.add_argument(
        "--engine",
        choices=("auto", "regex", "clang"),
        default="auto",
        help="R1 range-for analysis engine (default: auto)",
    )
    ap.add_argument(
        "--rules",
        default=",".join(rid for rid in RULES if rid.startswith("R")),
        help="comma-separated rule subset to run (default: all)",
    )
    ap.add_argument(
        "--r5-scope",
        default="src/exec/",
        help="comma-separated repo-relative prefixes R5 applies to "
        "(default: src/exec/; empty string means everywhere — used by "
        "the fixture harness)",
    )
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for rid, name in RULES.items():
            print(f"{rid}  {name}")
        return 0

    args.rules = {r.strip().upper() for r in args.rules.split(",") if r.strip()}
    unknown = args.rules - set(RULES)
    if unknown:
        print(f"error: unknown rules {sorted(unknown)}", file=sys.stderr)
        return 2
    args.r5_scope = [p.strip() for p in args.r5_scope.split(",")]

    clang = None
    if args.engine in ("auto", "clang"):
        clang = find_clang()
        if clang is None and args.engine == "clang":
            print("error: --engine=clang but no clang++ on PATH", file=sys.stderr)
            return 2

    files = collect_files(args.paths)
    if not files:
        print("error: no source files found", file=sys.stderr)
        return 2

    all_findings = []
    for path in files:
        decls = harvest_file_decls(path)
        ast_lines = None
        if clang is not None and "R1" in args.rules:
            ast_lines = ast_unordered_range_fors(clang, path, args.verbose)
        findings, waivers, blanks = lint_file(
            path, decls, args, ast_range_for=ast_lines
        )
        all_findings.extend(apply_waivers(findings, waivers, path, blanks))

    all_findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in all_findings:
        print(f)
    n = len(all_findings)
    engine = "clang-ast" if clang else "regex"
    print(
        f"determinism-lint: {len(files)} files, {n} finding(s) "
        f"[R1 engine: {engine}]",
        file=sys.stderr,
    )
    return 1 if n else 0


if __name__ == "__main__":
    sys.exit(main())
