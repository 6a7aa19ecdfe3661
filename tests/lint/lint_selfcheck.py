#!/usr/bin/env python3
"""Self-test harness for ci/determinism_lint.py.

Runs the lint over the fixture files in tests/lint/fixtures/ and asserts:

  * every ``*_violating.cc`` fixture produces exactly the expected rule IDs
    (so a rule that stops firing fails CI, not just quietly passes),
  * every ``*_conforming.cc`` fixture is clean,
  * the unknown-waiver fixture raises W0 *and* leaves its finding unwaived,
  * the lint over the real ``src/`` tree is clean (every violation fixed or
    waived), and every waiver comment in ``src/`` uses only known tokens —
    the W0 rule run standalone.

Runs under ctest (registered in CMakeLists.txt) and standalone:
    python3 tests/lint/lint_selfcheck.py
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "ci", "determinism_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

# fixture -> expected multiset of rule IDs (minimum counts; exact rule set).
EXPECTED_VIOLATIONS = {
    "r1_violating.cc": {"R1": 4},
    "r2_violating.cc": {"R2": 4},
    "r3_violating.cc": {"R3": 4},
    "r5_violating.cc": {"R5": 3},
    "w0_unknown_waiver.cc": {"W0": 1, "R1": 1},
}

CONFORMING = [
    "r1_conforming.cc",
    "r2_conforming.cc",
    "r3_conforming.cc",
    "r5_conforming.cc",
]

FINDING_RE = re.compile(r"\[(\w\d):[a-z-]+\]")

failures = []


def run_lint(paths, extra=()):
    cmd = [sys.executable, LINT, "--engine=regex", *extra, *paths]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)
    rules = {}
    for m in FINDING_RE.finditer(proc.stdout):
        rules[m.group(1)] = rules.get(m.group(1), 0) + 1
    return proc.returncode, rules, proc.stdout + proc.stderr


def check(name, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print(f"[{status}] {name}" + (f"\n       {detail}" if not cond else ""))
    if not cond:
        failures.append(name)


def main():
    # R5 is scoped to src/exec/ in production; fixtures opt in everywhere.
    fixture_args = ("--r5-scope", "")

    for fixture, expected in sorted(EXPECTED_VIOLATIONS.items()):
        path = os.path.join(FIXTURES, fixture)
        rc, rules, out = run_lint([path], fixture_args)
        check(
            f"{fixture}: exits non-zero",
            rc == 1,
            f"exit={rc}\n{out}",
        )
        for rule, count in expected.items():
            check(
                f"{fixture}: >= {count} x {rule}",
                rules.get(rule, 0) >= count,
                f"got {rules}\n{out}",
            )
        check(
            f"{fixture}: no unexpected rules",
            set(rules) == set(expected),
            f"expected only {sorted(expected)}, got {rules}\n{out}",
        )

    for fixture in CONFORMING:
        path = os.path.join(FIXTURES, fixture)
        rc, rules, out = run_lint([path], fixture_args)
        check(f"{fixture}: clean", rc == 0 and not rules, f"{rules}\n{out}")

    # The real tree must be clean end-to-end...
    rc, rules, out = run_lint([os.path.join(REPO, "src")])
    check("src/ lints clean", rc == 0 and not rules, f"{rules}\n{out}")

    # ...and every waiver comment in src/ must use known vocabulary: run
    # only the W0 token audit so a typo'd waiver cannot hide behind the
    # finding it silently fails to waive.
    rc, rules, out = run_lint(
        [os.path.join(REPO, "src")], ("--rules", "W0")
    )
    check(
        "src/ waiver tokens all known",
        rc == 0 and not rules,
        f"{rules}\n{out}",
    )

    # The fault subsystem is determinism-critical (the injector is probed
    # from inside parallel copy loops and every chaos trajectory must be
    # bit-replayable), so pin it into the audited scope explicitly: a path
    # refactor must not silently drop it from the scan.
    rc, rules, out = run_lint([os.path.join(REPO, "src", "fault")])
    check(
        "src/fault/ audited and clean",
        rc == 0 and not rules and " 0 files" not in out,
        f"{rules}\n{out}",
    )

    if failures:
        print(f"\n{len(failures)} lint self-check failure(s)")
        return 1
    print("\nall lint self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
