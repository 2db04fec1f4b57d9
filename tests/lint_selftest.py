#!/usr/bin/env python3
"""Self-test for scripts/hygraph_lint.py.

Runs the linter over tests/lint_fixtures/ — a miniature repo tree holding,
for every rule, one file that violates it and one clean counterpart (the
clean file for the location-scoped rules lives in the exempt directory, so
the exemption is tested too). The linter must report EXACTLY the expected
(path, line, check) triples: a missing finding means a rule regressed, an
extra one means a rule now fires on clean code.

Registered as the `lint_selftest` ctest case (tests/CMakeLists.txt).
"""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINTER = REPO / "scripts" / "hygraph_lint.py"
FIXTURES = REPO / "tests" / "lint_fixtures"

EXPECTED = {
    ("src/common/ccinclude_bad.cc", 1, "cc-include"),
    ("src/common/clock_bad.cc", 3, "raw-clock"),
    ("src/common/cout_bad.cc", 2, "no-cout"),
    ("src/common/delete_bad.cc", 2, "naked-delete"),
    ("src/common/guard_bad.h", 1, "include-guard"),
    ("src/common/mutex_bad.cc", 2, "raw-mutex"),
    ("src/common/new_bad.cc", 1, "naked-new"),
    ("src/common/rand_bad.cc", 2, "raw-rand"),
    ("src/common/sleep_bad.cc", 4, "raw-sleep"),
    ("src/common/thread_bad.cc", 3, "raw-thread"),
    ("src/obs/layering_bad.h", 4, "layering"),
    ("src/server/socket_bad.cc", 3, "raw-socket"),
    ("src/storage/double_format_bad.cc", 5, "double-format"),
    ("src/storage/fileio_bad.cc", 3, "raw-file-io"),
    ("src/storage/snapshot_bad.cc", 5, "backend-subclass"),
    ("src/storage/unranked_bad.h", 10, "unranked-lock"),
}

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<check>[a-z-]+)\]")


def main() -> int:
    proc = subprocess.run(
        [sys.executable, str(LINTER), "--root", str(FIXTURES)],
        capture_output=True, text=True)

    got = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            got.add((m.group("path"), int(m.group("line")), m.group("check")))

    failures = []
    if proc.returncode != 1:
        failures.append(
            f"expected exit status 1 on a dirty tree, got {proc.returncode}")
    for missing in sorted(EXPECTED - got):
        failures.append(f"missing finding: {missing}")
    for extra in sorted(got - EXPECTED):
        failures.append(f"unexpected finding: {extra}")

    # Every registered rule must be exercised by exactly one fixture.
    listed = subprocess.run(
        [sys.executable, str(LINTER), "--list"], capture_output=True,
        text=True)
    rules = {line.split()[0] for line in listed.stdout.splitlines() if line}
    covered = {check for _, _, check in EXPECTED}
    for rule in sorted(rules - covered):
        failures.append(f"rule {rule!r} has no violating fixture")
    for rule in sorted(covered - rules):
        failures.append(f"fixture expects unknown rule {rule!r}")

    if failures:
        print("\n".join(failures), file=sys.stderr)
        print(f"\nlint_selftest: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print(f"lint_selftest: {len(EXPECTED)} findings matched, "
          f"{len(rules)} rules covered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
