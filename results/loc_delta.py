#!/usr/bin/env python3
"""Lines per Rust file, non-test vs test, between <base-rev> and the working tree.

    python3 results/loc_delta.py <base-rev>        # e.g. HEAD~1

Prints the markdown table CHANGES.md's deletion PRs carry. "Test" lines are
those inside a `#[cfg(test)] mod … { … }` block (attribute line included)
and every line of a file under a `tests/` directory; everything else —
code, comments, docs, blank lines — is non-test. Only tracked `*.rs` files
that differ from the base are listed; `vendor/` is skipped (third-party
stubs). Stdlib only.
"""
import re
import subprocess
import sys

TEST_MOD = re.compile(r"\s*(pub(\([a-z]+\))?\s+)?mod\s+\w+\s*\{")


def git(*args):
    return subprocess.run(("git",) + args, capture_output=True, text=True, check=True).stdout


def count(path, text):
    """(non_test, test) line counts of one file's text."""
    lines = text.splitlines()
    if "tests" in path.split("/")[:-1]:
        return 0, len(lines)
    test = 0
    i = 0
    while i < len(lines):
        if (
            lines[i].strip() == "#[cfg(test)]"
            and i + 1 < len(lines)
            and TEST_MOD.match(lines[i + 1])
        ):
            depth, j = 0, i + 1
            while j < len(lines):
                depth += lines[j].count("{") - lines[j].count("}")
                j += 1
                if depth <= 0:
                    break
            test += j - i
            i = j
        else:
            i += 1
    return len(lines) - test, test


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    base = sys.argv[1]
    changed = git("diff", "--name-only", base, "--", "*.rs").split()
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "*.rs").split()
    rows = []
    for path in sorted(set(changed + untracked)):
        if path.startswith("vendor/"):
            continue
        try:
            before = count(path, git("show", f"{base}:{path}"))
        except subprocess.CalledProcessError:
            before = (0, 0)  # added since the base
        try:
            with open(path, encoding="utf-8") as f:
                after = count(path, f.read())
        except FileNotFoundError:
            after = (0, 0)  # deleted since the base
        rows.append((path, before, after))

    print("| file | non-test before → after | test before → after | net |")
    print("|---|---|---|---|")
    d_non = d_test = 0
    for path, (bn, bt), (an, at) in rows:
        d_non += an - bn
        d_test += at - bt
        print(f"| `{path}` | {bn} → {an} | {bt} → {at} | {an + at - bn - bt:+d} |")
    print(f"| **total** | **{d_non:+d}** | **{d_test:+d}** | **{d_non + d_test:+d}** |")


if __name__ == "__main__":
    main()
