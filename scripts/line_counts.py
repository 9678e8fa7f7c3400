#!/usr/bin/env python3
"""Print the tracked line counts of the code directories.

Counts the lines of every file git tracks under ``src/``, ``tests/``,
``bench/`` (the golden outputs under ``bench/goldens/`` excluded) and
``perfbench/``, as they stand in the working tree. With ``--since REV``
it prints, per directory, the lines added, removed and net between REV
and the working tree, from ``git diff --numstat`` (binary files have no
line counts and are skipped; a new file counts once it is ``git add``-ed).

Usage:  line_counts.py [--since REV]
Exit status: 0, or git's non-zero status when a git call fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIRS = ("src", "tests", "bench", "perfbench")
EXCLUDED = ("bench/goldens/",)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout


def directory_of(path):
    """The counted directory `path` belongs to, or None."""
    if path.startswith(EXCLUDED):
        return None
    top = path.split("/", 1)[0]
    return top if top in DIRS and "/" in path else None


def tracked_lines():
    counts = dict.fromkeys(DIRS, 0)
    for path in git("ls-files", "-z", *DIRS).split("\0"):
        d = directory_of(path)
        if d is None:
            continue
        with open(os.path.join(ROOT, path), "rb") as fh:
            counts[d] += fh.read().count(b"\n")
    return counts


def diff_lines(rev):
    added = dict.fromkeys(DIRS, 0)
    removed = dict.fromkeys(DIRS, 0)
    out = git("diff", "--numstat", "--no-renames", rev, "--", *DIRS)
    for line in out.splitlines():
        plus, minus, path = line.split("\t", 2)
        d = directory_of(path)
        if d is None or plus == "-":  # excluded, or binary
            continue
        added[d] += int(plus)
        removed[d] += int(minus)
    return added, removed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--since", metavar="REV",
                    help="also print lines added/removed/net since REV")
    args = ap.parse_args()
    try:
        counts = tracked_lines()
        delta = diff_lines(args.since) if args.since else None
    except subprocess.CalledProcessError as e:
        sys.stderr.write(f"line_counts.py: {e.stderr.strip()}\n")
        return e.returncode
    header = f"{'dir':<11}{'lines':>8}"
    if delta:
        header += f"{'added':>8}{'removed':>9}{'net':>8}"
    print(header)
    for d in DIRS:
        row = f"{d + '/':<11}{counts[d]:>8}"
        if delta:
            added, removed = delta
            row += (f"{added[d]:>8}{removed[d]:>9}"
                    f"{added[d] - removed[d]:>+8}")
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
