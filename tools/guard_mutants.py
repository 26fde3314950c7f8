"""Disable each `if ...: raise` guard of the given modules and see whether tier-1 notices.

Usage (from the repository root):

    python tools/guard_mutants.py src/handlecalc/twists.py src/handlecalc/knots.py

A guard is an `if` (or `elif`) whose body is a single `raise`.  For each
guard the script copies the tree into a temporary directory, replaces the
guard's condition by `False` there, and runs the tier-1 suite on the copy
with `-x -q`, one run at a time.  The guard is `killed` when the suite
fails and `survived` when it passes: a surviving guard is one no test can
tell from its absence.  The working tree is never modified.

The unmutated copy is run first; if it fails, no mutant is reported.
The exit status is 0 when every guard is killed, 1 when one survives and
2 when the unmutated suite fails.  Each run takes as long as tier-1, so
the script is not part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIMEOUT = 600.0  # seconds per suite run; a disabled guard can make the suite hang
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


def guards(source: bytes) -> list[ast.If]:
    """The `if` nodes of `source` whose body is a single `raise`, in source order."""
    found = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If) and len(node.body) == 1 and isinstance(node.body[0], ast.Raise)
    ]
    return sorted(found, key=lambda node: (node.lineno, node.col_offset))


def disabled(source: bytes, guard: ast.If) -> bytes:
    """`source` with the guard's condition replaced by `False` (ast offsets count bytes)."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    test = guard.test
    begin = starts[test.lineno - 1] + test.col_offset
    end = starts[test.end_lineno - 1] + test.end_col_offset
    return source[:begin] + b"False" + source[end:]


def suite_passes(tree: Path) -> bool:
    """Whether tier-1 passes on `tree`; a run past `TIMEOUT` seconds counts as a failure."""
    # No bytecode is written: a mutant and the restored module can share a size and an mtime.
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("modules", nargs="+", help="module files, relative to the repository root")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="guard-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if not suite_passes(tree):
            print("tier-1 fails on the unmutated tree; no guard is reported", file=sys.stderr)
            return 2
        killed = survived = 0
        for name in args.modules:
            path = tree / name
            source = path.read_bytes()
            for guard in guards(source):
                path.write_bytes(disabled(source, guard))
                try:
                    caught = not suite_passes(tree)
                finally:
                    path.write_bytes(source)
                killed += caught
                survived += not caught
                condition = ast.get_source_segment(source.decode("utf-8"), guard.test)
                print(f"{name}:{guard.lineno}: {'killed' if caught else 'SURVIVED'}: if {condition}", flush=True)
        print(f"{killed + survived} guards: {killed} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
