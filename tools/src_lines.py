"""The tracked number: lines of Python under ``src/``.

    python3 tools/src_lines.py [--max-from tools/src_lines.max]

Prints the count the way ROADMAP quotes it — ``find src -name '*.py' |
xargs cat | wc -l``, i.e. newline characters over every ``.py`` file.
With ``--max-from FILE`` it exits 1 when ``src/`` has more lines than
the number recorded in ``FILE`` (first token; the rest of the file is
free for a note).  ROADMAP aim 2 calls net ``src/`` lines "a tracked
number": a change that grows ``src/`` raises the recorded number in the
same diff, where a reviewer sees it; one that shrinks it may lower it.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def count_lines(root: str) -> int:
    """Newline characters over every ``*.py`` file under ``root``."""
    total = 0
    for directory, _subdirectories, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.join(ROOT, "src"))
    parser.add_argument("--max-from", metavar="FILE")
    args = parser.parse_args(argv)
    lines = count_lines(args.root)
    print(lines)
    if args.max_from is None:
        return 0
    with open(args.max_from, encoding="utf-8") as fh:
        allowed = int(fh.read().split()[0])
    if lines > allowed:
        print(
            f"src_lines: {lines} lines under {args.root}, {allowed} "
            f"recorded in {args.max_from}: shrink src/ or raise the "
            "number in this diff",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
