#!/usr/bin/env python3
"""Print the size metric of the package: non-blank lines per module of
``src/maskgrpo/`` and their total.

    python3 tools/src_lines.py [--change .] [--parent ../parent]

A line counts when it holds anything but whitespace; comments and
docstrings count.  With ``--parent`` it also prints that checkout's counts
and the difference per module (a module present on one side only counts 0
on the other).
"""

from __future__ import annotations

import argparse
from pathlib import Path

PACKAGE = Path("src") / "maskgrpo"


def module_lines(root: Path) -> dict[str, int]:
    """Non-blank lines of each ``.py`` file of the package under ``root``."""
    return {
        path.stem: sum(1 for line in path.read_text().splitlines() if line.strip())
        for path in sorted((root / PACKAGE).glob("*.py"))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--change", type=Path, default=Path("."), help="checkout to count (default .)")
    parser.add_argument("--parent", type=Path, default=None, help="checkout to compare against")
    args = parser.parse_args(argv)
    change = module_lines(args.change)
    if not change:
        parser.error(f"no modules under {args.change / PACKAGE}")
    if args.parent is None:
        for name, n in sorted(change.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"{name:<20} {n:>6}")
        print(f"{'total':<20} {sum(change.values()):>6}")
        return 0
    parent = module_lines(args.parent)
    if not parent:
        parser.error(f"no modules under {args.parent / PACKAGE}")
    print(f"{'module':<20} {'parent':>6} {'change':>6} {'diff':>6}")
    rows = [(m, parent.get(m, 0), change.get(m, 0)) for m in change.keys() | parent.keys()]
    rows.sort(key=lambda row: (-row[2], row[0]))
    rows.append(("total", sum(parent.values()), sum(change.values())))
    for name, p, c in rows:
        print(f"{name:<20} {p:>6} {c:>6} {c - p:>+6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
