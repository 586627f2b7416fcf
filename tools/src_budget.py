#!/usr/bin/env python
"""Fail when ``src/repro`` outgrows its committed line budget.

The roadmap's north star is *less code*: net lines under ``src/`` go
down.  This check makes growth a reviewed decision instead of drift — a
change that adds lines must raise the ceiling in ``tools/src_budget.txt``
in the same diff (and one that removes lines should lower it).

Usage::

    python tools/src_budget.py [ROOT]

Counts physical lines of every ``*.py`` under ``ROOT/src/repro`` and
exits 1 when the total exceeds the ceiling.
"""

from __future__ import annotations

import os
import sys


def count_lines(src: str) -> int:
    """Physical lines of all ``*.py`` files under *src*."""
    total = 0
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


if __name__ == "__main__":
    root = sys.argv[1] if len(sys.argv) > 1 else os.getcwd()
    with open(os.path.join(root, "tools", "src_budget.txt")) as fh:
        ceiling = int(fh.read().split()[0])
    total = count_lines(os.path.join(root, "src", "repro"))
    print(f"src/repro: {total} lines (ceiling {ceiling})")
    sys.exit(1 if total > ceiling else 0)
