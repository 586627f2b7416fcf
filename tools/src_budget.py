#!/usr/bin/env python
"""Fail when ``src/repro`` is not the size its committed budget says.

The roadmap's north star is *less code*: net lines under ``src/`` go
down.  The budget is a ratchet: ``tools/src_budget.txt`` holds the exact
physical line count, so a change that removes lines must lower it in the
same diff and one that adds lines must raise it — either way the number
is a reviewed decision instead of drift.  ``tests/test_src_budget.py``
runs the same comparison in the tier-1 suite.

Usage::

    python tools/src_budget.py [ROOT]

Counts physical lines of every ``*.py`` under ``ROOT/src/repro`` and
exits 1 when the total differs from the budget.
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


def measure(root: str) -> tuple[int, int]:
    """``(lines under ROOT/src/repro, the budget in
    ROOT/tools/src_budget.txt)``."""
    with open(os.path.join(root, "tools", "src_budget.txt")) as fh:
        budget = int(fh.read().split()[0])
    return count_lines(os.path.join(root, "src", "repro")), budget


if __name__ == "__main__":
    total, budget = measure(sys.argv[1] if len(sys.argv) > 1
                            else os.getcwd())
    print(f"src/repro: {total} lines (budget {budget})")
    sys.exit(0 if total == budget else 1)
