"""The ``src/`` line budget is a ratchet the tier-1 suite can see."""

from __future__ import annotations

import importlib.util
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_src_budget_is_the_real_line_count():
    path = os.path.join(REPO_ROOT, "tools", "src_budget.py")
    spec = importlib.util.spec_from_file_location("src_budget", path)
    src_budget = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_budget)
    total, budget = src_budget.measure(REPO_ROOT)
    assert total == budget, (
        f"src/repro has {total} lines but tools/src_budget.txt says "
        f"{budget}: set it to {total} in this diff (lower = good; a "
        f"raise needs its justification in the PR)")
