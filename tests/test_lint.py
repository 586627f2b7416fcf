"""``tools/lint.py`` finds nothing in the tree (the container has no
ruff or pyflakes, so this is the lint that runs)."""

from __future__ import annotations

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_no_unused_imports_unread_locals_or_undefined_names():
    lint = subprocess.run([sys.executable, "tools/lint.py"], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=120)
    assert lint.returncode == 0, lint.stdout + lint.stderr


def test_lint_reports_each_kind_and_honours_noqa(tmp_path):
    (tmp_path / "bad.py").write_text(
        "import os\nimport sys  # noqa\n\n\ndef f(a):\n"
        "    unread = a\n    kept: 'os.PathLike | None' = a\n"
        "    return missing + kept\n")
    lint = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "lint.py"),
         str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert lint.returncode == 1
    assert [line.split(": ", 1)[1] for line in lint.stdout.splitlines()] \
        == ["local unread never read", "undefined name missing"]
