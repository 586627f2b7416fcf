"""Output checks: every op's part files against the generator's oracle.

An output is the concatenation of its part files in rank order.  BED
and FASTQ parts carry no file header; every SAM part must open with
the input's header text, and the rest is the body.  The body's SHA-256
and line count must equal what :meth:`gen.Dataset.expect` rendered
from the generator's own arrays.
"""

from __future__ import annotations

import glob
import hashlib
import os

from .gen import Expected


def part_files(out_dir: str) -> list[str]:
    """The part files of one conversion, in rank order."""
    return sorted(glob.glob(os.path.join(out_dir, "*.part[0-9]*")))


def check_output(paths: list[str], expected: Expected,
                 header_text: str | None = None) -> str | None:
    """None when the parts hold exactly the expected body, else a
    one-line reason.  *header_text* is set for SAM outputs."""
    if not paths:
        return "no part files written"
    digest = hashlib.sha256()
    lines = 0
    for path in paths:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return f"cannot read {os.path.basename(path)}: {exc}"
        if header_text is not None:
            head = header_text.encode("ascii")
            if not data.startswith(head):
                return f"{os.path.basename(path)}: SAM header differs"
            data = data[len(head):]
        digest.update(data)
        lines += data.count(b"\n")
    if lines != expected.lines:
        return f"{lines} lines, expected {expected.lines}"
    if digest.hexdigest() != expected.sha256:
        return "body digest differs from the oracle"
    return None
