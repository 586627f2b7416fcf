"""Index arithmetic for ragged data held as ``(start, length)`` columns:
what lets the slab writers and validators move or reduce all of a
variable-length field's bytes with one numpy call, not a record loop."""

from __future__ import annotations

import numpy as np


def ragged_index(starts: np.ndarray, lengths: np.ndarray,
                 dtype: type = np.int32) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts,
    lengths)])`` without the loop — the index array of one ragged
    gather or scatter.  *dtype* must hold the largest index."""
    lengths = np.asarray(lengths, dtype)
    ends = np.cumsum(lengths, dtype=dtype)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(np.asarray(starts, dtype) - (ends - lengths),
                     lengths) + np.arange(total, dtype=dtype)


def segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum of each consecutive run of *values*, run *i* being
    ``lengths[i]`` long (empty runs sum to 0, unlike ``add.reduceat``)."""
    total = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    bounds = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    return total[bounds[1:]] - total[bounds[:-1]]
