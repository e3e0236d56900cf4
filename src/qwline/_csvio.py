"""The one CSV writer behind every ``save_*_csv`` function."""
from __future__ import annotations

import numpy as np

# rows are turned into Python floats a batch at a time: converting a whole
# 256x256 grid at once raised the peak RSS of a gauge run by about 2 MiB
_BATCH = 1024


def write_csv(path, header: str, columns) -> None:
    """Write equal-length ``columns`` under ``header``, one row per index.

    Integer columns are written as ``%d`` and all others as ``%.17g``,
    which round-trips every double exactly, so the bytes depend only on
    the values.
    """
    cols = [np.asarray(c).ravel() for c in columns]
    fmt = ",".join("%d" if c.dtype.kind in "iub" else "%.17g" for c in cols) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, cols[0].size, _BATCH):
            batch = zip(*(c[lo:lo + _BATCH].tolist() for c in cols))
            fh.writelines(fmt % row for row in batch)


def grid_columns(xs, ts) -> list:
    """``x`` and ``t`` columns of a time-major ``[i_t, i_x]`` grid."""
    xs, ts = np.asarray(xs), np.asarray(ts)
    return [np.tile(xs, ts.size), np.repeat(ts, xs.size)]
