"""The one CSV writer behind every ``save_*_csv`` function and the one reader
behind every ``load_*_csv`` function."""
from __future__ import annotations

import warnings

import numpy as np

from .errors import TableError

# rows are turned into Python floats a batch at a time: converting a whole
# 256x256 grid at once raised the peak RSS of a gauge run by about 2 MiB
_BATCH = 1024

# site and time labels; every other column holds doubles
_INT_COLUMNS = ("n", "t")


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


def read_csv(path, header: str, what: str) -> dict:
    """Read a file written by :func:`write_csv` under ``header``.

    Returns one array per column, keyed by column name: ``n`` and ``t`` as
    int64 (so ``1.0``, ``1e0`` or ``x`` there is malformed), every other
    column as float64.  Empty lines are skipped.  A first line other than
    ``header``, a row that does not parse into exactly these columns, or no
    rows at all raise :class:`TableError` naming the ``what`` file.
    """
    def error(msg):
        return TableError(f"{what} file {path}: {msg}")

    names = header.split(",")
    dtype = [(c, np.int64 if c in _INT_COLUMNS else np.float64) for c in names]
    with open(path) as fh:
        got = fh.readline().strip()
        if got != header:
            raise error(f"unexpected header {got!r}, want {header!r}")
        try:
            with warnings.catch_warnings():
                # an empty body warns here and is rejected below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                  ndmin=1)
        except ValueError as exc:
            # numpy names the row and column; drop its advice on `usecols`
            raise error(f"malformed row: {str(exc).split(';')[0]}") from None
    if data.size == 0:
        raise error("no data rows")
    return {c: data[c] for c in names}


def grid_columns(xs, ts) -> list:
    """``x`` and ``t`` columns of a time-major ``[i_t, i_x]`` grid."""
    xs, ts = np.asarray(xs), np.asarray(ts)
    return [np.tile(xs, ts.size), np.repeat(ts, xs.size)]
