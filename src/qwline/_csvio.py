"""The one CSV writer behind every ``save_*_csv`` function and the one reader
behind every ``load_*_csv`` function."""
from __future__ import annotations

import warnings

import numpy as np

from .errors import TableError

# rows of a one-dimensional table are turned into Python numbers a batch at
# a time, so a long table is never converted in one piece
_BATCH = 1024

# site and time labels; every other column holds doubles
_INT_COLUMNS = ("n", "t")


def _fmt(values) -> str:
    """``%d`` for integer arrays, ``%.17g`` (exact for every double) otherwise."""
    return "%d" if values.dtype.kind in "iub" else "%.17g"


def write_csv(path, header: str, columns, grid=None) -> None:
    """Write ``columns`` under ``header``, integers as ``%d`` and the rest as ``%.17g``.

    Without ``grid`` the columns are equal-length and give one row per
    index.  With ``grid=(xs, ts)`` each column is a time-major field of
    ``ts.size x xs.size`` values and each row is ``x,t`` followed by the
    fields at that point, time-major.  The ``x`` and ``t`` labels are then
    formatted once each, and one time row at a time is turned into text,
    with the same bytes as writing the tiled label columns row by row.
    Either way the bytes depend only on the values.
    """
    if grid is not None:
        xs, ts = (np.asarray(v).ravel() for v in grid)
        fields = [np.asarray(f).reshape(ts.size, xs.size) for f in columns]
        x_labels = [_fmt(xs) % x for x in xs.tolist()]
        t_fmt, tail = "," + _fmt(ts), "," + ",".join(map(_fmt, fields)) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            for i, t in enumerate(ts.tolist() if xs.size else ()):
                # labels are plain numbers, so they hold no % for the template
                row = t_fmt % t + tail
                values = np.column_stack([f[i] for f in fields]).ravel().tolist()
                fh.write((row.join(x_labels) + row) % tuple(values))
        return
    cols = [np.asarray(c).ravel() for c in columns]
    fmt = ",".join(map(_fmt, cols)) + "\n"
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

