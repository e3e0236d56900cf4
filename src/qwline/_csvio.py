"""The one CSV writer behind every ``save_*_csv`` function and the one reader
behind every ``load_*_csv`` function."""
from __future__ import annotations

import functools
import warnings

import numpy as np

from .errors import InputError, TableError

# site and time labels; every other column holds doubles
_INT_COLUMNS = ("n", "t")

# values turned into text at a time: the scratch arrays, under 200 bytes a
# value, stay under 1 MiB however long the table is
_VALUES = 4096

# A double x prints from q = rint(v), v = |x| 10^(16-k), k = floor(log10 |x|):
# its 17 significant digits.  In a long double with a 64-bit mantissa the
# product rounds to a relative error of at most u = 2^-64, and so does
# 10^(16-k) (correctly rounded from its decimal string) unless 0 <= 16-k <=
# 27, where it is exact (5^27 < 2^64).  So the computed v lies within
# v u / (1 - u), or v (2u + u^2) / (1 - 2u - u^2) with the rounded power,
# of the exact product.  _TOL = u (1 + 2^-8) and twice it bound these, with
# room for the float64 the fraction is compared in.  Where the fraction of v
# lies farther than that from one half, the exact product rounds to the same
# q, which is what '%.17g' prints; that tie band (0.1-0.8 % of the values in
# the gauge files, 1-1.5 % of random doubles) and every value off the path
# go to '%' instead.
_EXACT = np.finfo(np.longdouble).nmant >= 63
_TOL = 2.0 ** -64 * (1 + 2.0 ** -8)

# A cell is the text of one value in 32 bytes, NUL where unused, handled as
# four little-endian words: the sign and the "0.000" of 1e-4 <= |x| < 1 in
# bytes 0-5, the digits with their point in 8-25, the "e-05" of %g's
# exponent form in 26-30, and the separator the writer puts in byte 31.
_WORD = np.dtype("<u8")


def _fmt(values) -> str:
    """``%d`` for integer arrays, ``%.17g`` (exact for every double) otherwise."""
    return "%d" if values.dtype.kind in "iub" else "%.17g"


@functools.cache
def _scales():
    """Long-double ``10^p`` for ``p = -292 .. 340``, entry ``308 - k`` taking
    a double of exponent ``k`` to 17 integer digits; the bound on the
    relative error of the scaled value for each; and ``10^16 + 2^-5``."""
    ld = np.longdouble
    exponents = np.arange(-292, 341)
    powers = np.array([ld(f"1e{p}") for p in exponents])
    tols = np.where((exponents >= 0) & (exponents <= 27), _TOL, 2 * _TOL)
    return powers, tols, ld(10 ** 16) + ld(2.0 ** -5)


def _round17(x):
    """``(q, k, ok)`` for doubles ``x``: the 17 significant digits ``q`` of
    each as an integer, zero for a zero, its exponent ``k``, and whether
    the digits are those of ``'%.17g'``.
    """
    a = np.abs(x)
    zero = a == 0
    live = np.isfinite(a) & ~zero
    a[~live] = 1.0
    # a zero prints as k = log10(1) = 0 does; where log10 errs near a power
    # of ten, the guards below catch a k off by one
    k = np.floor(np.log10(a)).astype(np.intp)
    if not _EXACT:
        return np.zeros(x.size, np.int64), k, np.zeros(x.size, bool)
    powers, tols, lo = _scales()
    v = a.astype(np.longdouble) * powers[308 - k]
    # k is within one of log10 |x|, so v < 10^18 fits an int64
    q = v.astype(np.int64)
    frac = (v - q).astype(np.float64)
    q += frac > 0.5
    # 17 digits need 10^16 < v < 10^17: the lower guard clears the error
    # bound there (under 2^-9), the upper one a carry to 18 digits
    ok = zero | live & (v > lo) & (q < 10 ** 17) & (np.abs(frac - 0.5) > q * tols[308 - k])
    q *= ok & live
    return q, k, ok


@functools.cache
def _groups():
    """For each 4-digit group ``0 .. 9999``, its text in the low four bytes
    of a word and its trailing zeros above them."""
    group = np.arange(10 ** 4)
    digits = [group // 1000, group // 100 % 10, group // 10 % 10, group % 10]
    texts = sum((48 + d).astype(_WORD) << np.uint64(8 * i) for i, d in enumerate(digits))
    zeros, run = np.zeros(group.size, _WORD), np.ones(group.size, bool)
    for d in digits[::-1]:
        run &= d == 0
        zeros += run
    return texts | zeros << np.uint64(32)


def _digits(q):
    """The 17 digits of each ``q`` as text, in words 1-3 of ``(4, size)``
    cells (24 bytes, NUL after the 17th; word 0 left unset), and how many
    there are up to the last nonzero one."""
    # a lead digit and four 4-digit groups, looked up as text
    lead = q // 10 ** 16
    halves = np.empty((2, q.size), np.int64)
    halves[0] = (q - lead * 10 ** 16) // 10 ** 8
    halves[1] = q - q // 10 ** 8 * 10 ** 8
    index = np.empty((2, 2, q.size), np.intp)
    index[:, 0] = halves // 10 ** 4
    index[:, 1] = halves - index[:, 0] * 10 ** 4
    text = _groups()[index.reshape(4, q.size)]
    zeros = (text >> np.uint64(32)).astype(np.uint8)
    text &= np.uint64(2 ** 32 - 1)
    # the last nonzero digit: group i ends at digit 4 i + 4, less its
    # trailing zeros, unless it is all zeros
    last = np.arange(5, 21, 4, dtype=np.uint8)[:, None] - zeros
    significant = np.maximum((last * (zeros < 4)).max(axis=0), lead != 0)

    cells = np.empty((4, q.size), _WORD)
    cells[1] = (48 + lead).astype(_WORD) | text[0] << np.uint64(8) | text[1] << np.uint64(40)
    cells[2] = text[1] >> np.uint64(24) | text[2] << np.uint64(8) | text[3] << np.uint64(40)
    cells[3] = text[3] >> np.uint64(24)
    return cells, significant


@functools.cache
def _layouts():
    """The masks and text that lay out %g around the digits.

    - ``masks``: for each point position ``p`` (the point follows digit
      ``p``; 17 for none) and count of digits shown, column ``18 p +
      shown``, the masks that keep the digits before and after the point,
      and the point itself, each as three words of the digits' 24 bytes;
    - ``ends``: for each exponent ``k``, column ``k + 324``, the first word
      of a cell (the "0.000" prefix), the last (the exponent suffix),
      ``18 p`` for the point position ``p`` of %g (fixed-point for -4 <= k
      < 17, the point after digit k if k >= 0, else in the prefix; exponent
      form, the point after digit 0), and the digits %g shows at least,
      those before the point.
    """
    # low[n]: the first n of 24 bytes set
    low = np.tril(np.full((20, 24), 255, np.uint8), -1)
    p, shown = np.arange(18)[:, None], np.arange(18)
    head = low[np.minimum(p + 1, shown)]
    tail = low[shown + 1] & ~low[p + 2]
    dot = (low[p + 2] & ~low[p + 1] & 0x2E) * (shown > p + 1)[..., None]
    masks = np.concatenate([head, tail, dot], axis=2).reshape(18 * 18, 72).view(_WORD).T.copy()

    k = np.arange(-324, 309)
    text = b"".join(
        (b"\0" + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")).ljust(8, b"\0")
        + (b"\0\0" + (b"" if -4 <= e < 17 else b"e%+03d" % e)).ljust(8, b"\0")
        for e in k.tolist())
    ends = np.empty((4, k.size), _WORD)
    ends[:2] = np.frombuffer(text, _WORD).reshape(-1, 2).T
    whole = (k >= 0) & (k < 17)
    ends[2] = 18 * np.where(whole, k, 17 * ((k >= -4) & (k < 0)))
    ends[3] = np.where(whole, k + 1, 0)
    return masks, ends


def _layout(x, k, cells, significant):
    """Complete the ``(4, size)`` cells of values ``x`` with exponents ``k``
    from the digits :func:`_digits` put in them."""
    masks, ends = _layouts()
    edge = np.take(ends, k + 324, axis=1)
    key = edge[2] + np.maximum(significant, edge[3])
    digits = cells[1:]
    # the digits after the point move one byte on to make room for it
    after = digits << np.uint64(8)
    after[1:] |= digits[:2] >> np.uint64(56)
    after &= np.take(masks[3:6], key, axis=1)
    digits &= np.take(masks[:3], key, axis=1)
    digits |= after
    digits |= np.take(masks[6:], key, axis=1)
    cells[0] = edge[0] | np.signbit(x) * np.uint64(45)
    cells[3] |= edge[1]
    return cells


def _cells(columns) -> np.ndarray:
    """The text of every value of ``columns``, column after column, as
    ``(4, size)`` words: one 32-byte cell per value, byte 31 left NUL.

    Integers print as ``%d`` and the rest as ``%.17g``, with the same bytes
    as Python's ``%``.  A value the digit path cannot vouch for, a non-finite
    one, a product near a rounding tie or off the 17-digit range, an integer
    beyond 2^53, or every value without a 64-bit long double mantissa, is
    formatted by ``%`` itself and spliced in.
    """
    x = np.concatenate([np.asarray(c, dtype=np.float64) for c in columns])
    q, k, ok = _round17(x)
    out = _layout(x, k, *_digits(q))
    off = 0
    for c in columns:
        bad = ~ok[off:off + c.size]
        if c.dtype.kind in "iub":
            # beyond 2^53 the double need not be the integer
            bad |= (c < -2 ** 53) | (c > 2 ** 53)
        i = np.flatnonzero(bad)
        if i.size:
            text = np.array([_fmt(c) % v for v in c[i].tolist()], dtype="S32")
            out[:, off + i] = text.view(_WORD).reshape(-1, 4).T
        off += c.size
    return out


def _check_widths(header: str, columns, want: int, size: int) -> None:
    """Raise :class:`InputError` unless ``header`` names ``want`` columns and
    every column holds ``size`` values."""
    sizes = [c.size for c in columns]
    if len(header.split(",")) != want or any(s != size for s in sizes):
        raise InputError(f"CSV header {header!r} does not fit columns of "
                         f"lengths {sizes}")


def write_csv(path, header: str, columns, grid=None) -> None:
    """Write ``columns`` under ``header``, integers as ``%d`` and the rest as ``%.17g``.

    Without ``grid`` the columns are equal-length and give one row per
    index.  With ``grid=(xs, ts)`` each column is a time-major field of
    ``ts.size x xs.size`` values and each row is ``x,t`` followed by the
    fields at that point, time-major; the ``x`` and ``t`` labels are
    formatted once each and repeated.  Either way the bytes depend only on
    the values.  A header naming another number of columns, or columns of
    unequal length, raise :class:`InputError` before the file is opened.
    """
    if grid is None:
        fields = [np.asarray(c).ravel() for c in columns]
        size = fields[0].size if fields else 0
        _check_widths(header, fields, len(fields), size)
        fields = [f.reshape(size, 1) for f in fields]
        labels = 0
    else:
        xs, ts = (np.asarray(v).ravel() for v in grid)
        fields = [np.asarray(f).ravel() for f in columns]
        _check_widths(header, fields, 2 + len(fields), ts.size * xs.size)
        fields = [f.reshape(ts.size, xs.size) for f in fields]
        labels = 2
    rows, width = fields[0].shape if fields else (0, 0)
    step = max(1, _VALUES // max(width * len(fields), 1))
    # one buffer for every batch: (time) rows x sites x columns x cell words,
    # a comma or newline in the last byte of each cell
    buf = np.empty((min(step, rows), width, labels + len(fields), 4), _WORD)
    comma, newline = (np.uint64(ord(c)) << np.uint64(56) for c in ",\n")
    seps = np.where(np.arange(len(fields)) < len(fields) - 1, comma, newline)[:, None]
    if labels:
        cells = _cells([xs, ts]).T
        cells[:, 3] |= comma
        buf[:, :, 0] = cells[:xs.size]
        t_cells = cells[xs.size:]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, rows if width else 0, step):
            block = [f[lo:lo + step] for f in fields]
            view = buf[:len(block[0])]
            if labels:
                view[:, :, 1] = t_cells[lo:lo + step, None]
            cells = _cells([b.ravel() for b in block])
            cells[3].reshape(len(fields), -1)[:] |= seps
            view[:, :, labels:] = cells.reshape(4, len(fields), *view.shape[:2]).transpose(2, 3, 1, 0)
            fh.write(view.tobytes().translate(None, b"\0"))


def read_csv(path, header: str, what: str) -> dict:
    """Read a file written by :func:`write_csv` under ``header``.

    Returns one array per column, keyed by column name: ``n`` and ``t`` as
    int64 (so ``1.0``, ``1e0`` or ``x`` there is malformed), every other
    column as float64.  Empty lines are skipped.  A first line other than
    ``header``, a row that does not parse into exactly these columns, no
    rows at all, or a byte anywhere that is not UTF-8 raise
    :class:`TableError` naming the ``what`` file.
    """
    def error(msg):
        return TableError(f"{what} file {path}: {msg}")

    names = header.split(",")
    dtype = [(c, np.int64 if c in _INT_COLUMNS else np.float64) for c in names]
    # the file is decoded a buffered chunk at a time, header and rows alike,
    # so a byte that is not UTF-8 can fail any read
    try:
        with open(path, encoding="utf-8") as fh:
            got = fh.readline().strip()
            if got != header:
                raise error(f"unexpected header {got!r}, want {header!r}")
            try:
                with warnings.catch_warnings():
                    # an empty body warns here and is rejected below
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                      ndmin=1)
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                # numpy names the row and column; drop its advice on `usecols`
                raise error(f"malformed row: {str(exc).split(';')[0]}") from None
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.end].hex()
        raise error(f"not UTF-8 text: {exc.reason} (byte {bad})") from None
    if data.size == 0:
        raise error("no data rows")
    return {c: data[c] for c in names}
