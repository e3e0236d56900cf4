"""The one CSV reader and writer: exact round trips, the writer's bytes
against Python's own formatting, and what the reader rejects."""
import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwline import (
    CoinField,
    InputError,
    PhaseField,
    PotentialField,
    SpinorField,
    TableError,
    load_coin_field_csv,
    load_phase_field_csv,
    load_spinor_csv,
    save_coin_field_csv,
    save_comparison_csv,
    save_phase_field_csv,
    save_pmf_csv,
    save_potentials_csv,
    save_residual_csv,
    save_spinor_csv,
)
from qwline import _csvio
from qwline._csvio import read_csv, write_csv

# every finite double, with the values a text format most easily gets wrong
# drawn on purpose: signed zero, subnormals and the edges of the range
_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
)
_ROUND_TRIP = settings(max_examples=40, deadline=None)


def _grid(draw, t_max, n_cols):
    size = (t_max + 1) * (2 * t_max + 1)
    return [np.array(draw(st.lists(_DOUBLES, min_size=size, max_size=size)))
            .reshape(t_max + 1, 2 * t_max + 1) for _ in range(n_cols)]


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def _save_load_save(save, load, obj, tmp):
    first, second = tmp / "first.csv", tmp / "second.csv"
    save(obj, first)
    loaded = load(first)
    save(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    return loaded


@_ROUND_TRIP
@given(data=st.data(), t=st.integers(0, 6))
def test_spinor_round_trip_is_byte_identical(tmp_path_factory, data, t):
    parts = [np.array(data.draw(st.lists(_DOUBLES, min_size=2 * t + 1,
                                         max_size=2 * t + 1))) for _ in range(4)]
    plus, minus = np.empty((2, 2 * t + 1), dtype=np.complex128)
    plus.real, plus.imag, minus.real, minus.imag = parts
    state = SpinorField(t=t, plus_amps=plus, minus_amps=minus)
    loaded = _save_load_save(save_spinor_csv, load_spinor_csv, state,
                             tmp_path_factory.mktemp("spinor"))
    assert _same_bits(loaded.plus_amps, plus) and _same_bits(loaded.minus_amps, minus)


@_ROUND_TRIP
@given(data=st.data(), t_max=st.integers(0, 3))
def test_coin_table_round_trip_is_byte_identical(tmp_path_factory, data, t_max):
    values = _grid(data.draw, t_max, 4)
    field = CoinField(lambda ns, t: tuple(v[t, ns + t_max] for v in values))
    loaded = _save_load_save(lambda f, p: save_coin_field_csv(f, t_max, p),
                             load_coin_field_csv, field,
                             tmp_path_factory.mktemp("coin"))
    for t in range(t_max + 1):
        rows = loaded.rows(np.arange(-t_max, t_max + 1), t)
        assert all(_same_bits(got, v[t]) for got, v in zip(rows, values))


@_ROUND_TRIP
@given(data=st.data(), t_max=st.integers(0, 3))
def test_phase_table_round_trip_is_byte_identical(tmp_path_factory, data, t_max):
    xi, zeta = _grid(data.draw, t_max, 2)
    field = PhaseField(lambda n, t: float(xi[t, n + t_max]),
                       lambda n, t: float(zeta[t, n + t_max]))
    loaded = _save_load_save(lambda f, p: save_phase_field_csv(f, t_max, p),
                             load_phase_field_csv, field,
                             tmp_path_factory.mktemp("phase"))
    for t in range(t_max + 1):
        rows = loaded.rows(np.arange(-t_max, t_max + 1), t)
        assert all(_same_bits(got, v[t]) for got, v in zip(rows, (xi, zeta)))


def _naive_grid_csv(header, xs, ts, fields):
    """Reference bytes of a time-major grid file: one row per point, every
    cell formatted on its own, ``%d`` for ints and ``%.17g`` for floats."""
    def cell(v):
        return ("%d" if isinstance(v, int) else "%.17g") % v

    fields = [np.asarray(f).tolist() for f in fields]
    rows = [header]
    for i, t in enumerate(np.asarray(ts).tolist()):
        for j, x in enumerate(np.asarray(xs).tolist()):
            rows.append(",".join(cell(v) for v in [x, t, *(f[i][j] for f in fields)]))
    return "".join(row + "\n" for row in rows).encode()


_GRID_SHAPES = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(1, 6)),
    st.tuples(st.integers(1, 6), st.just(1)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
)


@_ROUND_TRIP
@given(data=st.data(), shape=_GRID_SHAPES, int_labels=st.booleans())
def test_gauge_grid_files_match_a_naive_writer(tmp_path_factory, data, shape,
                                               int_labels):
    n_t, n_x = shape
    labels = st.integers(-10**6, 10**6) if int_labels else _DOUBLES
    xs, ts = (np.array(data.draw(st.lists(labels, min_size=k, max_size=k)))
              for k in (n_x, n_t))
    a_t, a_x, residual = (
        np.array(data.draw(st.lists(_DOUBLES, min_size=n_t * n_x, max_size=n_t * n_x)))
        .reshape(shape) for _ in range(3))
    tmp = tmp_path_factory.mktemp("grid")
    save_residual_csv(tmp / "res.csv", xs, ts, residual)
    assert (tmp / "res.csv").read_bytes() == _naive_grid_csv(
        "x,t,residual", xs, ts, [residual])
    # a potential field stores its coordinates as doubles
    p = PotentialField(x=xs, t=ts, a_t=a_t, a_x=a_x)
    save_potentials_csv(p, tmp / "pot.csv")
    assert (tmp / "pot.csv").read_bytes() == _naive_grid_csv(
        "x,t,a_t,a_x", xs.astype(np.float64), ts.astype(np.float64), [a_t, a_x])


@_ROUND_TRIP
@given(data=st.data(), t_max=st.integers(0, 3))
def test_window_tables_match_a_naive_writer(tmp_path_factory, data, t_max):
    values = _grid(data.draw, t_max, 4)
    ns, ts = np.arange(-t_max, t_max + 1), np.arange(t_max + 1)
    tmp = tmp_path_factory.mktemp("window")
    save_coin_field_csv(CoinField(lambda n, t: tuple(v[t, n + t_max] for v in values)),
                        t_max, tmp / "coin.csv")
    assert (tmp / "coin.csv").read_bytes() == _naive_grid_csv(
        "n,t,theta,alpha,beta,chi", ns, ts, values)
    save_phase_field_csv(PhaseField.from_rows(lambda n, t: (values[0][t, n + t_max],
                                                            values[1][t, n + t_max])),
                         t_max, tmp / "phase.csv")
    assert (tmp / "phase.csv").read_bytes() == _naive_grid_csv(
        "n,t,xi,zeta", ns, ts, values[:2])


@functools.cache
def _dense_table():
    """An ``n,x`` table of the values a decimal formatter most easily gets
    wrong, and its bytes from Python's ``%d`` and ``%.17g``, cell by cell.

    ``x``: every power of ten from 1e-323 to 1e308 with both neighbours and
    their negatives, signed zeros, subnormals, infinities, NaN, 1e-12 (whose
    log10 rounds to -12 though it lies below 10^-12), and 2e5 seeded random
    bit patterns.  ``n``: int64 min and max, the edges of 2^53 and random
    int64s.
    """
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    tens = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072009e-308,
               2.2250738585072014e-308, np.inf, -np.inf, np.nan, 1e-12, 1e16, 1e17]
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)
    x = np.concatenate([tens, -tens, special, bits])
    edges = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1,
             2 ** 53, 2 ** 53 + 1, -2 ** 53, -2 ** 53 - 1]
    n = np.concatenate([edges, rng.integers(-2 ** 63, 2 ** 63, x.size - len(edges))])
    lines = ["n,x"] + ["%d,%.17g" % row for row in zip(n.tolist(), x.tolist())]
    return n, x, "".join(line + "\n" for line in lines).encode()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exact", [True, False], ids=["long-double", "fallback"])
def test_writer_matches_python_formatting(tmp_path, monkeypatch, exact):
    """Byte for byte on the dense table, through the long-double digit path
    and with it switched off, as on a platform whose long double has no
    64-bit mantissa: then every value goes through Python's ``%``."""
    if exact and not _csvio._EXACT:
        pytest.skip("this platform's long double has no 64-bit mantissa")
    monkeypatch.setattr(_csvio, "_EXACT", exact)
    n, x, want = _dense_table()
    write_csv(tmp_path / "dense.csv", "n,x", [n, x])
    assert (tmp_path / "dense.csv").read_bytes() == want


@pytest.mark.parametrize("error", [-1.0, 1.0])
def test_an_exponent_off_by_one_only_costs_speed(tmp_path, monkeypatch, error):
    """``log10`` sets the exponent, and a libm a unit in the last place off
    gives a value next to a power of ten the exponent of its neighbour.
    The guards on the scaled value send such a value to ``%``, so the bytes
    stay exact with every exponent off by one (away from the ends of the
    double range, and for 1.0, which zeros and non-finite values take)."""
    n, x, _ = _dense_table()
    inside = (x == 0) | ~np.isfinite(x) | (np.abs(x) > 1e-300) & (np.abs(x) < 1e300)
    n, x = n[:6000], x[inside][:6000]
    want = "".join("%d,%.17g\n" % row for row in zip(n.tolist(), x.tolist()))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + error * (a != 1.0))
    write_csv(tmp_path / "off.csv", "n,x", [n, x])
    assert (tmp_path / "off.csv").read_bytes() == ("n,x\n" + want).encode()


@pytest.mark.skipif(not _csvio._EXACT, reason="no 64-bit long double mantissa")
def test_digit_path_keeps_zeros_and_nearly_every_value():
    """Only values near a rounding tie, off the 17-digit range or not finite
    leave the digit path: zeros, subnormals and random doubles stay."""
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.standard_normal(10 ** 5) * 10.0 ** rng.integers(-30, 30, 10 ** 5),
                        [0.0, -0.0, 5e-324, 1e-300, 3e-12]])
    ok = _csvio._round17(x)[2]
    assert ok[-5:].all() and ok.mean() > 0.98, ok.mean()


@pytest.mark.skipif(not _csvio._EXACT, reason="no 64-bit long double mantissa")
def test_powers_of_ten_are_correctly_rounded():
    """The error bound behind the digit path assumes each tabulated 10^p is
    within half a unit in the last place (2^-64 relative) of the exact one."""
    powers = _csvio._scales()[0]
    for p, v in zip(range(-292, 341), powers):
        mantissa, e = np.frexp(v)
        got = Fraction(int(np.ldexp(mantissa, 64))) * Fraction(2) ** (int(e) - 64)
        assert abs(got - Fraction(10) ** p) <= Fraction(2) ** (int(e) - 65), p


def test_writers_reject_a_header_that_does_not_fit_the_columns(tmp_path):
    """Columns of unequal length, or a header naming another number of
    columns, raise before the file is created: nothing is cut short."""
    pmf = tmp_path / "pmf.csv"
    with pytest.raises(InputError, match=r"'n,rho' does not fit columns of lengths \[5, 3\]"):
        save_pmf_csv(pmf, np.arange(5), np.ones(3))
    comparison = tmp_path / "comparison.csv"
    with pytest.raises(InputError, match=r"lengths \[4, 4, 3, 4\]"):
        save_comparison_csv(comparison, np.arange(4), np.ones(4), np.ones(3), np.ones(4))
    extra = tmp_path / "extra.csv"
    with pytest.raises(InputError, match=r"'n,rho,extra' does not fit columns of lengths \[2, 2\]"):
        write_csv(extra, "n,rho,extra", [np.arange(2), np.ones(2)])
    residual = tmp_path / "residual.csv"
    with pytest.raises(InputError, match=r"'x,t,residual' does not fit columns of lengths \[5\]"):
        save_residual_csv(residual, np.arange(2.0), np.arange(3.0), np.ones(5))
    assert not any(p.exists() for p in (pmf, comparison, extra, residual))


def test_potentials_writer_peak_memory_is_bounded(tmp_path):
    """tracemalloc peak of writing 256^2 potentials (numpy 2.4): 1.09 MiB,
    the scratch arrays of one 4096-value batch and its text; the per-row
    writer it replaced read 0.09 MiB, and formatting the whole grid in one
    batch reads 29.3 MiB.  The cap sits about 40 % above the reading."""
    xs = np.linspace(0.0, 1.0, 256)
    rng = np.random.default_rng(5)
    p = PotentialField(x=xs, t=xs, a_t=rng.standard_normal((256, 256)),
                       a_x=rng.standard_normal((256, 256)))
    save_potentials_csv(p, tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        save_potentials_csv(p, tmp_path / "pot.csv")
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 1.5, peak


def test_read_csv_types_columns_by_name(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, "n,t,x", [np.array([-1, 0]), np.array([2, 3]), np.array([0.5, -0.0])])
    with open(path, "a") as fh:
        fh.write("\n")
    cols = read_csv(path, "n,t,x", "test")
    assert list(cols) == ["n", "t", "x"]
    assert cols["n"].dtype == np.int64 and cols["t"].dtype == np.int64
    assert cols["n"].tolist() == [-1, 0] and cols["t"].tolist() == [2, 3]
    assert _same_bits(cols["x"], [0.5, -0.0])


@pytest.mark.parametrize("body, message", [
    ("1.0,0,0.5\n", "malformed row"),
    ("1e0,0,0.5\n", "malformed row"),
    ("x,0,0.5\n", "malformed row"),
    ("0,0\n", "malformed row"),
    ("0,0,0.5,1\n", "malformed row"),
    ("0,0,\n", "malformed row"),
    ("", "no data rows"),
    ("\n\n", "no data rows"),
])
def test_read_csv_rejects(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("n,t,x\n" + body)
    with pytest.raises(TableError, match=message):
        read_csv(path, "n,t,x", "test")
    path.write_text("n,t,y\n" + body)
    with pytest.raises(TableError, match=r"unexpected header 'n,t,y', want 'n,t,x'"):
        read_csv(path, "n,t,x", "test")
