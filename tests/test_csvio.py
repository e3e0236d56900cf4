"""The one CSV reader and writer: exact round trips and what the reader rejects."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwline import (
    CoinField,
    PhaseField,
    PotentialField,
    SpinorField,
    TableError,
    load_coin_field_csv,
    load_phase_field_csv,
    load_spinor_csv,
    save_coin_field_csv,
    save_phase_field_csv,
    save_potentials_csv,
    save_residual_csv,
    save_spinor_csv,
)
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
        for n in range(-t_max, t_max + 1):
            assert _same_bits(loaded.xi_of(n, t), xi[t, n + t_max])
            assert _same_bits(loaded.zeta_of(n, t), zeta[t, n + t_max])


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
