"""Kernel-level checks: the single-step kernel must match a direct matrix
application and the kernel-table routes must agree."""

import math

import numpy as np
import pytest

from qwline import CoinAngles, coin_matrix, lambda_table
from qwline.coin import coin_entries
from qwline.kernels import BACKEND, lambda_fill, lambda_spectral, walk_step


def _random_step_inputs(rng, m):
    plus = rng.normal(size=m) + 1j * rng.normal(size=m)
    minus = rng.normal(size=m) + 1j * rng.normal(size=m)
    angles = rng.uniform(-np.pi, np.pi, size=(4, m))
    return plus, minus, angles[0], angles[1], angles[2], angles[3]


def _pair_step(plus, minus, cross, self_, stride=1):
    """One step of the rows ``plus``, ``minus`` under stacked coin entries;
    returns the output rows.

    The outputs are the two rows of a pair buffer, written through the
    ``(2, m)`` view that ``evolve`` steps into, and they and the scratch rows
    start as NaN, as reused buffers hold stale values, so every output entry
    the kernel leaves unwritten shows, and so does a scratch entry read
    before it is written.  The scratch rows are longer than the source;
    their entries past the source length must stay untouched.
    """
    m, k = plus.size, 2 // stride
    pair = np.full((2, m + k), np.nan, dtype=complex)
    out = pair.reshape(-1)[k:2 * m + k].reshape(2, m)
    scratch = np.full((2, m + 3), np.nan, dtype=complex)
    walk_step(plus, minus, out, pair[0, :k], pair[1, m:], cross, self_, scratch[:, :m])
    assert np.isnan(scratch[:, m:]).all()
    return pair[0], pair[1]


def _step(plus, minus, th, al, be, ch, stride=1):
    """:func:`_pair_step` under the coin of the angle rows ``th .. ch``."""
    return _pair_step(plus, minus, *coin_entries(th, al, be, ch), stride)


def test_walk_step_window_growth_and_edges():
    rng = np.random.default_rng(0)
    plus, minus, th, al, be, ch = _random_step_inputs(rng, 7)
    source = plus.copy(), minus.copy()
    out_plus, out_minus = _step(plus, minus, th, al, be, ch)
    assert out_plus.shape == (9,)
    assert out_minus.shape == (9,)
    # The plus component cannot reach the two leftmost sites, the minus
    # component cannot reach the two rightmost.
    assert out_plus[0] == 0 and out_plus[1] == 0
    assert out_minus[-1] == 0 and out_minus[-2] == 0
    assert np.all(np.isfinite(out_plus)) and np.all(np.isfinite(out_minus))
    # With stride 2 the row grows by one stored site and loses one edge each.
    out_plus, out_minus = _step(plus, minus, th, al, be, ch, stride=2)
    assert out_plus.shape == (8,) and out_minus.shape == (8,)
    assert out_plus[0] == 0 and out_minus[-1] == 0
    assert np.all(np.isfinite(out_plus)) and np.all(np.isfinite(out_minus))
    # The source rows are read only.
    assert np.array_equal(plus, source[0]) and np.array_equal(minus, source[1])


def test_walk_step_matches_matrix_application():
    """Each source site feeds its neighbours through the coin unitary."""
    rng = np.random.default_rng(1)
    m = 5
    plus, minus, th, al, be, ch = _random_step_inputs(rng, m)
    for stride in (1, 2):
        k = 2 // stride
        out_plus, out_minus = _step(plus, minus, th, al, be, ch, stride)
        expect_plus = np.zeros(m + k, dtype=complex)
        expect_minus = np.zeros(m + k, dtype=complex)
        for i in range(m):
            u = coin_matrix(CoinAngles(th[i], al[i], be[i], ch[i]))
            top = u[0, 0] * plus[i] + u[0, 1] * minus[i]
            bottom = u[1, 0] * plus[i] + u[1, 1] * minus[i]
            expect_plus[i + k] += top
            expect_minus[i] += bottom
        assert np.allclose(out_plus, expect_plus, atol=1e-14)
        assert np.allclose(out_minus, expect_minus, atol=1e-14)


def test_walk_step_preserves_norm():
    rng = np.random.default_rng(2)
    plus, minus, th, al, be, ch = _random_step_inputs(rng, 33)
    norm = np.sum(np.abs(plus) ** 2 + np.abs(minus) ** 2)
    out_plus, out_minus = _step(plus, minus, th, al, be, ch)
    out_norm = np.sum(np.abs(out_plus) ** 2 + np.abs(out_minus) ** 2)
    assert out_norm == pytest.approx(norm, rel=1e-14)


def test_walk_step_stride_two_equals_stride_one_on_parity_data():
    """Stepping the occupied sites alone changes no bit of them, and the
    full window leaves the sites in between exactly zero."""
    rng = np.random.default_rng(4)
    plus, minus, th, al, be, ch = _random_step_inputs(rng, 11)
    plus[1::2] = 0
    minus[1::2] = 0
    full = _step(plus, minus, th, al, be, ch)
    rows = _step(plus[::2], minus[::2], th[::2], al[::2], be[::2], ch[::2], stride=2)
    assert np.array_equal(rows[0], full[0][::2])
    assert np.array_equal(rows[1], full[1][::2])
    assert np.all(full[0][1::2] == 0) and np.all(full[1][1::2] == 0)


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("rows", ["per-site", "scalar", "mixed"])
def test_walk_step_is_bitwise_the_six_call_expressions(rows, stride):
    """Three numpy calls over both rows give the bits of ``a * plus + b *
    minus`` and ``c * plus - d * minus`` written out, for entries per site,
    for the one column of a constant coin and for scalar and per-site
    parameters mixed."""
    rng = np.random.default_rng(5)
    for m in (1, 2, 7, 64, 513):
        plus, minus, th, al, be, ch = _random_step_inputs(rng, m)
        angles = {"per-site": (th, al, be, ch), "scalar": (th[0], al[0], be[0], ch[0]),
                  "mixed": (th[0], al[0], be, ch[0])}[rows]
        cross, self_ = coin_entries(*angles)
        assert cross.shape == self_.shape == (2, 1 if rows == "scalar" else m)
        # the entries' own bits: the written-out coin_entries expressions
        gain = np.exp(1j * angles[3])
        cos_g, sin_g = np.cos(angles[0]) * gain, np.sin(angles[0]) * gain
        ea, ebm = np.exp(1j * angles[1]), np.exp(-1j * angles[2])
        a, b = ea * cos_g, ebm * sin_g
        c, d = np.conj(ebm) * sin_g, np.conj(ea) * cos_g
        for got, want in ((cross[0], a), (cross[1], c), (self_[0], b), (self_[1], -d)):
            assert np.array_equal(_bits(got), _bits(np.broadcast_to(want, got.shape)))
        k = 2 // stride
        out_plus, out_minus = _pair_step(plus, minus, cross, self_, stride)
        assert np.array_equal(_bits(out_plus[k:]), _bits(a * plus + b * minus))
        assert np.array_equal(_bits(out_minus[:m]), _bits(c * plus - d * minus))
        assert np.array_equal(_bits(out_plus[:k]), np.zeros(2 * k, np.int64))
        assert np.array_equal(_bits(out_minus[m:]), np.zeros(2 * k, np.int64))


def test_walk_step_signed_zeros():
    """Where a part of ``c * plus - d * minus`` is an exact zero, the kernel
    may give ``+0.0`` for the ``-0.0`` the written-out difference gives, and
    nowhere else departs from it.  A real coin with ``theta < 0`` on real
    amplitudes, some of them zero, makes every imaginary part such a zero."""
    rng = np.random.default_rng(6)
    m = 4096
    plus, minus = rng.normal(size=m) + 0j, rng.normal(size=m) + 0j
    plus[::7], minus[::5] = 0, 0
    plus.imag[::3], minus.imag[::2] = -0.0, -0.0
    cross, self_ = coin_entries(-0.5, 0.0, 0.0, 0.0)
    out_plus, out_minus = _pair_step(plus, minus, cross, self_)
    a, c, b, d = cross[0, 0], cross[1, 0], self_[0, 0], -self_[1, 0]
    assert np.array_equal(_bits(out_plus[2:]), _bits(a * plus + b * minus))
    want = (c * plus - d * minus).view(np.float64)
    got = out_minus[:m].view(np.float64)
    assert np.array_equal(got, want)
    apart = _bits(got) != _bits(want)
    assert apart.any()
    assert (want[apart] == 0).all() and np.signbit(want[apart]).all()
    assert not np.signbit(got[apart]).any()


def _column(n, t):
    """Table column of site ``n`` in row ``t``."""
    return (n + t) // 2 + 1


def test_lambda_fill_structure():
    table = lambda_fill(np.cos(np.pi / 4), 6)
    assert table.shape == (7, 8)
    assert table[0, 1] == 1.0
    assert table[0, 0] == 0 and np.all(table[0, 2:] == 0)
    # Row 1 is identically zero: the kernel vanishes for |n| >= t >= 1.
    assert np.all(table[1] == 0)
    assert table[2, _column(0, 2)] == 1.0
    for t in range(7):
        # column 0 and the columns past the row's sites are padding
        assert table[t, 0] == 0 and np.all(table[t, t + 2:] == 0)
        if t >= 1:
            assert table[t, _column(-t, t)] == 0 and table[t, _column(t, t)] == 0


def test_lambda_fill_hand_values():
    c = np.cos(1.1)
    table = lambda_fill(c, 4)
    assert table[3, _column(1, 3)] == pytest.approx(c, abs=1e-15)
    assert table[3, _column(-1, 3)] == pytest.approx(-c, abs=1e-15)
    assert table[4, _column(0, 4)] == pytest.approx(1 - 2 * c * c, abs=1e-15)


def test_lambda_spectral_delta_at_origin():
    row = lambda_spectral(0, 0.5)
    assert row.shape == (1,)
    assert row[0] == 1.0


def test_lambda_spectral_matches_recursion():
    for theta in (np.pi / 8, np.pi / 4, 1.2):
        c = np.cos(theta)
        table = lambda_fill(c, 40)
        for t in range(0, 41, 5):
            spectral = lambda_spectral(t, c)
            assert spectral.shape == (t + 1,)
            occupied = table[t, 1:t + 2]
            assert np.max(np.abs(spectral - occupied)) <= 1e-11


def test_fft_rows_match_rolling_recursion_rows():
    """One FFT row per time agrees with the recursion out to t = 4000.

    Measured worst cases over these times: 3.9e-13 at theta = 0.05,
    2.1e-14 at 0.9 and 1.4e-15 at 1.55, all at t >= 3999.
    """
    for theta in (0.05, 0.9, 1.55):
        c = np.cos(theta)
        worst = 0.0
        for t_max in (1, 2, 3, 58, 301, 501, 1000, 2001, 4000):
            rows = lambda_fill(c, t_max, rolling=True)
            for row, t in zip(rows, (t_max - 1, t_max)):
                occupied = row[1:t + 2]
                worst = max(worst, np.max(np.abs(lambda_spectral(t, c) - occupied)))
        assert worst <= 1e-12, (theta, worst)


def test_selected_backend_exports():
    from qwline import kernels

    assert BACKEND == "numpy"
    out = kernels.lambda_fill(0.5, 3)
    assert out.shape == (4, 5)


def test_rolling_fill_equals_table_rows_bitwise():
    for theta in (0.05, 0.9, 1.55, np.pi / 2, 2.5):
        c = np.cos(theta)
        for t_max in (1, 2, 3, 4, 57, 300):
            rows = lambda_fill(c, t_max, rolling=True)
            assert rows.shape == (2, t_max + 2)
            assert np.array_equal(rows, lambda_fill(c, t_max)[-2:])


def _written_out_recursion(cos_theta, t_max):
    """The recursion table row by row, in the float order ``lambda_fill``
    keeps: ``cos * lam(n - 1) - cos * lam(n + 1)``, then ``+ lam(n, t - 2)``."""
    table = np.zeros((t_max + 1, t_max + 2))
    table[0, 1] = 1.0
    for t in range(2, t_max + 1):
        row = cos_theta * table[t - 1, :t + 1]
        row -= cos_theta * table[t - 1, 1:t + 2]
        row += table[t - 2, :t + 1]
        table[t, 1:t + 2] = row
    return table


@pytest.mark.parametrize("theta", [0.3, np.pi / 4, 1.5, 2.5, np.pi / 2 - 1e-3])
def test_lambda_fill_is_bitwise_the_written_out_recursion(theta):
    """One product row per step gives every bit of the two product rows it
    replaces: at ``cos theta < 0`` (2.5), in tails below the smallest normal
    double (1.5 and near pi / 2, where most entries underflow to zero), and
    in the sign of every exact zero."""
    c = math.cos(theta)
    want = _written_out_recursion(c, 640)
    assert np.array_equal(_bits(lambda_table(theta, 600)._rows), _bits(want[:601, :602]))
    for t_max in (600, 601, 640):
        rows = lambda_fill(c, t_max, rolling=True)
        assert np.array_equal(_bits(rows), _bits(want[t_max - 1:t_max + 1, :t_max + 2]))
