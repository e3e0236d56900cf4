"""Kernel-level checks: the single-step kernel must match a direct matrix
application and the kernel-table routes must agree."""

import numpy as np
import pytest

from qwline import CoinAngles, coin_matrix
from qwline.coin import coin_entries
from qwline.kernels import BACKEND, lambda_fill, lambda_spectral, walk_step


def _random_step_inputs(rng, m):
    plus = rng.normal(size=m) + 1j * rng.normal(size=m)
    minus = rng.normal(size=m) + 1j * rng.normal(size=m)
    angles = rng.uniform(-np.pi, np.pi, size=(4, m))
    return plus, minus, angles[0], angles[1], angles[2], angles[3]


def _step(plus, minus, th, al, be, ch, stride=1):
    """One step of the rows ``plus``, ``minus``; returns the output rows.

    The outputs and the scratch row start as NaN, as reused buffers hold
    stale values, so every output entry the kernel leaves unwritten shows,
    and so does a scratch entry read before it is written.  The scratch row
    is longer than the source; its entries past the source length must stay
    untouched.
    """
    out_plus = np.full(plus.size + 2 // stride, np.nan, dtype=complex)
    out_minus = np.full(minus.size + 2 // stride, np.nan, dtype=complex)
    scratch = np.full(plus.size + 3, np.nan, dtype=complex)
    walk_step(plus, minus, out_plus, out_minus, stride, *coin_entries(th, al, be, ch), scratch)
    assert np.isnan(scratch[plus.size:]).all()
    return out_plus, out_minus


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
