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


def _step(plus, minus, th, al, be, ch):
    """One stride-1 step of a general window; returns the widened pair."""
    out_plus = np.zeros(plus.size + 2, dtype=complex)
    out_minus = np.zeros(minus.size + 2, dtype=complex)
    out_plus[1:-1] = plus
    out_minus[1:-1] = minus
    walk_step(out_plus, out_minus, 1, *coin_entries(th, al, be, ch))
    return out_plus, out_minus


def test_walk_step_window_growth_and_edges():
    rng = np.random.default_rng(0)
    plus, minus, th, al, be, ch = _random_step_inputs(rng, 7)
    out_plus, out_minus = _step(plus, minus, th, al, be, ch)
    assert out_plus.shape == (9,)
    assert out_minus.shape == (9,)
    # The plus component cannot reach the two leftmost sites, the minus
    # component cannot reach the two rightmost.
    assert out_plus[0] == 0 and out_plus[1] == 0
    assert out_minus[-1] == 0 and out_minus[-2] == 0


def test_walk_step_matches_matrix_application():
    """Each source site feeds its neighbours through the coin unitary."""
    rng = np.random.default_rng(1)
    m = 5
    plus, minus, th, al, be, ch = _random_step_inputs(rng, m)
    out_plus, out_minus = _step(plus, minus, th, al, be, ch)
    expect_plus = np.zeros(m + 2, dtype=complex)
    expect_minus = np.zeros(m + 2, dtype=complex)
    for i in range(m):
        u = coin_matrix(CoinAngles(th[i], al[i], be[i], ch[i]))
        top = u[0, 0] * plus[i] + u[0, 1] * minus[i]
        bottom = u[1, 0] * plus[i] + u[1, 1] * minus[i]
        expect_plus[i + 2] += top
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
    """Skipping the zero sites changes no bit of the occupied ones and
    leaves the sites in between exactly zero."""
    rng = np.random.default_rng(4)
    plus, minus, th, al, be, ch = _random_step_inputs(rng, 11)
    plus[1::2] = 0
    minus[1::2] = 0
    full = _step(plus, minus, th, al, be, ch)
    a, b, c, d = coin_entries(th, al, be, ch)
    out_plus = np.zeros(13, dtype=complex)
    out_minus = np.zeros(13, dtype=complex)
    out_plus[1:-1] = plus
    out_minus[1:-1] = minus
    walk_step(out_plus, out_minus, 2, a[::2], b[::2], c[::2], d[::2])
    assert np.array_equal(out_plus, full[0])
    assert np.array_equal(out_minus, full[1])
    assert np.all(out_plus[1::2] == 0) and np.all(out_minus[1::2] == 0)


def test_lambda_fill_structure():
    table = lambda_fill(np.cos(np.pi / 4), 6)
    center = 7
    assert table[0, center] == 1.0
    assert np.all(table[0, :center] == 0) and np.all(table[0, center + 1:] == 0)
    # Row 1 is identically zero: the kernel vanishes for |n| >= t >= 1.
    assert np.all(table[1] == 0)
    assert table[2, center] == 1.0
    for t in range(7):
        for n in range(-7, 8):
            if abs(n) >= t and not (n == 0 and t == 0) and t >= 1:
                assert table[t, n + center] == 0


def test_lambda_fill_hand_values():
    c = np.cos(1.1)
    table = lambda_fill(c, 4)
    center = 5
    assert table[3, 1 + center] == pytest.approx(c, abs=1e-15)
    assert table[3, -1 + center] == pytest.approx(-c, abs=1e-15)
    assert table[4, center] == pytest.approx(1 - 2 * c * c, abs=1e-15)


def test_lambda_spectral_delta_at_origin():
    assert lambda_spectral(0, 0, 0.5) == 1.0
    assert lambda_spectral(2, 0, 0.5) == 0.0


def test_lambda_spectral_matches_recursion():
    for theta in (np.pi / 8, np.pi / 4, 1.2):
        c = np.cos(theta)
        table = lambda_fill(c, 40)
        center = 41
        for t in range(0, 41, 5):
            for n in range(-t, t + 1, 2):
                spectral = lambda_spectral(n, t, c)
                assert spectral == pytest.approx(table[t, n + center], abs=1e-11)


def test_selected_backend_exports():
    from qwline import kernels

    assert BACKEND == "numpy"
    out = kernels.lambda_fill(0.5, 3)
    assert out.shape == (4, 2 * 4 + 1)


def test_rolling_fill_equals_table_rows_bitwise():
    for theta in (0.05, 0.9, 1.55, np.pi / 2, 2.5):
        c = np.cos(theta)
        for t_max in (1, 2, 3, 4, 57, 300):
            rows = lambda_fill(c, t_max, rolling=True)
            assert rows.shape == (2, 2 * t_max + 3)
            assert np.array_equal(rows, lambda_fill(c, t_max)[-2:])
