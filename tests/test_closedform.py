import math

import numpy as np
import pytest

from qwline import (
    CoinAngles,
    InitialState,
    ParityError,
    UnsupportedParameterError,
    closed_form_amplitudes,
    evolve,
    initial_velocities,
    lambda_explicit,
    lambda_table,
    localized_state,
    omega,
    one_step_amplitudes,
    save_lambda_csv,
    step_homogeneous,
)


def test_omega_values_and_bounds():
    theta = 0.7
    # r = 1, t = 1: the sine factor is 1, so the mode angle is arcsin(cos).
    assert omega(1, 1, theta) == pytest.approx(np.pi / 2 - theta, abs=1e-15)
    assert omega(2, 3, theta) == pytest.approx(
        math.asin(math.cos(theta) * math.sin(math.pi / 2)), abs=1e-15)
    with pytest.raises(ValueError, match="t must be positive"):
        omega(1, 0, theta)
    with pytest.raises(ValueError, match="mode index"):
        omega(0, 4, theta)
    with pytest.raises(ValueError, match="mode index"):
        omega(5, 4, theta)


def test_lambda_explicit_guards():
    with pytest.raises(ParityError, match=r"\(n=1, t=2\)"):
        lambda_explicit(1, 2, 0.5)
    with pytest.raises(UnsupportedParameterError):
        lambda_explicit(0, 2, 0.0)
    with pytest.raises(UnsupportedParameterError):
        lambda_explicit(0, 2, np.pi / 2)
    assert lambda_explicit(6, 4, 0.5) == 0.0
    assert lambda_explicit(0, 0, 0.5) == 1.0


def test_lambda_hand_values():
    theta = 0.6
    c = math.cos(theta)
    table = lambda_table(theta, 4)
    assert table.value(0, 0) == 1.0
    assert table.value(1, 1) == 0.0
    assert table.value(-1, 1) == 0.0
    assert table.value(0, 2) == 1.0
    assert table.value(2, 2) == 0.0
    assert table.value(1, 3) == pytest.approx(c, abs=1e-15)
    assert table.value(-1, 3) == pytest.approx(-c, abs=1e-15)
    assert table.value(0, 4) == pytest.approx(1 - 2 * c * c, abs=1e-15)
    # The spectral form reproduces the same handful.
    for n, t in ((0, 2), (1, 3), (-1, 3), (0, 4)):
        assert lambda_explicit(n, t, theta) == pytest.approx(
            table.value(n, t), abs=1e-13)


def test_lambda_table_guards():
    table = lambda_table(0.5, 3)
    with pytest.raises(ValueError, match="table covers"):
        table.value(0, 4)
    with pytest.raises(ValueError, match="table covers"):
        table.occupied_row(-1)
    with pytest.raises(ParityError):
        table.value(0, 3)
    assert table.value(5, 3) == 0.0
    ns, vals = table.occupied_row(2)
    assert np.array_equal(ns, [-2, 0, 2])
    assert vals[1] == 1.0


def test_spectral_matches_recursion_over_window():
    for theta in (np.pi / 8, np.pi / 4, np.pi / 3):
        table = lambda_table(theta, 60)
        worst = 0.0
        for t in range(61):
            for n in range(-t, t + 1, 2):
                diff = abs(lambda_explicit(n, t, theta) - table.value(n, t))
                worst = max(worst, diff)
        assert worst < 1e-9


def test_one_step_amplitudes_match_stepping():
    rng = np.random.default_rng(17)
    for _ in range(10):
        init = InitialState(*rng.uniform(-np.pi, np.pi, size=2))
        c = CoinAngles(*rng.uniform(-np.pi, np.pi, size=4))
        p11, m11 = one_step_amplitudes(init, c)
        stepped = step_homogeneous(localized_state(init), c)
        assert p11 == pytest.approx(stepped.amplitudes_at(1)[0], abs=1e-15)
        assert m11 == pytest.approx(stepped.amplitudes_at(-1)[1], abs=1e-15)


def test_closed_form_matches_stepping_random_draws():
    """Direct evaluation at time t equals t applications of the step map."""
    rng = np.random.default_rng(2024)
    for _ in range(12):
        theta = rng.uniform(0.05, np.pi / 2 - 0.05)
        c = CoinAngles(theta, *rng.uniform(-np.pi, np.pi, size=3))
        init = InitialState(*rng.uniform(-np.pi, np.pi, size=2))
        t = int(rng.integers(1, 45))
        stepped = evolve(init, c, t)
        for method in ("spectral", "recursion"):
            direct = closed_form_amplitudes(init, c, t, method=method)
            assert np.max(np.abs(direct.plus_amps - stepped.plus_amps)) < 1e-10
            assert np.max(np.abs(direct.minus_amps - stepped.minus_amps)) < 1e-10


def test_closed_form_edge_probability():
    # eta = 0 start: the rightmost site keeps probability cos(theta)^(2t).
    for theta in (np.pi / 8, np.pi / 3):
        for t in (1, 7, 30):
            state = closed_form_amplitudes(InitialState(), CoinAngles(theta), t)
            p, _ = state.amplitudes_at(t)
            assert abs(p) ** 2 == pytest.approx(math.cos(theta) ** (2 * t),
                                                abs=1e-13)


def test_closed_form_degenerate_angles():
    # theta = 0 is pure transport; auto must fall back to the recursion.
    init = InitialState(eta=0.8, gamma=0.5)
    c = CoinAngles(theta=0.0, alpha=0.3, beta=0.1, chi=0.2)
    t = 12
    direct = closed_form_amplitudes(init, c, t)
    stepped = evolve(init, c, t)
    assert np.max(np.abs(direct.plus_amps - stepped.plus_amps)) < 1e-12
    assert np.max(np.abs(direct.minus_amps - stepped.minus_amps)) < 1e-12
    # Right-mover picks up e^{i(chi+alpha)} per step, left-mover
    # (-1)^t e^{i(chi-alpha)t}.
    p, _ = direct.amplitudes_at(t)
    assert p == pytest.approx(np.cos(0.8) * np.exp(1j * 0.5 * t), abs=1e-13)
    _, m = direct.amplitudes_at(-t)
    assert m == pytest.approx(
        (-1) ** t * np.exp(1j * (0.5 + (0.2 - 0.3) * t))
        * np.sin(0.8), abs=1e-13)

    with pytest.raises(UnsupportedParameterError):
        closed_form_amplitudes(init, c, t, method="spectral")

    c90 = CoinAngles(theta=np.pi / 2, alpha=-0.2, beta=0.4, chi=0.1)
    direct = closed_form_amplitudes(init, c90, 9)
    stepped = evolve(init, c90, 9)
    assert np.max(np.abs(direct.plus_amps - stepped.plus_amps)) < 1e-12
    assert np.max(np.abs(direct.minus_amps - stepped.minus_amps)) < 1e-12


def test_closed_form_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown method"):
        closed_form_amplitudes(InitialState(), CoinAngles(0.5), 3, method="table")
    with pytest.raises(ValueError, match="non-negative"):
        closed_form_amplitudes(InitialState(), CoinAngles(0.5), -2)


def test_pmf_depends_only_on_relative_phase_combination():
    """Distributions match when alpha + beta - gamma and (theta, eta) agree."""
    from qwline import pmf

    a = closed_form_amplitudes(
        InitialState(eta=0.5, gamma=0.9),
        CoinAngles(theta=0.8, alpha=0.3, beta=0.6, chi=1.4), 24)
    b = closed_form_amplitudes(
        InitialState(eta=0.5, gamma=-0.7),
        CoinAngles(theta=0.8, alpha=-1.0, beta=0.3, chi=0.0), 24)
    assert np.max(np.abs(pmf(a) - pmf(b))) < 1e-14


def test_initial_velocities():
    rng = np.random.default_rng(8)
    for _ in range(10):
        init = InitialState(*rng.uniform(-np.pi, np.pi, size=2))
        c = CoinAngles(*rng.uniform(-np.pi, np.pi, size=4))
        v_plus, v_minus = initial_velocities(init, c)
        assert v_plus + v_minus == 1.0
        p11, m11 = one_step_amplitudes(init, c)
        assert v_plus == pytest.approx(abs(p11) ** 2, abs=1e-14)
        assert v_minus == pytest.approx(abs(m11) ** 2, abs=1e-14)
        # Swapping the roles of the spinor and coin angles leaves the
        # velocities unchanged.
        swapped = initial_velocities(
            InitialState(eta=c.theta, gamma=c.alpha + c.beta),
            CoinAngles(theta=init.eta, alpha=init.gamma, beta=0.0, chi=c.chi))
        assert swapped[0] == pytest.approx(v_plus, abs=1e-13)
    assert initial_velocities(InitialState(), CoinAngles(0.0)) == (1.0, 0.0)
    assert initial_velocities(InitialState(eta=np.pi / 2), CoinAngles(0.0)) \
        == (0.0, 1.0)


def test_save_lambda_csv(tmp_path):
    table = lambda_table(0.9, 3)
    path = tmp_path / "lam.csv"
    save_lambda_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,t,lambda"
    # Rows: 1 + 2 + 3 + 4 occupied sites for t = 0..3.
    assert len(lines) == 1 + 10
    assert lines[1] == "0,0,1"


def test_recursion_route_equals_full_table_rows_bitwise(monkeypatch):
    """The rolling three-row fill reproduces the full table's rows, so the
    recursion closed form is unchanged bit for bit."""
    from qwline import closedform

    init = InitialState(eta=0.6, gamma=1.9)
    cases = [(CoinAngles(0.9, 0.3, -1.2, 0.4), t) for t in (0, 1, 2, 37, 400)]
    cases += [(CoinAngles(math.pi / 2, 0.1), 21), (CoinAngles(0.0, chi=0.2), 20)]
    got = [closed_form_amplitudes(init, c, t, method="recursion") for c, t in cases]

    def table_rows(theta, t):
        table = lambda_table(theta, t + 1)
        return table.occupied_row(t)[1], table.occupied_row(t + 1)[1]

    monkeypatch.setattr(closedform, "_recursion_rows", table_rows)
    for (c, t), a in zip(cases, got):
        b = closed_form_amplitudes(init, c, t, method="recursion")
        assert np.array_equal(a.plus_amps, b.plus_amps)
        assert np.array_equal(a.minus_amps, b.minus_amps)
