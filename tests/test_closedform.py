import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwline import (
    CoinAngles,
    InitialState,
    ParityError,
    UnsupportedParameterError,
    ballistic_slope,
    closed_form_amplitudes,
    evolve,
    initial_velocities,
    lambda_explicit,
    lambda_table,
    localized_state,
    mean_position,
    omega,
    one_step_amplitudes,
    pmf,
    save_lambda_csv,
    stationary_pmf,
    step_homogeneous,
)
from qwline.closedform import _SPECTRAL_MIN_SIN
from qwline.kernels import lambda_spectral


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
    with pytest.raises(UnsupportedParameterError, match=r"cos\(theta\) < 1"):
        lambda_explicit(0, 2, 1e-9)


def test_lambda_explicit_reads_the_fft_row_bitwise():
    for theta in (0.05, 0.7, 1.5):
        for t in (0, 1, 2, 7, 60):
            row = lambda_spectral(t, math.cos(theta))
            got = [lambda_explicit(n, t, theta) for n in range(-t, t + 1, 2)]
            assert np.array_equal(got, row)


def test_lambda_explicit_builds_one_row_per_sweep(monkeypatch):
    """Sweeping a row site by site builds its FFT row once; moving to
    another t or theta builds the next one."""
    from qwline import closedform, kernels

    built = []

    def counted(t, cos_theta):
        built.append((t, cos_theta))
        return lambda_spectral(t, cos_theta)

    monkeypatch.setattr(kernels, "lambda_spectral", counted)
    closedform._spectral_row.cache_clear()
    for theta in (0.7, 1.1):
        for t in (9, 10):
            got = [lambda_explicit(n, t, theta) for n in range(-t, t + 1, 2)]
            assert np.array_equal(got, lambda_spectral(t, math.cos(theta)))
    assert built == [(t, math.cos(theta)) for theta in (0.7, 1.1) for t in (9, 10)]
    closedform._spectral_row.cache_clear()


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


def test_lambda_table_layout():
    """``value``, ``occupied_row`` and the rolling rows read one layout:
    every site of every row, the zeros outside the cone and the parity
    guard, for t <= 40 and |n| <= t + 2."""
    from qwline.closedform import _recursion_rows

    for theta in (0.9, math.pi / 2, 2.5):
        table = lambda_table(theta, 40)
        for t in range(41):
            ns, vals = table.occupied_row(t)
            assert np.array_equal(ns, np.arange(-t, t + 1, 2))
            for n in range(-t - 2, t + 3):
                if (n + t) % 2:
                    with pytest.raises(ParityError):
                        table.value(n, t)
                elif abs(n) > t:
                    assert table.value(n, t) == 0.0
                else:
                    assert table.value(n, t) == vals[(n + t) // 2]
            if t < 40:
                full = lambda_table(theta, t + 1)
                got = _recursion_rows(theta, t)
                for k in (0, 1):
                    want = full.occupied_row(t + k)[1]
                    assert np.array_equal(got[k].view(np.int64), want.view(np.int64))


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
    # cos(1e-9) rounds to 1.0, where some mode denominators vanish
    with pytest.raises(UnsupportedParameterError, match=r"cos\(theta\) < 1"):
        closed_form_amplitudes(init, CoinAngles(1e-9), t, method="spectral")

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


def test_auto_takes_the_recursion_at_small_sin_theta():
    """Below sin(theta) = 1e-2 the mode sum loses accuracy (6.7e-10 from
    stepping at theta = 1e-4, t = 4000), so auto must equal the recursion."""
    init = InitialState(eta=0.4, gamma=1.1)
    for theta in (1e-9, 1e-4, -1e-3, math.asin(_SPECTRAL_MIN_SIN) * 0.999):
        c = CoinAngles(theta, 0.3, -0.8, 0.5)
        auto = closed_form_amplitudes(init, c, 300)
        recursion = closed_form_amplitudes(init, c, 300, method="recursion")
        assert np.array_equal(auto.plus_amps, recursion.plus_amps)
        assert np.array_equal(auto.minus_amps, recursion.minus_amps)
    c = CoinAngles(math.asin(_SPECTRAL_MIN_SIN) * 1.001, 0.3, -0.8, 0.5)
    auto = closed_form_amplitudes(init, c, 300)
    spectral = closed_form_amplitudes(init, c, 300, method="spectral")
    assert np.array_equal(auto.plus_amps, spectral.plus_amps)


_ANGLE = st.floats(-math.pi, math.pi)
# A third of the draws are small angles, down to those whose cosine rounds
# to 1, so the auto fallback and the spectral guard are exercised.
_THETA = st.one_of(
    _ANGLE,
    st.floats(-0.05, 0.05),
    st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi]),
)
# Worst deviation from stepping over 8000 draws of this test: 4.4e-13
# (spectral, theta = 0.013, t = 175).  Drawn at the fallback edge
# sin(theta) = 1e-2 with t in 150..200, the spectral route reaches 1.5e-12.
_STEPPING_TOL = 5e-12


@settings(max_examples=200, deadline=None)
@given(theta=_THETA, alpha=_ANGLE, beta=_ANGLE, chi=_ANGLE, eta=_ANGLE,
       gamma=_ANGLE, t=st.integers(0, 200))
def test_closed_form_equals_stepping_for_all_angles(theta, alpha, beta, chi,
                                                    eta, gamma, t):
    init = InitialState(eta, gamma)
    c = CoinAngles(theta, alpha, beta, chi)
    stepped = evolve(init, c, t)
    methods = ["auto", "recursion"]
    spectral = 0.0 < theta < math.pi / 2 and math.sin(theta) >= _SPECTRAL_MIN_SIN
    if spectral:
        methods.append("spectral")
    elif 0.0 < theta < math.pi / 2 and math.cos(theta) == 1.0:
        with pytest.raises(UnsupportedParameterError):
            closed_form_amplitudes(init, c, t, method="spectral")
    direct = {m: closed_form_amplitudes(init, c, t, method=m) for m in methods}
    for state in direct.values():
        assert np.max(np.abs(state.plus_amps - stepped.plus_amps)) <= _STEPPING_TOL
        assert np.max(np.abs(state.minus_amps - stepped.minus_amps)) <= _STEPPING_TOL
    # auto is one of the two routes, bit for bit
    same = direct["spectral" if spectral else "recursion"]
    assert np.array_equal(direct["auto"].plus_amps, same.plus_amps)
    assert np.array_equal(direct["auto"].minus_amps, same.minus_amps)


# (theta, eta, phi) with phi = alpha + beta - gamma; the walks start at
# gamma = -phi under a coin with alpha = beta = chi = 0.
_LONG_TIME_CASES = ((math.pi / 6, math.pi / 6, 0.0),
                    (math.pi / 4, math.pi / 16, math.pi),
                    (0.9, 0.3, 1.0))


@pytest.fixture(scope="module")
def long_time_states():
    """Closed-form states of each case at T = 1e3, 1e4 and 1e5."""
    return {
        (case, t): closed_form_amplitudes(
            InitialState(eta=case[1], gamma=-case[2]), CoinAngles(case[0]), t)
        for case in _LONG_TIME_CASES
        for t in (1_000, 10_000, 100_000)
    }


def test_mean_position_approaches_ballistic_slope_as_one_over_t(long_time_states):
    """``T |<x>/T - v|`` measured 0.249, 0.461 and 0.228 at T = 1e5, and the
    gap shrinks 9.9-10.0x from T = 1e4 to 1e5."""
    for case in _LONG_TIME_CASES:
        slope = ballistic_slope(*case)
        gaps = {t: abs(mean_position(long_time_states[case, t]) / t - slope)
                for t in (10_000, 100_000)}
        assert 100_000 * gaps[100_000] <= 0.5
        assert 9.5 <= gaps[10_000] / gaps[100_000] <= 10.5


def _worst_bin_deviation(state, theta, eta, phi, bins=16):
    """Largest relative gap between the walk's mass and the envelope's in
    equal bins over ``|n| < 0.8 t cos(theta)``, occupied sites only."""
    t = state.t
    half = 0.8 * t * math.cos(theta)
    ns = state.n_values
    keep = (np.abs(ns) < half) & ((ns + t) % 2 == 0)
    ns, rho = ns[keep], pmf(state)[keep]
    which = np.minimum(((ns + half) / (2 * half) * bins).astype(int), bins - 1)
    mass = np.bincount(which, rho, bins)
    envelope = np.bincount(which, stationary_pmf(ns, t, theta, eta, phi), bins)
    return float(np.max(np.abs(mass - envelope) / envelope))


def test_binned_distribution_approaches_stationary_envelope(long_time_states):
    """The worst bin deviation measured 2.1e-4, 1.6e-4 and 1.7e-4 at
    T = 1e5, and ``T * deviation`` stays within 10-22 over T = 1e3..1e5."""
    for case in _LONG_TIME_CASES:
        for t in (1_000, 10_000, 100_000):
            deviation = _worst_bin_deviation(long_time_states[case, t], *case)
            assert t * deviation <= 25.0, (case, t, deviation)
