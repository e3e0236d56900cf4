import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwline import (
    CoinAngles,
    InitialState,
    InputError,
    UnsupportedParameterError,
    ballistic_slope,
    chirality_probabilities,
    classical_pmf,
    evolve,
    fitted_slope,
    magnetization,
    mean_position,
    observe,
    pmf,
    save_comparison_csv,
    save_pmf_csv,
    save_trajectory_csv,
    smoothed_pmf,
    stationary_pmf,
    symmetry_residuals,
)


def _walk(t=14):
    return evolve(InitialState(eta=0.5, gamma=0.3),
                  CoinAngles(theta=0.8, alpha=0.1, beta=-0.2, chi=0.4), t)


def test_pmf_and_chirality_split():
    state = _walk()
    rho = pmf(state)
    assert rho.shape == (29,)
    assert np.all(rho >= 0)
    assert np.sum(rho) == pytest.approx(1.0, abs=1e-13)
    p_plus, p_minus = chirality_probabilities(state)
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-13)
    assert p_plus == pytest.approx(np.sum(np.abs(state.plus_amps) ** 2))


def test_magnetization_profile():
    state = _walk()
    mag = magnetization(state)
    assert mag.shape == (29,)
    p_plus, p_minus = chirality_probabilities(state)
    assert np.sum(mag) == pytest.approx(p_plus - p_minus, abs=1e-13)


def test_mean_position_scaling():
    state = _walk()
    x = mean_position(state)
    rho = pmf(state)
    assert x == pytest.approx(float(np.sum(state.n_values * rho)))


def test_observe_record():
    state = _walk(9)
    rec = observe(state)
    assert rec.t == 9
    assert rec.mean_x == pytest.approx(mean_position(state))
    assert rec.p_plus + rec.p_minus == pytest.approx(1.0, abs=1e-13)


def test_classical_pmf_against_exact_binomial():
    """Log-space evaluation must match big-integer binomial terms."""
    t = 100
    for p_frac in (Fraction(1, 2), Fraction(1, 4), Fraction(9, 10)):
        rho = classical_pmf(float(p_frac), t)
        for k in (0, 3, 37, 50, 88, 100):
            exact = (
                Fraction(math.comb(t, k))
                * p_frac ** k
                * (1 - p_frac) ** (t - k)
            )
            n = 2 * k - t
            got = rho[n + t]
            assert got == pytest.approx(float(exact), rel=1e-12)
    # Off-parity sites are structurally empty, never just small.
    assert np.all(classical_pmf(0.3, 9)[1::2] == 0)


def test_classical_pmf_normalization_large_t():
    rho = classical_pmf(0.37, 1000)
    assert abs(np.sum(rho) - 1.0) < 5e-12


def test_classical_pmf_degenerate_and_invalid():
    rho = classical_pmf(0.0, 6)
    assert rho[0] == 1.0 and np.sum(rho) == 1.0
    rho = classical_pmf(1.0, 6)
    assert rho[-1] == 1.0
    with pytest.raises(ValueError, match="step probability"):
        classical_pmf(1.5, 4)
    with pytest.raises(ValueError, match="non-negative"):
        classical_pmf(0.5, -1)


def test_stationary_pmf_center_value():
    # At the origin the envelope reduces to 2 tan(theta) / (pi t).
    for theta in (0.4, np.pi / 4, 1.2):
        for t in (10, 101):
            got = stationary_pmf(0, t, theta, eta=0.3, phi=1.0)
            assert got == pytest.approx(2 * np.tan(theta) / (np.pi * t),
                                        rel=1e-13)


def test_stationary_pmf_support_and_shapes():
    theta = np.pi / 4
    t = 40
    edge = t * np.cos(theta)
    assert stationary_pmf(int(edge) + 1, t, theta, 0.2, 0.5) == 0.0
    assert stationary_pmf(-t, t, theta, 0.2, 0.5) == 0.0
    ns = np.arange(-t, t + 1, 2)
    vals = stationary_pmf(ns, t, theta, 0.2, 0.5)
    assert vals.shape == ns.shape
    inside = np.abs(ns) < edge
    assert np.all(vals[inside] > 0)
    assert np.all(vals[~inside] == 0)
    assert isinstance(stationary_pmf(0, t, theta, 0.2, 0.5), float)


def test_stationary_pmf_guards():
    with pytest.raises(UnsupportedParameterError):
        stationary_pmf(0, 10, 0.0, 0.1, 0.1)
    with pytest.raises(UnsupportedParameterError):
        stationary_pmf(0, 10, np.pi / 2, 0.1, 0.1)
    with pytest.raises(ValueError, match="t must be positive"):
        stationary_pmf(0, 0, 0.5, 0.1, 0.1)


def test_smoothed_pmf_small_cases():
    # Constant occupied profile is a fixed point of the edge-renormalized
    # average.
    rho = np.zeros(9)
    rho[::2] = 0.2
    out = smoothed_pmf(rho, half_width=2)
    assert np.allclose(out[::2], 0.2, atol=1e-15)
    assert np.all(out[1::2] == 0)

    # Hand-computed 3-site average of a spike.
    rho = np.array([0.0, 0.0, 2.0, 0.0, 0.0])
    out = smoothed_pmf(rho, half_width=1)
    assert out[::2] == pytest.approx([1.0, 2.0 / 3.0, 1.0])


def test_ballistic_slope_values():
    assert ballistic_slope(np.pi / 6, np.pi / 6, 0.0) == pytest.approx(0.5,
                                                                       abs=1e-14)
    # eta = 0 reduces to 1 - sin(theta).
    assert ballistic_slope(0.7, 0.0, 1.3) == pytest.approx(1 - np.sin(0.7))
    with pytest.raises(UnsupportedParameterError):
        ballistic_slope(np.pi / 2, 0.1, 0.0)


def test_symmetry_residuals():
    # eta = pi/4 with phi = pi/2 kills both combinations for any theta.
    r_a, r_b = symmetry_residuals(np.pi / 5, np.pi / 4, np.pi / 2)
    assert abs(r_a) < 1e-15 and abs(r_b) < 1e-15
    r_a, r_b = symmetry_residuals(0.3, 0.0, 0.0)
    assert r_a == r_b == 1.0
    with pytest.raises(UnsupportedParameterError):
        symmetry_residuals(np.pi / 2, 0.1, 0.0)
    with pytest.raises(UnsupportedParameterError, match="tan\\(2 theta\\)"):
        symmetry_residuals(np.pi / 4, 0.1, 0.0)


def test_fitted_slope():
    ts = np.arange(0, 41)
    xs = 0.37 * ts + 2.0
    assert fitted_slope(ts, xs) == pytest.approx(0.37, abs=1e-12)
    # The default window starts halfway, so a transient before that does
    # not bias the fit.
    bent = xs.copy()
    bent[:10] += 5.0
    assert fitted_slope(ts, bent) == pytest.approx(0.37, abs=1e-12)
    assert fitted_slope(ts, bent, t_min=35) == pytest.approx(0.37, abs=1e-12)
    with pytest.raises(ValueError, match="at least two"):
        fitted_slope(ts, xs, t_min=40)


# np.polyfit is the reference.  The closed form and np.polyfit round
# differently, and both lose digits as the times sit far from their spread,
# so they are compared on the scale max|t| max|x| / spread^2, the slope
# itself for a line through the origin fitted from t = 0.  The tolerance,
# 1e-14 of that scale, was fixed before the test first ran.  Below the
# smallest normal float, gradual underflow rounds in absolute steps, so that
# float is the floor.  On the T = 1000 walk trajectories of the benchmark's
# seeds 1-29, fitted over t >= 500, the closed form agrees with np.polyfit
# to 6.0e-16 relative (1.1e-15 without centering x), and it is the closer
# of the two to the exact rational fit.
_FIT_RTOL, _TINY = 1e-14, np.finfo(np.float64).tiny


@settings(max_examples=300, deadline=None)
@given(slope=st.floats(-10, 10), offset=st.floats(-1e6, 1e6), t0=st.floats(-1e6, 1e6),
       span=st.floats(1e-2, 1e4), noise=st.floats(0, 10), n=st.integers(2, 200),
       cut=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_fitted_slope_matches_polyfit(slope, offset, t0, span, noise, n, cut, seed):
    rng = np.random.default_rng(seed)
    ts = t0 + span * np.sort(rng.random(n))
    xs = slope * ts + offset + noise * rng.standard_normal(n)
    t_min = t0 + cut * span
    keep = ts >= t_min
    t, x = ts[keep], xs[keep]
    if np.unique(t).size < 2:
        with pytest.raises(InputError, match="^need at least two"):
            fitted_slope(ts, xs, t_min)
        return
    ref = np.polyfit(t, x, 1)[0]
    scale = np.abs(t).max() * np.abs(x).max() / (t.max() - t.min()) ** 2
    assert abs(fitted_slope(ts, xs, t_min) - ref) <= max(_FIT_RTOL * scale, _TINY)


def test_fitted_slope_needs_no_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fitted_slope called a BLAS or LAPACK routine")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    ts = np.arange(0, 41)
    assert fitted_slope(ts, 0.37 * ts + 2.0) == pytest.approx(0.37, abs=1e-12)


def test_symmetric_walk_unbiased():
    """The balanced symmetric start keeps the mean at the origin."""
    state, records = evolve(
        InitialState(eta=np.pi / 4, gamma=-np.pi / 2),
        CoinAngles(theta=np.pi / 4), 60, record_trajectory=True)
    rho = pmf(state)
    assert np.max(np.abs(rho - rho[::-1])) < 1e-13
    assert all(abs(r.mean_x) < 1e-12 for r in records)


def test_csv_emitters(tmp_path):
    state, records = evolve(InitialState(eta=0.2), CoinAngles(0.6), 8,
                            record_trajectory=True)
    rho = pmf(state)

    p1 = tmp_path / "pmf.csv"
    save_pmf_csv(p1, state.n_values, rho)
    lines = p1.read_text().splitlines()
    assert lines[0] == "n,rho"
    assert len(lines) == 1 + 17

    p2 = tmp_path / "traj.csv"
    save_trajectory_csv(p2, records)
    lines = p2.read_text().splitlines()
    assert lines[0] == "t,mean_x,p_plus,p_minus"
    assert len(lines) == 1 + 9
    assert lines[1].startswith("0,")

    p3 = tmp_path / "cmp.csv"
    ns = state.n_values
    save_comparison_csv(p3, ns, rho, np.zeros_like(rho), np.zeros_like(rho))
    lines = p3.read_text().splitlines()
    assert lines[0] == "n,rho_exact,rho_stationary,rho_classical"
    assert len(lines) == 1 + 17
