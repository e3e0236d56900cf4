import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwline import (
    CoinAngles,
    CoinField,
    InitialState,
    InvarianceReport,
    PhaseConditionError,
    PhaseField,
    SmoothPhasePair,
    SpinorField,
    TotalityError,
    UnsupportedParameterError,
    evolve,
    exact_transform,
    lattice_phases_from_smooth,
    load_phase_field_csv,
    localized_state,
    quasi_invariant_phases,
    relative_phase_map,
    save_phase_field_csv,
    step_inhomogeneous,
    transform_coin_field,
    verify_exact_invariance,
    verify_quasi_invariance,
)
from qwline import invariance
from qwline.coin import _window_table_rows

REF = CoinAngles(theta=np.pi / 3, alpha=0.2, beta=-0.4, chi=0.7)


def test_quasi_phases_shift_only_beta():
    """Characteristic-riding phases leave chi and alpha bitwise unchanged."""
    dressed = transform_coin_field(REF, quasi_invariant_phases(0.1))
    for t in range(0, 30, 3):
        theta, alpha, beta, chi = dressed.rows(np.arange(-t, t + 1, 4), t)
        assert np.all(chi == REF.chi)
        assert np.all(alpha == REF.alpha)
        assert np.all(theta == REF.theta)
        assert beta == pytest.approx(REF.beta + 0.1 * t, abs=1e-12)


def test_bilinear_symmetric_phase_shifts():
    # xi = zeta = a n t moves chi by a n and alpha by a (t + 1), with the
    # opposite shift landing on beta.
    a = 0.05
    phases = PhaseField.symmetric(lambda n, t: a * n * t)
    dressed = transform_coin_field(REF, phases)
    ns = np.array([-7, -2, 0, 3, 11])
    for t in (0, 1, 5, 20):
        _, alpha, beta, chi = dressed.rows(ns, t)
        assert chi == pytest.approx(REF.chi + a * ns, abs=1e-12)
        assert alpha == pytest.approx(REF.alpha + a * (t + 1), abs=1e-12)
        assert beta == pytest.approx(REF.beta - a * (t + 1), abs=1e-12)


def test_zero_phases_reproduce_reference():
    dressed = transform_coin_field(REF, PhaseField.constant(0.0))
    for n, t in ((0, 0), (-4, 9), (13, 2)):
        _, alpha, beta, chi = dressed.rows(np.array([n]), t)
        assert chi[0] == REF.chi
        assert alpha[0] == REF.alpha
        assert beta[0] == REF.beta


def test_exact_transform_requires_common_phase():
    shared = PhaseField.symmetric(lambda n, t: 0.3 * n * n + 0.1 * t)
    a = exact_transform(REF, shared)
    b = transform_coin_field(REF, shared)
    for n, t in ((0, 0), (2, 5), (-3, 8)):
        rows_a, rows_b = a.rows(np.array([n]), t), b.rows(np.array([n]), t)
        assert rows_a[3][0] == rows_b[3][0]
        assert rows_a[2][0] == rows_b[2][0]

    # Equal-valued but distinct callables pass the pointwise check.
    agree = PhaseField(lambda n, t: 0.2 * n,
                       lambda n, t: 0.2 * n)
    exact_transform(REF, agree).rows(np.array([1]), 1)

    split = PhaseField(lambda n, t: 0.2 * n,
                       lambda n, t: 0.2 * n + 1e-6 * t)
    dressed = exact_transform(REF, split)
    with pytest.raises(PhaseConditionError, match="zeta == xi"):
        dressed.rows(np.array([0]), 3)


def test_characteristic_precondition_is_enforced():
    bad = PhaseField(lambda n, t: 0.01 * n * n,
                     lambda n, t: 0.0)
    with pytest.raises(PhaseConditionError, match="right-moving"):
        verify_quasi_invariance(InitialState(eta=0.3), REF, bad, 6)
    bad = PhaseField(lambda n, t: 0.0,
                     lambda n, t: 0.01 * t * t)
    with pytest.raises(PhaseConditionError, match="left-moving"):
        verify_quasi_invariance(InitialState(eta=0.3), REF, bad, 6)
    # a NaN gap fails the check; row 2 is checked against row 1 in step 1
    bad = PhaseField(lambda n, t: float("nan") if t == 2 else 0.0,
                     lambda n, t: 0.0)
    with pytest.raises(PhaseConditionError, match=re.escape("= nan at (n=-1, t=1)")):
        verify_quasi_invariance(InitialState(eta=0.3), REF, bad, 6)
    # a gap at the last site of a late row is named at that site
    bad = PhaseField(lambda n, t: 1e-6 if (n, t) == (151, 151) else 0.0,
                     lambda n, t: 0.0)
    with pytest.raises(PhaseConditionError,
                       match=re.escape("xi(n, t) = 1.000e-06 at (n=150, t=150)")):
        verify_quasi_invariance(InitialState(eta=0.3), REF, bad, 151)


def test_quasi_invariance_deviations_at_rounding_level():
    report = verify_quasi_invariance(
        InitialState(eta=np.pi / 3), REF, quasi_invariant_phases(0.1), 16)
    assert report.kind == "quasi"
    assert report.t_final == 16
    assert report.max_modulus_deviation < 1e-13
    assert report.max_pmf_deviation < 1e-13
    # The relative phase between components drifts by rate * t.
    assert report.per_time_deviations[16]["phase_map"] == pytest.approx(
        1.6, abs=1e-9)
    assert report.max_relative_phase_deviation is None
    assert report.max_component_deviation is None
    assert len(report.per_time_deviations) == 17


def test_quasi_invariance_with_random_characteristic_profiles():
    """Any xi(n - t), zeta(n + t) pair preserves the distribution."""
    rng = np.random.default_rng(77)
    t_final = 24
    span = 2 * t_final + 3
    right = rng.uniform(-np.pi, np.pi, size=2 * span + 1)
    left = rng.uniform(-np.pi, np.pi, size=2 * span + 1)
    phases = PhaseField(
        lambda n, t: float(right[(n - t) + span]),
        lambda n, t: float(left[(n + t) + span]),
    )
    report = verify_quasi_invariance(
        InitialState(eta=0.9, gamma=1.1), REF, phases, t_final)
    assert report.max_modulus_deviation < 1e-12
    assert report.max_pmf_deviation < 1e-12


def test_exact_invariance_random_common_phase():
    """A shared dressing phase is invisible in every reported channel."""
    rng = np.random.default_rng(5)
    t_final = 30
    half = t_final + 2
    table = rng.uniform(-np.pi, np.pi, size=(t_final + 2, 2 * half + 1))
    phases = PhaseField.symmetric(
        lambda n, t: float(table[t, n + half]))
    report = verify_exact_invariance(
        InitialState(eta=0.4, gamma=-0.8), REF, phases, t_final)
    assert report.kind == "exact"
    assert report.max_component_deviation < 1e-12
    assert report.max_relative_phase_deviation < 1e-10
    assert report.max_modulus_deviation < 1e-12
    assert report.phase_map_divergence < 1e-10


def test_exact_invariance_bilinear():
    phases = PhaseField.symmetric(lambda n, t: 0.1 * n * t)
    report = verify_exact_invariance(InitialState(eta=0.6), REF, phases, 50)
    assert report.max_component_deviation < 1e-11


def test_exact_invariance_rejects_asymmetric_pair():
    phases = PhaseField(lambda n, t: 0.1 * (n - t),
                        lambda n, t: 0.1 * (n + t))
    with pytest.raises(PhaseConditionError, match="zeta == xi"):
        verify_exact_invariance(InitialState(eta=0.3), REF, phases, 8)


def test_verify_rejects_negative_horizon():
    phases = quasi_invariant_phases(0.1)
    with pytest.raises(ValueError, match="non-negative"):
        verify_quasi_invariance(InitialState(), REF, phases, -1)
    with pytest.raises(ValueError, match="non-negative"):
        verify_exact_invariance(InitialState(), REF,
                                PhaseField.constant(0.2), -1)


def test_report_serialization():
    report = verify_quasi_invariance(
        InitialState(eta=np.pi / 3), REF, quasi_invariant_phases(0.1), 4,
        inputs={"rate": 0.1, "theta": float(REF.theta)})
    blob = report.to_json()
    assert blob == report.to_json()
    data = json.loads(blob)
    assert data["kind"] == "quasi"
    assert data["inputs"]["rate"] == 0.1
    assert data["max_component_deviation"] is None
    assert len(data["per_time_deviations"]) == 5
    # Keys are sorted, so the serialized form is deterministic.
    assert list(data) == sorted(data)


def test_relative_phase_map_floor():
    plus = np.array([0.6, 0.0, 1e-12], dtype=complex)
    minus = np.array([0.3j, 0.0, 0.5], dtype=complex)
    state = SpinorField(t=1, plus_amps=plus, minus_amps=minus,
                        parity_localized=False)
    ns, phases = relative_phase_map(state)
    # Site 1 has a vanishing plus modulus, so only site -1 survives.
    assert list(ns) == [-1]
    assert phases[0] == pytest.approx(-np.pi / 2)


_ANGLE = st.floats(-np.pi, np.pi)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), t_max=st.integers(0, 12))
def test_transform_is_exact_for_random_phase_tables(data, t_max):
    """Any phase table dresses the walk exactly: under the transformed coin
    the dressed start evolves into e^{i xi} psi_plus, e^{i zeta} psi_minus
    of the undressed walk, componentwise.  The bound is 1e-14; over 3000
    random tables and coins with t_max <= 12 the worst distance was 1.7e-15."""
    width = 2 * t_max + 1

    def table():
        cells = data.draw(st.lists(_ANGLE, min_size=(t_max + 1) * width,
                                   max_size=(t_max + 1) * width))
        return np.array(cells).reshape(t_max + 1, width)

    xi, zeta = table(), table()
    angles = [table() for _ in range(4)]
    coin = CoinField(lambda ns, t: tuple(a[t, ns + t_max] for a in angles))
    phases = PhaseField.from_rows(lambda ns, t: (xi[t, ns + t_max], zeta[t, ns + t_max]))
    init = InitialState(eta=data.draw(st.floats(0.0, np.pi)), gamma=data.draw(_ANGLE))
    start = localized_state(init)
    dressed_start = SpinorField(
        t=0,
        plus_amps=start.plus_amps * np.exp(1j * xi[0, t_max]),
        minus_amps=start.minus_amps * np.exp(1j * zeta[0, t_max]),
        parity_localized=True,
    )
    plain = evolve(start, coin, t_max)
    dressed = evolve(dressed_start, transform_coin_field(coin, phases), t_max)
    idx = plain.n_values + t_max
    assert np.max(np.abs(dressed.plus_amps - plain.plus_amps * np.exp(1j * xi[t_max, idx]))) < 1e-14
    assert np.max(np.abs(dressed.minus_amps - plain.minus_amps * np.exp(1j * zeta[t_max, idx]))) < 1e-14


def _counting(calls, name, fn):
    def counted(n, t):
        calls[name] += 1
        return fn(n, t)
    return counted


def _formula_coin(calls=None):
    fns = {
        "theta": lambda n, t: 0.9 + 0.01 * n - 0.02 * t,
        "alpha": lambda n, t: 0.1 * np.sin(0.3 * n + 0.1 * t),
        "beta": lambda n, t: -0.2 + 0.005 * n * t,
        "chi": lambda n, t: 0.3 * np.cos(0.2 * n),
    }
    if calls is not None:
        fns = {k: _counting(calls, k, fn) for k, fn in fns.items()}
    return CoinField.from_functions(*fns.values())


def _common(n, t):
    return 0.1 * n * t + 0.05 * n * n


@pytest.mark.parametrize("t_final", [0, 1, 6, 13])
def test_verification_samples_each_row_once(t_final):
    """A coin callable runs once per site the walk occupies before its last
    step, T(T+1)/2 times; a phase callable once per occupied site of rows
    0 .. T, (T+1)(T+2)/2 times, with or without the twin or characteristic
    check."""
    init = InitialState(eta=0.4, gamma=0.3)
    coin_calls = t_final * (t_final + 1) // 2
    phase_calls = (t_final + 1) * (t_final + 2) // 2
    coin = ("theta", "alpha", "beta", "chi")

    calls = dict.fromkeys(coin, 0) | {"shared": 0}
    shared = PhaseField.symmetric(_counting(calls, "shared", _common))
    verify_exact_invariance(init, _formula_coin(calls), shared, t_final)
    assert calls == dict.fromkeys(coin, coin_calls) | {"shared": phase_calls}

    calls = dict.fromkeys(coin, 0) | {"xi": 0, "zeta": 0}
    twins = PhaseField(_counting(calls, "xi", _common),
                       _counting(calls, "zeta", lambda n, t: _common(n, t)))
    verify_exact_invariance(init, _formula_coin(calls), twins, t_final)
    assert calls == dict.fromkeys(coin, coin_calls) | dict.fromkeys(("xi", "zeta"), phase_calls)

    calls = dict.fromkeys(coin, 0)
    verify_quasi_invariance(init, _formula_coin(calls), quasi_invariant_phases(0.1), t_final)
    assert calls == dict.fromkeys(coin, coin_calls)

    # the characteristic check reads the rows the verification samples
    calls = dict.fromkeys(coin, 0) | {"xi": 0, "zeta": 0}
    riding = PhaseField(_counting(calls, "xi", lambda n, t: 0.05 * (n - t)),
                        _counting(calls, "zeta", lambda n, t: 0.05 * (n + t)))
    verify_quasi_invariance(init, _formula_coin(calls), riding, t_final)
    assert calls == dict.fromkeys(coin, coin_calls) | dict.fromkeys(("xi", "zeta"), phase_calls)


def test_exact_transform_rows_follow_their_sites():
    """exact_transform returns the bytes transform_coin_field does, on
    repeated and varying sites at the same step."""
    twins = PhaseField(_common, lambda n, t: _common(n, t))
    kept, plain = exact_transform(REF, twins), transform_coin_field(REF, twins)
    for ns in (np.array([0]), np.array([2]), np.arange(-3, 4, 2), np.arange(-3, 4), np.array([5, -1])):
        for t in (4, 4, 5):
            assert np.array(kept.rows(ns, t)).tobytes() == np.array(plain.rows(ns, t)).tobytes()


def _split_at(n0, t0):
    return PhaseField(_common, lambda n, t: _common(n, t) + (1e-6 if (n, t) == (n0, t0) else 0.0))


@pytest.mark.parametrize("site,t_final",
                         [((3, 7), 11), ((3, 7), 7), ((0, 0), 0), ((150, 150), 151)])
def test_twin_split_names_its_site(site, t_final):
    n, t = site
    with pytest.raises(PhaseConditionError,
                       match=re.escape(f"zeta == xi, but they differ by 1.000e-06 at (n={n}, t={t})")):
        verify_exact_invariance(InitialState(eta=0.3), _formula_coin(), _split_at(n, t), t_final)


def _smooth_split(X, T):
    return 1e-6 * ((X == 3) & (T == 7))


def _table_of(phases, tmp_path):
    save_phase_field_csv(phases, 12, tmp_path / "phases.csv")
    return load_phase_field_csv(tmp_path / "phases.csv")


_SPLIT = "differ by 1.000e-06 at (n=3, t=7)"


@pytest.mark.parametrize("backing, walked, read", [
    (lambda tmp_path: _split_at(3, 7), _SPLIT, _SPLIT),
    (lambda tmp_path: PhaseField.from_rows(
        lambda ns, t: (_common(ns, t), _common(ns, t) + _smooth_split(ns, t))), _SPLIT, _SPLIT),
    (lambda tmp_path: PhaseField.from_rows(lambda ns, t: (0.1 * ns * t, 0.2 * ns * t)),
     "differ by 1.000e-01 at (n=-1, t=1)", "differ by 4.900e+00 at (n=-7, t=7)"),
    (lambda tmp_path: PhaseField.constant(0.3, 0.3 + 1e-6),
     "differ by 1.000e-06 at (n=0, t=0)", "differ by 1.000e-06 at (n=-7, t=7)"),
    (lambda tmp_path: _table_of(_split_at(3, 7), tmp_path), _SPLIT, _SPLIT),
    (lambda tmp_path: lattice_phases_from_smooth(SmoothPhasePair(
        _common, lambda X, T: _common(X, T) + _smooth_split(X, T))), _SPLIT, _SPLIT),
], ids=["callables", "from_rows", "two_rows", "constants", "table", "smooth"])
def test_every_phase_backing_is_checked_for_a_split(tmp_path, backing, walked, read):
    """A zeta that leaves xi is caught at its first site, whatever backs the
    pair: the verification names the first site of the walk's rows, a read
    of the transformed coin the first it samples."""
    phases = backing(tmp_path)
    with pytest.raises(PhaseConditionError, match=re.escape(walked)):
        verify_exact_invariance(InitialState(eta=0.3), REF, phases, 11)
    with pytest.raises(PhaseConditionError, match=re.escape(read)):
        exact_transform(REF, phases).rows(np.arange(-7, 8, 2), 7)


def test_reordered_twins_hold_at_large_phases():
    """0.1 * n * t and 0.1 * t * n differ by an ulp of the phase, 1.8e-12
    once it passes 8192 at T = 291; the condition tolerance grows with the
    phase, so the pair is a common phase at any size."""
    twins = PhaseField(lambda n, t: 0.1 * n * t, lambda n, t: 0.1 * t * n)
    report = verify_exact_invariance(InitialState(eta=0.3), REF, twins, 1000)
    assert report.max_component_deviation < 1e-11
    exact_transform(REF, twins).rows(np.arange(-300, 301, 2), 300)


def test_the_condition_rule():
    """Equal entries hold, infinite ones included; otherwise the gap must be
    finite and within 1e-12, or 4 eps times the larger |entry|."""
    big = 8409.9
    a = np.array([0.0, 1.0, np.inf, -np.inf, np.inf, np.nan, big, big, 1.0, 1e308])
    b = np.array([1e-12, 1.0 + 1.1e-12, np.inf, -np.inf, 1.0, np.nan,
                  np.nextafter(big, np.inf), big + 1e-11, 1.0 + 0.9e-12, -1e308])
    gap, held = invariance._condition(a, b)
    assert held.tolist() == [True, False, True, True, False, False, True, False, True, False]
    assert gap[4] == np.inf and np.isnan(gap[5]) and gap[9] == np.inf


def test_twin_split_outside_the_checked_rows_passes():
    """Rows beyond t_final and off-parity sites are never sampled."""
    init = InitialState(eta=0.3)
    for split in (_split_at(3, 8), _split_at(4, 7)):
        report = verify_exact_invariance(init, _formula_coin(), split, 7)
        assert report.max_component_deviation < 1e-12


def test_coin_fault_before_a_later_twin_split_is_reported_first():
    """Each row is checked as it is first sampled, so a coin fault at an
    earlier step than the twin split surfaces first."""
    coin = CoinField.from_functions(
        lambda n, t: float("nan") if (n, t) == (1, 3) else 0.8,
        lambda n, t: 0.0, lambda n, t: 0.0, lambda n, t: 0.0)
    with pytest.raises(UnsupportedParameterError, match=re.escape("theta is not finite at (n=1, t=3)")):
        verify_exact_invariance(InitialState(eta=0.3), coin, _split_at(3, 7), 10)


def _coin_table(t_max):
    return CoinField(_window_table_rows(
        [np.full((t_max + 1, 2 * t_max + 1), v) for v in (0.8, 0.1, 0.2, 0.3)], t_max, "coin field"))


def _riding(fault_at):
    return PhaseField(lambda n, t: 0.05 * (n - t) + (1e-6 if (n, t) == fault_at else 0.0),
                      lambda n, t: 0.05 * (n + t))


_HUGE = {(-2, 2): 1e308, (0, 2): 1e308, (2, 2): -1e308}


def _overflowing_twins(split_at):
    """Twin phases whose dressed coin overflows chi at (n=-1, t=1), as in
    the common-phase case of the next test, and whose zeta splits from xi
    by 1e-6 at ``split_at``."""
    return PhaseField(lambda n, t: _HUGE.get((n, t), 0.0),
                      lambda n, t: _HUGE.get((n, t), 0.0) + (1e-6 if (n, t) == split_at else 0.0))


def _nan_theta(at):
    return CoinField.from_functions(lambda n, t: float("nan") if (n, t) == at else 0.8,
                                    lambda n, t: 0.0, lambda n, t: 0.0, lambda n, t: 0.0)


_RIGHT = "xi must be constant along right-moving characteristics; xi(n+1, t+1) - xi(n, t) = "
_TWINS = "common-phase dressing needs zeta == xi, but they differ by "


@pytest.mark.parametrize("verify, coin, phases, error, message", [
    # a characteristic fault at step 2 (row 3 against row 2) before a coin
    # table that ends at step 5, and after one that ends at step 1
    (verify_quasi_invariance, _coin_table(5), _riding((1, 3)), PhaseConditionError,
     _RIGHT + "1.000e-06 at (n=0, t=2)"),
    (verify_quasi_invariance, _coin_table(1), _riding((1, 3)), TotalityError,
     "coin field has no entry at (n=-2, t=2)"),
    # a dressed-coin overflow at step 1 before a twin split in row 4 (step
    # 3), and after one in row 1 (step 0)
    (verify_exact_invariance, REF, _overflowing_twins((0, 4)), UnsupportedParameterError,
     "chi is not finite at (n=-1, t=1)"),
    (verify_exact_invariance, REF, _overflowing_twins((1, 1)), PhaseConditionError,
     _TWINS + "1.000e-06 at (n=1, t=1)"),
    # a twin split in row 3 before a coin NaN at step 6, and after one at
    # step 2
    (verify_exact_invariance, _nan_theta((0, 6)), _split_at(1, 3), PhaseConditionError,
     _TWINS + "1.000e-06 at (n=1, t=3)"),
    (verify_exact_invariance, _nan_theta((0, 2)), _split_at(1, 3), UnsupportedParameterError,
     "theta is not finite at (n=0, t=2)"),
], ids=["characteristic-then-table", "table-then-characteristic", "overflow-then-split",
        "split-then-overflow", "split-then-nan", "nan-then-split"])
def test_faults_in_one_block_surface_in_step_order(verify, coin, phases, error, message):
    """Of two faults at different steps of the same chunk, the earlier step's
    is raised, with the message the steps taken one at a time give."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        verify(InitialState(eta=0.3), coin, phases, 10)


def _phase_table(t_max):
    """``quasi_invariant_phases(0.1)`` tabulated on rows 0 .. t_max."""
    ns, quasi = np.arange(-t_max, t_max + 1), quasi_invariant_phases(0.1)
    rows = np.array([quasi.rows(ns, t) for t in range(t_max + 1)])
    return PhaseField.from_rows(_window_table_rows(list(rows.transpose(1, 0, 2)), t_max, "phase field"))


@pytest.mark.parametrize("verify, coin, phases, error, message", [
    # first step, 7: sampling stops before any step of the chunk is
    # sampled, or the checks find a bad coin row
    (verify_quasi_invariance, _coin_table(6), quasi_invariant_phases(0.1), TotalityError,
     "coin field has no entry at (n=-7, t=7)"),
    (verify_quasi_invariance, REF, _phase_table(7), TotalityError,
     "phase field has no entry at (n=-8, t=8)"),
    (verify_exact_invariance, _nan_theta((-3, 7)), _split_at(1, 9), UnsupportedParameterError,
     "theta is not finite at (n=-3, t=7)"),
    # last step, 9: sampled after steps 7 and 8, or checked with them; the
    # two phase faults sit at the first site of its packed rows
    (verify_exact_invariance, _coin_table(8), _split_at(2, 12), TotalityError,
     "coin field has no entry at (n=-9, t=9)"),
    (verify_quasi_invariance, _coin_table(12), _riding((-8, 10)), PhaseConditionError,
     _RIGHT + "1.000e-06 at (n=-9, t=9)"),
    (verify_exact_invariance, _formula_coin(), _split_at(-10, 10), PhaseConditionError,
     _TWINS + "1.000e-06 at (n=-10, t=10)"),
    (verify_exact_invariance, _nan_theta((1, 9)), _split_at(2, 11), UnsupportedParameterError,
     "theta is not finite at (n=1, t=9)"),
], ids=["coin-table-first", "phase-table-first", "nan-first", "coin-table-last",
        "characteristic-last", "split-last", "nan-last"])
def test_faults_at_chunk_edges(monkeypatch, verify, coin, phases, error, message):
    """With 30 chunk sites, steps 7, 8 and 9 form one chunk.  A fault at its
    first or last step raises the message the steps taken one at a time
    give, whether sampling raises it or a check of the sampled rows finds
    it."""
    monkeypatch.setattr(invariance, "_CHUNK_SITES", 30)
    assert range(7, 10) in invariance._chunks(12)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        verify(InitialState(eta=0.3), coin, phases, 12)


def test_verification_coin_faults_name_the_first_site():
    """Both coin checks of a verification name the first bad site, then the
    first bad parameter there.  The base coin has theta bad at n = 3 and
    alpha at n = -1 of step 3.  The dressed coin of step 1 overflows chi at
    n = -1 and alpha and beta at n = 1: the common phase at step 2 is 1e308
    at n = -2 and n = 0 and -1e308 at n = 2, so chi gains (1e308 + 1e308) / 2
    at n = -1 and alpha (-1e308 - 1e308) / 2 at n = 1.  A quasi dressing
    cannot fault two parameters: along its characteristics only beta moves."""
    coin = CoinField.from_functions(
        lambda n, t: float("nan") if (n, t) == (3, 3) else 0.8,
        lambda n, t: float("nan") if (n, t) == (-1, 3) else 0.0,
        lambda n, t: 0.0, lambda n, t: 0.0)
    with pytest.raises(UnsupportedParameterError,
                       match=re.escape("alpha is not finite at (n=-1, t=3)")):
        verify_quasi_invariance(InitialState(eta=0.3), coin, quasi_invariant_phases(0.1), 5)
    huge = {(-2, 2): 1e308, (0, 2): 1e308, (2, 2): -1e308}
    phases = PhaseField.symmetric(lambda n, t: huge.get((n, t), 0.0))
    with pytest.raises(UnsupportedParameterError,
                       match=re.escape("chi is not finite at (n=-1, t=1)")):
        verify_exact_invariance(InitialState(eta=0.3), CoinAngles(0.8), phases, 5)


@pytest.mark.parametrize("t_final", [0, 1])
@pytest.mark.parametrize("verify, xi, zeta, name", [
    (verify_quasi_invariance, np.inf, np.inf, "xi"),
    (verify_exact_invariance, np.inf, np.inf, "xi"),
    (verify_exact_invariance, -np.inf, -np.inf, "xi"),
    (verify_quasi_invariance, 0.0, np.nan, "zeta"),
])
def test_non_finite_phase_row_0_raises_at_every_t_final(verify, xi, zeta, name, t_final):
    """Phase row 0 dresses the starting state, so it is checked finite as
    it is sampled: T = 0, which takes no step, raises as T = 1 does rather
    than reporting NaN deviations.  (An exact dressing whose zeta differs
    from xi fails the common-phase check first.)"""
    with pytest.raises(UnsupportedParameterError,
                       match=rf"^{name} is not finite at \(n=0, t=0\)$"):
        verify(InitialState(eta=0.3), CoinAngles(0.8), PhaseField.constant(xi, zeta), t_final)


def _dressed(state, phases):
    """Indices of the occupied sites of ``state`` and its two components
    there, each multiplied by its dressing phase."""
    idx = np.arange(0, 2 * state.t + 1, 2)
    xi, zeta = phases.rows(idx - state.t, state.t)
    return (idx, state.plus_amps[idx] * np.exp(1j * xi),
            state.minus_amps[idx] * np.exp(1j * zeta))


def _compare_pair(a, b):
    """Worst gaps of ``b`` from ``a`` over their full windows, off-parity
    zeros included."""
    (ap, am), (bp, bm) = ((np.abs(s.plus_amps), np.abs(s.minus_amps)) for s in (a, b))
    keep = (np.array([ap, am, bp, bm]) > 1e-9).all(axis=0)
    phase_map = 0.0
    if np.any(keep):
        pa = np.angle(a.plus_amps[keep] * np.conj(a.minus_amps[keep]))
        pb = np.angle(b.plus_amps[keep] * np.conj(b.minus_amps[keep]))
        phase_map = float(np.max(np.abs(np.angle(np.exp(1j * (pb - pa))))))
    return {
        "t": a.t,
        "modulus": max(float(np.max(np.abs(bp - ap))), float(np.max(np.abs(bm - am)))),
        "pmf": float(np.max(np.abs((bp ** 2 + bm ** 2) - (ap ** 2 + am ** 2)))),
        "phase_map": phase_map,
    }


def _component_comparison(a, b, phases):
    """Worst componentwise distance of ``b`` from the dressed copy of ``a``."""
    idx, dressed_plus, dressed_minus = _dressed(a, phases)
    comp = max(
        float(np.max(np.abs(b.plus_amps[idx] - dressed_plus))),
        float(np.max(np.abs(b.minus_amps[idx] - dressed_minus))),
    )
    errs = []
    for ref_vals, got_vals in ((dressed_plus, b.plus_amps[idx]),
                               (dressed_minus, b.minus_amps[idx])):
        keep = np.abs(ref_vals) > 1e-12
        if np.any(keep):
            wrapped = np.angle(got_vals[keep] * np.conj(ref_vals[keep]))
            errs.append(float(np.max(np.abs(wrapped))))
    out = _compare_pair(a, b)
    out["component"] = comp
    out["relative_phase"] = max(errs) if errs else 0.0
    return out


def _unmemoised_report(kind, init, ref, phases, t_final):
    """The report from the plain composition: public stepping and transform
    on immutable states, every row sampled by whoever needs it, and full
    windows compared."""
    ref = CoinField.lift(ref)
    coin = transform_coin_field(ref, phases)
    a = localized_state(init)
    _, plus, minus = _dressed(a, phases)
    b = SpinorField(t=0, plus_amps=plus, minus_amps=minus)
    if kind == "exact":
        def compare(a, b):
            return _component_comparison(a, b, phases)
    else:
        compare = _compare_pair
    per_time = [compare(a, b)]
    for _ in range(t_final):
        a, b = step_inhomogeneous(a, ref), step_inhomogeneous(b, coin)
        per_time.append(compare(a, b))

    def worst(key):
        return max(d[key] for d in per_time) if key in per_time[0] else None

    return InvarianceReport(
        kind=kind, t_final=t_final, max_modulus_deviation=worst("modulus"),
        max_pmf_deviation=worst("pmf"), phase_map_divergence=worst("phase_map"),
        max_relative_phase_deviation=worst("relative_phase"),
        max_component_deviation=worst("component"), per_time_deviations=per_time,
        inputs={"case": kind})


def _random_profile(seed):
    values = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=200)
    return lambda m: float(values[m + 100])


@pytest.mark.parametrize("case, t_final", [
    *(pytest.param(case, 24, id=case)
      for case in ("quasi-constant", "quasi-formula", "quasi-profiles", "exact-shared",
                   "exact-twin", "exact-constant", "exact-constant-coin")),
    # steps 0 .. 150 are compared in three blocks (0 .. 89, 90 .. 145, 146 .. 150)
    *(pytest.param(case, 150, id=f"{case}-150")
      for case in ("quasi-formula", "exact-shared", "exact-twin")),
])
def test_reports_are_bitwise_the_unmemoised_composition(case, t_final):
    init = InitialState(eta=0.7, gamma=-0.4)
    right, left = _random_profile(1), _random_profile(2)
    kind, ref, phases = {
        "quasi-constant": ("quasi", REF, quasi_invariant_phases(0.1)),
        "quasi-formula": ("quasi", _formula_coin(), quasi_invariant_phases(-0.07)),
        "quasi-profiles": ("quasi", _formula_coin(), PhaseField(
            lambda n, t: right(n - t), lambda n, t: left(n + t))),
        "exact-shared": ("exact", _formula_coin(), PhaseField.symmetric(_common)),
        "exact-twin": ("exact", _formula_coin(),
                       PhaseField(_common, lambda n, t: _common(n, t))),
        "exact-constant": ("exact", _formula_coin(), PhaseField.constant(0.3)),
        "exact-constant-coin": ("exact", REF, PhaseField(_common, lambda n, t: _common(n, t))),
    }[case]
    verify = verify_exact_invariance if kind == "exact" else verify_quasi_invariance
    got = verify(init, ref, phases, t_final, inputs={"case": kind})
    assert got.to_json() == _unmemoised_report(kind, init, ref, phases, t_final).to_json()


_BITWISE_CASES = ("quasi-constant", "quasi-formula", "quasi-profiles", "exact-shared",
                  "exact-twin", "exact-constant", "exact-constant-coin")


@pytest.mark.parametrize("chunk_sites", [1, 30, invariance._CHUNK_SITES],
                         ids=["one-step", "many-step-chunks", "default"])
def test_block_and_run_edges_keep_reports_and_sampling(monkeypatch, chunk_sites):
    """Reports stay bitwise the unmemoised composition, and rows are sampled
    once each, wherever chunks of steps begin and end.  At T = 24, 30 chunk
    sites give chunks of 7, 3, 2 and 2 steps, then 1-step chunks from step
    14 on; the default holds all 24 steps in one chunk."""
    monkeypatch.setattr(invariance, "_CHUNK_SITES", chunk_sites)
    for case in _BITWISE_CASES:
        test_reports_are_bitwise_the_unmemoised_composition(case, 24)
    for t_final in (0, 1, 6, 13):
        test_verification_samples_each_row_once(t_final)


@pytest.mark.parametrize("chunk_sites", [1, 30, invariance._CHUNK_SITES])
def test_chunks_cover_the_steps_in_order(monkeypatch, chunk_sites):
    """The chunks hold steps 0 .. T - 1 once each, in order.  Step t has
    t + 1 coin sites; a chunk holds at most ``_CHUNK_SITES`` of them unless
    it is a single step, and ends only where the next step would not fit."""
    monkeypatch.setattr(invariance, "_CHUNK_SITES", chunk_sites)
    for t_final in (0, 1, 13, 24, 100, 4000):
        chunks = list(invariance._chunks(t_final))
        assert [t for steps in chunks for t in steps] == list(range(t_final))
        for steps in chunks:
            sites = sum(t + 1 for t in steps)
            assert len(steps) == 1 or sites <= chunk_sites
            assert steps.stop == t_final or sites + steps.stop + 1 > chunk_sites
    if chunk_sites == 30:
        assert list(invariance._chunks(24))[:5] == [range(0, 7), range(7, 10), range(10, 12),
                                                    range(12, 14), range(14, 15)]


@pytest.mark.parametrize("verify, phases", [
    (verify_exact_invariance, PhaseField.constant(0.3)),
    (verify_quasi_invariance, quasi_invariant_phases(0.1)),
])
def test_verification_peak_memory_is_bounded(verify, phases):
    """tracemalloc peaks at T = 4000 (numpy 2.4): exact 3.29 MiB, quasi
    2.29 MiB, of which the returned report holds 1.9 / 1.1 MiB.  Comparing
    blocks of 32 steps whatever their width took them to 25.0 / 19.4 MiB,
    and chunks of 8192 sites, instead of 4096, to 3.90 / 3.16 MiB.  The cap
    sits about 35 % above the exact reading."""
    init, coin = InitialState(0.7, -0.4), CoinAngles(0.9, 0.2, -0.3, 0.1)
    verify(init, coin, phases, 3)
    tracemalloc.start()
    try:
        verify(init, coin, phases, 4000)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 4.5, peak
