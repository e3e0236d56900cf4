import tracemalloc

import numpy as np
import pytest

from qwline import (
    CoinAngles,
    CoinField,
    InitialState,
    SpinorField,
    TotalityError,
    chirality_probabilities,
    closed_form_amplitudes,
    coin_matrix,
    evolve,
    load_coin_field_csv,
    localized_state,
    mean_position,
    pmf,
    save_coin_field_csv,
    step_homogeneous,
    step_inhomogeneous,
)
from qwline.coin import coin_entries
from qwline.observables import record_from_amplitudes


def test_norm_preserved_over_long_run():
    """No renormalization: drift over 1000 steps stays at rounding level."""
    c = CoinAngles(theta=0.9, alpha=0.3, beta=-1.2, chi=0.7)
    state = evolve(InitialState(eta=0.6, gamma=1.9), c, 1000)
    assert abs(state.norm() - 1.0) < 1e-10
    state.validate(atol=1e-10)


def test_parity_and_cone_zeros_are_exact():
    c = CoinAngles(theta=np.pi / 5, alpha=0.1, beta=0.2, chi=0.3)
    state = evolve(InitialState(eta=0.4), c, 25)
    odd = np.arange(1, 2 * 25 + 1, 2)
    assert np.all(state.plus_amps[odd] == 0)
    assert np.all(state.minus_amps[odd] == 0)
    # The leftmost site is only reachable by the left-mover and vice versa.
    assert state.plus_amps[0] == 0
    assert state.minus_amps[-1] == 0


def test_single_step_matches_coin_matrix():
    c = CoinAngles(theta=0.8, alpha=-0.4, beta=0.9, chi=0.2)
    u = coin_matrix(c)
    init = InitialState(eta=0.3, gamma=-1.1)
    state = step_homogeneous(localized_state(init), c)
    spinor = np.array([np.cos(0.3), np.exp(-1.1j) * np.sin(0.3)])
    mixed = u @ spinor
    p_right, _ = state.amplitudes_at(1)
    _, m_left = state.amplitudes_at(-1)
    assert p_right == pytest.approx(mixed[0], abs=1e-15)
    assert m_left == pytest.approx(mixed[1], abs=1e-15)
    p0, m0 = state.amplitudes_at(0)
    assert p0 == 0 and m0 == 0


def test_homogeneous_step_is_bit_identical_to_lifted_step():
    c = CoinAngles(theta=1.1, alpha=0.5, beta=-0.3, chi=0.15)
    state = evolve(InitialState(eta=1.0, gamma=0.2), c, 9)
    a = step_homogeneous(state, c)
    b = step_inhomogeneous(state, CoinField.homogeneous(c))
    assert np.array_equal(a.plus_amps, b.plus_amps)
    assert np.array_equal(a.minus_amps, b.minus_amps)


def test_step_is_linear():
    c = CoinAngles(theta=0.7, alpha=0.2, beta=0.4, chi=-0.6)
    s1 = evolve(InitialState(eta=0.25), c, 4)
    s2 = evolve(InitialState(eta=1.2, gamma=2.0), c, 4)
    from qwline import SpinorField

    a, b = 0.3 - 0.4j, 1.1 + 0.2j
    combo = SpinorField(
        t=4,
        plus_amps=a * s1.plus_amps + b * s2.plus_amps,
        minus_amps=a * s1.minus_amps + b * s2.minus_amps,
    )
    stepped = step_homogeneous(combo, c)
    e1 = step_homogeneous(s1, c)
    e2 = step_homogeneous(s2, c)
    assert np.allclose(stepped.plus_amps, a * e1.plus_amps + b * e2.plus_amps,
                       atol=1e-14)
    assert np.allclose(stepped.minus_amps, a * e1.minus_amps + b * e2.minus_amps,
                       atol=1e-14)


def test_evolve_records_trajectory():
    c = CoinAngles(theta=np.pi / 4)
    state, records = evolve(InitialState(), c, 12, record_trajectory=True)
    assert len(records) == 13
    assert [r.t for r in records] == list(range(13))
    assert records[0].mean_x == 0.0
    assert state.t == 12


def test_evolve_rejects_negative_horizon():
    with pytest.raises(ValueError, match="non-negative"):
        evolve(InitialState(), CoinAngles(0.5), -1)


def test_tabulated_coin_exhaustion_names_site(tmp_path):
    path = tmp_path / "coin.csv"
    save_coin_field_csv(CoinField.homogeneous(CoinAngles(0.6)), t_max=5,
                        path=path)
    f = load_coin_field_csv(path)
    # Steps read the coin at the pre-step time, so t_max supports
    # t_max + 1 steps and no more.
    evolve(InitialState(eta=0.3), f, 6)
    with pytest.raises(TotalityError, match="t=6"):
        evolve(InitialState(eta=0.3), f, 7)


def test_beta_drift_leaves_pmf_unchanged():
    """A linearly drifting beta only re-phases the components."""
    base = CoinAngles(theta=np.pi / 3)
    drifting = CoinField.from_functions(
        theta_of=lambda n, t: np.pi / 3,
        alpha_of=lambda n, t: 0.0,
        beta_of=lambda n, t: 0.1 * t,
        chi_of=lambda n, t: 0.0,
    )
    init = InitialState(eta=np.pi / 3)
    ref = evolve(init, base, 30)
    alt = evolve(init, drifting, 30)
    assert np.max(np.abs(pmf(alt) - pmf(ref))) < 1e-12
    # The amplitudes themselves do differ.
    assert np.max(np.abs(alt.minus_amps - ref.minus_amps)) > 1e-3


def test_start_from_existing_state():
    c = CoinAngles(theta=0.5)
    full = evolve(InitialState(eta=0.7), c, 20)
    half = evolve(InitialState(eta=0.7), c, 11)
    resumed = evolve(half, c, 9)
    assert resumed.t == 20
    assert np.allclose(resumed.plus_amps, full.plus_amps, atol=1e-15)
    assert np.allclose(resumed.minus_amps, full.minus_amps, atol=1e-15)


_FORMULA_ANGLES = (
    lambda n, t: 0.7 + 0.1 * np.sin(0.3 * n + 0.2 * t),
    lambda n, t: 0.01 * n - 0.02 * t,
    lambda n, t: 0.2 + 0.3 * np.cos(0.1 * n - 0.05 * t),
    lambda n, t: 0.1 * np.sin(0.2 * (n + t)),
)


def _formula_coin():
    return CoinField.from_functions(*_FORMULA_ANGLES)


def _spread_state():
    """A normalized state at t=3 with weight on both parities."""
    rng = np.random.default_rng(5)
    amps = rng.normal(size=(2, 7)) + 1j * rng.normal(size=(2, 7))
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    return SpinorField(t=3, plus_amps=amps[0], minus_amps=amps[1],
                       parity_localized=False)


def test_unlocalized_evolution_equals_repeated_single_steps():
    """The stride-1 path: every site is updated and n steps in one call
    equal n single steps bit for bit."""
    for coin in (CoinAngles(0.9, 0.3, -1.2, 0.4), _formula_coin()):
        field = coin if isinstance(coin, CoinField) else CoinField.homogeneous(coin)
        stepped = _spread_state()
        for _ in range(10):
            stepped = step_inhomogeneous(stepped, field)
        evolved = evolve(_spread_state(), coin, 10)
        assert not evolved.parity_localized
        assert np.array_equal(evolved.plus_amps, stepped.plus_amps)
        assert np.array_equal(evolved.minus_amps, stepped.minus_amps)
        assert np.any(evolved.plus_amps[1::2] != 0)
        assert abs(evolved.norm() - 1.0) < 1e-13


def test_parity_localized_evolve_samples_occupied_sites_only():
    """Step t updates t + 1 sites, so T steps call each coin callable
    T (T + 1) / 2 times."""
    calls = [0] * 4

    def counted(k):
        def fn(n, t):
            calls[k] += 1
            return _FORMULA_ANGLES[k](n, t)
        return fn

    t_final = 25
    evolve(InitialState(eta=0.6, gamma=1.9),
           CoinField.from_functions(*(counted(k) for k in range(4))), t_final)
    assert calls == [t_final * (t_final + 1) // 2] * 4


def test_coin_table_evolves_like_its_formula(tmp_path):
    path = tmp_path / "coin.csv"
    save_coin_field_csv(_formula_coin(), t_max=20, path=path)
    table = load_coin_field_csv(path)
    # a localized start (stride 2) and a spread one (stride 1), to t = 20
    for start, steps in ((InitialState(eta=0.6, gamma=1.9), 20), (_spread_state(), 17)):
        got = evolve(start, table, steps)
        want = evolve(start, _formula_coin(), steps)
        assert np.array_equal(got.plus_amps, want.plus_amps)
        assert np.array_equal(got.minus_amps, want.minus_amps)


def test_resumed_evolution_is_bit_identical():
    init = InitialState(eta=0.6, gamma=1.9)
    for coin in (CoinAngles(0.9, 0.3, -1.2, 0.4), _formula_coin()):
        resumed = evolve(evolve(init, coin, 7), coin, 5)
        direct = evolve(init, coin, 12)
        assert resumed.t == 12
        assert np.array_equal(resumed.plus_amps, direct.plus_amps)
        assert np.array_equal(resumed.minus_amps, direct.minus_amps)


def test_recorded_scalars_match_state_observables():
    init = InitialState(eta=0.6, gamma=1.9)
    for coin in (CoinAngles(0.9, 0.3, -1.2, 0.4), _formula_coin()):
        _, records = evolve(init, coin, 40, record_trajectory=True)
        for t, rec in enumerate(records):
            state = evolve(init, coin, t)
            p_plus, p_minus = chirality_probabilities(state)
            assert rec.t == t
            assert abs(rec.mean_x - mean_position(state)) <= 1e-12
            assert abs(rec.p_plus - p_plus) <= 1e-12
            assert abs(rec.p_minus - p_minus) <= 1e-12


def test_long_run_keeps_exact_parity_zeros():
    """T=4000: the skipped sites stay exactly zero and the norm drifts
    only by rounding."""
    t = 4000
    state = evolve(InitialState(eta=0.6, gamma=1.9),
                   CoinAngles(theta=1.55, alpha=0.3, beta=-1.2, chi=0.7), t)
    assert state.parity_localized
    odd = slice(1, None, 2)
    assert np.all(state.plus_amps[odd] == 0)
    assert np.all(state.minus_amps[odd] == 0)
    # rounding level: about eps * sqrt(T * window) = 1.3e-12 here
    assert abs(state.norm() - 1.0) < 1e-11
    # the default validate bound grows with t; an explicit atol still wins
    state.validate()
    with pytest.raises(ValueError, match="norm deviates"):
        state.validate(atol=1e-13)
    scale = np.sqrt(1.0 + 1e-9)
    off = SpinorField(t=t, plus_amps=state.plus_amps * scale,
                      minus_amps=state.minus_amps * scale)
    with pytest.raises(ValueError, match="norm deviates"):
        off.validate()


def _windowed_evolve(state, f, t_final, record_trajectory=False):
    """``evolve`` written out on full windows, one fresh window pair per step,
    in the float order the row kernel must keep.

    A parity-localized start reads and writes every other site of each
    window, a spread one every site.
    """
    f = CoinField.lift(f)
    sparse = state.parity_localized and not (np.any(state.plus_amps[1::2])
                                             or np.any(state.minus_amps[1::2]))
    stride = 2 if sparse else 1
    plus, minus = state.plus_amps, state.minus_amps

    def record(t):
        ns = np.arange(-t, t + 1)[::stride]
        return record_from_amplitudes(t, plus[::stride], minus[::stride], ns)

    c = f.angles
    records = [record(state.t)]
    for t in range(state.t, state.t + t_final):
        angles = f.materialize(-t, t, t, stride) if c is None else (c.theta, c.alpha, c.beta, c.chi)
        a, b, cc, d = coin_entries(*angles)
        src_plus, src_minus = plus[::stride], minus[::stride]
        plus = np.zeros(2 * t + 3, dtype=complex)
        minus = np.zeros(2 * t + 3, dtype=complex)
        plus[2::stride] = a * src_plus + b * src_minus
        minus[:-2:stride] = cc * src_plus - d * src_minus
        records.append(record(t + 1))
    final = SpinorField(t=state.t + t_final, plus_amps=plus, minus_amps=minus,
                        parity_localized=state.parity_localized)
    return (final, records) if record_trajectory else final


@pytest.mark.parametrize("coin", [CoinAngles(0.9, 0.3, -1.2, 0.4), _formula_coin()],
                         ids=["constant", "formula"])
@pytest.mark.parametrize("start", ["localized", "resumed", "spread"])
def test_evolve_is_bitwise_the_windowed_stepper(coin, start):
    """Stepping the stored sites alone keeps every bit of the full-window
    walk: finals and recorded observables, stride 2 and stride 1."""
    init = InitialState(eta=0.6, gamma=1.9)
    state = {"localized": localized_state(init), "resumed": evolve(init, coin, 3),
             "spread": _spread_state()}[start]
    for t_final in (0, 1, 2, 50):
        for record in (False, True):
            got = evolve(state, coin, t_final, record_trajectory=record)
            want = _windowed_evolve(state, coin, t_final, record_trajectory=record)
            if record:
                assert got[1] == want[1]
                got, want = got[0], want[0]
            assert (got.t, got.parity_localized) == (want.t, want.parity_localized)
            assert np.array_equal(got.plus_amps.view(np.int64), want.plus_amps.view(np.int64))
            assert np.array_equal(got.minus_amps.view(np.int64), want.minus_amps.view(np.int64))


@pytest.mark.parametrize("theta", [1.0, 1.2, 1.55])
@pytest.mark.parametrize("record", [False, True])
def test_flushed_tails_leave_the_rest_of_the_walk(theta, record):
    """Tails that underflow are set to exactly 0 and no longer stepped.

    Against the windowed stepper, which flushes nothing: the records are
    equal, amplitudes of modulus at least 1e-250 keep every bit and the
    others move by at most 1e-280, the off-parity sites stay exact zeros,
    and the end sites of the support are normal doubles while the
    stepper's reach below ``tiny``."""
    state = localized_state(InitialState(eta=0.6, gamma=1.9))
    coin = CoinAngles(theta, 0.2, -0.3, 0.1)
    got = evolve(state, coin, 1200, record_trajectory=record)
    want = _windowed_evolve(state, coin, 1200, record_trajectory=record)
    if record:
        assert got[1] == want[1]
        got, want = got[0], want[0]
    tiny = np.finfo(np.float64).tiny
    for g, w in ((got.plus_amps, want.plus_amps), (got.minus_amps, want.minus_amps)):
        kept = np.abs(w) >= 1e-250
        assert np.array_equal(g[kept].view(np.int64), w[kept].view(np.int64))
        assert np.max(np.abs(g - w)[~kept]) <= 1e-280
        assert np.all(g[1::2] == 0)
    support = np.flatnonzero((got.plus_amps != 0) | (got.minus_amps != 0))
    for i in support[[0, -1]]:
        assert max(abs(got.plus_amps[i]), abs(got.minus_amps[i])) >= tiny
    subnormal = (want.plus_amps != 0) & (np.abs(want.plus_amps) < tiny)
    assert subnormal.any() and np.all(got.plus_amps[subnormal] == 0)


def test_single_steps_from_flushed_tails_equal_one_evolution():
    """A state whose tails were flushed resumes on the same window, so 40
    single steps equal one 40-step evolution bit for bit."""
    coin = CoinAngles(1.0, 0.2, -0.3, 0.1)
    state = evolve(InitialState(eta=0.6, gamma=1.9), coin, 1200)
    stepped = state
    for _ in range(40):
        stepped = step_inhomogeneous(stepped, CoinField.homogeneous(coin))
    evolved = evolve(state, coin, 40)
    assert stepped.t == evolved.t == 1240
    assert np.array_equal(stepped.plus_amps.view(np.int64), evolved.plus_amps.view(np.int64))
    assert np.array_equal(stepped.minus_amps.view(np.int64), evolved.minus_amps.view(np.int64))


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, run, cap", [
    ("evolve", lambda t: evolve(InitialState(0.4, 0.3), CoinAngles(0.7, 0.2, -0.1, 0.3), t), 0.6),
    ("recursion", lambda t: closed_form_amplitudes(
        InitialState(0.4, 0.3), CoinAngles(0.7, 0.2, -0.1, 0.3), t, method="recursion"), 0.85),
])
def test_peak_memory_grows_linearly_in_t(name, run, cap):
    """tracemalloc peaks, T = 1000 / 4000 (numpy 2.4): evolve 0.125 / 0.491
    MiB, closed form by recursion 0.179 / 0.704 MiB.  Both hold a few
    windows of 2T + 1 values, so quadrupling T at most quadruples the peak
    (plus slack), and the caps sit about 20 % above the T = 4000 reading.
    evolve's peak is the final expansion beside its row pairs, unchanged
    by the scratch row, which is released before it."""
    run(10)
    small, large = _peak_mib(lambda: run(1000)), _peak_mib(lambda: run(4000))
    assert large / small <= 4.5, (name, small, large)
    assert large <= cap, (name, large)
