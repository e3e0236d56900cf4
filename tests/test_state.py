import re

import numpy as np
import pytest

from qwline import (
    CoinAngles,
    InitialState,
    SpinorField,
    TableError,
    closed_form_amplitudes,
    evolve,
    load_spinor_csv,
    localized_state,
    save_spinor_csv,
)


def _random_state(rng, t):
    # Fill even-parity sites with a normalized random spinor field.
    width = 2 * t + 1
    plus = np.zeros(width, dtype=np.complex128)
    minus = np.zeros(width, dtype=np.complex128)
    even = np.arange(0, width, 2)
    plus[even] = rng.normal(size=even.size) + 1j * rng.normal(size=even.size)
    minus[even] = rng.normal(size=even.size) + 1j * rng.normal(size=even.size)
    scale = np.sqrt(np.sum(np.abs(plus) ** 2 + np.abs(minus) ** 2))
    return SpinorField(t=t, plus_amps=plus / scale, minus_amps=minus / scale)


def test_construction_copies_and_freezes():
    plus = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
    minus = np.zeros(3, dtype=np.complex128)
    state = SpinorField(t=1, plus_amps=plus, minus_amps=minus)
    plus[0] = 99.0
    assert state.plus_amps[0] == 1.0
    with pytest.raises(ValueError):
        state.plus_amps[0] = 5.0


@pytest.mark.parametrize("make", ["constructor", "localized", "evolve", "closed form", "load"])
def test_rows_are_read_only_views_of_one_array(make, tmp_path):
    """Every way a state is made leaves one complex (2, 2t + 1) array,
    ``amps``, whose rows are ``plus_amps`` and ``minus_amps``; none of the
    three can be written through."""
    init, coin = InitialState(0.4, 0.3), CoinAngles(0.7, 0.2, -0.1, 0.3)
    if make == "constructor":
        state = _random_state(np.random.default_rng(3), t=5)
    elif make == "localized":
        state = localized_state(init)
    elif make == "evolve":
        state = evolve(init, coin, 5)
    elif make == "closed form":
        state = closed_form_amplitudes(init, coin, 5)
    else:
        save_spinor_csv(evolve(init, coin, 5), tmp_path / "s.csv")
        state = load_spinor_csv(tmp_path / "s.csv")
    width = 2 * state.t + 1
    assert state.amps.shape == (2, width) and state.amps.dtype == np.complex128
    for row, arr in enumerate((state.plus_amps, state.minus_amps)):
        assert np.shares_memory(arr, state.amps)
        assert np.array_equal(arr.view(np.int64), state.amps[row].view(np.int64))
    for arr in (state.amps, state.plus_amps, state.minus_amps):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 5.0
    for arr in (state.plus_amps, state.minus_amps):
        with pytest.raises(ValueError):
            arr.setflags(write=True)


def test_window_accessors():
    state = _random_state(np.random.default_rng(7), t=4)
    assert np.array_equal(state.n_values, np.arange(-4, 5))


def test_bad_time_and_shape_rejected():
    with pytest.raises(ValueError):
        SpinorField(t=-1, plus_amps=np.zeros(1), minus_amps=np.zeros(1))
    with pytest.raises(ValueError):
        SpinorField(t=2, plus_amps=np.zeros(3), minus_amps=np.zeros(5))


def test_amplitudes_at():
    state = _random_state(np.random.default_rng(3), t=2)
    p, m = state.amplitudes_at(2)
    assert p == state.plus_amps[4]
    assert m == state.minus_amps[4]
    # Sites beyond the reachable window carry no amplitude.
    assert state.amplitudes_at(3) == (0j, 0j)
    assert state.amplitudes_at(-17) == (0j, 0j)


def test_norm_and_validate_pass():
    state = _random_state(np.random.default_rng(11), t=6)
    assert abs(state.norm() - 1.0) < 1e-14
    state.validate()


def test_validate_rejects_norm_drift():
    state = SpinorField(t=0, plus_amps=np.array([0.5 + 0j]),
                        minus_amps=np.array([0j]))
    with pytest.raises(ValueError, match="norm deviates"):
        state.validate()


def test_validate_accepts_off_parity_amplitude():
    """One off-parity amplitude makes a valid state that is not parity
    localized, and it evolves on every site: after three steps all its
    weight sits on the sites with n + t odd."""
    plus = np.array([0.0, 1.0, 0.0], dtype=np.complex128)
    state = SpinorField(t=1, plus_amps=plus, minus_amps=np.zeros(3))
    assert state.parity_localized is False
    state.validate()
    evolved = evolve(state, CoinAngles(0.9, 0.3, -1.2, 0.4), 3)
    assert evolved.parity_localized is False
    assert not (np.any(evolved.plus_amps[::2]) or np.any(evolved.minus_amps[::2]))
    assert abs(evolved.norm() - 1.0) < 1e-15


def test_parity_is_read_from_the_amplitudes(tmp_path):
    """No caller sets the flag: every constructor's state reads it off its
    own rows."""
    init, coin = InitialState(eta=0.6, gamma=1.9), CoinAngles(0.9, 0.3, -1.2, 0.4)
    with pytest.raises(TypeError):
        SpinorField(t=0, plus_amps=[1.0], minus_amps=[0.0], parity_localized=False)
    assert localized_state(init).parity_localized is True
    assert closed_form_amplitudes(init, coin, 6).parity_localized is True
    assert evolve(init, coin, 6).parity_localized is True  # stride 2
    spread = SpinorField(t=1, plus_amps=[0.6, 0.0, 0.0], minus_amps=[0.0, 0.8, 0.0])
    assert evolve(spread, coin, 6).parity_localized is False  # stride 1
    path = tmp_path / "state.csv"
    for state in (evolve(init, coin, 6), spread):
        save_spinor_csv(state, path)
        assert load_spinor_csv(path).parity_localized is state.parity_localized


@pytest.mark.parametrize("name", ["eta", "gamma"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_initial_state_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        InitialState(**{name: value})


def test_validate_rejects_non_finite():
    plus = np.array([np.nan + 0j])
    state = SpinorField(t=0, plus_amps=plus, minus_amps=np.zeros(1))
    with pytest.raises(ValueError, match="non-finite"):
        state.validate()


def test_localized_state_components():
    init = InitialState(eta=np.pi / 5, gamma=0.4)
    state = localized_state(init)
    assert state.t == 0
    p, m = state.amplitudes_at(0)
    assert p == pytest.approx(np.cos(np.pi / 5))
    assert m == pytest.approx(np.exp(0.4j) * np.sin(np.pi / 5))
    state.validate()


def test_csv_round_trip_is_byte_identical(tmp_path):
    """Loading and re-saving a state must reproduce the file exactly."""
    state = _random_state(np.random.default_rng(23), t=9)
    first = tmp_path / "state.csv"
    second = tmp_path / "again.csv"
    save_spinor_csv(state, first)
    loaded = load_spinor_csv(first)
    assert loaded.t == state.t
    assert np.array_equal(loaded.plus_amps, state.plus_amps)
    assert np.array_equal(loaded.minus_amps, state.minus_amps)
    save_spinor_csv(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_csv_parity_flag_inference(tmp_path):
    plus = np.array([0.0, 0.6, 0.0], dtype=np.complex128)
    minus = np.array([0.0, 0.8, 0.0], dtype=np.complex128)
    state = SpinorField(t=1, plus_amps=plus, minus_amps=minus)
    assert state.parity_localized is False
    path = tmp_path / "offset.csv"
    save_spinor_csv(state, path)
    assert load_spinor_csv(path).parity_localized is False

    save_spinor_csv(_random_state(np.random.default_rng(2), t=3), path)
    assert load_spinor_csv(path).parity_localized is True


@pytest.mark.parametrize("value", [0.0, -0.0, complex(-0.0, -0.0), 1e-300, np.nan,
                                   complex(0.0, np.nan)])
def test_off_parity_zero_agrees_in_every_caller(tmp_path, value):
    """A built and a loaded state read the parity flag, and so the evolve
    stride, by one test: -0.0 is an exact zero, NaN is not."""
    zero = value == 0
    plus = np.array([0.6, value, 0.0], dtype=np.complex128)
    minus = np.array([0.0, 0.0, 0.8], dtype=np.complex128)
    state = SpinorField(t=1, plus_amps=plus, minus_amps=minus)
    assert state.parity_localized is zero
    path = tmp_path / "state.csv"
    save_spinor_csv(state, path)
    assert load_spinor_csv(path).parity_localized is zero
    if np.isfinite(value):
        state.validate()


def test_csv_load_rejects_bad_inputs(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="unexpected header"):
        load_spinor_csv(path)

    path.write_text("n,re_plus,im_plus,re_minus,im_minus\n0,1,0\n")
    with pytest.raises(ValueError, match="malformed row"):
        load_spinor_csv(path)

    path.write_text("n,re_plus,im_plus,re_minus,im_minus\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_spinor_csv(path)

    # A byte that is not UTF-8 after a valid table.
    save_spinor_csv(evolve(InitialState(eta=0.3), CoinAngles(0.7), 4), path)
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    with pytest.raises(TableError, match=f"^spinor file {re.escape(str(path))}: not UTF-8 text"):
        load_spinor_csv(path)

    # Window with a hole: sites -1, 1 but no 0.
    path.write_text(
        "n,re_plus,im_plus,re_minus,im_minus\n"
        "-1,1,0,0,0\n"
        "1,0,0,1,0\n"
    )
    with pytest.raises(ValueError, match="contiguous window"):
        load_spinor_csv(path)
