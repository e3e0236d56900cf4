"""One rule per kind of user input: every refused argument is an
``InputError``, scalar parameters must be finite real numbers, site/time
callables run through one sampler, and grid requests share one prologue."""
import math

import numpy as np
import pytest

from qwline import (
    CoinAngles,
    CoinField,
    GridError,
    InitialState,
    InputError,
    PhaseField,
    PotentialField,
    SmoothPhasePair,
    SpinorField,
    UnitSystem,
    ballistic_slope,
    bloch_vector,
    classical_pmf,
    closed_form_amplitudes,
    efield_invariance_residual,
    evolve,
    fitted_slope,
    lambda_explicit,
    lambda_table,
    omega,
    potentials_from_phase_pair,
    potentials_from_transform,
    quasi_invariant_phases,
    save_coin_field_csv,
    save_phase_field_csv,
    smoothed_pmf,
    stationary_pmf,
    symmetry_residuals,
    transform_coin_field,
    verify_quasi_invariance,
)

_INIT, _COIN = InitialState(0.3), CoinAngles(0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: omega(1, 0, 0.5), "t must be positive"),
    (lambda: omega(4, 3, 0.5), "mode index must satisfy"),
    (lambda: lambda_explicit(0, -1, 0.5), "t must be non-negative"),
    (lambda: lambda_table(0.5, 3).value(0, 4), "table covers 0 <= t <= 3"),
    (lambda: lambda_table(0.5, 3).occupied_row(-1), "table covers 0 <= t <= 3"),
    (lambda: lambda_table(0.5, -1), "t_max must be non-negative"),
    (lambda: closed_form_amplitudes(_INIT, _COIN, -1), "t must be non-negative"),
    (lambda: closed_form_amplitudes(_INIT, _COIN, 3, method="bogus"), "unknown method"),
    (lambda: evolve(_INIT, _COIN, -1), "t_final must be non-negative"),
    (lambda: verify_quasi_invariance(_INIT, _COIN, quasi_invariant_phases(0.1), -1),
     "t_final must be non-negative"),
    (lambda: classical_pmf(1.5, 3), "step probability must lie in"),
    (lambda: classical_pmf(0.5, -1), "t must be non-negative"),
    (lambda: stationary_pmf(0, 0, 0.5, 0.0, 0.0), "t must be positive"),
    (lambda: fitted_slope([0, 1], [0, 1]), "need at least two trajectory points"),
    (lambda: SpinorField(-1, np.zeros(1), np.zeros(1)), "time index must be non-negative"),
    (lambda: SpinorField(1, np.zeros(2), np.zeros(3)), "plus_amps must have shape"),
    (lambda: UnitSystem(tau=1e200, c=1e200), "^ell must be finite and positive, got inf$"),
    (lambda: CoinAngles(1 + 2j), "theta must be a real number"),
    (lambda: InitialState(math.nan), "eta must be finite"),
    # horizons and sizes must be integers, of numpy's kind too
    (lambda: evolve(_INIT, _COIN, 2.5), "^t_final must be an integer, got 2.5$"),
    (lambda: evolve(_INIT, _COIN, True), "^t_final must be an integer, got True$"),
    (lambda: (evolve(_INIT, _COIN, np.int64(3)), evolve(_INIT, _COIN, np.float64(3.0))),
     r"^t_final must be an integer, got np.float64\(3.0\)$"),
    (lambda: verify_quasi_invariance(_INIT, _COIN, quasi_invariant_phases(0.1), 2.5),
     "^t_final must be an integer, got 2.5$"),
    (lambda: closed_form_amplitudes(_INIT, _COIN, 2.5), "^t must be an integer, got 2.5$"),
    (lambda: lambda_table(0.5, 2.5), "^t_max must be an integer, got 2.5$"),
    (lambda: classical_pmf(0.5, 2.5), "^t must be an integer, got 2.5$"),
    (lambda: SpinorField(2.5, np.zeros(6), np.zeros(6)),
     "^time index must be an integer, got 2.5$"),
    (lambda: potentials_from_transform(
        _COIN, transform_coin_field(_COIN, PhaseField.constant(0.1)), n_max=2.5),
     "^n_max must be an integer, got 2.5$"),
    (lambda: efield_invariance_residual(_PAIR, (0.0, 1.0, 0.0, 1.0), 64.5),
     "^resolution must be an integer, got 64.5$"),
    # site and mode indices follow the integer rule, and their ranges keep their own words
    (lambda: lambda_table(0.5, 3).value(1, 3.0), "^t must be an integer, got 3.0$"),
    (lambda: lambda_table(0.5, 3).value(1.0, 3), "^n must be an integer, got 1.0$"),
    (lambda: lambda_table(0.5, 3).occupied_row(2.0), "^t must be an integer, got 2.0$"),
    (lambda: lambda_explicit(1.0, 3, 0.5), "^n must be an integer, got 1.0$"),
    (lambda: omega(1.5, 3, 0.5), "^r must be an integer, got 1.5$"),
    (lambda: omega(True, 3, 0.5), "^r must be an integer, got True$"),
    (lambda: evolve(_INIT, _COIN, 3).amplitudes_at(0.5), "^n must be an integer, got 0.5$"),
    (lambda: smoothed_pmf(np.ones(9), half_width=-1), "^half_width must be non-negative, got -1$"),
    (lambda: smoothed_pmf(np.ones(9), half_width=2.5), "^half_width must be an integer, got 2.5$"),
    # formula arguments follow the scalar rule
    (lambda: omega(1, 3, math.nan), "^theta must be finite, got nan$"),
    (lambda: omega(1, 3, math.inf), "^theta must be finite, got inf$"),
    (lambda: lambda_table(math.nan, 3), "^theta must be finite, got nan$"),
    (lambda: lambda_table(math.inf, 3), "^theta must be finite, got inf$"),
    (lambda: lambda_table(1 + 2j, 3), r"^theta must be a real number, got \(1\+2j\)$"),
    (lambda: lambda_explicit(1, 3, 1 + 2j), r"^theta must be a real number, got \(1\+2j\)$"),
    (lambda: ballistic_slope(math.nan, 0.1, 0.2), "^theta must be finite, got nan$"),
    (lambda: ballistic_slope(0.3, math.nan, 0.2), "^eta must be finite, got nan$"),
    (lambda: ballistic_slope(0.3, 0.1, math.inf), "^phi must be finite, got inf$"),
    (lambda: symmetry_residuals(0.3, 0.1, math.nan), "^phi must be finite, got nan$"),
    (lambda: stationary_pmf(np.arange(-10, 11), 10, 0.5, math.nan, 0.0),
     "^eta must be finite, got nan$"),
    (lambda: stationary_pmf(np.arange(-10, 11), 10, 0.5, 0.1, math.inf),
     "^phi must be finite, got inf$"),
    (lambda: stationary_pmf(np.arange(-10, 11), math.nan, 0.5, 0.1, 0.0),
     "^t must be finite, got nan$"),
    (lambda: classical_pmf(1 + 2j, 3), r"^p must be a real number, got \(1\+2j\)$"),
    (lambda: bloch_vector(math.nan, 0.1), "^beta must be finite, got nan$"),
    (lambda: bloch_vector("a", 0.1), "^beta must be a real number, got 'a'$"),
    (lambda: bloch_vector(0.1, math.inf), "^theta must be finite, got inf$"),
    # so are the sites of the envelope
    (lambda: stationary_pmf(math.nan, 10, 0.5, 0.1, 0.0),
     "^sites n must be real and finite, got nan$"),
    (lambda: stationary_pmf(np.array([0.0, math.inf]), 10, 0.5, 0.1, 0.0),
     r"^sites n must be real and finite, got array\(\[ 0., inf\]\)$"),
    (lambda: stationary_pmf(1 + 2j, 10, 0.5, 0.1, 0.0),
     r"^sites n must be real and finite, got \(1\+2j\)$"),
    (lambda: stationary_pmf("a", 10, 0.5, 0.1, 0.0), "^sites n must be real and finite, got 'a'$"),
    # arrays a call pairs must fit
    (lambda: fitted_slope([0, 1, 2, 3], [0, 1, 2]),
     r"^ts and xs must have the same shape, got \(4,\) and \(3,\)$"),
    (lambda: fitted_slope([0, 1, 2, 3], [0, 1, math.nan, 3]),
     "^ts and xs must be finite 1-D arrays$"),
    (lambda: fitted_slope(np.ones((3, 3)), np.ones((3, 3))),
     "^ts and xs must be finite 1-D arrays$"),
    (lambda: smoothed_pmf(np.ones((3, 3))), r"^rho must be a 1-D array, got shape \(3, 3\)$"),
    (lambda: smoothed_pmf(5.0), r"^rho must be a 1-D array, got shape \(\)$"),
    (lambda: smoothed_pmf(np.array([])), r"^rho must hold at least one site, got shape \(0,\)$"),
    # a fit needs two distinct kept times and a real, finite t_min
    (lambda: fitted_slope([], []), "^need at least two trajectory points beyond t_min$"),
    (lambda: fitted_slope([5, 5, 5], [1, 2, 3]),
     "^need at least two distinct trajectory times beyond t_min$"),
    (lambda: fitted_slope([0, 1, 2], [0, 1, 2], t_min="a"),
     "^t_min must be a real number, got 'a'$"),
    (lambda: fitted_slope([0, 1, 2], [0, 1, 2], t_min=1 + 2j),
     r"^t_min must be a real number, got \(1\+2j\)$"),
    (lambda: fitted_slope([0, 1, 2], [0, 1, 2], t_min=math.nan), "^t_min must be finite, got nan$"),
    (lambda: PotentialField(x=np.zeros((2, 3)), t=np.arange(2.0), a_t=np.zeros((2, 6)),
                            a_x=np.zeros((2, 6))),
     "^coordinates x and t must be finite 1-D arrays$"),
    (lambda: PotentialField(x=[0.0, math.nan], t=[0.0, 1.0], a_t=np.zeros((2, 2)),
                            a_x=np.zeros((2, 2))),
     "^coordinates x and t must be finite 1-D arrays$"),
], ids=["omega_t", "omega_r", "lambda_explicit", "table_value", "table_row", "lambda_table",
        "closed_form_t", "closed_form_method", "evolve", "verify", "classical_p",
        "classical_t", "stationary", "fitted_slope", "spinor_t", "spinor_shape",
        "unit_scales", "real_number", "finite", "evolve_float", "evolve_bool",
        "evolve_int64_then_float64", "verify_float", "closed_form_float", "lambda_table_float",
        "classical_float", "spinor_float", "potentials_n_max_float", "efield_float",
        "table_value_t_float", "table_value_n_float", "table_row_float",
        "lambda_explicit_n_float", "omega_r_float", "omega_r_bool", "amplitudes_at_float",
        "smoothed_negative", "smoothed_float", "omega_nan", "omega_inf", "lambda_table_nan",
        "lambda_table_inf", "lambda_table_complex", "lambda_explicit_complex",
        "ballistic_nan_theta", "ballistic_nan_eta", "ballistic_inf_phi", "symmetry_nan_phi",
        "stationary_nan_eta", "stationary_inf_phi", "stationary_nan_t", "classical_complex",
        "bloch_nan_beta", "bloch_text_beta", "bloch_inf_theta", "stationary_nan_site",
        "stationary_inf_site", "stationary_complex_site", "stationary_text_site",
        "fitted_slope_shapes", "fitted_slope_nan", "fitted_slope_2d", "smoothed_2d",
        "smoothed_0d", "smoothed_empty", "fitted_slope_empty", "fitted_slope_equal_times",
        "fitted_slope_text_t_min", "fitted_slope_complex_t_min", "fitted_slope_nan_t_min",
        "potentials_2d_x", "potentials_nan_x"])
def test_every_refused_argument_is_an_input_error(call, message):
    with pytest.raises(InputError, match=message):
        call()


@pytest.mark.parametrize("save, table", [
    (save_coin_field_csv, CoinField.homogeneous(_COIN)),
    (save_phase_field_csv, quasi_invariant_phases(0.1)),
], ids=["coin", "phase"])
@pytest.mark.parametrize("t_max, message", [
    (2.5, "^t_max must be an integer, got 2.5$"),
    (True, "^t_max must be an integer, got True$"),
    (-1, "^t_max must be non-negative, got -1$"),
], ids=["float", "bool", "negative"])
def test_table_savers_take_an_integer_horizon(tmp_path, save, table, t_max, message):
    path = tmp_path / "table.csv"
    with pytest.raises(InputError, match=message):
        save(table, t_max, path)
    assert not path.exists()


@pytest.mark.parametrize("ts, t_min, slope", [
    ([1e308, 1.5e308], 0, 1 / 0.5e308),
    ([-1e308, 1e308], -1.5e308, 0.5 / 1e308),
], ids=["sum_overflows", "spread_overflows"])
def test_fitted_slope_near_the_float_range(ts, t_min, slope):
    """Times whose sum or spread overflows still fit, without a warning
    (the suite turns a RuntimeWarning into an error)."""
    assert fitted_slope(ts, [0, 1], t_min) == pytest.approx(slope, rel=1e-12, abs=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fitted_slope_beyond_the_float_range_is_refused():
    """A slope whose value overflows is an input error, not a numpy
    warning or an infinite slope."""
    with pytest.raises(InputError, match="^the slope overflows the float range$"):
        fitted_slope([0, 1e-320], [0, 1e308], 0)
    # 2**1023 is a float, 2**1024 is not
    assert fitted_slope([0, 2.0**-1074], [0, 2.0**-51], 0) == 2.0**1023
    with pytest.raises(InputError, match="^the slope overflows the float range$"):
        fitted_slope([0, 2.0**-1074], [0, 2.0**-50], 0)
    assert fitted_slope([0, 1e-300], [0, 1e-10], 0) == pytest.approx(1e290, rel=1e-12)


def test_validate_checks_a_state_not_an_input():
    state = SpinorField(0, np.array([2.0]), np.zeros(1))
    with pytest.raises(ValueError, match="norm deviates") as info:
        state.validate()
    assert not isinstance(info.value, InputError)


_PARAMETERS = [(CoinAngles, "theta"), (InitialState, "eta"), (UnitSystem, "tau")]


@pytest.mark.parametrize("make, name", _PARAMETERS)
@pytest.mark.parametrize("bad, must", [
    *(pytest.param(bad, "a real number", id=i) for bad, i in (
        (1 + 2j, "complex"), ("0.5", "str"), (None, "none"), ([0.5], "list"),
        ([[1], [1, 2]], "ragged"))),
    # numpy holds it only as an object, so no consumer computes with it
    pytest.param(2**70, "a float or an integer within the int64/uint64 range", id="huge_int"),
])
def test_a_parameter_must_be_a_real_number(make, name, bad, must):
    with pytest.raises(InputError, match=f"^{name} must be {must}, got "):
        make(**{name: bad})


@pytest.mark.parametrize("make, name", _PARAMETERS)
@pytest.mark.parametrize("good", [np.float32(1.0), np.array(1.0), 1],
                         ids=["float32", "0-d array", "int"])
def test_real_scalars_of_any_kind_are_accepted(make, name, good):
    assert getattr(make(**{name: good}), name) is good


def test_complex_coin_angles_are_refused_before_any_walk():
    with pytest.raises(InputError, match=r"^theta must be a real number, got \(1\+2j\)$"):
        evolve(InitialState(0.3), CoinAngles(1 + 2j), 10)
    with pytest.raises(InputError, match=r"^tau must be a real number, got \(1\+0j\)$"):
        UnitSystem(tau=1 + 0j)


def test_finite_and_positive_messages_are_kept():
    with pytest.raises(InputError, match=r"^theta must be finite, got nan$"):
        CoinAngles(math.nan)
    with pytest.raises(InputError, match=r"^gamma must be finite, got inf$"):
        InitialState(0.1, math.inf)
    with pytest.raises(InputError, match=r"^tau must be finite and positive, got -1.0$"):
        UnitSystem(tau=-1.0)
    with pytest.raises(InputError, match=r"^c must be finite and positive, got nan$"):
        UnitSystem(c=math.nan)


class _Counting:
    """A site/time callable that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, n, t):
        self.calls += 1
        return self.fn(n, t)


def _shared(n, t):
    return 0.01 * n * n - 0.2 * t


def test_a_callable_shared_by_coin_parameters_runs_once_per_site():
    ns = np.arange(-5, 6)
    g = _Counting(_shared)
    shared = CoinField.from_functions(lambda n, t: 0.7, g, g, lambda n, t: 0.1 * n)
    rows = shared.rows(ns, 3)
    assert g.calls == ns.size
    assert rows[1] is rows[2]
    copies = CoinField.from_functions(lambda n, t: 0.7, _Counting(_shared),
                                      _Counting(_shared), lambda n, t: 0.1 * n)
    for got, want in zip(rows, copies.rows(ns, 3)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("build", [lambda f: PhaseField(f, f), PhaseField.symmetric],
                         ids=["pair", "symmetric"])
def test_a_shared_phase_callable_runs_once_per_site(build):
    ns = np.arange(-4, 5)
    f = _Counting(_shared)
    xi, zeta = build(f).rows(ns, 2)
    assert f.calls == ns.size
    assert xi is zeta
    assert xi.tolist() == [_shared(n, 2) for n in ns.tolist()]


_PAIR = SmoothPhasePair(xi=lambda x, t: x * t, zeta=lambda x, t: x - t)


@pytest.mark.parametrize("grid, resolution, least", [
    (potentials_from_phase_pair, 1, 2),
    (efield_invariance_residual, 3, 4),
])
def test_grid_requests_keep_their_resolution_floor(grid, resolution, least):
    with pytest.raises(GridError,
                       match=f"^resolution must be at least {least}, got {resolution}$"):
        grid(_PAIR, (0.0, 1.0, 0.0, 1.0), resolution)


def test_a_callable_value_is_converted_not_type_checked():
    xi, zeta = PhaseField(lambda n, t: "0.5", lambda n, t: True).rows(np.arange(2), 0)
    assert xi.tolist() == [0.5, 0.5] and zeta.tolist() == [1.0, 1.0]
