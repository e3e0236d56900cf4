import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwline import (
    CoinAngles,
    CoinField,
    GridError,
    InitialState,
    InputError,
    PhaseField,
    PotentialField,
    SmoothPhasePair,
    UnitSystem,
    efield_invariance_residual,
    electric_field,
    finite_difference_transform,
    lattice_phases_from_smooth,
    load_phase_field_csv,
    potentials_from_phase_pair,
    potentials_from_transform,
    save_potentials_csv,
    save_phase_field_csv,
    save_residual_csv,
    transform_coin_field,
    verify_exact_invariance,
)
from qwline.cli import _smooth_pair
from qwline.gauge import _BLOCK_ROWS

import _oracle

REF = CoinAngles(theta=0.8, alpha=0.15, beta=-0.6, chi=0.25)
# Spatial and temporal spacings intentionally differ so light-cone
# characteristics never line up with the grid diagonals.
DOMAIN = (-1.0, 1.0, 0.0, 1.5)


def test_unit_system_validation():
    u = UnitSystem()
    assert u.ell == u.tau == u.c == u.hbar_over_e == 1.0
    assert UnitSystem(tau=0.25, c=2.0).ell == 0.5
    # the derived spacing is checked like the scales: no overflow, no underflow
    for tiny_or_huge, got in ((1e200, "inf"), (1e-200, "0.0")):
        with pytest.raises(InputError, match=f"^ell must be finite and positive, got {got}$"):
            UnitSystem(tau=tiny_or_huge, c=tiny_or_huge)
    with pytest.raises(ValueError, match="finite and positive"):
        UnitSystem(tau=0.0)
    with pytest.raises(ValueError, match="finite and positive"):
        UnitSystem(hbar_over_e=-1.0)


def _phase_callables():
    # Three structurally different dressing pairs with moderate magnitudes,
    # as (xi, zeta) callables: quasi, bilinear symmetric and wavy.
    bilinear = lambda n, t: 1e-3 * n * t  # noqa: E731
    return (
        (lambda n, t: 0.05 * (n - t), lambda n, t: 0.05 * (n + t)),
        (bilinear, bilinear),
        (lambda n, t: 0.3 * np.sin(0.05 * n) * np.cos(0.07 * t),
         lambda n, t: 0.2 * np.cos(0.03 * n + 0.11 * t)),
    )


def _phase_families():
    return tuple(PhaseField(xi, zeta) for xi, zeta in _phase_callables())


def test_finite_difference_transform_matches_pointwise():
    """Difference-based and pointwise coin shifts agree to rounding."""
    for phases in _phase_families():
        a = transform_coin_field(REF, phases)
        b = finite_difference_transform(REF, phases)
        worst, ns = 0.0, np.arange(-30, 31, 5)
        for t in range(0, 40, 4):
            for got, want in zip(a.rows(ns, t)[1:], b.rows(ns, t)[1:], strict=True):
                worst = max(worst, np.max(np.abs(got - want)))
        assert worst < 1e-14


def test_transform_rows_equal_scalar_formulas():
    """Both transforms evaluate their per-site formula in the same order on
    whole rows, so each row matches the scalar formula bit for bit."""

    def pointwise(xi, zeta, n, t):
        return (
            REF.alpha + 0.5 * (xi(n + 1, t + 1) - xi(n, t) - zeta(n - 1, t + 1) + zeta(n, t)),
            REF.beta + 0.5 * (zeta(n - 1, t + 1) + zeta(n, t) - xi(n + 1, t + 1) - xi(n, t)),
            REF.chi + 0.5 * (xi(n + 1, t + 1) - xi(n, t) + zeta(n - 1, t + 1) - zeta(n, t)),
        )

    def differences(xi, zeta, n, t):
        d_n = (xi(n + 1, t + 1) - zeta(n, t + 1)) - (xi(n, t + 1) - zeta(n - 1, t + 1))
        d_t = (xi(n, t + 1) + zeta(n, t + 1)) - (xi(n, t) + zeta(n, t))
        chi = REF.chi + 0.5 * (d_n + d_t)
        d_n = (xi(n + 1, t + 1) + zeta(n, t + 1)) - (xi(n, t + 1) + zeta(n - 1, t + 1))
        d_t = (xi(n, t + 1) - zeta(n, t + 1)) - (xi(n, t) - zeta(n, t))
        shift = 0.5 * (d_n + d_t)
        return REF.alpha + shift, REF.beta + (zeta(n, t) - xi(n, t)) - shift, chi

    for xi, zeta in _phase_callables():
        for transform, formula in ((transform_coin_field, pointwise),
                                   (finite_difference_transform, differences)):
            f = transform(REF, PhaseField(xi, zeta))
            for t in (0, 7, 39):
                theta, *rows = f.materialize(-30, 30, t)
                want = [formula(xi, zeta, n, t) for n in range(-30, 31)]
                assert np.all(theta == REF.theta)
                assert np.array(rows).tobytes() == np.array(want, dtype=float).T.tobytes()


def test_phase_rows_are_sampled_once_per_step():
    """A shared callable is called once per site per row; both transforms
    read step t over ns and step t + 1 once, over the distinct sites beside
    ns (m + 1 sites for the pointwise form and 2m + 1 for the difference
    form when m sites are spaced by 2), and nothing at t + 2, for each
    phase component."""
    calls = {"xi": [], "zeta": []}

    def counted(name, fn):
        def sampled(n, t):
            calls[name].append((n, t))
            return fn(n, t)
        return sampled

    ns, t = np.arange(-5, 8), 4
    shared = PhaseField.symmetric(counted("xi", lambda n, t: 1e-3 * n * t))
    xi, zeta = shared.rows(ns, t)
    assert xi is zeta and calls["xi"] == [(n, t) for n in ns]

    split = PhaseField(counted("xi", lambda n, t: 0.05 * (n - t)),
                       counted("zeta", lambda n, t: 0.2 * np.cos(0.03 * n + 0.11 * t)))
    beside, stride2 = np.arange(-6, 9), ns[::2]
    # m = 7 sites spaced by 2: m + 1 = 8 sites beside them at n +- 1, and
    # 2m + 1 = 15 at n - 1, n and n + 1
    cases = ((ns, transform_coin_field, beside),
             (ns, finite_difference_transform, beside),
             (stride2, transform_coin_field, beside[::2]),
             (stride2, finite_difference_transform, beside))
    for phases, names in ((shared, ("xi",)), (split, ("xi", "zeta"))):
        for sites, transform, ahead in cases:
            for log in calls.values():
                log.clear()
            transform(REF, phases).rows(sites, t)
            want = [(n, t) for n in sites] + [(n, t + 1) for n in ahead]
            assert [calls[name] for name in names] == [want] * len(names)


@settings(max_examples=60, deadline=None)
@given(sites=st.lists(st.integers(-20, 20), min_size=1, max_size=30), t=st.integers(0, 12))
def test_rows_over_any_sites_equal_the_window_rows(sites, t):
    """Rows over any subset or permutation of sites, repeats included, are
    bitwise the contiguous-window rows at those sites."""
    ns = np.array(sites)
    window = np.arange(-20, 21)
    for phases in _phase_families():
        for transform in (transform_coin_field, finite_difference_transform):
            f = transform(REF, phases)
            want = np.array(f.rows(window, t), dtype=float)[:, ns + 20]
            assert np.array(f.rows(ns, t), dtype=float).tobytes() == want.tobytes()


def test_difference_form_reads_no_step_beyond_the_pointwise_form(tmp_path):
    """On a phase table up to t_max = 10 the difference form materializes
    step 9, which reads up to step 10, as the pointwise transform does."""
    path = tmp_path / "phases.csv"
    save_phase_field_csv(_phase_families()[2], t_max=10, path=path)
    table = load_phase_field_csv(path)
    a = transform_coin_field(REF, table).materialize(-9, 9, 9)
    b = finite_difference_transform(REF, table).materialize(-9, 9, 9)
    assert np.max(np.abs(np.array(a) - np.array(b))) < 1e-14


def test_finite_difference_transform_zero_phases():
    b = finite_difference_transform(REF, PhaseField.constant(0.0))
    assert b.rows(np.array([3]), 7)[3][0] == REF.chi
    assert b.rows(np.array([-2]), 1)[1][0] == REF.alpha
    assert b.rows(np.array([0]), 0)[2][0] == REF.beta
    assert b.rows(np.array([5]), 5)[0][0] == REF.theta


def test_potentials_from_transform_bilinear():
    a = 0.02
    dressed = transform_coin_field(REF, PhaseField.symmetric(
        lambda n, t: a * n * t))
    p = potentials_from_transform(REF, dressed, n_max=10, t_max=8)
    ns = np.arange(-10, 11)
    ts = np.arange(9)
    assert p.a_t == pytest.approx(np.tile(a * ns, (9, 1)), abs=1e-13)
    assert p.a_x == pytest.approx(np.tile(a * (ts + 1), (21, 1)).T, abs=1e-13)
    assert np.array_equal(p.x, ns.astype(float))
    assert np.array_equal(p.t, ts.astype(float))


def test_potentials_from_transform_identity_and_quasi():
    from qwline import quasi_invariant_phases

    same = CoinField.homogeneous(REF)
    p = potentials_from_transform(same, same, n_max=5, t_max=5)
    assert np.all(p.a_t == 0) and np.all(p.a_x == 0)

    # Characteristic-riding phases shift only beta, so no potential appears.
    dressed = transform_coin_field(REF, quasi_invariant_phases(0.1))
    p = potentials_from_transform(REF, dressed, n_max=5, t_max=5)
    assert np.all(p.a_t == 0) and np.all(p.a_x == 0)


def test_potentials_from_transform_respects_units():
    a = 0.02
    dressed = transform_coin_field(REF, PhaseField.symmetric(
        lambda n, t: a * n * t))
    units = UnitSystem(tau=0.5, c=1.0, hbar_over_e=1.0)
    p = potentials_from_transform(REF, dressed, units=units, n_max=4, t_max=4)
    # scale = hbar_over_e / (c tau) = 2, grid coordinates shrink by 2.
    assert p.a_t[0, -1] == pytest.approx(2 * a * 4, abs=1e-13)
    assert p.x[-1] == 2.0
    assert p.t[-1] == 2.0


def test_potential_field_validation():
    with pytest.raises(GridError):
        PotentialField(x=np.arange(3.0), t=np.arange(4.0),
                       a_t=np.zeros((3, 3)), a_x=np.zeros((4, 3)))
    with pytest.raises(ValueError, match="finite"):
        PotentialField(x=np.arange(3.0), t=np.arange(2.0),
                       a_t=np.full((2, 3), np.nan), a_x=np.zeros((2, 3)))


def test_electric_field_constant_from_both_representations():
    """A uniform field can sit in a_x or, equivalently, in a_t."""
    e0 = 1.5
    xs = np.linspace(-1, 1, 41)
    ts = np.linspace(0, 1.5, 41)
    in_x = PotentialField.from_functions(
        lambda X, T: np.zeros_like(X), lambda X, T: e0 * T, xs, ts)
    in_t = PotentialField.from_functions(
        lambda X, T: -e0 * X, lambda X, T: np.zeros_like(X), xs, ts)
    ea = electric_field(in_x)
    eb = electric_field(in_t)
    assert np.max(np.abs(ea - e0)) < 1e-12
    assert np.max(np.abs(ea - eb)) < 1e-12


def test_electric_field_analytic_oracle_converges():
    # A_X = sin(X) cos(T) gives E = -sin(X) sin(T).
    def run(res):
        xs = np.linspace(0.0, 2.0, res)
        ts = np.linspace(0.0, 2.0, res)
        p = PotentialField.from_functions(
            lambda X, T: np.zeros_like(X),
            lambda X, T: np.sin(X) * np.cos(T), xs, ts)
        e = electric_field(p)
        tt, xx = np.meshgrid(ts, xs, indexing="ij")
        return np.max(np.abs(e - (-np.sin(xx) * np.sin(tt))))

    err64, err128 = run(64), run(128)
    assert err128 < 1e-3
    assert err64 / err128 > 3.4


def test_electric_field_grid_guards():
    p = PotentialField(x=np.array([0.0]), t=np.array([0.0, 1.0]),
                       a_t=np.zeros((2, 1)), a_x=np.zeros((2, 1)))
    with pytest.raises(GridError, match="at least 2"):
        electric_field(p)
    # Two points per axis fall back to first-order edges; linear data is
    # still differentiated exactly.
    xs = np.array([0.0, 1.0])
    ts = np.array([0.0, 1.0])
    p = PotentialField.from_functions(
        lambda X, T: -2.0 * X, lambda X, T: np.zeros_like(X), xs, ts)
    assert electric_field(p) == pytest.approx(np.full((2, 2), 2.0))


def test_potentials_from_phase_pair_linear_exact():
    pair = SmoothPhasePair(
        xi=lambda X, T: 2.0 * X + 3.0 * T,
        zeta=lambda X, T: -X + 0.5 * T)
    p = potentials_from_phase_pair(pair, DOMAIN, resolution=16)
    # d_plus xi = 3/2 + 1 = 2.5, d_minus zeta = 1/4 + 1/2 = 0.75.
    assert np.max(np.abs(p.a_t - 0.5 * (2.5 + 0.75))) < 1e-13
    assert np.max(np.abs(p.a_x - 0.5 * (2.5 - 0.75))) < 1e-13
    with pytest.raises(GridError, match="resolution"):
        potentials_from_phase_pair(pair, DOMAIN, resolution=1)
    with pytest.raises(GridError, match="positive extent"):
        potentials_from_phase_pair(pair, (1.0, -1.0, 0.0, 1.0), resolution=8)
    # squared spacings outside the normal float range, repeated x samples
    for domain in ((-1e308, 1e308, 0.0, 1.0), (-1.0, 1.0, 0.0, 1e308),
                   (0.0, 1e-320, 0.0, 1.0), (1e16, 1e16 + 8, 0.0, 1.0)):
        with pytest.raises(GridError, match="at resolution 8"):
            potentials_from_phase_pair(pair, domain, resolution=8)


def test_null_family_produces_no_time_potential():
    # xi a function of X - cT only: d_plus xi = 0, so a_t = -a_x up to
    # discretization error.
    pair = SmoothPhasePair(
        xi=lambda X, T: np.sin(X - T),
        zeta=lambda X, T: np.cos(0.8 * (X + T)))
    p64 = potentials_from_phase_pair(pair, DOMAIN, resolution=64)
    p128 = potentials_from_phase_pair(pair, DOMAIN, resolution=128)
    worst64 = np.max(np.abs(p64.a_t + p64.a_x))
    worst128 = np.max(np.abs(p128.a_t + p128.a_x))
    assert worst128 < 5e-3
    assert worst64 / worst128 > 3.4


def _residual_factors(pair, resolutions):
    maxima = [efield_invariance_residual(pair, DOMAIN, r)[0]
              for r in resolutions]
    return [a / b for a, b in zip(maxima, maxima[1:])], maxima


def test_residual_refines_for_invariant_pairs():
    """Field-preserving pairs leave a residual that dies quadratically."""
    shared = lambda X, T: np.sin(1.3 * X) * np.cos(0.9 * T) + 0.2 * X * T
    families = [
        SmoothPhasePair(xi=shared, zeta=shared),
        SmoothPhasePair(xi=lambda X, T: np.sin(X - T),
                        zeta=lambda X, T: np.cos(0.8 * (X + T))),
    ]
    for pair in families:
        factors, _ = _residual_factors(pair, (32, 64, 128))
        assert all(f > 3.5 for f in factors)


def test_residual_detects_field_changing_pair():
    # xi = X^2 T has d_minus d_plus xi = -T/2; every stencil involved is
    # exact on this polynomial, so the max sits at T = t1 independent of
    # resolution.
    pair = SmoothPhasePair(xi=lambda X, T: X * X * T,
                           zeta=lambda X, T: np.zeros_like(X))
    for res in (32, 64):
        top, field = efield_invariance_residual(pair, DOMAIN, res)
        assert top == pytest.approx(1.5 / 4.0, abs=1e-12)
        assert field.shape == (res, res)
    with pytest.raises(GridError, match="at least 4"):
        efield_invariance_residual(pair, DOMAIN, 3)


def test_residual_field_covers_requested_domain():
    pair = SmoothPhasePair(xi=lambda X, T: np.sin(X - T),
                           zeta=lambda X, T: np.sin(X - T))
    top, field = efield_invariance_residual(pair, DOMAIN, 32)
    assert field.shape == (32, 32)
    assert top < 1e-3


def _changing_pair():
    return SmoothPhasePair(xi=lambda X, T: 0.8 * X * T * T + np.sin(X - T),
                           zeta=lambda X, T: np.zeros_like(X))


def _out_of_place_residual(pair, domain, res, units):
    """The residual with every stencil and the scaling written out of place,
    in the float order the library's in-place stencils must keep: unscaled
    null derivatives ``D_t +- ratio D_x``, the inner one scaled by ``s1``,
    and one factor ``K`` on their difference."""
    x0, x1, t0, t1 = domain
    dx, dt = (x1 - x0) / (res - 1), (t1 - t0) / (res - 1)
    steps = np.arange(-3, res + 3)
    tt, xx = np.meshgrid(t0 + dt * steps, x0 + dx * steps, indexing="ij")
    c = units.c
    ratio, s1 = c * (dt / dx), 1 / (2 * dt * c)

    def null(arr, sign, k):
        d_t = arr[2 * k:, k:-k] - arr[:-2 * k, k:-k]
        d_x = ratio * (arr[k:-k, 2 * k:] - arr[k:-k, :-2 * k])
        return d_t + sign * d_x

    term_xi = null(s1 * null(pair.xi(xx, tt), +1.0, 1), -1.0, 2)
    term_zeta = null(s1 * null(pair.zeta(xx, tt), -1.0, 1), +1.0, 2)
    return units.hbar_over_e / (32 * dt) * (term_xi - term_zeta)


@pytest.mark.parametrize("units", [UnitSystem(),
                                   UnitSystem(tau=0.25, c=2.0, hbar_over_e=0.7)])
def test_residual_is_bitwise_the_out_of_place_composition(units):
    pairs = [_smooth_pair(name, units.c) for name in ("symmetric", "null", "wave")]
    pairs.append(SmoothPhasePair(xi=lambda X, T: X * X * T,
                                 zeta=lambda X, T: np.zeros_like(X)))
    pairs.append(_changing_pair())
    # constant phases; on the sampler's sparse grid these are a row and a column
    pairs.append(SmoothPhasePair(xi=lambda X, T: np.full_like(X, 0.7),
                                 zeta=lambda X, T: np.full_like(T, -0.2)))
    # 64, 75 and 129 span several row blocks of the stencils, 75 and 129 a
    # partial last one (129 a last block of one row); 32, 33, 38 and 39 are
    # the block edges where the carried halo rows start
    for pair in pairs:
        for res in (4, 5, 17, 32, 33, 38, 39, 64, 75, 129):
            top, field = efield_invariance_residual(pair, DOMAIN, res, units)
            want = _out_of_place_residual(pair, DOMAIN, res, units)
            assert np.array_equal(field.view(np.int64), want.view(np.int64))
            assert top == np.max(np.abs(want))


def test_residual_row_seams_overflow_out_of_sight():
    """The stencils run on raveled rows, so the cells at each row end
    difference across a row seam.  Halo columns of +-1e308 on a wide domain
    overflow those cells but no stencil of the requested domain."""
    units = UnitSystem()
    res, domain = 40, (-4e3, 4e3, 0.0, 1e3)
    x_left, x_right = domain[0], domain[1]

    def xi(X, T):
        return np.where(X < x_left, 1e308, np.where(X > x_right, -1e308, np.sin(X) * T))

    pair = SmoothPhasePair(xi=xi, zeta=lambda X, T: np.cos(X - T))
    top, field = efield_invariance_residual(pair, domain, res, units)
    want = _out_of_place_residual(pair, domain, res, units)
    assert np.isfinite(want).all()
    assert np.array_equal(field.view(np.int64), want.view(np.int64))
    assert top == np.max(np.abs(want))


# C of the bound C eps res on the residual's largest error against the
# long-double reference.  Measured C = error / (eps res) at res 128-1024:
# symmetric 0.069-0.097, null 0.028-0.053, wave 0.037-0.050, changing
# 0.075-0.142.  The form that divided each stage by c read up to 0.183
# (changing, res 1024).
ORACLE_C = 0.25


@pytest.mark.parametrize("name", ["symmetric", "null", "wave", "changing"])
def test_residual_error_against_long_double_is_eps_res(name):
    pair = _changing_pair() if name == "changing" else _smooth_pair(name, 1.0)
    for res in (128, 256, 512, 1024):
        _, field = efield_invariance_residual(pair, DOMAIN, res)
        err = np.max(np.abs(field - _oracle.efield_residual(pair, DOMAIN, res)))
        assert err <= ORACLE_C * _oracle.EPS * res, (res, err)


@pytest.mark.parametrize("tau, c", [(1e100, 1e-200), (1e-100, 1e200), (1.0, 1e-308)])
def test_residual_is_finite_for_extreme_speeds(tau, c):
    """At c = 1e-200 the peak is 2.4756e199; a composition that divides the
    time differences by c in each stage and multiplies the result by c
    overflows on the way there.  At c = 1e-308 the peak is 2.4756e307, and
    the inner scale ``1 / (2 dt c)`` overflows as one factor."""
    units = UnitSystem(tau=tau, c=c)
    pair = SmoothPhasePair(xi=lambda X, T: np.sin(X - T),
                           zeta=lambda X, T: np.cos(X + T))
    top, field = efield_invariance_residual(pair, DOMAIN, 16, units)
    want = _oracle.efield_residual(pair, DOMAIN, 16, units)
    want_top = np.max(np.abs(want))
    assert want_top > 1e199
    assert abs(top - want_top) <= 4 * _oracle.EPS * want_top
    assert np.max(np.abs(field - want)) <= 4 * _oracle.EPS * want_top


def test_non_finite_samples_raise_grid_error():
    # 0.2 X T overflows to inf on this domain (halo included)
    overflow = SmoothPhasePair(xi=lambda X, T: 0.2 * X * T, zeta=lambda X, T: 0 * X)
    domain = (-4.6e154, 4.6e154, 0.0, 9e154)
    for compute in (efield_invariance_residual, potentials_from_phase_pair):
        with pytest.raises(GridError, match=r"at resolution 8: xi is not finite at \(x="):
            compute(overflow, domain, 8)
    # the first time-major point past x = 0.5, t = 1 is (0.75, 1.5), halo or not
    hole = SmoothPhasePair(xi=lambda X, T: X,
                           zeta=lambda X, T: np.where((X > 0.5) & (T > 1.0), np.nan, T))
    for compute in (efield_invariance_residual, potentials_from_phase_pair):
        with pytest.raises(GridError, match=r"zeta is not finite at \(x=0.75, t=1.5\)"):
            compute(hole, (0.0, 1.0, 0.0, 2.0), 5)
    # a hole starting in a later row block, and in rows two blocks share,
    # is named at the first time-major point of the whole haloed grid
    res, x0, x1, t0, t1 = 100, 0.0, 1.0, 0.0, 2.0
    steps = np.arange(-3, res + 3)
    xs = x0 + (x1 - x0) / (res - 1) * steps
    ts = t0 + (t1 - t0) / (res - 1) * steps
    x_hole = 0.5 + 0.1 * (xs[1] - xs[0])
    x_first = xs[np.argmax(xs > x_hole)]
    # haloed row 51 is sampled by block 1 alone; 35 by blocks 0 and 1, 67
    # by blocks 1 and 2
    for row in (51, 35, 67):
        t_hole = 0.5 * (ts[row - 1] + ts[row])
        hole = SmoothPhasePair(
            xi=lambda X, T: np.where((X > x_hole + 0.2) & (T > t_hole), np.nan, X),
            zeta=lambda X, T: np.where((X > x_hole) & (T > t_hole), np.inf, T))
        at = re.escape(f"zeta is not finite at (x={float(x_first)!r}, t={float(ts[row])!r})")
        with pytest.raises(GridError, match=at):
            efield_invariance_residual(hole, (x0, x1, t0, t1), res)
    # finite samples whose differences overflow
    cliff = SmoothPhasePair(xi=lambda X, T: np.where(X > 0.4, 1.7e308, -1.7e308),
                            zeta=lambda X, T: 0 * X)
    with pytest.raises(GridError, match=r"residual is not finite at \(x="):
        efield_invariance_residual(cliff, (0.0, 1.0, 0.0, 2.0), 5)
    with pytest.raises(GridError, match=r"a_t is not finite at \(x="):
        potentials_from_phase_pair(cliff, (0.0, 1.0, 0.0, 2.0), 5)


def _full(f):
    """``f`` with its result spread over the whole grid of ``X`` and ``T``."""
    def full(X, T):
        shape = np.broadcast_shapes(np.shape(X), np.shape(T))
        return np.array(np.broadcast_to(f(X, T), shape), dtype=np.float64)
    return full


# constant and X-only results, which the samplers broadcast to the grid
_LOWER_RANK = (
    (lambda X, T: 0.3, lambda X, T: 0.0),
    (lambda X, T: np.sin(1.3 * X), lambda X, T: 0.2 * X * X),
)


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def test_residual_of_lower_rank_callables_equals_full_grid():
    for xi, zeta in _LOWER_RANK:
        for res in (4, 75):
            top, field = efield_invariance_residual(SmoothPhasePair(xi, zeta), DOMAIN, res)
            want_top, want = efield_invariance_residual(
                SmoothPhasePair(_full(xi), _full(zeta)), DOMAIN, res)
            assert field.shape == (res, res) and top == want_top
            assert _bits(field) == _bits(want)


def test_potentials_of_lower_rank_callables_equal_full_grid():
    for xi, zeta in _LOWER_RANK:
        got = potentials_from_phase_pair(SmoothPhasePair(xi, zeta), DOMAIN, 17)
        want = potentials_from_phase_pair(SmoothPhasePair(_full(xi), _full(zeta)), DOMAIN, 17)
        assert got.a_t.shape == (17, 17)
        assert _bits(got.a_t, got.a_x) == _bits(want.a_t, want.a_x)


def test_from_functions_of_lower_rank_callables_stores_full_grids():
    xs, ts = np.linspace(-1, 1, 9), np.linspace(0, 1.5, 7)
    for a_t_of, a_x_of in _LOWER_RANK:
        got = PotentialField.from_functions(a_t_of, a_x_of, xs, ts)
        want = PotentialField.from_functions(_full(a_t_of), _full(a_x_of), xs, ts)
        assert _bits(got.a_t, got.a_x) == _bits(want.a_t, want.a_x)
        for arr in (got.a_t, got.a_x):
            assert arr.shape == (7, 9) and arr.flags.writeable and arr.flags.c_contiguous
    f = lambda X, T: np.sin(X * T)
    same = PotentialField.from_functions(f, f, xs, ts)
    assert not np.shares_memory(same.a_t, same.a_x)
    with pytest.raises(GridError, match=r"a_x returned shape \(3,\)"):
        PotentialField.from_functions(f, lambda X, T: np.zeros(3), xs, ts)


def test_shared_callable_runs_once_per_row_block():
    """The residual samples one block of rows at a time, calling a callable
    shared by xi and zeta once per block; the potentials call it once."""
    calls = []

    def f(X, T):
        calls.append(T.size)
        return np.sin(1.3 * X) * np.cos(0.9 * T)

    pair = SmoothPhasePair(f, f)
    for res in (4, _BLOCK_ROWS, _BLOCK_ROWS + 1, 129):
        calls.clear()
        efield_invariance_residual(pair, DOMAIN, res)
        assert len(calls) == math.ceil(res / _BLOCK_ROWS)
        # the 3-row halo on both sides is sampled once: a block carries the
        # rows it shares with the next one
        assert sum(calls) == res + 6
        calls.clear()
        potentials_from_phase_pair(pair, DOMAIN, res)
        assert calls == [res]


def test_shared_callable_equals_two_equal_callables():
    f = _smooth_pair("symmetric", 1.0).xi
    shared, twins = SmoothPhasePair(f, f), SmoothPhasePair(f, lambda X, T: f(X, T))
    for res in (5, 64, 75):
        (top, field), (want_top, want) = (efield_invariance_residual(p, DOMAIN, res)
                                          for p in (shared, twins))
        assert top == want_top and _bits(field) == _bits(want)
        got, want = (potentials_from_phase_pair(p, DOMAIN, res) for p in (shared, twins))
        assert _bits(got.a_t, got.a_x) == _bits(want.a_t, want.a_x)


def test_residual_peak_memory_is_bounded():
    """tracemalloc peak of one res-1024 residual (numpy 2.4): 10.5 MiB, of
    which the 8 MiB field is most; 10.1 MiB when the stencils ran on
    views trimmed to the kept columns, 16.9 MiB when the maximum took
    ``abs`` of the whole field at once, 48.6 MiB when the whole haloed grid
    was sampled up front.  The cap sits about 5 % above the reading."""
    pair = _smooth_pair("wave", 1.0)
    efield_invariance_residual(pair, DOMAIN, 8)
    tracemalloc.start()
    try:
        efield_invariance_residual(pair, DOMAIN, 1024)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 11.0, peak


def test_lattice_phases_track_continuum_derivatives():
    """Per-step coin shifts over tau approach the continuum time
    derivative of the dressing phase as the lattice is refined."""
    xi = lambda X, T: np.sin(0.6 * X) * np.cos(0.8 * T)
    d_dt = lambda X, T: -0.8 * np.sin(0.6 * X) * np.sin(0.8 * T)
    d_dx = lambda X, T: 0.6 * np.cos(0.6 * X) * np.cos(0.8 * T)
    x_star, t_star = 0.5, 0.5
    errs_t, errs_x = [], []
    for h in (0.1, 0.05, 0.025):
        units = UnitSystem(tau=h, c=1.0)
        phases = lattice_phases_from_smooth(
            SmoothPhasePair(xi=xi, zeta=xi), units)
        dressed = transform_coin_field(CoinAngles(theta=0.7), phases)
        n, t = round(x_star / h), round(t_star / h)
        _, alpha, _, chi = dressed.rows(np.array([n]), t)
        errs_t.append(abs(chi[0] / units.tau
                          - d_dt(x_star, t_star)))
        errs_x.append(abs(alpha[0] / units.ell
                          - d_dx(x_star, t_star)))
    assert errs_t[0] > errs_t[1] > errs_t[2]
    assert errs_x[0] > errs_x[1] > errs_x[2]
    assert errs_t[2] < 0.05 and errs_x[2] < 0.05


def test_lattice_phases_broadcast_time_only_pairs():
    """A pair that ignores X returns one value per row; it still samples as
    a full row, so a time-only phase shifts chi alone, by its step."""
    units = UnitSystem(tau=0.5, c=1.0)
    phases = lattice_phases_from_smooth(
        SmoothPhasePair(xi=lambda X, T: 0.3 * T, zeta=lambda X, T: 0.3 * T), units)
    xi, zeta = phases.rows(np.arange(-3, 4), 2)
    assert xi.shape == zeta.shape == (7,) and np.all(xi == 0.3)
    dressed = transform_coin_field(REF, phases)
    theta, alpha, beta, chi = dressed.materialize(-3, 3, 2)
    assert np.allclose(chi, REF.chi + 0.15) and np.allclose(alpha, REF.alpha)


def test_lattice_phases_sample_a_shared_callable_once_per_row():
    calls = []

    def xi(X, T):
        calls.append(T)
        return np.sin(X) * T

    xi_row, zeta_row = lattice_phases_from_smooth(SmoothPhasePair(xi, xi)).rows(
        np.arange(-3, 4), 2)
    assert len(calls) == 1
    assert xi_row.shape == (7,) and np.array_equal(xi_row, zeta_row)
    assert np.array_equal(xi_row, np.sin(np.arange(-3.0, 4.0)) * 2.0)


def test_lattice_phases_of_a_shared_callable_sample_once():
    """A verification samples a pair built from one callable once per row;
    two equal callables are each sampled, and give the same report."""
    calls = []

    def xi(X, T):
        calls.append(T)
        return 0.2 * np.sin(X) * T

    phases = lattice_phases_from_smooth(SmoothPhasePair(xi, xi))
    report = verify_exact_invariance(InitialState(0.6, 0.3), REF, phases, 12)
    assert len(calls) == 13
    assert report.max_component_deviation < 1e-13
    twins = lattice_phases_from_smooth(SmoothPhasePair(xi, lambda X, T: xi(X, T)))
    assert verify_exact_invariance(InitialState(0.6, 0.3), REF, twins, 12) == report
    assert len(calls) == 13 + 2 * 13


def test_lattice_phases_of_the_wrong_shape_raise_grid_error():
    pair = SmoothPhasePair(lambda X, T: np.sin(X), lambda X, T: np.zeros(3))
    with pytest.raises(GridError, match=re.escape(
            "zeta returned shape (3,), which does not broadcast to the grid (1, 7)")):
        lattice_phases_from_smooth(pair).rows(np.arange(-3, 4), 2)


def test_gauge_csv_emitters(tmp_path):
    xs = np.linspace(0, 1, 3)
    ts = np.linspace(0, 1, 4)
    p = PotentialField.from_functions(
        lambda X, T: X + T, lambda X, T: X - T, xs, ts)
    path = tmp_path / "pot.csv"
    save_potentials_csv(p, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,t,a_t,a_x"
    assert len(lines) == 1 + 12

    res_path = tmp_path / "res.csv"
    save_residual_csv(res_path, xs, ts, np.zeros((4, 3)))
    lines = res_path.read_text().splitlines()
    assert lines[0] == "x,t,residual"
    assert len(lines) == 1 + 12
