import numpy as np
import pytest

from qwline import (
    CoinAngles,
    CoinField,
    GridError,
    PhaseField,
    PotentialField,
    SmoothPhasePair,
    UnitSystem,
    efield_invariance_residual,
    electric_field,
    finite_difference_transform,
    forward_differences,
    lattice_phases_from_smooth,
    potentials_from_phase_pair,
    potentials_from_transform,
    save_potentials_csv,
    save_residual_csv,
    transform_coin_field,
)

REF = CoinAngles(theta=0.8, alpha=0.15, beta=-0.6, chi=0.25)
# Spatial and temporal spacings intentionally differ so light-cone
# characteristics never line up with the grid diagonals.
DOMAIN = (-1.0, 1.0, 0.0, 1.5)


def test_unit_system_validation():
    u = UnitSystem()
    assert u.ell == u.tau == u.c == u.hbar_over_e == 1.0
    UnitSystem(ell=0.5, tau=0.25, c=2.0)
    with pytest.raises(ValueError, match="inconsistent"):
        UnitSystem(ell=2.0)
    with pytest.raises(ValueError, match="finite and positive"):
        UnitSystem(tau=0.0)
    with pytest.raises(ValueError, match="finite and positive"):
        UnitSystem(hbar_over_e=-1.0)


def test_forward_differences():
    assert forward_differences(lambda n, t: float(n * t), 2, 3) == (3.0, 2.0)
    assert forward_differences(lambda n, t: 7.0, 5, 1) == (0.0, 0.0)
    dn, dt = forward_differences(lambda n, t: float(n * n), -3, 0)
    assert dn == -5.0 and dt == 0.0


def _phase_families():
    # Three structurally different dressing pairs with moderate magnitudes.
    quasi = PhaseField.from_functions(
        lambda n, t: 0.05 * (n - t), lambda n, t: 0.05 * (n + t))
    bilinear = PhaseField.symmetric(lambda n, t: 1e-3 * n * t)
    wavy = PhaseField.from_functions(
        lambda n, t: 0.3 * np.sin(0.05 * n) * np.cos(0.07 * t),
        lambda n, t: 0.2 * np.cos(0.03 * n + 0.11 * t))
    return quasi, bilinear, wavy


def test_finite_difference_transform_matches_pointwise():
    """Difference-based and pointwise coin shifts agree to rounding."""
    for phases in _phase_families():
        a = transform_coin_field(REF, phases)
        b = finite_difference_transform(REF, phases)
        worst = 0.0
        for t in range(0, 40, 4):
            for n in range(-30, 31, 5):
                worst = max(
                    worst,
                    abs(a.chi_of(n, t) - b.chi_of(n, t)),
                    abs(a.alpha_of(n, t) - b.alpha_of(n, t)),
                    abs(a.beta_of(n, t) - b.beta_of(n, t)),
                )
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
        d_n, _ = forward_differences(lambda m, s: xi(m, s) - zeta(m - 1, s), n, t + 1)
        _, d_t = forward_differences(lambda m, s: xi(m, s) + zeta(m, s), n, t)
        chi = REF.chi + 0.5 * (d_n + d_t)
        d_n, _ = forward_differences(lambda m, s: xi(m, s) + zeta(m - 1, s), n, t + 1)
        _, d_t = forward_differences(lambda m, s: xi(m, s) - zeta(m, s), n, t)
        shift = 0.5 * (d_n + d_t)
        return REF.alpha + shift, REF.beta + (zeta(n, t) - xi(n, t)) - shift, chi

    for phases in _phase_families():
        for transform, formula in ((transform_coin_field, pointwise),
                                   (finite_difference_transform, differences)):
            f = transform(REF, phases)
            for t in (0, 7, 39):
                theta, *rows = f.materialize(-30, 30, t)
                want = [formula(phases.xi_of, phases.zeta_of, n, t) for n in range(-30, 31)]
                assert np.all(theta == REF.theta)
                assert np.array(rows).tobytes() == np.array(want, dtype=float).T.tobytes()


def test_phase_rows_are_sampled_once_per_step():
    """A shared callable is called once per site per row; the pointwise
    transform reads step t + 1 once over ns - 1 and ns + 1, and the
    difference form reads each of steps t, t + 1, t + 2 once over
    ns - 1 .. ns + 1, for each phase component."""
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
    for phases, names in ((shared, ("xi",)), (split, ("xi", "zeta"))):
        for transform, reads in (
            (transform_coin_field, [(ns, t), (np.arange(-6, 9), t + 1)]),
            (finite_difference_transform,
             [(np.arange(-6, 9), s) for s in (t, t + 1, t + 2)]),
        ):
            for log in calls.values():
                log.clear()
            transform(REF, phases).rows(ns, t)
            want = sorted((n, s) for sites, s in reads for n in sites)
            assert [sorted(calls[name]) for name in names] == [want] * len(names)
            assert all(len(sites) <= len(ns) + 2 for sites, _ in reads)


def test_finite_difference_transform_zero_phases():
    b = finite_difference_transform(REF, PhaseField.constant(0.0))
    assert b.chi_of(3, 7) == REF.chi
    assert b.alpha_of(-2, 1) == REF.alpha
    assert b.beta_of(0, 0) == REF.beta
    assert b.theta_of(5, 5) == REF.theta


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
    units = UnitSystem(ell=0.5, tau=0.5, c=1.0, hbar_over_e=1.0)
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


def test_lattice_phases_track_continuum_derivatives():
    """Per-step coin shifts over tau approach the continuum time
    derivative of the dressing phase as the lattice is refined."""
    xi = lambda X, T: np.sin(0.6 * X) * np.cos(0.8 * T)
    d_dt = lambda X, T: -0.8 * np.sin(0.6 * X) * np.sin(0.8 * T)
    d_dx = lambda X, T: 0.6 * np.cos(0.6 * X) * np.cos(0.8 * T)
    x_star, t_star = 0.5, 0.5
    errs_t, errs_x = [], []
    for h in (0.1, 0.05, 0.025):
        units = UnitSystem(ell=h, tau=h, c=1.0)
        phases = lattice_phases_from_smooth(
            SmoothPhasePair(xi=xi, zeta=xi), units)
        dressed = transform_coin_field(CoinAngles(theta=0.7), phases)
        n, t = round(x_star / h), round(t_star / h)
        errs_t.append(abs(dressed.chi_of(n, t) / units.tau
                          - d_dt(x_star, t_star)))
        errs_x.append(abs(dressed.alpha_of(n, t) / units.ell
                          - d_dx(x_star, t_star)))
    assert errs_t[0] > errs_t[1] > errs_t[2]
    assert errs_x[0] > errs_x[1] > errs_x[2]
    assert errs_t[2] < 0.05 and errs_x[2] < 0.05


def test_lattice_phases_broadcast_time_only_pairs():
    """A pair that ignores X returns one value per row; it still samples as
    a full row, so a time-only phase shifts chi alone, by its step."""
    units = UnitSystem(ell=0.5, tau=0.5, c=1.0)
    phases = lattice_phases_from_smooth(
        SmoothPhasePair(xi=lambda X, T: 0.3 * T, zeta=lambda X, T: 0.3 * T), units)
    xi, zeta = phases.rows(np.arange(-3, 4), 2)
    assert xi.shape == zeta.shape == (7,) and np.all(xi == 0.3)
    dressed = transform_coin_field(REF, phases)
    theta, alpha, beta, chi = dressed.materialize(-3, 3, 2)
    assert np.allclose(chi, REF.chi + 0.15) and np.allclose(alpha, REF.alpha)


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
