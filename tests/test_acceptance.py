"""End-to-end acceptance checks.

Each test exercises one numbered criterion at its stated tolerance and
prints a single ``[PASS]``/``[FAIL]`` line (with the measured worst case
and wall time) straight to the terminal, bypassing capture, so a plain
``pytest -v`` run shows the full scoreboard.  Wall times are reported for
context, never asserted.
"""

import math
import time

import numpy as np

from qwline import (
    CoinAngles,
    CoinField,
    InitialState,
    PhaseField,
    PotentialField,
    SmoothPhasePair,
    efield_invariance_residual,
    electric_field,
    evolve,
    finite_difference_transform,
    fitted_slope,
    closed_form_amplitudes,
    lambda_explicit,
    lambda_table,
    localized_state,
    mean_position,
    pmf,
    smoothed_pmf,
    stationary_pmf,
    step_homogeneous,
    step_inhomogeneous,
    transform_coin_field,
    verify_exact_invariance,
)

THETAS = (math.pi / 8, math.pi / 4, math.pi / 3)


def _report(capsys, num, desc, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"[{status}] criterion {num}: {desc} ({detail}, {elapsed:.2f} s)")
    assert ok, f"criterion {num}: {desc} ({detail})"


def test_criterion_1_edge_site_probability(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for theta in THETAS:
        c = CoinAngles(theta)
        state = localized_state(InitialState())
        for t in range(1, 51):
            state = step_homogeneous(state, c)
            p_edge, _ = state.amplitudes_at(t)
            worst = max(worst, abs(abs(p_edge) ** 2 - math.cos(theta) ** (2 * t)))
    _report(capsys, 1, "edge-site probability equals cos(theta)^(2t)",
            worst <= 1e-12, f"worst {worst:.2e} <= 1e-12", t0)


def test_criterion_2_closed_form_and_kernel_routes(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(60)
    worst_amp = 0.0
    for _ in range(20):
        theta = rng.uniform(0.02, math.pi / 2 - 0.02)
        c = CoinAngles(theta, *rng.uniform(-math.pi, math.pi, size=3))
        init = InitialState(*rng.uniform(-math.pi, math.pi, size=2))
        t = int(rng.integers(1, 61))
        direct = closed_form_amplitudes(init, c, t)
        stepped = evolve(init, c, t)
        worst_amp = max(
            worst_amp,
            float(np.max(np.abs(direct.plus_amps - stepped.plus_amps))),
            float(np.max(np.abs(direct.minus_amps - stepped.minus_amps))),
        )
    worst_kernel = 0.0
    for theta in THETAS:
        table = lambda_table(theta, 100)
        for t in range(101):
            for n in range(-t, t + 1, 2):
                worst_kernel = max(
                    worst_kernel,
                    abs(lambda_explicit(n, t, theta) - table.value(n, t)),
                )
    ok = worst_amp <= 1e-10 and worst_kernel <= 1e-9
    _report(capsys, 2, "closed form matches stepping, both kernel routes agree",
            ok, f"amp {worst_amp:.2e} <= 1e-10, kernel {worst_kernel:.2e} <= 1e-9",
            t0)


def test_criterion_3_ballistic_slope_window(capsys):
    t0 = time.perf_counter()
    theta = eta = math.pi / 6
    _, records = evolve(InitialState(eta=eta, gamma=0.0), CoinAngles(theta),
                        40, record_trajectory=True)
    ts = np.array([r.t for r in records])
    xs = np.array([r.mean_x for r in records])
    slope = fitted_slope(ts, xs, t_min=20)
    ok = 0.45 <= slope <= 0.55
    _report(capsys, 3, "fitted mean-position slope sits in [0.45, 0.55]",
            ok, f"slope {slope:.6f}", t0)


def test_criterion_4_symmetric_start_stays_symmetric(capsys):
    t0 = time.perf_counter()
    worst_rho = 0.0
    worst_mean = 0.0
    for theta in THETAS:
        c = CoinAngles(theta)
        # phi = alpha + beta - gamma = pi/2.
        state = localized_state(InitialState(eta=math.pi / 4, gamma=-math.pi / 2))
        for _ in range(100):
            state = step_homogeneous(state, c)
            rho = pmf(state)
            worst_rho = max(worst_rho, float(np.max(np.abs(rho - rho[::-1]))))
            worst_mean = max(worst_mean, abs(mean_position(state)))
    ok = worst_rho <= 1e-12 and worst_mean <= 1.0
    _report(capsys, 4, "balanced start keeps the distribution mirror-symmetric",
            ok, f"pmf {worst_rho:.2e} <= 1e-12, |mean| {worst_mean:.2e} <= 1",
            t0)


def test_criterion_5_envelope_matches_smoothed_distribution(capsys):
    t0 = time.perf_counter()
    theta, eta, phi, t = math.pi / 4, math.pi / 16, math.pi, 200
    final = evolve(InitialState(eta=eta, gamma=-phi), CoinAngles(theta), t)
    smooth = smoothed_pmf(pmf(final))
    ns = final.n_values
    envelope = stationary_pmf(ns, t, theta, eta, phi)
    central = (np.abs(ns) <= 0.5 * t * math.cos(theta)) & ((ns + t) % 2 == 0)
    rel = np.abs(smooth[central] - envelope[central]) / envelope[central]
    worst = float(np.max(rel))
    _report(capsys, 5, "smoothed distribution tracks the long-time envelope",
            worst <= 0.10, f"max relative error {worst:.3f} <= 0.10", t0)


def test_criterion_6_beta_drift_preserves_moduli_not_phases(capsys):
    t0 = time.perf_counter()
    theta = eta = math.pi / 3
    rate = 0.1
    init = InitialState(eta=eta, gamma=0.0)
    base = CoinAngles(theta)
    drifting = CoinField.from_functions(
        lambda n, t: theta,
        lambda n, t: 0.0,
        lambda n, t: rate * t,
        lambda n, t: 0.0,
    )
    ref = localized_state(init)
    alt = localized_state(init)
    worst_mod = 0.0
    divergences = {}
    for t in range(1, 101):
        ref = step_homogeneous(ref, base)
        alt = step_inhomogeneous(alt, drifting)
        if t in (16, 100):
            worst_mod = max(
                worst_mod,
                float(np.max(np.abs(np.abs(alt.plus_amps) - np.abs(ref.plus_amps)))),
                float(np.max(np.abs(np.abs(alt.minus_amps) - np.abs(ref.minus_amps)))),
            )
            keep = (
                (np.abs(ref.plus_amps) > 1e-9) & (np.abs(ref.minus_amps) > 1e-9)
                & (np.abs(alt.plus_amps) > 1e-9) & (np.abs(alt.minus_amps) > 1e-9)
            )
            pa = np.angle(ref.plus_amps[keep] * np.conj(ref.minus_amps[keep]))
            pb = np.angle(alt.plus_amps[keep] * np.conj(alt.minus_amps[keep]))
            gap = np.abs(np.angle(np.exp(1j * (pb - pa))))
            divergences[t] = float(np.max(gap))
    ok = worst_mod <= 1e-11 and all(d > 0.01 for d in divergences.values())
    detail = (f"moduli {worst_mod:.2e} <= 1e-11, phase gaps "
              f"{divergences[16]:.3f}/{divergences[100]:.3f} > 0.01")
    _report(capsys, 6, "linear beta drift re-phases without moving probability",
            ok, detail, t0)


def test_criterion_7_bilinear_dressing_is_exact(capsys):
    t0 = time.perf_counter()
    ref = CoinAngles(theta=math.pi / 4, alpha=0.3, beta=-0.5, chi=0.2)
    init = InitialState(eta=math.pi / 5, gamma=0.3)
    worst = 0.0
    for a in (0.1, 0.3):
        phases = PhaseField.symmetric(lambda n, t: a * n * t)
        report = verify_exact_invariance(init, ref, phases, 50)
        worst = max(worst, report.max_component_deviation)
    _report(capsys, 7, "common bilinear dressing reproduces the walk exactly",
            worst <= 1e-11, f"worst component deviation {worst:.2e} <= 1e-11",
            t0)


def test_criterion_8_difference_and_pointwise_transforms_agree(capsys):
    t0 = time.perf_counter()
    ref = CoinAngles(theta=0.8, alpha=0.15, beta=-0.6, chi=0.25)
    families = (
        PhaseField(lambda n, t: 0.05 * (n - t),
                   lambda n, t: 0.05 * (n + t)),
        PhaseField.symmetric(lambda n, t: 1e-3 * n * t),
        PhaseField(
            lambda n, t: 0.3 * math.sin(0.05 * n) * math.cos(0.07 * t),
            lambda n, t: 0.2 * math.cos(0.03 * n + 0.11 * t)),
    )
    worst = 0.0
    for phases in families:
        a = transform_coin_field(ref, phases)
        b = finite_difference_transform(ref, phases)
        for t in range(100):
            _, alpha_a, beta_a, chi_a = a.materialize(-100, 100, t)
            _, alpha_b, beta_b, chi_b = b.materialize(-100, 100, t)
            worst = max(
                worst,
                float(np.max(np.abs(chi_a - chi_b))),
                float(np.max(np.abs(alpha_a - alpha_b))),
                float(np.max(np.abs(beta_a - beta_b))),
            )
    _report(capsys, 8, "difference-quotient transform equals the pointwise one",
            worst <= 1e-14, f"worst angle gap {worst:.2e} <= 1e-14", t0)


def test_criterion_9_electric_field_consistency(capsys):
    t0 = time.perf_counter()
    domain = (-1.0, 1.0, 0.0, 1.5)
    e0 = 1.5
    xs = np.linspace(domain[0], domain[1], 256)
    ts = np.linspace(domain[2], domain[3], 256)
    in_x = PotentialField.from_functions(
        lambda X, T: np.zeros_like(X), lambda X, T: e0 * T, xs, ts)
    in_t = PotentialField.from_functions(
        lambda X, T: -e0 * X, lambda X, T: np.zeros_like(X), xs, ts)
    gap = float(np.max(np.abs(electric_field(in_x) - electric_field(in_t))))

    shared = lambda X, T: np.sin(1.3 * X) * np.cos(0.9 * T) + 0.2 * X * T
    pairs = (
        SmoothPhasePair(xi=shared, zeta=shared),
        SmoothPhasePair(xi=lambda X, T: np.sin(X - T),
                        zeta=lambda X, T: np.cos(0.8 * (X + T))),
    )
    worst_factor = math.inf
    for pair in pairs:
        maxima = [efield_invariance_residual(pair, domain, r)[0]
                  for r in (32, 64, 128, 256)]
        for m0, m1 in zip(maxima, maxima[1:]):
            worst_factor = min(worst_factor, m0 / m1)
    ok = gap <= 1e-10 and worst_factor >= 3.5
    detail = (f"representation gap {gap:.2e} <= 1e-10, "
              f"slowest refinement factor {worst_factor:.2f} >= 3.5")
    _report(capsys, 9, "field reading is representation-independent and refines",
            ok, detail, t0)


def test_criterion_10_random_walks_keep_invariants(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240816)
    worst_drift = 0.0
    structure_ok = True
    for _ in range(200):
        c = CoinAngles(*rng.uniform(-math.pi, math.pi, size=4))
        init = InitialState(*rng.uniform(-math.pi, math.pi, size=2))
        t = int(rng.integers(1, 101))
        state = evolve(init, c, t)
        worst_drift = max(worst_drift, abs(state.norm() - 1.0))
        odd = np.arange(1, 2 * t + 1, 2)
        structure_ok = structure_ok and bool(
            np.all(state.plus_amps[odd] == 0)
            and np.all(state.minus_amps[odd] == 0)
            and state.plus_amps[0] == 0
            and state.minus_amps[-1] == 0
        )
    ok = worst_drift <= 1e-10 and structure_ok
    detail = (f"worst norm drift {worst_drift:.2e} <= 1e-10, "
              f"support zeros exact: {structure_ok}")
    _report(capsys, 10, "random walks stay normalized on the exact support",
            ok, detail, t0)
