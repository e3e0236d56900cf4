import re

import numpy as np
import pytest

from qwline import (
    CoinAngles,
    CoinField,
    InitialState,
    PhaseConditionError,
    PhaseField,
    TableError,
    TotalityError,
    UnsupportedParameterError,
    bloch_vector,
    coin_matrix,
    evolve,
    exact_transform,
    load_coin_field_csv,
    load_phase_field_csv,
    save_coin_field_csv,
    save_phase_field_csv,
    verify_exact_invariance,
    verify_quasi_invariance,
)


def _random_angles(rng):
    return CoinAngles(*(rng.uniform(-np.pi, np.pi, size=4)))


def test_coin_angles_must_be_finite():
    with pytest.raises(ValueError, match="theta must be finite"):
        CoinAngles(theta=np.nan)
    with pytest.raises(ValueError, match="chi must be finite"):
        CoinAngles(theta=0.5, chi=np.inf)


def test_coin_matrix_is_unitary():
    rng = np.random.default_rng(42)
    eye = np.eye(2)
    for _ in range(25):
        u = coin_matrix(_random_angles(rng))
        assert np.allclose(u @ u.conj().T, eye, atol=1e-15)
        # Reflection-like coin: determinant is -e^{2i chi}.
        c = _random_angles(rng)
        u = coin_matrix(c)
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        assert abs(det + np.exp(2j * c.chi)) < 1e-14


def test_coin_matrix_limits():
    # theta = 0: pure chirality-preserving transport phases.
    u = coin_matrix(CoinAngles(theta=0.0, alpha=0.3, chi=0.1))
    assert u[0, 1] == 0 and u[1, 0] == 0
    assert u[0, 0] == pytest.approx(np.exp(1j * 0.4))
    assert u[1, 1] == pytest.approx(-np.exp(1j * (0.1 - 0.3)))
    # Balanced coin with trivial phases.
    h = coin_matrix(CoinAngles(theta=np.pi / 4))
    r = 1 / np.sqrt(2)
    assert np.allclose(h, [[r, r], [r, -r]], atol=1e-15)


def test_bloch_vector_reproduces_coin():
    """Contracting the unit vector with the Pauli triple gives the coin."""
    paulis = np.array([[[0, 1], [1, 0]],
                       [[0, -1j], [1j, 0]],
                       [[1, 0], [0, -1]]], dtype=complex)
    rng = np.random.default_rng(5)
    for _ in range(10):
        beta, theta = rng.uniform(-np.pi, np.pi, size=2)
        u = bloch_vector(beta, theta)
        assert abs(np.dot(u, u) - 1.0) < 1e-14
        contracted = np.einsum("k,kij->ij", u, paulis)
        expected = coin_matrix(CoinAngles(theta=theta, beta=beta))
        assert np.allclose(contracted, expected, atol=1e-14)
    assert bloch_vector(0.0, 0.0) == pytest.approx([0.0, 0.0, 1.0])


def test_homogeneous_field_materialize():
    c = CoinAngles(theta=0.7, alpha=-0.2, beta=1.1, chi=0.05)
    f = CoinField.homogeneous(c)
    th, al, be, ch = f.materialize(-3, 3, t=9)
    assert np.all(th == 0.7) and np.all(al == -0.2)
    assert np.all(be == 1.1) and np.all(ch == 0.05)
    assert th.shape == (7,)
    assert f.rows(np.array([12]), 99)[0][0] == 0.7


def test_from_functions_materialize_matches_closures():
    f = CoinField.from_functions(
        theta_of=lambda n, t: 0.3 + 0.01 * n,
        alpha_of=lambda n, t: 0.1 * t,
        beta_of=lambda n, t: 0.02 * n * t,
        chi_of=lambda n, t: 0.0,
    )
    th, al, be, ch = f.materialize(-2, 2, t=5)
    assert th == pytest.approx([0.28, 0.29, 0.30, 0.31, 0.32])
    assert np.all(al == 0.5)
    assert be == pytest.approx([-0.2, -0.1, 0.0, 0.1, 0.2])
    assert np.all(ch == 0.0)


def test_materialize_names_non_finite_site():
    f = CoinField.from_functions(
        theta_of=lambda n, t: np.nan if n == 1 else 0.5,
        alpha_of=lambda n, t: 0.0,
        beta_of=lambda n, t: 0.0,
        chi_of=lambda n, t: 0.0,
    )
    with pytest.raises(ValueError, match=r"theta is not finite at \(n=1, t=4\)"):
        f.materialize(-4, 4, t=4)


def test_materialize_names_the_first_site_then_its_first_parameter():
    """With theta bad at a later site than alpha, the earlier site wins."""
    f = CoinField.from_functions(
        theta_of=lambda n, t: np.nan if n == 3 else 0.5,
        alpha_of=lambda n, t: np.nan if n == -1 else 0.0,
        beta_of=lambda n, t: 0.0,
        chi_of=lambda n, t: 0.0,
    )
    with pytest.raises(UnsupportedParameterError,
                       match=r"^alpha is not finite at \(n=-1, t=0\)$"):
        f.materialize(-4, 4, t=0)


@pytest.mark.parametrize("run", ["evolve", "verify_exact_invariance"])
def test_complex_coin_rows_are_refused(run):
    """A complex row, even one whose values have no imaginary part, names
    its parameter and step; with two complex rows the first one wins.
    Unchecked, the first coin walks off the unit norm (1.22 after 5 steps)."""
    cases = [
        ((np.full(7, 0.7 + 0.1j), 0.0, 0.0, 0.0), "theta is complex at t=0"),
        ((0.7, 0.0, np.zeros(7, dtype=complex), 0.0), "beta is complex at t=0"),
        ((0.7, 0.1j, 0.0, 0.2j), "alpha is complex at t=0"),
    ]
    for row, message in cases:
        f = CoinField(lambda ns, t, row=row: row)
        with pytest.raises(UnsupportedParameterError, match=f"^{re.escape(message)}: "):
            if run == "evolve":
                evolve(InitialState(eta=0.3), f, 5)
            else:
                verify_exact_invariance(InitialState(eta=0.3), f, PhaseField.constant(0.2), 5)


def test_only_a_homogeneous_field_carries_angles():
    """``angles`` turns on the constant-coin path, so no caller can set it
    beside rows that say otherwise."""
    c = CoinAngles(0.3, 0.1, 0.2, 0.4)
    lifted = CoinField.homogeneous(c)
    with pytest.raises(TypeError):
        CoinField(lifted.rows, CoinAngles(1.2))
    assert lifted.angles == CoinField.lift(c).angles == c
    assert CoinField(lifted.rows).angles is None


def test_phase_field_constructors():
    const = PhaseField.constant(0.25)
    assert const.rows(np.array([3]), 7)[0][0] == 0.25
    assert const.rows(np.array([-1]), 0)[1][0] == 0.25
    two = PhaseField.constant(0.1, 0.2)
    assert two.rows(np.array([0]), 0)[1][0] == 0.2

    calls = []

    def shared_of(n, t):
        calls.append((n, t))
        return 0.5 * n - t

    # one callable is sampled once per row, its row returned as both components
    shared = PhaseField.symmetric(shared_of)
    xi, zeta = shared.rows(np.arange(-2, 3), 1)
    assert xi is zeta and len(calls) == 5
    xi, zeta = shared.rows(np.array([4]), 1)
    assert zeta[0] == xi[0] == 1.0

    # distinct callables are each sampled, even when equal-valued
    split = PhaseField(lambda n, t: 1.0, lambda n, t: 1.0)
    xi, zeta = split.rows(np.arange(3), 0)
    assert xi is not zeta and np.array_equal(xi, zeta)


def test_constant_phase_pairs_are_checked_by_their_rows():
    """One constant, two equal constants and a row sampler of equal rows
    all pass the common-phase check, an infinite common phase failing the
    dressed coin's finite check instead, and a verification's check of
    phase row 0; two different constants split at the first site read."""
    init, coin = InitialState(eta=0.3), CoinAngles(0.8)
    rows = lambda ns, t: (np.zeros(len(ns)),) * 2  # noqa: E731
    for pair in (PhaseField.constant(0.3), PhaseField.constant(0.3, 0.3), PhaseField.from_rows(rows)):
        assert verify_exact_invariance(init, coin, pair, 5).max_component_deviation < 1e-13
    for pair in (PhaseField.constant(np.inf), PhaseField.constant(np.inf, np.inf),
                 PhaseField.constant(-np.inf)):
        with pytest.raises(UnsupportedParameterError,
                           match=r"^alpha is not finite at \(n=-2, t=0\)$"):
            exact_transform(coin, pair).materialize(-2, 2, 0)
        # the suite turns a RuntimeWarning into an error, so one raised on
        # the way would surface here instead of the finite check's message
        for verify in (verify_exact_invariance, verify_quasi_invariance):
            with pytest.raises(UnsupportedParameterError,
                               match=r"^xi is not finite at \(n=0, t=0\)$"):
                verify(init, coin, pair, 5)
    for (xi, zeta), gap in (((0.1, 0.2), "1.000e-01"), ((np.inf, 0.0), "inf")):
        with pytest.raises(PhaseConditionError, match=re.escape(f"differ by {gap} at (n=-2, t=0)")):
            exact_transform(coin, PhaseField.constant(xi, zeta)).materialize(-2, 2, 0)


def test_coin_csv_round_trip(tmp_path):
    f = CoinField.from_functions(
        theta_of=lambda n, t: 0.4 + 0.003 * n,
        alpha_of=lambda n, t: 0.01 * t - 0.002 * n,
        beta_of=lambda n, t: 0.1 * t,
        chi_of=lambda n, t: -0.05,
    )
    path = tmp_path / "coin.csv"
    save_coin_field_csv(f, t_max=6, path=path)
    g = load_coin_field_csv(path)
    ns = np.arange(-6, 7)
    for t in range(7):
        for got, want in zip(g.rows(ns, t), f.rows(ns, t), strict=True):
            assert np.array_equal(got, want)


def test_tabulated_lookup_outside_window(tmp_path):
    path = tmp_path / "coin.csv"
    save_coin_field_csv(CoinField.homogeneous(CoinAngles(0.5)), t_max=3, path=path)
    g = load_coin_field_csv(path)
    with pytest.raises(TotalityError, match=r"\(n=0, t=4\)"):
        g.rows(np.array([0]), 4)
    with pytest.raises(TotalityError, match=r"\(n=4, t=2\)"):
        g.rows(np.array([4]), 2)


def test_table_rows_name_first_site_outside(tmp_path):
    path = tmp_path / "coin.csv"
    save_coin_field_csv(CoinField.homogeneous(CoinAngles(0.5)), t_max=3, path=path)
    g = load_coin_field_csv(path)
    theta, *_ = g.rows(np.arange(-3, 4), 3)
    assert np.all(theta == 0.5)
    with pytest.raises(TotalityError, match=r"\(n=4, t=2\)"):
        g.rows(np.arange(1, 7), 2)
    with pytest.raises(TotalityError, match=r"\(n=-5, t=0\)"):
        g.materialize(-5, 5, 0, stride=2)
    with pytest.raises(TotalityError, match=r"\(n=-1, t=4\)"):
        g.rows(np.arange(-1, 2), 4)


def test_phase_csv_round_trip(tmp_path):
    f = PhaseField(
        xi_of=lambda n, t: 0.05 * (n - t),
        zeta_of=lambda n, t: 0.05 * (n + t),
    )
    path = tmp_path / "phase.csv"
    save_phase_field_csv(f, t_max=5, path=path)
    g = load_phase_field_csv(path)
    ns = np.arange(-5, 6)
    for t in range(6):
        for got, want in zip(g.rows(ns, t), f.rows(ns, t), strict=True):
            assert np.array_equal(got, want)
    with pytest.raises(TotalityError):
        g.rows(np.array([0]), 6)


def test_table_savers_broadcast_scalar_rows(tmp_path):
    """A row sampler may return a scalar for a parameter; its table is the
    one written for the same field with full rows."""
    scalar = CoinField(lambda n, t: (0.7 + 0 * n, 0.1 * n, -0.2 * t, 0.05 * (n - t)))
    full = CoinField(lambda n, t: (0.7 + 0 * n, 0.1 * n, np.full(len(n), -0.2 * t), 0.05 * (n - t)))
    pairs = [(scalar, full, save_coin_field_csv),
             (PhaseField.from_rows(lambda n, t: (0.3, 0.1 * n)),
              PhaseField.from_rows(lambda n, t: (np.full(len(n), 0.3), 0.1 * n)),
              save_phase_field_csv)]
    for one, other, save in pairs:
        save(one, 5, tmp_path / "scalar.csv")
        save(other, 5, tmp_path / "full.csv")
        assert (tmp_path / "scalar.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_phase_table_saver_refuses_what_its_loader_refuses(tmp_path):
    """A non-finite phase is refused before the file is opened, in the words
    the loader uses for the table that would have been written."""
    pair = PhaseField(lambda n, t: np.nan if (n, t) == (1, 1) else 0.1 * n,
                      lambda n, t: 0.2 * t)
    path = tmp_path / "phase.csv"
    with pytest.raises(UnsupportedParameterError, match=r"^xi is not finite at \(n=1, t=1\)$"):
        save_phase_field_csv(pair, 2, path)
    assert not path.exists()
    path.write_text("n,t,xi,zeta\n" + "".join(
        f"{n},{t},{'nan' if (n, t) == (1, 1) else 0.1 * n},{0.2 * t}\n"
        for t in range(3) for n in range(-2, 3)))
    with pytest.raises(TableError, match=r"xi is not finite at \(n=1, t=1\)$"):
        load_phase_field_csv(path)


def test_window_csv_rejects_bad_inputs(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("n,t,theta\n")
    with pytest.raises(ValueError, match="unexpected header"):
        load_coin_field_csv(path)

    # A duplicated site and a missing one.
    path.write_text(
        "n,t,xi,zeta\n"
        "-1,0,0.0,0.0\n"
        "0,0,0.1,0.1\n"
        "0,0,0.2,0.2\n"
        "1,0,0.0,0.0\n"
    )
    with pytest.raises(ValueError, match=r"duplicate entry for \(n=0, t=0\)"):
        load_phase_field_csv(path)

    path.write_text(
        "n,t,xi,zeta\n"
        "-1,0,0.0,0.0\n"
        "0,0,0.1,0.1\n"
        "1,0,0.0,0.0\n"
        "-1,1,0.0,0.0\n"
        "0,1,0.0,0.0\n"
    )
    with pytest.raises(TotalityError):
        load_phase_field_csv(path)

    # Non-finite values: the first bad site in window order (t, then n) is
    # named, with the first bad column there.
    path.write_text(
        "n,t,xi,zeta\n"
        "-1,0,0.0,0.0\n"
        "0,0,0.1,0.1\n"
        "1,0,0.0,nan\n"
        "-1,1,0.0,0.0\n"
        "0,1,inf,nan\n"
        "1,1,0.0,0.0\n"
    )
    with pytest.raises(TableError, match=r"zeta is not finite at \(n=1, t=0\)"):
        load_phase_field_csv(path)

    path.write_text("n,t,xi,zeta\n0,0,0.1,zero\n")
    with pytest.raises(TableError, match="malformed row"):
        load_phase_field_csv(path)
