"""One row contract: a row is a scalar or one value per site, and every
consumer of a coin or phase field takes a row as its sampler returns it.
``evolve`` reads its coin on the live sites of each step only."""
import math

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
    UnsupportedParameterError,
    evolve,
    exact_transform,
    finite_difference_transform,
    save_coin_field_csv,
    save_phase_field_csv,
    transform_coin_field,
    verify_exact_invariance,
    verify_quasi_invariance,
)

# a row's value a + b t, and whether its sampler returns it as a scalar
_ROW = st.tuples(st.floats(-1.5, 1.5), st.floats(-0.3, 0.3), st.booleans())
# a row that does not change with t, as the quasi dressing needs
_STILL_ROW = st.tuples(st.floats(-1.5, 1.5), st.just(0.0), st.booleans())


def _sampler(specs, scalars: bool):
    """Rows ``a + b t`` of the ``specs``: with ``scalars`` a scalar where the
    spec asks for one, else ``np.full`` over the sites."""

    def rows(ns, t):
        return tuple(a + b * t if scalars and as_scalar else np.full(len(ns), a + b * t)
                     for a, b, as_scalar in specs)

    return rows


def _both(specs, make):
    """The field of ``specs`` with scalar rows where they ask for them, and
    with every row full."""
    return make(_sampler(specs, True)), make(_sampler(specs, False))


def _same_walk(a: SpinorField, b: SpinorField) -> bool:
    return (a.t == b.t and a.plus_amps.tobytes() == b.plus_amps.tobytes()
            and a.minus_amps.tobytes() == b.minus_amps.tobytes())


_INIT = st.builds(InitialState, st.floats(0.0, 1.5), st.floats(-3.0, 3.0))


@settings(max_examples=40, deadline=None)
@given(init=_INIT, coin=st.tuples(_ROW, _ROW, _ROW, _ROW), t_final=st.integers(0, 12))
def test_evolve_steps_scalar_rows(init, coin, t_final):
    """Scalar rows step as constant rows: bitwise so when chi is 0 at every
    step, since every coin entry is then one rounding of the same product;
    otherwise the scalar and array products of ``coin_entries`` may round
    apart, so the walks agree to rounding."""
    scalar, full = _both(coin, CoinField)
    got, want = evolve(init, scalar, t_final), evolve(init, full, t_final)
    assert _same_walk(evolve(init, scalar, t_final), got)
    if coin[3][:2] == (0.0, 0.0):
        assert _same_walk(got, want)
    else:
        assert np.allclose(got.plus_amps, want.plus_amps, rtol=0, atol=1e-14)
        assert np.allclose(got.minus_amps, want.minus_amps, rtol=0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(init=_INIT, coin=st.tuples(_ROW, _ROW, _ROW, _ROW), xi=_ROW, zeta=_ROW,
       t_final=st.integers(0, 10))
def test_transforms_take_scalar_rows(init, coin, xi, zeta, t_final):
    """Each transform of a field with scalar rows, under a pair with scalar
    rows, steps the walk the full rows step, bit for bit."""
    coins = _both(coin, CoinField)
    pairs = _both((xi, zeta), PhaseField.from_rows)
    common = _both((xi, xi), PhaseField.from_rows)
    for transform, (one, other) in ((transform_coin_field, pairs),
                                    (finite_difference_transform, pairs),
                                    (exact_transform, common)):
        walks = [evolve(init, transform(c, p), t_final) for c, p in zip(coins, (one, other))]
        assert _same_walk(*walks), transform.__name__


@settings(max_examples=30, deadline=None)
@given(init=_INIT, coin=st.tuples(_ROW, _ROW, _ROW, _ROW), xi=_ROW, still=_STILL_ROW,
       zeta=_STILL_ROW, t_final=st.integers(0, 10))
def test_verifications_take_scalar_rows(init, coin, xi, still, zeta, t_final):
    """Both verifications report the same deviations, to the bit, for
    scalar rows as for the same rows in full: the exact kind under a common
    phase ``xi``, the quasi kind under constant phases, and, where ``xi``
    drifts, with the same error."""
    coins = _both(coin, CoinField)
    for verify, pair in ((verify_exact_invariance, (xi, xi)),
                         (verify_quasi_invariance, (still, zeta)),
                         (verify_quasi_invariance, (xi, zeta))):
        outcomes = []
        for c, p in zip(coins, _both(pair, PhaseField.from_rows)):
            try:
                outcomes.append(verify(init, c, p, t_final).to_json())
            except PhaseConditionError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], verify.__name__


@settings(max_examples=20, deadline=None)
@given(coin=st.tuples(_ROW, _ROW, _ROW, _ROW), xi=_ROW, zeta=_ROW, t_max=st.integers(0, 4))
def test_table_savers_take_scalar_rows(tmp_path_factory, coin, xi, zeta, t_max):
    """A table saved from scalar rows is the table of the same rows in full."""
    out = tmp_path_factory.mktemp("tables")
    for save, fields in ((save_coin_field_csv, _both(coin, CoinField)),
                         (save_phase_field_csv, _both((xi, zeta), PhaseField.from_rows))):
        for name, f in zip(("scalar.csv", "full.csv"), fields):
            save(f, t_max, out / name)
        assert (out / "scalar.csv").read_bytes() == (out / "full.csv").read_bytes()


@pytest.mark.parametrize("run", [
    lambda pair: verify_exact_invariance(InitialState(0.3), CoinAngles(0.7), pair, 10),
    lambda pair: evolve(InitialState(0.3), exact_transform(CoinAngles(0.7), pair), 10),
], ids=["verify", "transform"])
@pytest.mark.parametrize("split, site", [(3, -3), (0, 0)])
def test_a_split_scalar_pair_names_its_site(run, split, site):
    """A common-phase pair of scalar rows that splits at step ``split``
    is refused at the first site read there."""
    pair = PhaseField.from_rows(lambda ns, t: (0.3, 0.3 + (t == split)))
    with pytest.raises(PhaseConditionError,
                       match=rf"differ by 1\.000e\+00 at \(n={site}, t={split}\)$"):
        run(pair)


def _spread_start(stride: int) -> SpinorField:
    """A state at t = 5 whose amplitudes are exact zeros outside ``|n| <= 1``:
    on the occupied sites ``-1, 1`` for stride 2, on ``-1, 0, 1`` for stride 1."""
    plus, minus = np.zeros((2, 11), dtype=np.complex128)
    sites = [4, 6] if stride == 2 else [4, 5, 6]
    plus[sites] = np.sqrt(0.5 / len(sites))
    minus[sites] = 1j * np.sqrt(0.5 / len(sites))
    return SpinorField(5, plus, minus)


@pytest.mark.parametrize("stride", [2, 1])
def test_evolve_never_reads_a_site_the_walk_holds_at_zero(stride):
    """The live sites of step t are ``|n| <= t - 4`` from this start, so a
    coin that is NaN everywhere else steps as the finite coin does, bit for
    bit; read on every stored site it would be refused at (n=-5, t=5)."""
    start = _spread_start(stride)
    assert start.parity_localized == (stride == 2)

    def coin(theta_of):
        return CoinField.from_functions(theta_of, lambda n, t: 0.2, lambda n, t: -0.1 * t,
                                        lambda n, t: 0.05 * n)

    finite = coin(lambda n, t: 0.7 + 0.01 * n)
    edged = coin(lambda n, t: 0.7 + 0.01 * n if abs(n) <= t - 4 else math.nan)
    assert _same_walk(evolve(start, edged, 30), evolve(start, finite, 30))
    with pytest.raises(UnsupportedParameterError, match=r"^theta is not finite at \(n=-5, t=5\)$"):
        edged.materialize(-5, 5, 5, stride)


def test_a_flushing_walk_reads_fewer_sites():
    """From one site the live window of a walk shrinks only where it
    flushes an underflowed end site.  At theta = 1.45 the tails underflow
    well before T = 600, so each callable runs on fewer than the T (T + 1) / 2
    occupied sites the steps would read without flushing."""
    t_final, calls = 600, []

    def theta(n, t):
        calls.append((n, t))
        return 1.45

    coin = CoinField.from_functions(theta, lambda n, t: 0.0, lambda n, t: 0.01 * t,
                                    lambda n, t: 0.0)
    final = evolve(InitialState(0.6, 0.3), coin, t_final)
    assert len(calls) < t_final * (t_final + 1) // 2
    # the first steps read every occupied site, the last ones fewer
    assert calls[:3] == [(0, 0), (-1, 1), (1, 1)]
    assert sum(t == t_final - 1 for _, t in calls) < t_final
    assert abs(final.norm() - 1.0) < 1e-12
