"""Phase dressings of a walk and the coin fields that absorb them.

A pair of lattice phases ``xi(n, t)``, ``zeta(n, t)`` dresses a wave
function by ``psi_plus -> e^{i xi} psi_plus`` and ``psi_minus ->
e^{i zeta} psi_minus``.  The dressed function satisfies the same update
rules with the mixing angle untouched and the three coin phases shifted by
finite differences of the dressing along the two propagation directions
(see :func:`transform_coin_field`).  Two regimes are worth verifying:

* ``zeta == xi`` pointwise: the dressing is one local phase on the full
  spinor, so the original and dressed walks agree in every component up
  to that phase, and all observables match (``verify_exact_invariance``).
* ``xi`` constant along right-moving characteristics and ``zeta`` along
  left-moving ones: the coin shift lands entirely in the beta parameter.
  Every modulus still matches the undressed walk, but the relative phase
  between the two components picks up ``xi - zeta``
  (``verify_quasi_invariance``).
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .coin import CoinAngles, CoinField, PhaseField, _require_finite, coin_entries
from .errors import PhaseConditionError, first_fault
from .evolution import _Rows
from .state import InitialState, SpinorField, localized_state

__all__ = [
    "transform_coin_field",
    "exact_transform",
    "quasi_invariant_phases",
    "relative_phase_map",
    "InvarianceReport",
    "verify_quasi_invariance",
    "verify_exact_invariance",
]

_CONDITION_TOL = 1e-12
# relative-phase comparisons are meaningless where a component is (near) zero
_PAIR_PHASE_FLOOR = 1e-9
_COMPONENT_PHASE_FLOOR = 1e-12

_RIGHT_MOVING = ("xi must be constant along right-moving characteristics; "
                 "xi(n+1, t+1) - xi(n, t) =")
_LEFT_MOVING = ("zeta must be constant along left-moving characteristics; "
                "zeta(n-1, t+1) - zeta(n, t) =")
_COMMON_PHASE = "common-phase dressing needs zeta == xi, but they differ by"


def _require_small(ns, t: int, *checks) -> None:
    """Raise :class:`PhaseConditionError` at the first site of a bad gap.

    ``checks`` are ``(message, a, b)`` triples of rows over the sites
    ``ns``; the gap ``a - b`` fails unless its modulus is at most 1e-12 (so
    a NaN gap from non-finite phases fails), and where several fail at the
    same site the first triple is reported.  One pass per gap decides; the
    bad site is looked for only when a gap fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = [(message, a - b) for message, a, b in checks]
    if all((np.abs(gap) <= _CONDITION_TOL).all() for _, gap in gaps):
        return
    k, i = first_fault([np.abs(gap) <= _CONDITION_TOL for _, gap in gaps])
    message, gap = gaps[k]
    raise PhaseConditionError(f"{message} {abs(gap[i]):.3e} at (n={ns[i]}, t={t})")


def _twin_checked(phases: PhaseField):
    """``phases.rows``, raising :class:`PhaseConditionError` at the first
    site of each sampled row where ``zeta`` splits from ``xi``; a pair built
    from one callable passes structurally."""
    if phases.is_symmetric:
        return phases.rows

    def rows(ns, t):
        row = phases.rows(ns, t)
        _require_small(ns, t, (_COMMON_PHASE, *row))
        return row

    return rows


def _shifted(coin, xi0, zeta0, xi1, zeta1, right, left):
    """Coin row ``(theta, alpha, beta, chi)`` at step t shifted by a dressing:
    ``xi0``, ``zeta0`` at its sites n, ``xi1[right]`` at n + 1 and
    ``zeta1[left]`` at n - 1 of step t + 1."""
    theta, alpha, beta, chi = coin
    xi1, zeta1 = xi1[right], zeta1[left]
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            theta,
            alpha + 0.5 * (xi1 - xi0 - zeta1 + zeta0),
            beta + 0.5 * (zeta1 + zeta0 - xi1 - xi0),
            chi + 0.5 * (xi1 - xi0 + zeta1 - zeta0),
        )


def _dressed_field(ref: CoinField | CoinAngles, phase_rows,
                   offsets=(1, -1), formula=_shifted) -> CoinField:
    """The transformed coin for dressing phases given as a row sampler.

    Reads base-coin row t and phase row t over ``ns``, then phase row
    ``t + 1`` once over the sorted distinct sites ``ns + d`` for ``d`` in
    ``offsets``.  ``formula(coin, xi0, zeta0, xi1, zeta1, *at)`` forms the
    coin row, where ``at`` holds, per offset, the index of ``ns + d`` in
    the ``t + 1`` rows ``xi1``, ``zeta1``.
    """
    base = CoinField.lift(ref)

    def rows(ns, t):
        coin, (xi0, zeta0) = base.rows(ns, t), phase_rows(ns, t)
        ahead = np.unique(np.concatenate([ns + d for d in offsets]))
        xi1, zeta1 = phase_rows(ahead, t + 1)
        return formula(coin, xi0, zeta0, xi1, zeta1,
                       *(np.searchsorted(ahead, ns + d) for d in offsets))

    return CoinField(rows)


def transform_coin_field(ref: CoinField | CoinAngles, phases: PhaseField) -> CoinField:
    """Coin field under which the dressed walk evolves exactly.

    The plus update pulls its coin from site ``n - 1`` at time ``t`` and
    deposits at ``(n, t + 1)``, the minus update mirrors this, so matching
    the dressed evolution step by step fixes the shifts of ``chi``,
    ``alpha`` and ``beta`` uniquely and leaves ``theta`` alone.  This holds
    for every phase pair, with no smoothness or structure assumed.
    """
    return _dressed_field(ref, phases.rows)


def exact_transform(ref: CoinField | CoinAngles, phases: PhaseField) -> CoinField:
    """:func:`transform_coin_field` restricted to a common dressing phase.

    With ``zeta == xi`` the dressing is an overall local phase, so the
    dressed walk reproduces the original in every observable, relative
    phases included.  A pair built from one shared callable passes
    structurally; otherwise every ``zeta`` row a read samples is
    cross-checked against ``xi`` and the first site where they split by more
    than 1e-12 raises :class:`PhaseConditionError`.  No row is cached: each
    read samples phase rows t and t + 1 afresh.
    """
    return _dressed_field(ref, _twin_checked(phases))


def quasi_invariant_phases(rate: float) -> PhaseField:
    """Dressing whose whole effect on a constant coin is ``beta += rate * t``.

    ``xi`` depends only on ``n - t`` and ``zeta`` only on ``n + t``, both
    linear with slope ``rate / 2``.  Constancy along the characteristics
    makes the ``chi`` and ``alpha`` shifts in :func:`transform_coin_field`
    cancel exactly (identical float expressions, so the cancellation is
    bitwise), while ``beta`` gains ``rate`` per step.
    """

    def rows(ns, t):
        with np.errstate(over="ignore"):
            return 0.5 * rate * (ns - t), 0.5 * rate * (ns + t)

    return PhaseField.from_rows(rows)


def relative_phase_map(state: SpinorField, floor: float = _PAIR_PHASE_FLOOR):
    """Phase of ``psi_plus conj(psi_minus)`` where both components carry weight.

    Returns ``(sites, phases)``; sites where either modulus is at or below
    ``floor`` are dropped since their phase is numerical noise.
    """
    keep = (np.abs(state.plus_amps) > floor) & (np.abs(state.minus_amps) > floor)
    ns = state.n_values[keep]
    phases = np.angle(state.plus_amps[keep] * np.conj(state.minus_amps[keep]))
    return ns, phases


# stored sites per block of deferred comparisons: 640 KiB of block rows for
# an exact report, and about as much again in temporaries while comparing
_BLOCK_SITES = 8192


def _blocks(t_final: int):
    """Consecutive ranges of the steps ``0 .. t_final``, each as long as its
    rows of ``t + 1`` occupied sites, zero-padded to the widest, stay within
    ``_BLOCK_SITES`` sites, and never shorter than one step."""
    t0 = 0
    while t0 <= t_final:
        # the most steps k with k (t0 + k) <= _BLOCK_SITES
        k = (math.isqrt(t0 * t0 + 4 * _BLOCK_SITES) - t0) // 2
        ts = range(t0, min(t0 + max(k, 1), t_final + 1))
        yield ts
        t0 = ts.stop


def _deviations(ts, a, b, dressing=None) -> list:
    """Worst gaps of walk ``b`` from walk ``a`` at the occupied sites of each
    step in ``ts``, in moduli, distribution and phase map, one dict per step.

    ``a`` and ``b`` are ``(plus, minus)`` arrays whose row i holds the
    amplitudes of step ``ts[i]``, zero-padded on the right.  Given the
    ``(xi, zeta)`` rows of a common ``dressing``, also the worst distance of
    ``b`` from the dressed ``a``, componentwise and in phase.  A padded cell
    is a zero amplitude on both walks: it is below both phase floors and
    adds ``|0 - 0| = 0`` to every maximum, and a step with no site above
    the floors reads a phase gap of 0.0.
    """
    (ap, am), (bp, bm) = ((np.abs(plus), np.abs(minus)) for plus, minus in (a, b))
    keep = (np.array([ap, am, bp, bm]) > _PAIR_PHASE_FLOOR).all(axis=0)
    pa, pb = (np.angle(plus * np.conj(minus)) for plus, minus in (a, b))
    out = {
        "modulus": np.maximum(np.abs(bp - ap).max(axis=1), np.abs(bm - am).max(axis=1)),
        "pmf": np.abs((bp ** 2 + bm ** 2) - (ap ** 2 + am ** 2)).max(axis=1),
        "phase_map": np.abs(np.angle(np.exp(1j * (pb - pa)))).max(
            axis=1, initial=0.0, where=keep),
    }
    if dressing is not None:
        dressed = [amps * np.exp(1j * phase) for amps, phase in zip(a, dressing)]
        out["component"] = np.maximum(
            *(np.abs(got - ref).max(axis=1) for ref, got in zip(dressed, b)))
        out["relative_phase"] = np.maximum(*(
            np.abs(np.angle(got * np.conj(ref))).max(
                axis=1, initial=0.0, where=np.abs(ref) > _COMPONENT_PHASE_FLOOR)
            for ref, got in zip(dressed, b)))
    columns = [v.tolist() for v in out.values()]
    return [{"t": t, **dict(zip(out, row))} for t, *row in zip(ts, *columns)]


@dataclass(frozen=True)
class InvarianceReport:
    """Aggregated deviations between a reference walk and its dressed copy.

    ``per_time_deviations`` holds one dict per step (``t = 0 ..
    t_final``); the ``max_*`` fields are the worst entries over the run.
    Fields that only make sense for a common-phase dressing are ``None``
    in a ``kind == "quasi"`` report.
    """

    kind: str
    t_final: int
    max_modulus_deviation: float
    max_pmf_deviation: float
    phase_map_divergence: float
    max_relative_phase_deviation: float | None
    max_component_deviation: float | None
    per_time_deviations: list
    inputs: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _verify(kind, init, ref, phase_rows, t_final, inputs) -> InvarianceReport:
    """Step a walk and its dressed copy side by side, each on its own rows of
    occupied sites, and compare the rows one block of steps at a time.

    Step t samples base-coin row t, then phase row t + 1, each once.  Row
    t + 1 is checked as soon as it is sampled (``zeta == xi`` inside a
    twin-checked ``phase_rows``, the characteristics against row t for
    ``quasi``), before the dressed coin row is formed and checked finite.
    Each step's rows are copied into zero-padded block buffers (see
    :func:`_blocks`) and compared once per block (:func:`_deviations`); the
    comparisons raise nothing, so deferring them changes no error.
    """
    if t_final < 0:
        raise ValueError(f"t_final must be non-negative, got {t_final}")
    base = CoinField.lift(ref)
    c = base.angles
    constant = None if c is None else coin_entries(c.theta, c.alpha, c.beta, c.chi)
    ns = np.zeros(1, dtype=np.int64)
    xi, zeta = phase_rows(ns, 0)
    start = localized_state(init)
    dressed_start = SpinorField(t=0, plus_amps=start.plus_amps * np.exp(1j * xi),
                                minus_amps=start.minus_amps * np.exp(1j * zeta))
    walk, dressed = _Rows(start, t_final), _Rows(dressed_start, t_final)
    common = kind == "exact"

    def advance(t, ns, xi, zeta):
        """Step both walks from step t, whose phase rows over its sites ``ns``
        are ``xi``, ``zeta``; return the sites and phase rows of step t + 1."""
        coin = base.materialize(-t, t, t, 2)
        ns1 = np.arange(-t - 1, t + 2, 2)
        xi1, zeta1 = phase_rows(ns1, t + 1)
        if not common:
            _require_small(ns, t, (_RIGHT_MOVING, xi1[1:], xi), (_LEFT_MOVING, zeta1[:-1], zeta))
        shifted = _shifted(coin, xi, zeta, xi1, zeta1, np.s_[1:], np.s_[:-1])
        _require_finite(ns, t, shifted)
        walk.step(coin_entries(*coin) if c is None else constant)
        dressed.step(coin_entries(*shifted))
        return ns1, xi1, zeta1

    per_time = []
    for ts in _blocks(t_final):
        amps = np.zeros((4, len(ts), ts[-1] + 1), dtype=np.complex128)
        dressing = np.zeros((2, len(ts), ts[-1] + 1)) if common else None
        for i, t in enumerate(ts):
            if t:
                ns, xi, zeta = advance(t - 1, ns, xi, zeta)
            amps[:, i, :t + 1] = walk.plus, walk.minus, dressed.plus, dressed.minus
            if common:
                dressing[:, i, :t + 1] = xi, zeta
        per_time += _deviations(ts, amps[:2], amps[2:], dressing)

    def worst(key):
        return max(d[key] for d in per_time) if key in per_time[0] else None

    return InvarianceReport(
        kind=kind,
        t_final=t_final,
        max_modulus_deviation=worst("modulus"),
        max_pmf_deviation=worst("pmf"),
        phase_map_divergence=worst("phase_map"),
        max_relative_phase_deviation=worst("relative_phase"),
        max_component_deviation=worst("component"),
        per_time_deviations=per_time,
        inputs=dict(inputs or {}),
    )


def verify_quasi_invariance(
    init: InitialState,
    ref: CoinField | CoinAngles,
    phases: PhaseField,
    t_final: int,
    inputs: dict | None = None,
) -> InvarianceReport:
    """Run a walk and its characteristic-riding dressed copy side by side.

    The dressing must satisfy ``xi(n+1, t+1) == xi(n, t)`` and
    ``zeta(n-1, t+1) == zeta(n, t)`` wherever the walk has support
    (tolerance 1e-12, checked in step t as soon as row t + 1 is sampled, so
    a coin fault at an earlier step surfaces first); the transformed coin
    then differs from ``ref`` in beta only.  Expected outcome: modulus and distribution
    deviations at rounding level at every step, while the relative-phase
    map drifts by ``xi - zeta``.
    """
    return _verify("quasi", init, ref, phases.rows, t_final, inputs)


def verify_exact_invariance(
    init: InitialState,
    ref: CoinField | CoinAngles,
    phases: PhaseField,
    t_final: int,
    inputs: dict | None = None,
) -> InvarianceReport:
    """Run a walk and its common-phase dressed copy side by side.

    Requires ``zeta == xi`` over the support (structural for pairs built
    from one callable, otherwise checked pointwise at 1e-12 on each row
    before its first use, so a row ``t`` split raises
    :class:`PhaseConditionError` naming its first site).  Every reported
    deviation, componentwise distance included, should sit at rounding
    level for any ``xi`` whatsoever.
    """
    return _verify("exact", init, ref, _twin_checked(phases), t_final, inputs)
