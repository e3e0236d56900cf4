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
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .coin import CoinAngles, CoinField, PhaseField
from .errors import PhaseConditionError
from .evolution import step_inhomogeneous
from .observables import pmf
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
    same site the first triple is reported.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = [(message, a - b) for message, a, b in checks]
    bad = ~(np.abs([gap for _, gap in gaps]) <= _CONDITION_TOL)
    hits = np.flatnonzero(bad.any(axis=0))
    if hits.size:
        i = hits[0]
        message, gap = gaps[int(np.argmax(bad[:, i]))]
        raise PhaseConditionError(f"{message} {abs(gap[i]):.3e} at (n={ns[i]}, t={t})")


def _dressed_field(ref: CoinField | CoinAngles, phase_rows) -> CoinField:
    """The transformed coin for dressing phases given as a row sampler.

    Step ``t + 1`` is read once, over ``ns - 1`` and ``ns + 1`` together.
    """
    base = CoinField.lift(ref)

    def rows(ns, t):
        theta, alpha, beta, chi = base.rows(ns, t)
        xi0, zeta0 = phase_rows(ns, t)
        ahead = np.union1d(ns - 1, ns + 1)
        xi1, zeta1 = phase_rows(ahead, t + 1)
        xi1 = xi1[np.searchsorted(ahead, ns + 1)]
        zeta1 = zeta1[np.searchsorted(ahead, ns - 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            return (
                theta,
                alpha + 0.5 * (xi1 - xi0 - zeta1 + zeta0),
                beta + 0.5 * (zeta1 + zeta0 - xi1 - xi0),
                chi + 0.5 * (xi1 - xi0 + zeta1 - zeta0),
            )

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
    structurally; otherwise every sampled ``zeta`` row is cross-checked
    against ``xi`` and the first site where they split by more than 1e-12
    raises :class:`PhaseConditionError`.
    """
    if phases.is_symmetric:
        return transform_coin_field(ref, phases)

    def checked_rows(ns, t):
        xi, zeta = phases.rows(ns, t)
        _require_small(ns, t, (_COMMON_PHASE, xi, zeta))
        return xi, zeta

    return _dressed_field(ref, checked_rows)


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


def _dressed_start(init: InitialState, phases: PhaseField) -> SpinorField:
    base = localized_state(init)
    xi, zeta = phases.rows(np.zeros(1, dtype=np.int64), 0)
    return SpinorField(
        t=0,
        plus_amps=base.plus_amps * np.exp(1j * xi),
        minus_amps=base.minus_amps * np.exp(1j * zeta),
        parity_localized=True,
    )


def _pair_phase_divergence(a: SpinorField, b: SpinorField) -> float:
    floor = _PAIR_PHASE_FLOOR
    keep = (
        (np.abs(a.plus_amps) > floor)
        & (np.abs(a.minus_amps) > floor)
        & (np.abs(b.plus_amps) > floor)
        & (np.abs(b.minus_amps) > floor)
    )
    if not np.any(keep):
        return 0.0
    pa = np.angle(a.plus_amps[keep] * np.conj(a.minus_amps[keep]))
    pb = np.angle(b.plus_amps[keep] * np.conj(b.minus_amps[keep]))
    return float(np.max(np.abs(np.angle(np.exp(1j * (pb - pa))))))


def _compare_pair(a: SpinorField, b: SpinorField) -> dict:
    mod = max(
        float(np.max(np.abs(np.abs(b.plus_amps) - np.abs(a.plus_amps)))),
        float(np.max(np.abs(np.abs(b.minus_amps) - np.abs(a.minus_amps)))),
    )
    return {
        "t": a.t,
        "modulus": mod,
        "pmf": float(np.max(np.abs(pmf(b) - pmf(a)))),
        "phase_map": _pair_phase_divergence(a, b),
    }


def _component_comparison(a: SpinorField, b: SpinorField, phases: PhaseField) -> dict:
    """Worst componentwise distance of ``b`` from the dressed copy of ``a``."""
    t = a.t
    occ = np.arange(-t, t + 1, 2)
    idx = occ + t
    xi_vals, zeta_vals = phases.rows(occ, t)
    dressed_plus = a.plus_amps[idx] * np.exp(1j * xi_vals)
    dressed_minus = a.minus_amps[idx] * np.exp(1j * zeta_vals)
    comp = max(
        float(np.max(np.abs(b.plus_amps[idx] - dressed_plus))),
        float(np.max(np.abs(b.minus_amps[idx] - dressed_minus))),
    )
    errs = []
    for ref_vals, got_vals in ((dressed_plus, b.plus_amps[idx]),
                               (dressed_minus, b.minus_amps[idx])):
        keep = np.abs(ref_vals) > _COMPONENT_PHASE_FLOOR
        if np.any(keep):
            wrapped = np.angle(got_vals[keep] * np.conj(ref_vals[keep]))
            errs.append(float(np.max(np.abs(wrapped))))
    out = _compare_pair(a, b)
    out["component"] = comp
    out["relative_phase"] = max(errs) if errs else 0.0
    return out


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


def _verify(kind, init, ref, phases, t_final, inputs, compare) -> InvarianceReport:
    """Step a walk and its dressed copy side by side, comparing every step."""
    if t_final < 0:
        raise ValueError(f"t_final must be non-negative, got {t_final}")
    base = CoinField.lift(ref)
    dressed_coin = transform_coin_field(base, phases)
    ref_state = localized_state(init)
    dressed = _dressed_start(init, phases)
    per_time = [compare(ref_state, dressed)]
    for _ in range(t_final):
        ref_state = step_inhomogeneous(ref_state, base)
        dressed = step_inhomogeneous(dressed, dressed_coin)
        per_time.append(compare(ref_state, dressed))

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
    ``zeta(n-1, t+1) == zeta(n, t)`` wherever the walk has support (checked
    up front, tolerance 1e-12); the transformed coin then differs from
    ``ref`` in beta only.  Expected outcome: modulus and distribution
    deviations at rounding level at every step, while the relative-phase
    map drifts by ``xi - zeta``.
    """
    # the support row at t + 1 covers ns - 1 and ns + 1 and is step t + 1's ns
    xi, zeta = phases.rows(np.zeros(1, dtype=np.int64), 0)
    for t in range(t_final):
        ns = np.arange(-t, t + 1, 2)
        xi1, zeta1 = phases.rows(np.arange(-t - 1, t + 2, 2), t + 1)
        _require_small(ns, t, (_RIGHT_MOVING, xi1[1:], xi), (_LEFT_MOVING, zeta1[:-1], zeta))
        xi, zeta = xi1, zeta1
    return _verify("quasi", init, ref, phases, t_final, inputs, _compare_pair)


def verify_exact_invariance(
    init: InitialState,
    ref: CoinField | CoinAngles,
    phases: PhaseField,
    t_final: int,
    inputs: dict | None = None,
) -> InvarianceReport:
    """Run a walk and its common-phase dressed copy side by side.

    Requires ``zeta == xi`` over the support (structural for pairs built
    from one callable, otherwise checked pointwise at 1e-12).  Every
    reported deviation, componentwise distance included, should sit at
    rounding level for any ``xi`` whatsoever.
    """
    if not phases.is_symmetric:
        for t in range(t_final + 1):
            ns = np.arange(-t, t + 1, 2)
            _require_small(ns, t, (_COMMON_PHASE, *phases.rows(ns, t)))
    return _verify("exact", init, ref, phases, t_final, inputs,
                   partial(_component_comparison, phases=phases))
