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
from itertools import accumulate

import numpy as np

from . import kernels
from .coin import CoinAngles, CoinField, PhaseField, _require_finite, coin_entries
from .errors import PhaseConditionError, first_fault, require_count
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
# reorderings of one phase, such as 0.1 * n * t, 0.1 * t * n, a * (n * t)
# or a * sin(n) * t against a * t * sin(n), differ by up to 1.84 eps times
# the larger |phase| over |n| <= t <= 4000; twice that is allowed
_CONDITION_REL = 4 * np.finfo(np.float64).eps
# relative-phase comparisons are meaningless where a component is (near) zero
_PAIR_PHASE_FLOOR = 1e-9
_COMPONENT_PHASE_FLOOR = 1e-12

_RIGHT_MOVING = ("xi must be constant along right-moving characteristics; "
                 "xi(n+1, t+1) - xi(n, t) =")
_LEFT_MOVING = ("zeta must be constant along left-moving characteristics; "
                "zeta(n-1, t+1) - zeta(n, t) =")
_COMMON_PHASE = "common-phase dressing needs zeta == xi, but they differ by"


def _condition(a, b):
    """The gaps ``|a - b|`` of rows ``a``, ``b`` and where the one phase
    condition rule holds: where ``a == b`` (infinite entries included), or
    the gap is finite, so both entries are, and at most ``_CONDITION_TOL``
    or ``_CONDITION_REL`` times the larger of ``|a|`` and ``|b|``."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(a - b)
        held = gap <= _CONDITION_TOL
        if not held.all():  # most rows pass here, in four numpy calls
            tol = _CONDITION_REL * np.maximum(np.abs(a), np.abs(b))
            held |= (a == b) | (np.isfinite(gap) & (gap <= tol))
    return gap, held


def _require_condition(ns, t: int, *checks) -> None:
    """Raise :class:`PhaseConditionError` at the first site of a bad gap.

    ``checks`` are ``(message, a, b)`` triples of rows over the sites
    ``ns``, each held to :func:`_condition`; where several fail at the same
    site the first triple is reported.  One pass per check decides; the bad
    site is looked for only when a check fails.
    """
    results = [_condition(a, b) for _, a, b in checks]
    if all(held.all() for _, held in results):
        return
    k, i = first_fault([held for _, held in results])
    raise PhaseConditionError(f"{checks[k][0]} {results[k][0].flat[i]:.3e} at (n={ns[i]}, t={t})")


def _twin_checked(phases: PhaseField):
    """``phases.rows``, raising :class:`PhaseConditionError` at the first
    site of each sampled row where ``zeta`` splits from ``xi``."""

    def rows(ns, t):
        row = phases.rows(ns, t)
        _require_condition(ns, t, (_COMMON_PHASE, *row))
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
        xi1, zeta1 = (np.broadcast_to(v, ahead.shape) for v in phase_rows(ahead, t + 1))
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
    phases included.  Each row a read samples raises
    :class:`PhaseConditionError` at its first site failing :func:`_condition`.
    No row is cached: each read samples phase rows t and t + 1 afresh.
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


def relative_phase_map(state: SpinorField):
    """Phase of ``psi_plus conj(psi_minus)`` where both components carry weight.

    Returns ``(sites, phases)``; sites where either modulus is at or below
    ``_PAIR_PHASE_FLOOR`` are dropped since their phase is numerical noise.
    """
    floor = _PAIR_PHASE_FLOOR
    keep = (np.abs(state.plus_amps) > floor) & (np.abs(state.minus_amps) > floor)
    ns = state.n_values[keep]
    phases = np.angle(state.plus_amps[keep] * np.conj(state.minus_amps[keep]))
    return ns, phases


# occupied sites per chunk of steps whose rows are sampled, checked,
# stepped and compared at once, packed one after another; a wider step is a
# chunk by itself.  Chunks of 8192 sites raised the T = 4000 exact
# verification's tracemalloc peak from 3.29 to 3.90 MiB
_CHUNK_SITES = 4096


def _chunks(t_final: int):
    """Consecutive ranges of the steps ``0 .. t_final - 1`` whose coin rows
    of t + 1 occupied sites hold at most ``_CHUNK_SITES`` sites together,
    and never shorter than one step."""
    start = 0
    while start < t_final:
        stop, sites = start + 1, start + 1
        while stop < t_final and sites + stop + 1 <= _CHUNK_SITES:
            stop, sites = stop + 1, sites + stop + 1
        yield range(start, stop)
        start = stop


def _sample_chunk(base, phases, steps, offsets, coin, phase, ahead):
    """Sample base-coin row t, then phase row t + 1, of each step t in
    ``steps``, once each, into one packed layout.

    Step i, at t = ``steps[i]``, fills the t + 1 cells from offset
    ``offsets[i]`` to ``offsets[i + 1]`` of the ``coin`` rows, where
    ``ahead`` takes xi of row t + 1 at n + 1 and zeta at n - 1.  ``phase``
    opens with the carried row ``steps.start`` and takes each row t + 1
    after row t, so row t lies on the cells of coin row t, and rows t + 1,
    ``steps.start + 1`` cells on, on those of amplitude rows t + 1.
    Returns the number of steps sampled and the exception that stopped the
    sampling, if one did.
    """
    try:
        for done, t in enumerate(steps):
            cells, end = slice(offsets[done], offsets[done + 1]), offsets[done + 1]
            rows = (*base.materialize(-t, t, t, 2),
                    *phases.rows(np.arange(-t - 1, t + 2, 2), t + 1))
            for row, v in zip((*coin[:, cells], *phase[:, end:end + t + 2]), rows, strict=True):
                row[...] = v  # a scalar row fills its cells
            ahead[:, cells] = phase[0, end + 1:end + t + 2], phase[1, end:end + t + 1]
    except Exception as exc:  # raised once the earlier steps are checked
        return done, exc
    return len(steps), None


def _check_chunk(steps, offsets, coin, phase, ahead, common):
    """The dressed coin of the ``steps``, whose rows :func:`_sample_chunk`
    packed, after raising the error they meet first, if any, with the
    message of the row check that names its first site.

    Per step t, in order: the characteristics of phase row t + 1 against row
    t, or, if ``common``, ``zeta == xi`` on row t + 1; then the dressed coin
    being finite.  One pass per check covers the steps and reads only their
    cells; only when one fails are the steps replayed one at a time.
    """
    k, skip = offsets[len(steps)], steps.start + 1
    now, nxt = phase[:, :k], ahead[:, :k]
    shifted = _shifted(coin[:, :k], *now, *nxt, ..., ...)
    a, b = phase[:, skip:skip + k + len(steps)] if common else (nxt, now)
    if _condition(a, b)[1].all() and np.isfinite(shifted[1:]).all():
        return shifted
    for i, t in enumerate(steps):
        cells, ns, end = slice(offsets[i], offsets[i + 1]), np.arange(-t, t + 1, 2), offsets[i + 1]
        if common:
            _require_condition(np.arange(-t - 1, t + 2, 2), t + 1,
                               (_COMMON_PHASE, *phase[:, end:end + t + 2]))
        else:
            _require_condition(ns, t, (_RIGHT_MOVING, ahead[0, cells], phase[0, cells]),
                               (_LEFT_MOVING, ahead[1, cells], phase[1, cells]))
        _require_finite(ns, t, [row[cells] for row in shifted])
    return shifted


def _step_chunk(steps, offsets, amps, last, walk, dressed) -> None:
    """Step a walk under the coin entries ``walk`` and its dressed copy
    under ``dressed`` over the ``steps``, from the rows ``last`` into the
    first rows of ``amps``, then from each row into the next.  Entries are
    packed as in :func:`_sample_chunk`, and the t + 2 amplitudes of rows
    t + 1 of step i from ``offsets[i] + i``; ``walk`` may be the four
    scalars of a constant coin instead."""
    packed = np.ndim(walk[0]) > 0
    src = tuple(last)
    scratch = np.empty(steps[-1] + 1, dtype=np.complex128)
    for i, t in enumerate(steps):
        cells = slice(offsets[i], offsets[i + 1])
        out = tuple(amps[:, offsets[i] + i:offsets[i + 1] + i + 1])
        kernels.walk_step(src[0], src[1], out[0], out[1], 2,
                          *([e[cells] for e in walk] if packed else walk), scratch)
        kernels.walk_step(src[2], src[3], out[2], out[3], 2, *[e[cells] for e in dressed],
                          scratch)
        src = out


def _turn(phase):
    """``np.exp(1j * phase)``, NaN without a warning where ``phase`` is not
    finite: the dressed coin's finite check then reports that phase."""
    with np.errstate(invalid="ignore"):
        return np.exp(1j * phase)


def _gaps(amps, dressing=None):
    """Gaps of a dressed walk from its walk at each site of the packed rows
    ``amps`` (plus, minus, dressed plus, dressed minus), one row per gap:
    in the plus and minus moduli, the distribution and the phase map.  Given
    the ``(xi, zeta)`` rows of a common ``dressing``, packed alike, also the
    distance of the dressed walk from the dressed undressed one in each
    component, then in the phase of each.  A phase gap where a modulus is at
    or below its floor counts as 0.0, which no gap is below, so a step with
    no site above the floors reads 0.0 in each step's maximum."""
    mods = np.abs(amps)
    squares = mods ** 2
    pa, pb = np.angle(amps[::2] * np.conj(amps[1::2]))
    gaps = np.empty((4 if dressing is None else 8, amps.shape[1]))
    np.abs(mods[2:] - mods[:2], out=gaps[:2])
    np.abs((squares[2] + squares[3]) - (squares[0] + squares[1]), out=gaps[2])
    np.abs(np.angle(np.exp(1j * (pb - pa))), out=gaps[3])
    gaps[3, ~(mods > _PAIR_PHASE_FLOOR).all(axis=0)] = 0.0
    if dressing is not None:
        dressed = amps[:2] * _turn(dressing)
        np.abs(amps[2:] - dressed, out=gaps[4:6])
        np.abs(np.angle(amps[2:] * np.conj(dressed)), out=gaps[6:])
        gaps[6:][~(np.abs(dressed) > _COMPONENT_PHASE_FLOOR)] = 0.0
    return gaps


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

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _verify(kind, init, ref, phases, t_final) -> InvarianceReport:
    """Step a walk and its dressed copy side by side, and compare them one
    chunk of steps at a time (see :func:`_chunks`).

    Step t samples base-coin row t, then phase row t + 1, each once, into
    one packed layout that stores each phase row once, as row t of the
    dressed coin and as the dressing of amplitude row t (see
    :func:`_sample_chunk`).  Only that is done step by step: the sampled
    steps are checked in one pass per check, the characteristics of row
    t + 1 against row t (``quasi``) or ``zeta == xi`` on row t + 1
    (``exact``; row 0 is checked as it is sampled), both by
    :func:`_condition`, and their dressed coin is formed, checked finite
    and its coin entries taken at once.  If sampling step s raises, the
    steps before s are checked so first, so every error is the one the
    steps taken in order meet first.  Both walks then step from the last
    rows of the chunk before into the chunk's packed amplitude rows t + 1.
    Their :func:`_gaps`, taken as the rows stand, raise nothing, and
    ``np.maximum.reduceat`` keeps each step's largest in the columns whose
    largest the report's ``max_*`` fields are.
    """
    require_count("t_final", t_final)
    base = CoinField.lift(ref)
    c = base.angles
    walk = None if c is None else coin_entries(c.theta, c.alpha, c.beta, c.chi)
    common = kind == "exact"
    origin = np.zeros(1, dtype=np.int64)
    # else row 0 is checked finite only in step 0's dressed coin, at T = 0 never
    rows = _require_finite(origin, 0, [np.broadcast_to(v, 1) for v in (
        _twin_checked(phases) if common else phases.rows)(origin, 0)], ("xi", "zeta"))
    start = localized_state(init)
    # amplitudes (plus, minus, dressed plus, dressed minus) and phase rows
    # of the step before a chunk
    last = np.array([start.plus_amps, start.minus_amps,
                     start.plus_amps * _turn(rows[0]), start.minus_amps * _turn(rows[1])])
    maxima = np.empty((8 if common else 4, t_final + 1))
    maxima[:, :1] = _gaps(last, np.array(rows) if common else None)
    for steps in _chunks(t_final):
        offsets = list(accumulate(range(steps.start + 1, steps.stop + 1), initial=0))
        # one buffer per chunk: amplitude rows of w cells, coin and ahead
        # rows of k, then the carried phase row and phase rows of w.  As
        # separate arrays, glibc faulted each chunk's memory in afresh:
        # 273 000 minor page faults in an exact T = 4000 verification, not 30 000
        k, w, skip = offsets[-1], offsets[-1] + len(steps), steps.start + 1
        buf = np.empty(10 * w + 6 * k + 2 * skip)
        amps = buf[:8 * w].view(np.complex128).reshape(4, w)
        coin = buf[8 * w:8 * w + 4 * k].reshape(4, k)
        ahead = buf[8 * w + 4 * k:8 * w + 6 * k].reshape(2, k)
        phase = buf[8 * w + 6 * k:].reshape(2, skip + w)
        phase[:, :skip] = rows
        done, fault = _sample_chunk(base, phases, steps, offsets, coin, phase, ahead)
        shifted = _check_chunk(steps[:done], offsets, coin, phase, ahead, common)
        if fault is not None:
            raise fault
        _step_chunk(steps, offsets, amps, last,
                    walk if walk is not None else coin_entries(*coin), coin_entries(*shifted))
        np.maximum.reduceat(_gaps(amps, phase[:, skip:] if common else None),
                            [o + i for i, o in enumerate(offsets[:-1])],
                            axis=1, out=maxima[:, steps.start + 1:steps.stop + 1])
        last, rows = amps[:, -steps.stop - 1:].copy(), phase[:, -steps.stop - 1:].copy()
    columns = dict(zip(("modulus", "pmf", "phase_map", "component", "relative_phase"),
                       [np.maximum(maxima[0], maxima[1]), maxima[2], maxima[3],
                        *np.maximum(maxima[4::2], maxima[5::2])]))
    worst = {key: column.max().item() for key, column in columns.items()}
    per_time = [{"t": t, **dict(zip(columns, row))}
                for t, row in enumerate(zip(*(column.tolist() for column in columns.values())))]
    return InvarianceReport(
        kind=kind, t_final=t_final, max_modulus_deviation=worst["modulus"],
        max_pmf_deviation=worst["pmf"], phase_map_divergence=worst["phase_map"],
        max_relative_phase_deviation=worst.get("relative_phase"),
        max_component_deviation=worst.get("component"), per_time_deviations=per_time)


def verify_quasi_invariance(
    init: InitialState,
    ref: CoinField | CoinAngles,
    phases: PhaseField,
    t_final: int,
) -> InvarianceReport:
    """Run a walk and its characteristic-riding dressed copy side by side.

    The dressing must satisfy ``xi(n+1, t+1) == xi(n, t)`` and
    ``zeta(n-1, t+1) == zeta(n, t)`` wherever the walk has support
    (by :func:`_condition`, as part of step t, which samples row t + 1, so a
    coin fault at an earlier step surfaces first); the transformed coin
    then differs from ``ref`` in beta only.  Expected outcome: modulus and distribution
    deviations at rounding level at every step, while the relative-phase
    map drifts by ``xi - zeta``.
    """
    return _verify("quasi", init, ref, phases, t_final)


def verify_exact_invariance(
    init: InitialState,
    ref: CoinField | CoinAngles,
    phases: PhaseField,
    t_final: int,
) -> InvarianceReport:
    """Run a walk and its common-phase dressed copy side by side.

    Requires ``zeta == xi`` over the support, checked by :func:`_condition`
    on each row before its first use, so a row ``t`` split raises
    :class:`PhaseConditionError` naming its first site.  Every reported
    deviation, componentwise distance included, should sit at rounding
    level for any ``xi`` whatsoever.
    """
    return _verify("exact", init, ref, phases, t_final)
