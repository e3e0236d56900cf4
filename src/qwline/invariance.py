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
from .errors import InputError, PhaseConditionError, first_fault
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
    raise PhaseConditionError(f"{checks[k][0]} {results[k][0][i]:.3e} at (n={ns[i]}, t={t})")


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


def relative_phase_map(state: SpinorField, floor: float = _PAIR_PHASE_FLOOR):
    """Phase of ``psi_plus conj(psi_minus)`` where both components carry weight.

    Returns ``(sites, phases)``; sites where either modulus is at or below
    ``floor`` are dropped since their phase is numerical noise.
    """
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


def _sample_chunk(base, phases, steps, ends, rows, coin, pair, dressing):
    """Sample base-coin row t, then phase row t + 1, of each step t in
    ``steps``, once each.

    Step i, at t = ``steps[i]``, fills the t + 1 cells ending at offset
    ``ends[i]`` of the packed ``coin`` rows and of ``pair``, which takes
    xi, zeta of row t (``rows`` for the first step) at n, then xi of row
    t + 1 at n + 1 and zeta at n - 1.  Rows t + 1, of t + 2 sites, end at
    ``ends[i] + i + 1``: a ``dressing`` takes phase row t + 1 whole there.
    Returns the phase rows of the last step sampled, the number of steps
    sampled and the exception that stopped the sampling, if one did.
    """
    (xi, zeta), done = rows, 0
    try:
        for t, end in zip(steps, ends):
            cells = slice(end - t - 1, end)
            coin[:, cells] = base.materialize(-t, t, t, 2)
            xi1, zeta1 = phases.rows(np.arange(-t - 1, t + 2, 2), t + 1)
            pair[:, cells] = xi, zeta, xi1[1:], zeta1[:-1]
            if dressing is not None:
                dressing[:, end + done - t - 1:end + done + 1] = xi1, zeta1
            xi, zeta = xi1, zeta1
            done += 1
    except Exception as exc:  # raised once the earlier steps are checked
        return (xi, zeta), done, exc
    return (xi, zeta), done, None


def _check_chunk(steps, ends, shifted, pair, twins, fault) -> None:
    """Raise the error the ``steps`` meet first, if any, with the message of
    the row check that names its first site; then raise ``fault``, the
    error that stopped the chunk's sampling, if one did.

    Per step t, in order: the characteristics of the packed ``pair`` rows,
    or else ``zeta == xi`` on the packed rows t + 1 of ``twins`` (both laid
    out as in :func:`_sample_chunk`); then the packed dressed coin ``shifted``
    being finite.  One pass per check covers the whole chunk; only when one
    fails, or sampling raised, are the steps replayed one at a time.
    """
    a, b = twins if pair is None else (pair[2:], pair[:2])
    if fault is None and _condition(a, b)[1].all() and np.isfinite(shifted[1:]).all():
        return
    for i, (t, end) in enumerate(zip(steps, ends)):
        cells, ns = slice(end - t - 1, end), np.arange(-t, t + 1, 2)
        if pair is not None:
            _require_condition(ns, t, (_RIGHT_MOVING, pair[2, cells], pair[0, cells]),
                               (_LEFT_MOVING, pair[3, cells], pair[1, cells]))
        else:
            _require_condition(np.arange(-t - 1, t + 2, 2), t + 1,
                               (_COMMON_PHASE, *twins[:, end + i - t - 1:end + i + 1]))
        _require_finite(ns, t, [row[cells] for row in shifted])
    if fault is not None:
        raise fault


def _step_chunk(steps, ends, amps, last, walk, dressed) -> None:
    """Step a walk under the coin entries ``walk`` and its dressed copy
    under ``dressed`` over the ``steps``, from the rows ``last`` into the
    first rows of ``amps``, then from each row into the next.  Entries and
    rows are packed as in :func:`_sample_chunk`; ``walk`` may be the four
    scalars of a constant coin instead."""
    packed = np.ndim(walk[0]) > 0
    src = tuple(last)
    scratch = np.empty(steps[-1] + 1, dtype=np.complex128)
    for i, (t, end) in enumerate(zip(steps, ends)):
        cells = slice(end - t - 1, end)
        out = tuple(amps[:, end + i - t - 1:end + i + 1])
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


def _deviations(maxima) -> list:
    """One dict per step t = 0, 1, .. from ``maxima``, whose column t holds
    the largest of each row of :func:`_gaps` at step t's sites."""
    out = {"modulus": np.maximum(maxima[0], maxima[1]), "pmf": maxima[2], "phase_map": maxima[3]}
    if len(maxima) > 4:
        out |= {"component": np.maximum(maxima[4], maxima[5]),
                "relative_phase": np.maximum(maxima[6], maxima[7])}
    columns = [v.tolist() for v in out.values()]
    return [{"t": t, **dict(zip(out, row))} for t, row in enumerate(zip(*columns))]


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


def _verify(kind, init, ref, phases, t_final, inputs) -> InvarianceReport:
    """Step a walk and its dressed copy side by side, and compare them one
    chunk of steps at a time (see :func:`_chunks`).

    Step t samples base-coin row t, then phase row t + 1, each once.  Only
    that is done step by step: a chunk is sampled first, its rows packed
    one after another, and then checked in one pass per check, the
    characteristics of row t + 1 against row t (``quasi``) or ``zeta ==
    xi`` on row t + 1 (``exact``; row 0 is checked as it is sampled), both
    by :func:`_condition`.  The chunk's dressed coin is formed and checked
    finite, and its coin entries taken, at once.
    If sampling step s raises, the checks of the chunk's steps before s run
    first, so every error is the one the steps taken in order meet first.
    Both walks then step from the last rows of the chunk before into the
    chunk's packed amplitude rows t + 1.  Their :func:`_gaps` are taken as
    the rows stand and ``np.maximum.reduceat`` keeps each step's largest,
    so the comparisons raise nothing and hold no padding.
    """
    if t_final < 0:
        raise InputError(f"t_final must be non-negative, got {t_final}")
    base = CoinField.lift(ref)
    c = base.angles
    walk = None if c is None else coin_entries(c.theta, c.alpha, c.beta, c.chi)
    common = kind == "exact"
    origin = np.zeros(1, dtype=np.int64)
    rows = (_twin_checked(phases) if common else phases.rows)(origin, 0)
    # row 0 would otherwise be checked finite only within step 0's
    # dressed coin, and at T = 0 not at all
    _require_finite(origin, 0, rows, ("xi", "zeta"))
    start = localized_state(init)
    # amplitudes (plus, minus, dressed plus, dressed minus) of the step
    # before a chunk
    last = np.array([start.plus_amps, start.minus_amps,
                     start.plus_amps * _turn(rows[0]), start.minus_amps * _turn(rows[1])])
    maxima = np.empty((8 if common else 4, t_final + 1))
    maxima[:, :1] = _gaps(last, np.array(rows) if common else None)
    for steps in _chunks(t_final):
        ends = list(accumulate(range(steps.start + 1, steps.stop + 1)))
        # one buffer per chunk: coin and pair rows of k cells, then the
        # dressing and amplitude rows of w.  As separate arrays, glibc gave
        # a chunk's memory back to the system and faulted it in again for
        # the next: 273 000 minor page faults in an exact T = 4000
        # verification, against about 30 000 with one buffer
        k, w = ends[-1], ends[-1] + len(steps)
        buf = np.empty(8 * k + 10 * w)
        coin, pair = buf[:4 * k].reshape(4, k), buf[4 * k:8 * k].reshape(4, k)
        dressing = buf[8 * k:8 * k + 2 * w].reshape(2, w) if common else None
        amps = buf[8 * k + 2 * w:].view(np.complex128).reshape(4, w)
        rows, done, fault = _sample_chunk(base, phases, steps, ends, rows, coin, pair, dressing)
        if fault is not None:  # check the steps sampled before it first
            steps, ends = steps[:done], ends[:done]
            sites = ends[-1] if done else 0
            coin, pair = coin[:, :sites], pair[:, :sites]
            dressing = dressing[:, :sites + done] if common else None
        # pair already holds row t + 1 at n + 1 (xi) and n - 1 (zeta)
        shifted = _shifted(coin, *pair, ..., ...)
        _check_chunk(steps, ends, shifted, None if common else pair, dressing, fault)
        _step_chunk(steps, ends, amps, last,
                    walk if walk is not None else coin_entries(*coin), coin_entries(*shifted))
        np.maximum.reduceat(_gaps(amps, dressing),
                            [end + i - t - 1 for i, (t, end) in enumerate(zip(steps, ends))],
                            axis=1, out=maxima[:, steps.start + 1:steps.stop + 1])
        last = amps[:, -steps.stop - 1:].copy()
    per_time = _deviations(maxima)

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
    (by :func:`_condition`, as part of step t, which samples row t + 1, so a
    coin fault at an earlier step surfaces first); the transformed coin
    then differs from ``ref`` in beta only.  Expected outcome: modulus and distribution
    deviations at rounding level at every step, while the relative-phase
    map drifts by ``xi - zeta``.
    """
    return _verify("quasi", init, ref, phases, t_final, inputs)


def verify_exact_invariance(
    init: InitialState,
    ref: CoinField | CoinAngles,
    phases: PhaseField,
    t_final: int,
    inputs: dict | None = None,
) -> InvarianceReport:
    """Run a walk and its common-phase dressed copy side by side.

    Requires ``zeta == xi`` over the support, checked by :func:`_condition`
    on each row before its first use, so a row ``t`` split raises
    :class:`PhaseConditionError` naming its first site.  Every reported
    deviation, componentwise distance included, should sit at rounding
    level for any ``xi`` whatsoever.
    """
    return _verify("exact", init, ref, phases, t_final, inputs)
