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
from itertools import accumulate

import numpy as np

from . import kernels
from .coin import CoinAngles, CoinField, PhaseField, _require_finite, coin_entries
from .errors import PhaseConditionError, first_fault
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


# stored sites per block of compared steps: each step's row of occupied
# sites, zero-padded to the block's widest; 512 KiB of amplitudes
_BLOCK_SITES = 8192
# occupied sites per run of steps whose rows are sampled, checked and turned
# into coin entries at once; a wider step is a run by itself.  Runs as large
# as whole blocks raised the T = 4000 exact verification's tracemalloc peak
# from 3.7 to 4.5 MiB, and their arrays, past the allocator's 128 KiB
# threshold, came back as fresh pages for every run
_RUN_SITES = 4096


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


def _runs(steps: range):
    """Consecutive ranges of ``steps`` whose rows of ``t + 1`` occupied
    sites hold at most ``_RUN_SITES`` sites together, and never shorter than
    one step."""
    start = steps.start
    while start < steps.stop:
        stop, sites = start + 1, start + 1
        while stop < steps.stop and sites + stop + 1 <= _RUN_SITES:
            stop, sites = stop + 1, sites + stop + 1
        yield range(start, stop)
        start = stop


def _first_bad(ok, ends):
    """The first of the rows packed one after another along the last axis
    of the mask ``ok``, ending at the offsets ``ends``, where ``ok`` is
    False, else None."""
    if ok.all():
        return None
    ok = ok.reshape(-1, ok.shape[-1]).all(axis=0)
    return int(np.searchsorted(ends, ok.argmin(), side="right"))


def _sample_run(base, phases, run, ends, rows, coin, pair, dressing, t0):
    """Sample base-coin row t, then phase row t + 1, of each step t in
    ``run``, once each.

    Step t's t + 1 sites end at offset ``ends[i]`` of the packed ``coin``
    rows and of ``pair``, which takes xi, zeta of row t (``rows`` for the
    first step) at n, then xi of row t + 1 at n + 1 and zeta at n - 1.  A
    ``dressing`` block takes row t + 1 whole, as its row t + 1 - t0.
    Returns the phase rows of the last step sampled, the number of steps
    sampled and the exception that stopped the sampling, if one did.
    """
    (xi, zeta), done = rows, 0
    try:
        for t, end in zip(run, ends):
            cells = slice(end - t - 1, end)
            coin[:, cells] = base.materialize(-t, t, t, 2)
            xi1, zeta1 = phases.rows(np.arange(-t - 1, t + 2, 2), t + 1)
            pair[:, cells] = xi, zeta, xi1[1:], zeta1[:-1]
            if dressing is not None:
                dressing[:, t + 1 - t0, :t + 2] = xi1, zeta1
            xi, zeta = xi1, zeta1
            done += 1
    except Exception as exc:  # raised once the earlier steps are checked
        return (xi, zeta), done, exc
    return (xi, zeta), done, None


def _check_run(run, ends, shifted, pair=None, twins=None) -> None:
    """Raise the error the steps ``run`` meet first, if any, with the
    message of the row check that names its first site.

    Per step t, in order: the characteristics of the packed ``pair`` rows
    (see :func:`_sample_run`), or ``zeta == xi`` on the zero-padded rows
    t + 1 of ``twins``; then the packed dressed coin ``shifted`` being
    finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if pair is not None:
            bad = _first_bad(np.abs(pair[2:] - pair[:2]) <= _CONDITION_TOL, ends)
        elif twins is not None:
            bad = _first_bad((np.abs(twins[0] - twins[1]) <= _CONDITION_TOL).ravel(),
                             twins.shape[-1] * np.arange(1, len(run) + 1))
        else:
            bad = None
    unfinite = _first_bad(np.isfinite(shifted[1:]), ends)
    if bad is not None and (unfinite is None or bad <= unfinite):
        t, end = run[bad], ends[bad]
        if pair is not None:
            cells = slice(end - t - 1, end)
            _require_small(np.arange(-t, t + 1, 2), t,
                           (_RIGHT_MOVING, pair[2, cells], pair[0, cells]),
                           (_LEFT_MOVING, pair[3, cells], pair[1, cells]))
        else:
            _require_small(np.arange(-t - 1, t + 2, 2), t + 1,
                           (_COMMON_PHASE, *twins[:, bad, :t + 2]))
    if unfinite is not None:
        t, end = run[unfinite], ends[unfinite]
        _require_finite(np.arange(-t, t + 1, 2), t, [a[end - t - 1:end] for a in shifted])


def _step_run(run, ends, t0, amps, last, walk, dressed) -> None:
    """Step a walk under the coin entries ``walk`` and its dressed copy
    under ``dressed`` over the steps ``run``, each from row t - t0 of the
    block ``amps`` (``last`` for the step before the block) into row
    t + 1 - t0.  Entries are packed as in :func:`_sample_run`; ``walk`` may
    be the four scalars of a constant coin instead."""
    packed = np.ndim(walk[0]) > 0
    src = tuple(amps[:, run.start - t0, :run.start + 1] if run.start >= t0 else last)
    for t, end in zip(run, ends):
        cells = slice(end - t - 1, end)
        out = tuple(amps[:, t + 1 - t0, :t + 2])
        kernels.walk_step(src[0], src[1], out[0], out[1], 2,
                          *([e[cells] for e in walk] if packed else walk))
        kernels.walk_step(src[2], src[3], out[2], out[3], 2, *[e[cells] for e in dressed])
        src = out


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


def _verify(kind, init, ref, phases, t_final, inputs) -> InvarianceReport:
    """Step a walk and its dressed copy side by side, and compare them one
    block of steps at a time (see :func:`_blocks`).

    Step t samples base-coin row t, then phase row t + 1, each once.  Only
    that is done step by step: a run of steps (see :func:`_runs`) is
    sampled first, its rows packed one after another, and then checked in
    one pass per check, the characteristics of row t + 1 against row t
    (``quasi``) or ``zeta == xi`` on row t + 1 for an ``exact`` pair that is
    not symmetric by construction (row 0 is checked as it is sampled).  The
    run's dressed coin is formed and checked finite, and its coin entries
    taken, at once.  If sampling step s raises, the checks of the run's
    steps before s run first, so every error is the one the steps taken in
    order meet first.  Both walks then step from row i into row i + 1 of
    the block's amplitude buffer, which :func:`_deviations` compares as it
    stands; the comparisons raise nothing.
    """
    if t_final < 0:
        raise ValueError(f"t_final must be non-negative, got {t_final}")
    base = CoinField.lift(ref)
    c = base.angles
    constant = None if c is None else coin_entries(c.theta, c.alpha, c.beta, c.chi)
    common = kind == "exact"
    twins = common and not phases.is_symmetric
    xi, zeta = (_twin_checked(phases) if common else phases.rows)(np.zeros(1, dtype=np.int64), 0)
    start = localized_state(init)
    # amplitudes (plus, minus, dressed plus, dressed minus) of the step before
    # a block, and the phase rows of the step before a run
    last = np.array([start.plus_amps, start.minus_amps,
                     start.plus_amps * np.exp(1j * xi), start.minus_amps * np.exp(1j * zeta)])
    rows = xi, zeta

    def take(run, t0, amps, dressing):
        """Take the steps t -> t + 1 for t in ``run`` into the block ``amps``
        (and ``dressing``), whose row r holds step t0 + r."""
        nonlocal rows
        ends = list(accumulate(range(run.start + 1, run.stop + 1)))
        coin, pair = np.empty((4, ends[-1])), np.empty((4, ends[-1]))
        rows, done, fault = _sample_run(base, phases, run, ends, rows, coin, pair, dressing, t0)
        if fault is not None:
            run, ends = run[:done], ends[:done]
            coin, pair = coin[:, :ends[-1] if done else 0], pair[:, :ends[-1] if done else 0]
        # pair already holds row t + 1 at n + 1 (xi) and n - 1 (zeta)
        shifted = _shifted(coin, *pair, ..., ...)
        ahead = run.start + 1 - t0
        _check_run(run, ends, shifted, None if common else pair,
                   dressing[:, ahead:ahead + done] if twins else None)
        if fault is not None:
            raise fault
        _step_run(run, ends, t0, amps, last,
                  constant if c is not None else coin_entries(*coin), coin_entries(*shifted))

    per_time = []
    for ts in _blocks(t_final):
        amps = np.zeros((4, len(ts), ts[-1] + 1), dtype=np.complex128)
        dressing = np.zeros((2, len(ts), ts[-1] + 1)) if common else None
        if not ts.start:
            amps[:, 0, :1] = last
            if common:
                dressing[:, 0, :1] = rows
        for run in _runs(range(max(ts.start - 1, 0), ts.stop - 1)):
            take(run, ts.start, amps, dressing)
        last = amps[:, -1].copy()
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
    (tolerance 1e-12, checked as part of step t, which samples row t + 1, so
    a coin fault at an earlier step surfaces first); the transformed coin
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

    Requires ``zeta == xi`` over the support (structural for pairs that are
    symmetric by construction, otherwise checked pointwise at 1e-12 on each row
    before its first use, so a row ``t`` split raises
    :class:`PhaseConditionError` naming its first site).  Every reported
    deviation, componentwise distance included, should sit at rounding
    level for any ``xi`` whatsoever.
    """
    return _verify("exact", init, ref, phases, t_final, inputs)
