"""Stepping the walk forward in time.

One step sends each component across one lattice bond after mixing the two
components with the coin evaluated at the source site::

    psi_plus(n, t+1)  = e^{i chi} [ e^{i alpha} cos(theta) psi_plus(n-1, t)
                                   + e^{-i beta} sin(theta) psi_minus(n-1, t) ]
    psi_minus(n, t+1) = e^{i chi} [ e^{i beta}  sin(theta) psi_plus(n+1, t)
                                   - e^{-i alpha} cos(theta) psi_minus(n+1, t) ]

with all coin parameters taken at the source site and time ((n-1, t) above
for the plus component, (n+1, t) for the minus one).  No renormalization is
ever applied; norm drift stays at rounding level and is left observable as
a diagnostic.
"""
from __future__ import annotations

import numpy as np

from . import kernels
from .coin import CoinAngles, CoinField, coin_entries
from .errors import require_count
from .observables import record_from_amplitudes
from .state import InitialState, SpinorField, _off_parity_zero, localized_state

__all__ = ["step_homogeneous", "step_inhomogeneous", "evolve"]


def step_inhomogeneous(state: SpinorField, f: CoinField) -> SpinorField:
    """Advance one step under a site/time-dependent coin.

    The coin is sampled on the current window at the current time; missing
    tabulated entries surface as ``TotalityError`` naming the offending
    site.  Runs the same code as :func:`evolve`, so ``n`` single steps equal
    one ``n``-step evolution bit for bit.
    """
    return evolve(state, f, 1)


def step_homogeneous(state: SpinorField, c: CoinAngles) -> SpinorField:
    """Advance one step under a constant coin.

    Delegates to :func:`step_inhomogeneous` with the constant lift of ``c``,
    so the two entry points are bit-identical by construction.
    """
    return step_inhomogeneous(state, CoinField.homogeneous(c))


def _stride(state: SpinorField) -> int:
    """2 when the walk stores every other site only (a parity-localized
    state that is exactly zero on its other sites), else 1."""
    sparse = state.parity_localized and _off_parity_zero(state.plus_amps, state.minus_amps)
    return 2 if sparse else 1


def evolve(
    init: InitialState | SpinorField,
    f: CoinField | CoinAngles,
    t_final: int,
    record_trajectory: bool = False,
):
    """Run ``t_final`` steps from a localized (or given) initial state.

    Returns the final :class:`SpinorField`; with ``record_trajectory=True``
    returns ``(final, records)`` where ``records[k]`` is the
    :class:`ObservableRecord` after ``k`` steps (``k = 0 .. t_final``).

    The walk steps on two row pairs sized for the final step and is expanded
    to the full window once, at the end.  A parity-localized state stores,
    updates and samples the coin at only its occupied sites, one row entry
    per site, and keeps exact zeros on the others.  A constant coin is
    reduced to its four entries once; any other coin is materialized at
    every step on all the stored sites of the step.

    Only the live window of stored sites is stepped: from the first to the
    last nonzero stored site of the start, growing by one site at each end
    per step.  Outside ``|n| < t cos(theta)`` the amplitudes decay
    exponentially, and from theta of about 0.8 at T = 2000 the tails fall
    below the smallest normal double, where every product is many times
    slower.  So after each step an end site whose two components are both
    below ``np.finfo(np.float64).tiny`` in modulus is set to exactly 0 and
    leaves the window, and the next end site is tested in turn.  A flushed
    value moves the amplitudes it would have fed by about ``tiny`` at most:
    over 104 constant-coin walks to T = 2000 and 4000, the bits changed only
    where the unflushed modulus was at most 3.0e-271, by at most 7.4e-287.
    A walk that flushes nothing is bitwise unflushed stepping, and so is
    every record, which sums over all stored sites.  The closed form and the
    invariance verifications' walks keep their subnormal tails.
    """
    require_count("t_final", t_final)
    f = CoinField.lift(f)
    state = localized_state(init) if isinstance(init, InitialState) else init
    t0, stride = state.t, _stride(state)
    k = 2 // stride
    start = np.array([state.plus_amps[::stride], state.minus_amps[::stride]])
    live = np.flatnonzero(start.any(axis=0))
    lo, hi = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
    # two row pairs, this step's and the next's, and the kernel's scratch row
    m = start.shape[1]
    pairs = np.zeros((2, 2, m + k * t_final), dtype=np.complex128)
    pairs[0, :, :m] = start
    src, dst = pairs
    scratch = np.empty(pairs.shape[2], dtype=np.complex128)
    c = f.angles
    entries = None if c is None else coin_entries(c.theta, c.alpha, c.beta, c.chi)
    tiny = np.finfo(np.float64).tiny
    records = labels = None
    if record_trajectory:
        # labels of every site any step stores; step t reads -t .. t
        t_end = t0 + t_final
        labels = np.arange(-t_end, t_end + 1, dtype=np.float64)
        records = [record_from_amplitudes(t0, start[0], start[1],
                                          labels[t_end - t0:t_end + t0 + 1:stride])]
    for t in range(t0, t0 + t_final):
        if c is None:
            rows = f.materialize(-t, t, t, stride)
            entries = coin_entries(*(r[lo:hi] if np.ndim(r) else r for r in rows))
        kernels.walk_step(src[0, lo:hi], src[1, lo:hi], dst[0, lo:hi + k], dst[1, lo:hi + k],
                          stride, *entries, scratch)
        m, hi = m + k, hi + k
        # flush underflowed end sites, the minus component first on the
        # left and the plus component first on the right, as the kernel
        # zeroes the other; both pairs are cleared there, so each row stays
        # zero outside its window
        new_lo = lo
        while new_lo < hi and abs(dst[1, new_lo]) < tiny and abs(dst[0, new_lo]) < tiny:
            new_lo += 1
        new_hi = hi
        while new_hi > new_lo and abs(dst[0, new_hi - 1]) < tiny and abs(dst[1, new_hi - 1]) < tiny:
            new_hi -= 1
        if new_lo > lo:
            pairs[:, :, lo:new_lo] = 0
        if new_hi < hi:
            pairs[:, :, new_hi:hi] = 0
        lo, hi = new_lo, new_hi
        if record_trajectory:
            records.append(record_from_amplitudes(
                t + 1, dst[0, :m], dst[1, :m], labels[t_end - t - 1:t_end + t + 2:stride]))
        src, dst = dst, src
    t = t0 + t_final
    del dst, scratch, labels
    full = np.zeros((2, 2 * t + 1), dtype=np.complex128)
    full[:, ::stride] = src[:, :m]
    # the row pairs are released before the state copies the expansion, so
    # no more than two full windows are held at once
    del pairs, src
    final = SpinorField(t=t, plus_amps=full[0], minus_amps=full[1],
                        parity_localized=state.parity_localized)
    return (final, records) if record_trajectory else final
