"""Stepping the walk forward in time.

One step sends each component across one lattice bond after mixing the two
components with the coin evaluated at the source site::

    psi_plus(n, t+1)  = e^{i chi} [ e^{i alpha} cos(theta) psi_plus(n-1, t)
                                   + e^{-i beta} sin(theta) psi_minus(n-1, t) ]
    psi_minus(n, t+1) = e^{i chi} [ e^{i beta}  sin(theta) psi_plus(n+1, t)
                                   - e^{-i alpha} cos(theta) psi_minus(n+1, t) ]

with all coin parameters taken at the source site and time ((n-1, t) above
for the plus component, (n+1, t) for the minus one).  Both components of a
step are formed together: :func:`qwline.kernels.walk_step` makes one numpy
call per term across the two rows, through row and output views built once
per row pair, and a recorded step writes the moduli of both rows into a
chunk of records with one call.  No renormalization is ever applied; norm
drift stays at rounding level and is left observable as a diagnostic.
"""
from __future__ import annotations

import numpy as np

from . import kernels
from .coin import CoinAngles, CoinField, coin_entries
from .errors import require_count
from .observables import _Trajectory
from .state import InitialState, SpinorField, localized_state

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
    to the full window once, at the end.  Each pair's plus and minus rows
    and its output view for the kernel are built once, so a step slices 1-D
    rows.  A parity-localized state stores, updates and samples the coin at
    only its occupied sites, one row entry per site, and keeps exact zeros
    on the others.  A constant coin is
    reduced to its stacked entries once; any other coin is materialized at
    every step on its live sites (below), each row a scalar or one per site.

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

    Records are taken one chunk of steps at a time: each step writes the
    moduli of its stored rows into one float chunk of ``kernels.CHUNK_SITES``
    sites and keeps a view of its site labels, and the chunk's records are
    summed at once when the next step would overflow it, and at the end (see
    :class:`qwline.observables._Trajectory`).  A record has the bits of
    :func:`qwline.observables.record_from_amplitudes` on its step's rows.
    """
    require_count("t_final", t_final)
    f = CoinField.lift(f)
    state = localized_state(init) if isinstance(init, InitialState) else init
    t0, stride = state.t, 2 if state.parity_localized else 1
    k = 2 // stride
    start = state.amps[:, ::stride]
    live = np.flatnonzero(start.any(axis=0))
    lo, hi = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
    # two row pairs, this step's and the next's, and the kernel's scratch rows
    m = start.shape[1]
    size = m + k * t_final
    pairs = np.zeros((2, 2, size), dtype=np.complex128)
    pairs[0, :, :m] = start
    # per pair, built once: the pair, its plus and minus rows, and the
    # kernel's (2, size - k) output view, plus row from site k and minus row
    # from site 0, so columns lo:hi are where sites lo:hi land
    src, dst = ((pair, *pair, pair.reshape(-1)[k:2 * size - k].reshape(2, size - k))
                for pair in pairs)
    scratch = np.empty((2, size), dtype=np.complex128)
    c = f.angles
    entries = None if c is None else coin_entries(c.theta, c.alpha, c.beta, c.chi)
    tiny = np.finfo(np.float64).tiny
    if record_trajectory:
        # labels of every site any step stores; step t reads -t .. t
        t_end = t0 + t_final
        labels = np.arange(-t_end, t_end + 1, dtype=np.float64)
        trajectory = _Trajectory(t0)
        trajectory.add(start, labels[t_end - t0:t_end + t0 + 1:stride])
    for t in range(t0, t0 + t_final):
        if c is None:
            entries = coin_entries(*f.materialize(stride * lo - t, stride * (hi - 1) - t,
                                                  t, stride))
        _, plus, minus, _ = src
        pair, new_plus, new_minus, out = dst
        kernels.walk_step(plus[lo:hi], minus[lo:hi], out[:, lo:hi], new_plus[lo:lo + k],
                          new_minus[hi:hi + k], *entries, scratch[:, :hi - lo])
        m, hi = m + k, hi + k
        # flush underflowed end sites, the minus component first on the
        # left and the plus component first on the right, as the kernel
        # zeroes the other; both pairs are cleared there, so each row stays
        # zero outside its window
        new_lo = lo
        while new_lo < hi and abs(new_minus[new_lo]) < tiny and abs(new_plus[new_lo]) < tiny:
            new_lo += 1
        new_hi = hi
        while (new_hi > new_lo and abs(new_plus[new_hi - 1]) < tiny
               and abs(new_minus[new_hi - 1]) < tiny):
            new_hi -= 1
        if new_lo > lo:
            pairs[:, :, lo:new_lo] = 0
        if new_hi < hi:
            pairs[:, :, new_hi:hi] = 0
        lo, hi = new_lo, new_hi
        if record_trajectory:
            trajectory.add(pair[:, :m], labels[t_end - t - 1:t_end + t + 2:stride])
        src, dst = dst, src
    t = t0 + t_final
    if record_trajectory:
        records = trajectory.take()
        del trajectory, labels
    del dst, scratch
    full = np.zeros((2, 2 * t + 1), dtype=np.complex128)
    full[:, ::stride] = src[0][:, :m]
    final = SpinorField._adopt(t, full)
    return (final, records) if record_trajectory else final
