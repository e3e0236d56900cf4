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
from .observables import ObservableRecord, record_from_amplitudes
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
    """2 when only every other site can carry weight, else 1."""
    sparse = state.parity_localized and _off_parity_zero(state.plus_amps, state.minus_amps)
    return 2 if sparse else 1


class _InPlace:
    """A walk stepped in place on one buffer pair spanning its final window.

    Site n sits at index n + half of both buffers (``half = state.t +
    t_final``), so the window of step t is ``slice(half - t, half + t + 1)``.
    """

    def __init__(self, state: SpinorField, t_final: int):
        self.half = state.t + t_final
        self.plus = np.zeros(2 * self.half + 1, dtype=np.complex128)
        self.minus = np.zeros(2 * self.half + 1, dtype=np.complex128)
        self.plus[self.window(state.t)] = state.plus_amps
        self.minus[self.window(state.t)] = state.minus_amps

    def window(self, t: int, stride: int = 1) -> slice:
        """Buffer indices of the sites ``-t, -t + stride, .. t``."""
        return slice(self.half - t, self.half + t + 1, stride)

    def step(self, t: int, stride: int, entries) -> slice:
        """Advance from step t to t + 1 under the coin ``entries`` at the
        sites ``-t, -t + stride, .. t``; returns the window of the sites it
        filled, ``-t - 1, -t - 1 + stride, .. t + 1``."""
        target = self.window(t + 1)
        kernels.walk_step(self.plus[target], self.minus[target], stride, *entries)
        return self.window(t + 1, stride)


def evolve(
    init: InitialState | SpinorField,
    f: CoinField | CoinAngles,
    t_final: int,
    record_trajectory: bool = False,
    ell: float = 1.0,
):
    """Run ``t_final`` steps from a localized (or given) initial state.

    Returns the final :class:`SpinorField`; with ``record_trajectory=True``
    returns ``(final, records)`` where ``records[k]`` is the
    :class:`ObservableRecord` after ``k`` steps (``k = 0 .. t_final``).

    The walk runs in place on one buffer pair spanning the final window.  A
    constant coin is reduced to its four entries once; any other coin is
    materialized at every step on the sites that step updates.  A
    parity-localized state updates (and samples the coin at) only its
    occupied sites and keeps exact zeros on the others.
    """
    if t_final < 0:
        raise ValueError(f"t_final must be non-negative, got {t_final}")
    f = CoinField.lift(f)
    state = localized_state(init) if isinstance(init, InitialState) else init
    t0 = state.t
    stride = _stride(state)
    walk = _InPlace(state, t_final)
    c = f.angles
    constant = None if c is None else coin_entries(c.theta, c.alpha, c.beta, c.chi)
    records: list[ObservableRecord] | None = None
    if record_trajectory:
        ns = np.arange(-walk.half, walk.half + 1)

        def record(t, occupied):
            return record_from_amplitudes(
                t, walk.plus[occupied], walk.minus[occupied], ns[occupied], ell=ell)

        records = [record(t0, walk.window(t0, stride))]
    for t in range(t0, t0 + t_final):
        entries = coin_entries(*f.materialize(-t, t, t, stride)) if c is None else constant
        occupied = walk.step(t, stride, entries)
        if record_trajectory:
            records.append(record(t + 1, occupied))
    final = SpinorField(
        t=walk.half, plus_amps=walk.plus, minus_amps=walk.minus,
        parity_localized=state.parity_localized,
    )
    if record_trajectory:
        return final, records
    return final
