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


class _Rows:
    """A walk stepped on two ping-pong row pairs sized for its final step.

    ``plus`` and ``minus`` hold the amplitudes of step ``t`` at its stored
    sites ``-t, -t + stride, .. t``; ``stride`` is 2 when the start carries
    weight on every other site only, else 1.
    """

    def __init__(self, state: SpinorField, t_final: int):
        sparse = state.parity_localized and _off_parity_zero(state.plus_amps, state.minus_amps)
        self.t, self.stride = state.t, 2 if sparse else 1
        plus, minus = state.plus_amps[::self.stride], state.minus_amps[::self.stride]
        self._pairs = np.zeros((2, 2, plus.size + 2 * t_final // self.stride),
                               dtype=np.complex128)
        self._front = 0
        self.plus, self.minus = self._pairs[0, :, :plus.size]
        self.plus[:], self.minus[:] = plus, minus

    def step(self, entries) -> None:
        """Advance one step under the coin ``entries`` at the stored sites."""
        self.t += 1
        self._front ^= 1
        out_plus, out_minus = self._pairs[self._front, :, :self.plus.size + 2 // self.stride]
        kernels.walk_step(self.plus, self.minus, out_plus, out_minus, self.stride, *entries)
        self.plus, self.minus = out_plus, out_minus

    def field(self, parity_localized: bool) -> SpinorField:
        """The full-window state of step ``t``.  Ends the walk: its rows are
        released before the state copies the expansion, so no more than two
        full windows are held at once."""
        plus, minus = np.zeros((2, 2 * self.t + 1), dtype=np.complex128)
        plus[::self.stride], minus[::self.stride] = self.plus, self.minus
        del self._pairs, self.plus, self.minus
        return SpinorField(t=self.t, plus_amps=plus, minus_amps=minus,
                           parity_localized=parity_localized)


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

    The walk steps on two row pairs sized for the final step and is expanded
    to the full window once, at the end.  A parity-localized state stores,
    updates and samples the coin at only its occupied sites, one row entry
    per site, and keeps exact zeros on the others.  A constant coin is
    reduced to its four entries once; any other coin is materialized at
    every step on the sites that step updates.
    """
    if t_final < 0:
        raise ValueError(f"t_final must be non-negative, got {t_final}")
    f = CoinField.lift(f)
    state = localized_state(init) if isinstance(init, InitialState) else init
    walk = _Rows(state, t_final)
    c = f.angles
    constant = None if c is None else coin_entries(c.theta, c.alpha, c.beta, c.chi)

    def record():
        ns = np.arange(-walk.t, walk.t + 1, walk.stride)
        return record_from_amplitudes(walk.t, walk.plus, walk.minus, ns, ell=ell)

    records = [record()] if record_trajectory else None
    for t in range(state.t, state.t + t_final):
        walk.step(coin_entries(*f.materialize(-t, t, t, walk.stride)) if c is None else constant)
        if record_trajectory:
            records.append(record())
    final = walk.field(state.parity_localized)
    return (final, records) if record_trajectory else final
