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
    # site n sits at index n + half of both buffers; the window at time t
    # is slice(half - t, half + t + 1)
    half = t0 + t_final
    plus = np.zeros(2 * half + 1, dtype=np.complex128)
    minus = np.zeros(2 * half + 1, dtype=np.complex128)
    plus[half - t0:half + t0 + 1] = state.plus_amps
    minus[half - t0:half + t0 + 1] = state.minus_amps
    constant = None
    if f.angles is not None:
        c = f.angles
        constant = coin_entries(c.theta, c.alpha, c.beta, c.chi)
    records: list[ObservableRecord] | None = None
    if record_trajectory:
        ns = np.arange(-half, half + 1)
        occupied = slice(half - t0, half + t0 + 1, stride)
        records = [record_from_amplitudes(
            t0, plus[occupied], minus[occupied], ns[occupied], ell=ell
        )]
    for t in range(t0, t0 + t_final):
        if constant is None:
            entries = coin_entries(*f.materialize(-t, t, t, stride))
        else:
            entries = constant
        target = slice(half - t - 1, half + t + 2)
        kernels.walk_step(plus[target], minus[target], stride, *entries)
        if record_trajectory:
            occupied = slice(half - t - 1, half + t + 2, stride)
            records.append(record_from_amplitudes(
                t + 1, plus[occupied], minus[occupied], ns[occupied], ell=ell
            ))
    final = SpinorField(
        t=half, plus_amps=plus, minus_amps=minus,
        parity_localized=state.parity_localized,
    )
    if record_trajectory:
        return final, records
    return final
