"""Distributions and summary quantities derived from a walker state.

Also provides the two reference curves the walk is usually plotted against:
the binomial distribution of the classical analogue and the long-time
envelope of the quantum position distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvio import write_csv
from .errors import UnsupportedParameterError
from .state import SpinorField

__all__ = [
    "ObservableRecord",
    "observe",
    "pmf",
    "chirality_probabilities",
    "magnetization",
    "mean_position",
    "classical_pmf",
    "stationary_pmf",
    "smoothed_pmf",
    "ballistic_slope",
    "symmetry_residuals",
    "fitted_slope",
    "save_pmf_csv",
    "save_trajectory_csv",
    "save_comparison_csv",
]

# tan(theta) blows up at pi/2; treat anything this close as singular
_SINGULAR_COS = 1e-12


def pmf(state: SpinorField) -> np.ndarray:
    """Position distribution ``|psi_plus|^2 + |psi_minus|^2`` over the window."""
    return np.abs(state.plus_amps) ** 2 + np.abs(state.minus_amps) ** 2


def chirality_probabilities(state: SpinorField) -> tuple[float, float]:
    """Total weight carried by each component (sums to the norm)."""
    p_plus = float(np.sum(np.abs(state.plus_amps) ** 2))
    p_minus = float(np.sum(np.abs(state.minus_amps) ** 2))
    return p_plus, p_minus


def magnetization(state: SpinorField) -> np.ndarray:
    """Sitewise component imbalance ``|psi_plus|^2 - |psi_minus|^2``."""
    return np.abs(state.plus_amps) ** 2 - np.abs(state.minus_amps) ** 2


def mean_position(state: SpinorField, ell: float = 1.0) -> float:
    """First moment of the position distribution, in units of ``ell``."""
    return ell * float(np.sum(state.n_values * pmf(state)))


@dataclass(frozen=True)
class ObservableRecord:
    """The standard scalar observables at one time step.

    The per-site distribution and magnetization are not kept; :func:`pmf`
    and :func:`magnetization` give them for any state.
    """

    t: int
    p_plus: float
    p_minus: float
    mean_x: float
    ell: float = 1.0


def record_from_amplitudes(t, plus, minus, ns, ell: float = 1.0) -> ObservableRecord:
    """Observables of amplitudes ``plus``, ``minus`` at sites ``ns``.

    The arrays may cover any subset of the window that holds all the
    weight, e.g. the occupied sites of a parity-localized walker.
    """
    w_plus = np.abs(plus) ** 2
    w_minus = np.abs(minus) ** 2
    return ObservableRecord(
        t=t,
        p_plus=float(np.sum(w_plus)),
        p_minus=float(np.sum(w_minus)),
        mean_x=ell * float(np.sum(ns * (w_plus + w_minus))),
        ell=ell,
    )


def observe(state: SpinorField, ell: float = 1.0) -> ObservableRecord:
    return record_from_amplitudes(
        state.t, state.plus_amps, state.minus_amps, state.n_values, ell=ell
    )


def classical_pmf(p: float, t: int) -> np.ndarray:
    """Binomial walk distribution on the window ``-t .. t``.

    ``p`` is the probability of a step to the right; sites with ``n + t``
    odd are unreachable and get exactly zero.  Terms are computed in
    log space through a table of log-factorials, so large ``t`` neither
    overflows nor loses the far tails; ``p = 0`` and ``p = 1`` put all the
    weight on the end site they walk to.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"step probability must lie in [0, 1], got {p}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    out = np.zeros(2 * t + 1)
    if p in (0.0, 1.0):
        out[2 * t if p else 0] = 1.0
        return out
    log_factorial = np.array([math.lgamma(j) for j in range(1, t + 2)])
    k = np.arange(t + 1)
    log_terms = (
        log_factorial[t]
        - log_factorial[k]
        - log_factorial[t - k]
        + k * math.log(p)
        + (t - k) * math.log1p(-p)
    )
    out[::2] = np.exp(log_terms)
    return out


def stationary_pmf(n, t: int, theta: float, eta: float, phi: float):
    """Long-time envelope of the position distribution at occupied sites.

    Valid well inside the support ``|n| < t cos(theta)``; returns 0 outside.
    The value approximates the fringe-averaged probability at a single
    occupied site (occupied sites are every other ``n``, hence the overall
    ``2 t`` scale factor on the unit-integral continuum density).  Accepts a
    scalar or an array of sites.
    """
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    ct = np.cos(theta)
    st = np.sin(theta)
    if not 0.0 < theta < np.pi / 2 or abs(ct) < _SINGULAR_COS:
        raise UnsupportedParameterError(
            f"envelope requires theta strictly inside (0, pi/2), got {theta}"
        )
    bias = np.cos(2 * eta) + np.sin(2 * eta) * np.tan(theta) * np.cos(phi)
    n_arr = np.asarray(n, dtype=np.float64)
    inside = np.abs(n_arr) < t * ct
    safe = np.where(inside, n_arr, 0.0)
    vals = (
        2.0 * t * st / np.pi
        * (t + safe * bias)
        / ((t * t - safe * safe) * np.sqrt(t * t * ct * ct - safe * safe))
    )
    vals = np.where(inside, vals, 0.0)
    if np.isscalar(n) or np.ndim(n) == 0:
        return float(vals)
    return vals


def smoothed_pmf(rho: np.ndarray, half_width: int = 6) -> np.ndarray:
    """Moving average of a parity walk's distribution over occupied sites.

    The exact distribution carries strong interference fringes on top of a
    slowly varying profile; averaging each occupied site with its
    ``half_width`` occupied neighbours per side removes them.  Near the
    window edges the average is over the sites actually available.  The
    returned array has the input shape with off-parity sites left at zero.
    """
    rho = np.asarray(rho, dtype=np.float64)
    occ = rho[::2]
    w = np.ones(2 * half_width + 1)
    num = np.convolve(occ, w, mode="same")
    den = np.convolve(np.ones_like(occ), w, mode="same")
    out = np.zeros_like(rho)
    out[::2] = num / den
    return out


def ballistic_slope(theta: float, eta: float, phi: float) -> float:
    """Long-time mean-position velocity in lattice units.

    ``(1 - sin(theta)) (cos(2 eta) + sin(2 eta) tan(theta) cos(phi))``.
    """
    if abs(np.cos(theta)) < _SINGULAR_COS:
        raise UnsupportedParameterError(
            f"tan(theta) is singular at theta={theta}"
        )
    return float(
        (1.0 - np.sin(theta))
        * (np.cos(2 * eta) + np.sin(2 * eta) * np.tan(theta) * np.cos(phi))
    )


def symmetry_residuals(theta: float, eta: float, phi: float) -> tuple[float, float]:
    """The two quantities whose joint vanishing makes the walk left/right
    symmetric at every step.

    Returns ``(cos(2 eta) + sin(2 eta) tan(theta) cos(phi),
    cos(2 eta) + sin(2 eta) tan(2 theta) cos(phi))``.
    """
    if abs(np.cos(theta)) < _SINGULAR_COS:
        raise UnsupportedParameterError(f"tan(theta) is singular at theta={theta}")
    if abs(np.cos(2 * theta)) < _SINGULAR_COS:
        raise UnsupportedParameterError(f"tan(2 theta) is singular at theta={theta}")
    c2, s2 = np.cos(2 * eta), np.sin(2 * eta)
    r_a = c2 + s2 * np.tan(theta) * np.cos(phi)
    r_b = c2 + s2 * np.tan(2 * theta) * np.cos(phi)
    return float(r_a), float(r_b)


def fitted_slope(ts, xs, t_min: int | None = None) -> float:
    """Least-squares slope of ``xs`` against ``ts``.

    By default the fit runs over the second half of the trajectory, where
    the transient from the first few steps has died out.
    """
    ts = np.asarray(ts, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if t_min is None:
        t_min = ts[0] + (ts[-1] - ts[0]) / 2.0
    keep = ts >= t_min
    if np.count_nonzero(keep) < 2:
        raise ValueError("need at least two trajectory points beyond t_min")
    return float(np.polyfit(ts[keep], xs[keep], 1)[0])


def save_pmf_csv(path, ns, rho) -> None:
    """Write ``n,rho`` rows."""
    write_csv(path, "n,rho", [np.asarray(ns, dtype=np.int64), rho])


def save_trajectory_csv(path, records) -> None:
    """Write ``t,mean_x,p_plus,p_minus`` rows, one per recorded step."""
    write_csv(path, "t,mean_x,p_plus,p_minus", [
        [rec.t for rec in records],
        [rec.mean_x for rec in records],
        [rec.p_plus for rec in records],
        [rec.p_minus for rec in records],
    ])


def save_comparison_csv(path, ns, rho_exact, rho_stationary, rho_classical) -> None:
    """Write ``n,rho_exact,rho_stationary,rho_classical`` rows."""
    write_csv(path, "n,rho_exact,rho_stationary,rho_classical", [
        np.asarray(ns, dtype=np.int64), rho_exact, rho_stationary, rho_classical,
    ])
