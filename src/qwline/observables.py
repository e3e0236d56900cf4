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
from .errors import InputError, UnsupportedParameterError, require_count, require_finite_fields
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


def _bias(theta, eta, phi, k: int = 1):
    """``cos(2 eta) + sin(2 eta) tan(k theta) cos(phi)``, the term by which
    the start ``(eta, phi)`` tilts the walk, refused where ``tan(k theta)``
    is singular."""
    if abs(np.cos(k * theta)) < _SINGULAR_COS:
        tan = "tan(theta)" if k == 1 else f"tan({k} theta)"
        raise UnsupportedParameterError(f"{tan} is singular at theta={theta}")
    return np.cos(2 * eta) + np.sin(2 * eta) * np.tan(k * theta) * np.cos(phi)


def pmf(state: SpinorField) -> np.ndarray:
    """Position distribution ``|psi_plus|^2 + |psi_minus|^2`` over the window."""
    return np.abs(state.plus_amps) ** 2 + np.abs(state.minus_amps) ** 2


def chirality_probabilities(state: SpinorField) -> tuple[float, float]:
    """Total weight carried by each component (sums to the norm)."""
    record = observe(state)
    return record.p_plus, record.p_minus


def magnetization(state: SpinorField) -> np.ndarray:
    """Sitewise component imbalance ``|psi_plus|^2 - |psi_minus|^2``."""
    return np.abs(state.plus_amps) ** 2 - np.abs(state.minus_amps) ** 2


def mean_position(state: SpinorField) -> float:
    """First moment of the position distribution, in lattice sites."""
    return observe(state).mean_x


@dataclass(frozen=True)
class ObservableRecord:
    """The standard scalar observables at one time step, positions in sites.

    The per-site distribution and magnetization are not kept; :func:`pmf`
    and :func:`magnetization` give them for any state.
    """

    t: int
    p_plus: float
    p_minus: float
    mean_x: float


def record_from_amplitudes(t, plus, minus, ns) -> ObservableRecord:
    """Observables of amplitudes ``plus``, ``minus`` at sites ``ns``.

    The arrays may cover any subset of the window that holds all the
    weight, e.g. the occupied sites of a parity-localized walker.
    """
    # |psi|^2 as abs, then square, in place: the bits of np.abs(x) ** 2
    w_plus, w_minus = np.abs(plus), np.abs(minus)
    np.square(w_plus, out=w_plus)
    np.square(w_minus, out=w_minus)
    p_plus, p_minus = float(np.add.reduce(w_plus)), float(np.add.reduce(w_minus))
    w_plus += w_minus
    w_plus *= ns
    return ObservableRecord(t=t, p_plus=p_plus, p_minus=p_minus,
                            mean_x=float(np.add.reduce(w_plus)))


def observe(state: SpinorField) -> ObservableRecord:
    return record_from_amplitudes(state.t, state.plus_amps, state.minus_amps, state.n_values)


def classical_pmf(p: float, t: int) -> np.ndarray:
    """Binomial walk distribution on the window ``-t .. t``.

    ``p`` is the probability of a step to the right; sites with ``n + t``
    odd are unreachable and get exactly zero.  Terms are computed in
    log space through a table of log-factorials, so large ``t`` neither
    overflows nor loses the far tails; ``p = 0`` and ``p = 1`` put all the
    weight on the end site they walk to.
    """
    require_finite_fields({"p": p})
    if not 0.0 <= p <= 1.0:
        raise InputError(f"step probability must lie in [0, 1], got {p}")
    require_count("t", t)
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
    """Long-time envelope of the position distribution.

    Valid well inside the support ``|n| < t cos(theta)``; returns 0 outside.
    The value approximates the fringe-averaged probability at a single
    occupied site (occupied sites are every other ``n``, hence the overall
    ``2 t`` scale factor on the unit-integral continuum density).  Accepts a
    scalar or an array of sites and evaluates every ``n`` given, so only the
    entries at occupied sites (``n + t`` even) compare with :func:`pmf`.
    """
    require_finite_fields({"t": t, "theta": theta, "eta": eta, "phi": phi})
    if t < 1:
        raise InputError(f"t must be positive, got {t}")
    ct = np.cos(theta)
    st = np.sin(theta)
    if not 0.0 < theta < np.pi / 2 or abs(ct) < _SINGULAR_COS:
        raise UnsupportedParameterError(
            f"envelope requires theta strictly inside (0, pi/2), got {theta}"
        )
    bias = _bias(theta, eta, phi)
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
    require_count("half_width", half_width)
    rho = np.asarray(rho, dtype=np.float64)
    if rho.ndim != 1:
        raise InputError(f"rho must be a 1-D array, got shape {rho.shape}")
    if not rho.size:
        raise InputError(f"rho must hold at least one site, got shape {rho.shape}")
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
    require_finite_fields({"theta": theta, "eta": eta, "phi": phi})
    return float((1.0 - np.sin(theta)) * _bias(theta, eta, phi))


def symmetry_residuals(theta: float, eta: float, phi: float) -> tuple[float, float]:
    """The two quantities whose joint vanishing makes the walk left/right
    symmetric at every step.

    Returns ``(cos(2 eta) + sin(2 eta) tan(theta) cos(phi),
    cos(2 eta) + sin(2 eta) tan(2 theta) cos(phi))``.
    """
    require_finite_fields({"theta": theta, "eta": eta, "phi": phi})
    return float(_bias(theta, eta, phi)), float(_bias(theta, eta, phi, k=2))


def fitted_slope(ts, xs, t_min: int | None = None) -> float:
    """Least-squares slope of ``xs`` against the times ``ts >= t_min``.

    By default the fit runs over the second half of the trajectory, where
    the transient from the first few steps has died out.  The slope is
    the centered closed form ``sum(u (x - x.mean())) / sum(u^2)`` with
    ``u = t - t.mean()``: numpy reductions only, no BLAS or LAPACK call.
    Centering ``x`` too keeps a large offset from cancelling away the
    slope.
    """
    ts = np.asarray(ts, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if ts.shape != xs.shape:
        raise InputError(f"ts and xs must have the same shape, got {ts.shape} and {xs.shape}")
    if not (ts.ndim == 1 and np.isfinite(ts).all() and np.isfinite(xs).all()):
        raise InputError("ts and xs must be finite 1-D arrays")
    if t_min is None:  # an empty trajectory keeps no point whatever the bound
        t_min = ts[0] + (ts[-1] - ts[0]) / 2.0 if ts.size else 0.0
    else:
        require_finite_fields({"t_min": t_min})
    keep = ts >= t_min
    if np.count_nonzero(keep) < 2:
        raise InputError("need at least two trajectory points beyond t_min")
    t, x = ts[keep], xs[keep]
    # equal times can average to a neighbouring float, so test them, not u
    spread = t.max() - t.min()
    if spread == 0:
        raise InputError("need at least two distinct trajectory times beyond t_min")
    # u in units of the spread: its sum of squares lies in [1/2, len(t)]
    # and can neither underflow nor overflow
    u = (t - t.mean()) / spread
    return float(np.add.reduce(u * (x - x.mean())) / np.add.reduce(u * u) / spread)


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
