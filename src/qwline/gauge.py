"""Continuum reading of the phase-dressing transform.

On a lattice with spacing ``ell = c * tau`` the coin-phase shifts produced
by :func:`qwline.invariance.transform_coin_field` become, after dividing by
the time step, components of an electromagnetic potential: the ``chi``
shift plays the electric-potential role and the ``alpha`` shift the
vector-potential one.  This module expresses the transform through forward
difference operators (the form whose ``tau -> 0`` limit is readable), turns
coin-field pairs into sampled potentials, differentiates potentials into an
electric field, and measures how far a smooth dressing pair is from leaving
that field unchanged.

Grid convention everywhere: arrays are indexed ``[i_t, i_x]`` (time is
axis 0) and coordinate vectors are 1-D.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from ._csvio import grid_columns, write_csv
from .coin import CoinAngles, CoinField, PhaseField
from .errors import GridError

__all__ = [
    "UnitSystem",
    "forward_differences",
    "finite_difference_transform",
    "PotentialField",
    "potentials_from_transform",
    "electric_field",
    "SmoothPhasePair",
    "lattice_phases_from_smooth",
    "potentials_from_phase_pair",
    "efield_invariance_residual",
    "save_potentials_csv",
    "save_residual_csv",
]


@dataclass(frozen=True)
class UnitSystem:
    """Lattice scales and the potential normalization.

    ``ell`` and ``tau`` are the lattice spacing and time step, tied by the
    characteristic speed ``ell = c * tau``; ``hbar_over_e`` scales the
    potentials.  Defaults put everything at 1.
    """

    ell: float = 1.0
    tau: float = 1.0
    c: float = 1.0
    hbar_over_e: float = 1.0

    def __post_init__(self):
        for name in ("ell", "tau", "c", "hbar_over_e"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        if abs(self.ell - self.c * self.tau) > 1e-14:
            raise ValueError(
                f"scales are inconsistent: ell={self.ell!r} but c*tau={self.c * self.tau!r}"
            )


def forward_differences(f, n: int, t: int) -> tuple[float, float]:
    """One-sided lattice differences ``(f(n+1,t) - f(n,t), f(n,t+1) - f(n,t))``.

    ``n`` may be an array of sites when ``f`` is a row function.
    """
    base = f(n, t)
    return f(n + 1, t) - base, f(n, t + 1) - base


def _row_readers(phases: PhaseField, ns):
    """Readers ``xi(m, s)``, ``zeta(m, s)`` for sites ``m`` within one of ``ns``.

    The first read at a step samples that step's row over all those sites;
    later reads at the step index it.
    """
    sites = np.unique(np.concatenate((ns - 1, ns, ns + 1)))
    row = cache(lambda s: phases.rows(sites, s))

    def reader(k):
        return lambda m, s: row(s)[k][np.searchsorted(sites, m)]

    return reader(0), reader(1)


def finite_difference_transform(
    ref: CoinField | CoinAngles, phases: PhaseField
) -> CoinField:
    """The dressing transform written through forward differences.

    Same mapping as :func:`qwline.invariance.transform_coin_field`, but each
    phase shift is assembled from :func:`forward_differences` of four
    auxiliary combinations of ``xi`` and ``zeta``.  Dividing the difference
    operators by ``ell`` or ``tau`` turns these expressions into the
    continuum derivatives, which is why this form exists; numerically the
    two must agree to rounding (the association order differs, so bitwise
    equality is not guaranteed).
    """
    base = CoinField.lift(ref)

    def rows(ns, t):
        theta, alpha, beta, chi = base.rows(ns, t)
        xi, zeta = _row_readers(phases, ns)

        def minus_shifted_diff(m, s):
            return xi(m, s) - zeta(m - 1, s)

        def minus_shifted_sum(m, s):
            return xi(m, s) + zeta(m - 1, s)

        def local_sum(m, s):
            return xi(m, s) + zeta(m, s)

        def local_diff(m, s):
            return xi(m, s) - zeta(m, s)

        d_n, _ = forward_differences(minus_shifted_diff, ns, t + 1)
        _, d_t = forward_differences(local_sum, ns, t)
        chi = chi + 0.5 * (d_n + d_t)
        d_n, _ = forward_differences(minus_shifted_sum, ns, t + 1)
        _, d_t = forward_differences(local_diff, ns, t)
        alpha_shift = 0.5 * (d_n + d_t)
        beta = beta + (zeta(ns, t) - xi(ns, t)) - alpha_shift
        return theta, alpha + alpha_shift, beta, chi

    return CoinField(rows)


@dataclass(frozen=True)
class PotentialField:
    """Potential components sampled on a rectangular space-time grid.

    ``a_t`` and ``a_x`` have shape ``(len(t), len(x))``.
    """

    x: np.ndarray
    t: np.ndarray
    a_t: np.ndarray
    a_x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        t = np.asarray(self.t, dtype=np.float64)
        a_t = np.asarray(self.a_t, dtype=np.float64)
        a_x = np.asarray(self.a_x, dtype=np.float64)
        for name, arr in (("x", x), ("t", t), ("a_t", a_t), ("a_x", a_x)):
            object.__setattr__(self, name, arr)
        want = (t.size, x.size)
        if a_t.shape != want or a_x.shape != want:
            raise GridError(
                f"potential arrays must have shape {want}, got {a_t.shape} and {a_x.shape}"
            )
        if not (np.all(np.isfinite(a_t)) and np.all(np.isfinite(a_x))):
            raise ValueError("potentials must be finite over the grid")

    @classmethod
    def from_functions(cls, a_t_of, a_x_of, x, t) -> "PotentialField":
        """Sample two callables of ``(X, T)`` on the grid spanned by ``x``, ``t``."""
        x = np.asarray(x, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        tt, xx = np.meshgrid(t, x, indexing="ij")
        return cls(x=x, t=t, a_t=a_t_of(xx, tt), a_x=a_x_of(xx, tt))


def potentials_from_transform(
    ref: CoinField | CoinAngles,
    transformed: CoinField,
    units: UnitSystem = UnitSystem(),
    n_max: int = 50,
    t_max: int = 50,
) -> PotentialField:
    """Potential increments that absorb the coin-phase changes.

    Samples ``(hbar_over_e / c) * (chi - chi0) / tau`` into ``a_t`` and the
    same scaling of ``alpha - alpha0`` into ``a_x`` over the window
    ``|n| <= n_max, 0 <= t <= t_max``.  Tabulated fields that do not cover
    the window raise ``TotalityError`` naming the first missing site.
    """
    base = CoinField.lift(ref)
    scale = units.hbar_over_e / (units.c * units.tau)
    ns = np.arange(-n_max, n_max + 1)
    ts = np.arange(t_max + 1)
    a_t = np.empty((ts.size, ns.size))
    a_x = np.empty((ts.size, ns.size))
    for t in range(t_max + 1):
        _, alpha, _, chi = transformed.rows(ns, t)
        _, alpha0, _, chi0 = base.rows(ns, t)
        a_t[t] = scale * (chi - chi0)
        a_x[t] = scale * (alpha - alpha0)
    return PotentialField(x=units.ell * ns, t=units.tau * ts, a_t=a_t, a_x=a_x)


def electric_field(p: PotentialField, units: UnitSystem = UnitSystem()) -> np.ndarray:
    """``E = dA_X/dT - c dA_T/dX`` on the stored grid.

    Centered differences inside, one-sided at the boundary (second order
    where the axis has at least 3 points, first order on a 2-point axis).
    """
    if p.t.size < 2 or p.x.size < 2:
        raise GridError(
            f"need at least 2 points per axis, got {p.t.size} x {p.x.size}"
        )
    da_x_dt = np.gradient(p.a_x, p.t, axis=0, edge_order=2 if p.t.size > 2 else 1)
    da_t_dx = np.gradient(p.a_t, p.x, axis=1, edge_order=2 if p.x.size > 2 else 1)
    return da_x_dt - units.c * da_t_dx


@dataclass(frozen=True)
class SmoothPhasePair:
    """Continuum dressing phases as callables ``(X, T) -> real``.

    Both callables must accept numpy arrays and be twice differentiable on
    the domains they are queried over; that is the caller's contract.
    """

    xi: Callable
    zeta: Callable


def lattice_phases_from_smooth(
    pair: SmoothPhasePair, units: UnitSystem = UnitSystem()
) -> PhaseField:
    """Evaluate a continuum pair at the lattice points ``X = n ell, T = t tau``."""
    ell, tau = units.ell, units.tau

    def rows(ns, t):
        xs, ts = ns * ell, t * tau
        return tuple(np.broadcast_to(np.asarray(f(xs, ts), dtype=np.float64), ns.shape)
                     for f in (pair.xi, pair.zeta))

    return PhaseField.from_rows(rows)


def _domain_grid(domain, resolution: int, halo: int = 0):
    x0, x1, t0, t1 = (float(v) for v in domain)
    if not (np.isfinite([x0, x1, t0, t1]).all() and x1 > x0 and t1 > t0):
        raise GridError(f"domain must have positive extent, got {domain!r}")
    dx = (x1 - x0) / (resolution - 1)
    dt = (t1 - t0) / (resolution - 1)
    xs = x0 + dx * np.arange(-halo, resolution + halo)
    ts = t0 + dt * np.arange(-halo, resolution + halo)
    return xs, ts, dx, dt


def potentials_from_phase_pair(
    pair: SmoothPhasePair,
    domain,
    resolution: int,
    units: UnitSystem = UnitSystem(),
) -> PotentialField:
    """Continuum potential increments of a smooth dressing pair.

    With light-cone derivatives ``d_pm = (1/2c) d/dT +- (1/2) d/dX``, the
    increments are ``a_t = (hbar_over_e/2)(d_plus xi + d_minus zeta)`` and
    ``a_x = (hbar_over_e/2)(d_plus xi - d_minus zeta)``; their sum and
    difference isolate ``d_plus xi`` and ``d_minus zeta``.  Derivatives are
    taken with ``np.gradient`` on a ``resolution x resolution`` sampling of
    ``domain = (x0, x1, t0, t1)``.
    """
    if resolution < 2:
        raise GridError(f"resolution must be at least 2, got {resolution}")
    xs, ts, _, _ = _domain_grid(domain, resolution)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    half = 0.5 * units.hbar_over_e
    out = []
    for f in (pair.xi, pair.zeta):
        vals = np.asarray(f(xx, tt), dtype=np.float64)
        d_dt = np.gradient(vals, ts, axis=0, edge_order=2 if ts.size > 2 else 1)
        d_dx = np.gradient(vals, xs, axis=1, edge_order=2 if xs.size > 2 else 1)
        out.append(0.5 * (d_dt / units.c + d_dx))  # d_plus
        out.append(0.5 * (d_dt / units.c - d_dx))  # d_minus
    d_plus_xi, _, _, d_minus_zeta = out
    return PotentialField(
        x=xs,
        t=ts,
        a_t=half * (d_plus_xi + d_minus_zeta),
        a_x=half * (d_plus_xi - d_minus_zeta),
    )


def _null_derivative(arr, sign: float, dx: float, dt: float, k: int, c: float):
    """Centered light-cone derivative with half-width ``k`` cells.

    Trims ``k`` cells from every edge so repeated applications stay on a
    uniform grid.
    """
    d_dt = (arr[2 * k :, k:-k] - arr[: -2 * k, k:-k]) / (2 * k * dt)
    d_dx = (arr[k:-k, 2 * k :] - arr[k:-k, : -2 * k]) / (2 * k * dx)
    return 0.5 * (d_dt / c + sign * d_dx)


def efield_invariance_residual(
    pair: SmoothPhasePair,
    domain,
    resolution: int,
    units: UnitSystem = UnitSystem(),
) -> tuple[float, np.ndarray]:
    """How far a dressing pair is from leaving the electric field alone.

    Evaluates ``(hbar_over_e c / 2) [d_minus d_plus xi - d_plus d_minus
    zeta]`` on a ``resolution x resolution`` grid over ``domain = (x0, x1,
    t0, t1)`` and returns ``(max |residual|, residual field)``.  The field
    vanishes like the grid spacing squared whenever the pair satisfies the
    invariance condition (``zeta == xi`` pointwise, or both mixed null
    derivatives zero); the limit is nonzero exactly when the dressing
    changes the field.

    The two null derivatives are composed from centered stencils of
    different half-widths (1 cell inside, 2 cells outside).  Equal widths
    would make the two operator products identical, so for ``zeta == xi``
    the residual would cancel bitwise instead of probing the discretization;
    mixed widths keep the check honest at the cost of a 3-cell halo around
    the requested domain.
    """
    if resolution < 4:
        raise GridError(f"resolution must be at least 4, got {resolution}")
    halo = 3
    xs, ts, dx, dt = _domain_grid(domain, resolution, halo=halo)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    xi_vals = np.asarray(pair.xi(xx, tt), dtype=np.float64)
    zeta_vals = np.asarray(pair.zeta(xx, tt), dtype=np.float64)
    c = units.c
    term_xi = _null_derivative(
        _null_derivative(xi_vals, +1.0, dx, dt, 1, c), -1.0, dx, dt, 2, c
    )
    term_zeta = _null_derivative(
        _null_derivative(zeta_vals, -1.0, dx, dt, 1, c), +1.0, dx, dt, 2, c
    )
    residual = 0.5 * units.hbar_over_e * c * (term_xi - term_zeta)
    return float(np.max(np.abs(residual))), residual


def save_potentials_csv(p: PotentialField, path) -> None:
    """Write ``x,t,a_t,a_x`` rows in time-major order."""
    write_csv(path, "x,t,a_t,a_x", [*grid_columns(p.x, p.t), p.a_t, p.a_x])


def save_residual_csv(path, xs, ts, residual) -> None:
    """Write ``x,t,residual`` rows in time-major order."""
    write_csv(path, "x,t,residual", [*grid_columns(xs, ts), residual])
