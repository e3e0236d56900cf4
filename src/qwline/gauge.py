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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._csvio import write_csv
from .coin import CoinAngles, CoinField, PhaseField
from .errors import GridError, first_fault, require_count, require_finite_fields
from .invariance import _dressed_field

__all__ = [
    "UnitSystem",
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

    ``tau`` is the time step and ``c`` the characteristic speed, which fixes
    the lattice spacing ``ell = c * tau``; ``hbar_over_e`` scales the
    potentials.  Defaults put everything at 1.
    """

    tau: float = 1.0
    c: float = 1.0
    hbar_over_e: float = 1.0
    ell: float = field(default=1.0, init=False)

    def __post_init__(self):
        # ell keeps its default until its factors pass, then is checked itself
        positive = (lambda v: np.isfinite(v) and v > 0, "finite and positive")
        require_finite_fields(self, *positive)
        object.__setattr__(self, "ell", self.c * self.tau)
        require_finite_fields(self, *positive)


def finite_difference_transform(
    ref: CoinField | CoinAngles, phases: PhaseField
) -> CoinField:
    """The dressing transform written through forward differences.

    Same mapping as :func:`qwline.invariance.transform_coin_field`, but each
    phase shift is assembled from the spatial difference at step ``t + 1``
    and the time difference from ``t`` to ``t + 1`` of four auxiliary
    combinations of ``xi`` and ``zeta``.  Dividing the difference operators
    by ``ell`` or ``tau`` turns these expressions into the continuum
    derivatives, which is why this form exists; numerically the two must
    agree to rounding (the association order differs, so bitwise equality
    is not guaranteed).  Step ``t`` is read over ``ns`` and step ``t + 1``
    once over ``ns - 1 .. ns + 1``.
    """
    return _dressed_field(ref, phases.rows, (-1, 0, 1), _differenced)


def _differenced(coin, xi0, zeta0, xi1, zeta1, left, here, right):
    """Coin row at step t shifted through the forward differences of
    :func:`finite_difference_transform`; ``xi1``, ``zeta1`` are step t + 1,
    indexed at n - 1, n and n + 1 by ``left``, ``here`` and ``right``."""
    theta, alpha, beta, chi = coin
    xi_n, xi_r, zeta_n, zeta_l = xi1[here], xi1[right], zeta1[here], zeta1[left]
    # d_n of xi(m) -+ zeta(m - 1) at t + 1, d_t of xi(n) +- zeta(n) from t
    d_n = (xi_r - zeta_n) - (xi_n - zeta_l)
    d_t = (xi_n + zeta_n) - (xi0 + zeta0)
    chi = chi + 0.5 * (d_n + d_t)
    d_n = (xi_r + zeta_n) - (xi_n + zeta_l)
    d_t = (xi_n - zeta_n) - (xi0 - zeta0)
    alpha_shift = 0.5 * (d_n + d_t)
    beta = beta + (zeta0 - xi0) - alpha_shift
    return theta, alpha + alpha_shift, beta, chi


def _require_finite(where: str, xs, ts, **fields) -> None:
    """Raise :class:`GridError` at the first time-major grid point where one
    of the ``[i_t, i_x]`` ``fields`` is not finite, naming that field."""
    if all(np.isfinite(v).all() for v in fields.values()):
        return
    k, i = first_fault([np.isfinite(v) for v in fields.values()])
    i_t, i_x = np.unravel_index(i, (ts.size, xs.size))
    raise GridError(f"{where}: {list(fields)[k]} is not finite at "
                    f"(x={float(xs[i_x])!r}, t={float(ts[i_t])!r})")


@dataclass(frozen=True)
class PotentialField:
    """Potential components sampled on a rectangular space-time grid.

    ``x`` and ``t`` are finite 1-D coordinates; ``a_t`` and ``a_x`` have
    shape ``(len(t), len(x))``.
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
        if not all(v.ndim == 1 and np.isfinite(v).all() for v in (x, t)):
            raise GridError("coordinates x and t must be finite 1-D arrays")
        want = (t.size, x.size)
        if a_t.shape != want or a_x.shape != want:
            raise GridError(
                f"potential arrays must have shape {want}, got {a_t.shape} and {a_x.shape}"
            )
        _require_finite("potentials", x, t, a_t=a_t, a_x=a_x)

    @classmethod
    def from_functions(cls, a_t_of, a_x_of, x, t) -> "PotentialField":
        """Sample two callables of ``(X, T)`` on the grid spanned by ``x``, ``t``.

        The callables follow the :class:`SmoothPhasePair` contract: ``X`` is
        a row, ``T`` a column, and the result broadcasts to the grid.
        """
        x = np.asarray(x, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        a_t, a_x = _sample_pair(a_t_of, a_x_of, x, t, ("a_t", "a_x"))
        return cls(x=x, t=t, a_t=np.array(a_t, order="C"), a_x=np.array(a_x, order="C"))


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
    require_count("n_max", n_max)
    require_count("t_max", t_max)
    base = CoinField.lift(ref)
    scale = units.hbar_over_e / units.ell
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


def _gradient(values, coords, axis: int):
    """``np.gradient`` along ``axis``, second order at the edges unless it has 2 points."""
    return np.gradient(values, coords, axis=axis, edge_order=2 if coords.size > 2 else 1)


def electric_field(p: PotentialField, units: UnitSystem = UnitSystem()) -> np.ndarray:
    """``E = dA_X/dT - c dA_T/dX`` on the stored grid.

    Centered differences inside, one-sided at the boundary (see
    :func:`_gradient`).
    """
    if p.t.size < 2 or p.x.size < 2:
        raise GridError(
            f"need at least 2 points per axis, got {p.t.size} x {p.x.size}"
        )
    return _gradient(p.a_x, p.t, 0) - units.c * _gradient(p.a_t, p.x, 1)


@dataclass(frozen=True)
class SmoothPhasePair:
    """Continuum dressing phases as callables ``(X, T) -> real``.

    Both callables must be twice differentiable on the domains they are
    queried over; that is the caller's contract.  The grid samplers pass
    ``X`` as a row and ``T`` as a column (a one-row grid per lattice row in
    ``lattice_phases_from_smooth``), so a callable must broadcast elementwise;
    its result may have any shape that broadcasts to the grid, a scalar
    included.  A callable shared by ``xi`` and ``zeta`` runs once per
    sampling, and :func:`efield_invariance_residual` samples one block of
    rows at a time.
    """

    xi: Callable
    zeta: Callable


def lattice_phases_from_smooth(
    pair: SmoothPhasePair, units: UnitSystem = UnitSystem()
) -> PhaseField:
    """Evaluate a continuum pair at the lattice points ``X = n ell, T = t tau``.

    Each row is a one-row grid of :func:`_sample_pair`, so a callable
    shared by ``xi`` and ``zeta`` runs once per row.
    """

    def rows(ns, t):
        xi, zeta = _sample_pair(pair.xi, pair.zeta, ns * units.ell, np.array([t * units.tau]))
        return xi[0], zeta[0]

    return PhaseField.from_rows(rows)


def _domain_grid(domain, resolution: int, least: int, halo: int = 0):
    """Coordinates, spacings and location text of a ``resolution``-point
    sampling per axis of ``domain``, ``halo`` points wider on each side."""
    require_count("resolution", resolution, least, GridError)
    where = f"domain {domain!r} at resolution {resolution}"
    x0, x1, t0, t1 = (float(v) for v in domain)
    if not (np.isfinite([x0, x1, t0, t1]).all() and x1 > x0 and t1 > t0):
        raise GridError(f"domain must have positive extent, got {domain!r}")
    # Python floats overflow to inf and underflow to 0 without a warning;
    # np.gradient divides by products of two spacings
    dx = (x1 - x0) / (resolution - 1)
    dt = (t1 - t0) / (resolution - 1)
    if not all(np.finfo(np.float64).tiny <= d * d < np.inf for d in (dx, dt)):
        raise GridError(f"{where}: spacings dx={dx!r}, dt={dt!r} square outside "
                        "the normal float range")
    steps = np.arange(-halo, resolution + halo)
    xs, ts = x0 + dx * steps, t0 + dt * steps
    if not all(np.isfinite(v).all() and (np.diff(v) > 0).all() for v in (xs, ts)):
        raise GridError(f"{where}: sampled coordinates are not finite and "
                        "strictly increasing")
    return xs, ts, dx, dt, where


def _sample_pair(f, g, xs, ts, names=("xi", "zeta")) -> tuple:
    """Callables ``f`` and ``g`` of ``(X, T)`` on the time-major grid of
    ``xs``, ``ts``, as read-only float64 arrays of the grid's shape.

    Each is called on the sparse grid, ``X`` a row and ``T`` a column, and
    its result broadcast to the full shape; ``g is f`` is called once and
    both entries are the same array.  Overflow is not warned about: callers
    check the samples with :func:`_require_finite`.
    """
    tt, xx = np.meshgrid(ts, xs, indexing="ij", sparse=True)
    shape = (ts.size, xs.size)

    def sample(fn, name):
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.asarray(fn(xx, tt), dtype=np.float64)
        try:
            return np.broadcast_to(v, shape)
        except ValueError:
            raise GridError(f"{name} returned shape {v.shape}, which does not "
                            f"broadcast to the grid {shape}") from None

    first = sample(f, names[0])
    return first, first if g is f else sample(g, names[1])


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
    ``domain = (x0, x1, t0, t1)``.  A sampled phase or potential that is
    not finite raises :class:`GridError` naming the first such grid point.
    """
    xs, ts, _, _, where = _domain_grid(domain, resolution, 2)
    xi_vals, zeta_vals = _sample_pair(pair.xi, pair.zeta, xs, ts)
    _require_finite(where, xs, ts, xi=xi_vals, zeta=zeta_vals)
    half = 0.5 * units.hbar_over_e

    def gradients(vals):
        return _gradient(vals, ts, 0) / units.c, _gradient(vals, xs, 1)

    with np.errstate(over="ignore", invalid="ignore"):
        d_t, d_x = gradients(xi_vals)
        d_plus_xi = 0.5 * (d_t + d_x)
        if zeta_vals is not xi_vals:
            d_t, d_x = gradients(zeta_vals)
        d_minus_zeta = 0.5 * (d_t - d_x)
        a_t = half * (d_plus_xi + d_minus_zeta)
        a_x = half * (d_plus_xi - d_minus_zeta)
    return PotentialField(x=xs, t=ts, a_t=a_t, a_x=a_x)


# output rows per block of the residual stencils: about 1 MiB of buffers
# at resolution 1024, so they stay in a 2 MiB L2 cache
_BLOCK_ROWS = 32


def _differences(flat, width: int, k: int, ratio: float):
    """Raw centered differences, ``2 k`` cells apart, of a block of rows.

    ``flat`` holds a block of grid rows, each ``width`` cells wide, raveled
    in C order.  Returns the time difference ``f[t + k] - f[t - k]`` and
    ``ratio`` times the space difference ``f[x + k] - f[x - k]``, each with
    ``2 k`` fewer rows of the same width, also raveled.  Every pass runs on
    contiguous memory: the time difference subtracts ``flat`` from itself
    shifted by ``2 k`` rows, the space difference by ``2 k`` cells.  The
    ``k`` cells at each end of a result row difference across the seam
    between two rows, so they are no derivative and may overflow.
    Differenced again with half-width ``k'``, they reach only the ``k +
    k'`` cells at each row end, which the caller trims once.
    """
    rows = 2 * k * width
    d_t = np.subtract(flat[rows:], flat[:-rows])
    middle = flat[k * width - k : flat.size - k * width + k]
    d_x = np.subtract(middle[2 * k :], middle[: -2 * k])
    d_x *= ratio
    return d_t, d_x


def _null(flat, width: int, k: int, ratio: float, op):
    """Unscaled null derivative ``D_t f + ratio D_x f`` for ``op`` ``np.add``,
    ``D_t f - ratio D_x f`` for ``np.subtract``, in the time difference's
    buffer."""
    d_t, d_x = _differences(flat, width, k, ratio)
    return op(d_t, d_x, out=d_t)


def _null_pair(flat, width: int, k: int, ratio: float):
    """Both unscaled null derivatives of ``flat`` from one pair of
    differences."""
    d_t, d_x = _differences(flat, width, k, ratio)
    return np.add(d_t, d_x), np.subtract(d_t, d_x, out=d_t)


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
    the requested domain.  A sampled phase or residual value that is not
    finite raises :class:`GridError` naming the first such grid point.

    Each null derivative is taken unscaled, as ``N_k^+- f = D_t f +- ratio
    D_x f`` with the raw centered differences ``D_t``, ``D_x`` of half-width
    ``k`` and ``ratio = dt c / dx``.  The inner one is scaled once, by ``s1
    = 1 / (2 dt c)`` (by ``1 / (2 dt)``, then ``1 / c``, where ``2 dt c`` is
    not a normal double), so it keeps a derivative's magnitude; the outer
    one's scale and every factor ``1/2`` fold into ``K = hbar_over_e / (32
    dt)``, applied as each block is written into the field: ``residual = K
    (N_2^- s1 N_1^+ xi - N_2^+ s1 N_1^- zeta)``.  So ``c`` enters only
    through ``ratio`` and ``s1``: no stage divides by ``c`` for a later one
    to multiply back, which would overflow for extreme ``c``.
    """
    halo = 3
    xs, ts, dx, dt, where = _domain_grid(domain, resolution, 4, halo=halo)
    c = units.c
    # the docstring's ratio, s1 and K; c * (dt / dx) overflows only when
    # the ratio itself does, 1 / (2 dt c) when 2 dt c is not a normal double
    ratio = c * (dt / dx)
    span = 2 * dt * c
    s1 = (1 / span,) if np.finfo(np.float64).tiny <= span < np.inf else (1 / (2 * dt), 1 / c)
    scale = units.hbar_over_e / (32 * dt)
    width = xs.size
    residual = np.empty((resolution, resolution))
    # a block of output rows needs its rows plus the halo on each side; the
    # last 2 * halo sampled rows of a block are the first of the next, so
    # they move to the front of these buffers and only new rows are sampled
    samples = np.empty((2, min(_BLOCK_ROWS, resolution) + 2 * halo, width))
    carried = 0
    peak, finite = 0.0, True
    with np.errstate(over="ignore", invalid="ignore"):
        # small blocks keep the samples and the stencils' buffers in cache.
        # Blocks run in time order and each sampled row is checked once, so
        # the first non-finite sample found is the first of the whole grid
        for lo in range(0, resolution, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, resolution)
            rows = hi - lo + 2 * halo
            new_t = ts[lo + carried : hi + 2 * halo]
            xi_vals, zeta_vals = _sample_pair(pair.xi, pair.zeta, xs, new_t)
            # a callable shared by both phases has one sample to check
            fields = ({"xi": xi_vals} if zeta_vals is xi_vals
                      else {"xi": xi_vals, "zeta": zeta_vals})
            _require_finite(where, xs, new_t, **fields)
            used = samples[: len(fields)]
            for buf, vals in zip(used, fields.values()):
                buf[carried:rows] = vals
            # stage 1: s1 N_1^+ xi and s1 N_1^- zeta, whose differences are
            # formed once when the callable is shared
            if len(fields) == 1:
                plus, minus = _null_pair(used[0, :rows].ravel(), width, 1, ratio)
            else:
                plus = _null(used[0, :rows].ravel(), width, 1, ratio, np.add)
                minus = _null(used[1, :rows].ravel(), width, 1, ratio, np.subtract)
            for factor in s1:
                plus *= factor
                minus *= factor
            # stage 2: N_2^- of the first less N_2^+ of the second; each
            # input buffer is let go once it is differenced
            block = _null(plus, width, 2, ratio, np.subtract)
            del plus
            block -= _null(minus, width, 2, ratio, np.add)
            del minus
            out = residual[lo:hi]
            np.multiply(block.reshape(hi - lo, width)[:, halo:-halo], scale, out=out)
            # the block's |residual| goes into the block's own buffer; its
            # maximum is not finite exactly when the block holds a value
            # that is not, which the check after the loop then names
            top = float(np.abs(out, out=block[: out.size].reshape(out.shape)).max())
            finite = finite and np.isfinite(top)
            peak = max(peak, top)
            used[:, : 2 * halo] = used[:, rows - 2 * halo : rows]
            carried = 2 * halo
    if not finite:
        _require_finite(where, xs[halo:-halo], ts[halo:-halo], residual=residual)
    return peak, residual


def save_potentials_csv(p: PotentialField, path) -> None:
    """Write ``x,t,a_t,a_x`` rows in time-major order."""
    write_csv(path, "x,t,a_t,a_x", [p.a_t, p.a_x], grid=(p.x, p.t))


def save_residual_csv(path, xs, ts, residual) -> None:
    """Write ``x,t,residual`` rows in time-major order."""
    write_csv(path, "x,t,residual", [residual], grid=(xs, ts))
