"""Analytic solution of the homogeneous walk.

The full wave function factorizes into the initial data and one real kernel
``lam(n, t)`` that depends only on the mixing angle::

    psi_plus(n, t)  = e^{i(chi t + alpha n)} [ psi_plus(0, 0) lam(n, t)
                      + e^{-i(chi + alpha)} psi_plus(+1, 1) lam(n - 1, t + 1) ]
    psi_minus(n, t) = e^{i(chi t + alpha n)} [ psi_minus(0, 0) lam(n, t)
                      + e^{-i(chi - alpha)} psi_minus(-1, 1) lam(n + 1, t + 1) ]

on sites with ``n + t`` even, where ``psi(+-1, 1)`` are the one-step
amplitudes.  ``lam`` can be evaluated two independent ways: a spectral sum
over ``t`` momentum modes, or the two-step recursion it satisfies.  Their
agreement, and the agreement of the assembled amplitudes with direct
stepping, are the strongest internal consistency checks in the package.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._csvio import write_csv
from .coin import CoinAngles
from .errors import (InputError, ParityError, UnsupportedParameterError, require_count,
                     require_finite_fields)
from .state import InitialState, SpinorField

__all__ = [
    "omega",
    "lambda_explicit",
    "LambdaTable",
    "lambda_table",
    "save_lambda_csv",
    "one_step_amplitudes",
    "closed_form_amplitudes",
    "initial_velocities",
]


def omega(r: int, t: int, theta: float) -> float:
    """Dispersion angle of mode ``r``: ``arcsin(cos(theta) sin(pi r/(t+1)))``."""
    require_finite_fields({"theta": theta})
    require_count("t", t, 1)
    require_count("r", r, -math.inf)
    if not 1 <= r <= t:
        raise InputError(f"mode index must satisfy 1 <= r <= t, got r={r}")
    return float(np.arcsin(np.cos(theta) * np.sin(np.pi * r / (t + 1))))


def _check_parity(n: int, t: int) -> None:
    require_count("n", n, -math.inf)
    if (n + t) % 2 != 0:
        raise ParityError(
            f"site (n={n}, t={t}) is unreachable: n + t must be even"
        )


# The mode sum's terms reach 1/sin(theta), so its rounding error grows as
# theta -> 0 (at t = 4000: 4.9e-12 from stepping at theta = 1e-2, 6.7e-10 at
# 1e-4).  Below this sin(theta), "auto" takes the recursion instead.
_SPECTRAL_MIN_SIN = 1e-2


def _require_spectral(theta: float) -> None:
    if not 0.0 < theta < math.pi / 2 or math.cos(theta) == 1.0:
        raise UnsupportedParameterError(
            f"spectral form requires 0 < theta < pi/2 and cos(theta) < 1, got {theta}"
        )


def lambda_explicit(n: int, t: int, theta: float) -> float:
    """Spectral evaluation of the lattice kernel ``lam(n, t)``.

    Only supports ``theta`` strictly inside ``(0, pi/2)`` with ``cos(theta)``
    below 1 in floating point: otherwise some mode denominators
    ``cos(omega_r)`` vanish.  Use the recursion table for the degenerate
    angles.  Sites with ``|n| > t`` return exactly 0, the others their entry
    of the FFT row.
    """
    require_finite_fields({"theta": theta})
    require_count("t", t)
    _check_parity(n, t)
    _require_spectral(theta)
    if abs(n) > t:
        return 0.0
    return float(_spectral_row(t, math.cos(theta))[(n + t) // 2])


@functools.lru_cache(maxsize=1)
def _spectral_row(t: int, cos_theta: float) -> np.ndarray:
    """The last kernel row :func:`lambda_explicit` read, kept for its next
    entry (callers sweep a row site by site); never written into."""
    return kernels.lambda_spectral(t, cos_theta)


@dataclass(frozen=True, eq=False)
class LambdaTable:
    """Dense table of ``lam(n, t)`` for ``t <= t_max``, filled by recursion.

    Storage is one row per time holding its occupied sites ``-t, -t+2, ..,
    t`` in columns ``1 .. t + 1`` (the layout of
    :func:`qwline.kernels.lambda_fill`); use :meth:`value` for checked
    access.
    """

    theta: float
    t_max: int
    _rows: np.ndarray

    def _check_row(self, t: int) -> None:
        require_count("t", t, -math.inf)
        if not 0 <= t <= self.t_max:
            raise InputError(f"table covers 0 <= t <= {self.t_max}, got t={t}")

    def value(self, n: int, t: int) -> float:
        self._check_row(t)
        _check_parity(n, t)
        if abs(n) > t:
            return 0.0
        return float(self._rows[t, (n + t) // 2 + 1])

    def occupied_row(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Sites ``-t, -t+2, .., t`` and their kernel values at time ``t``."""
        self._check_row(t)
        return np.arange(-t, t + 1, 2), self._rows[t, 1:t + 2]


def lambda_table(theta: float, t_max: int) -> LambdaTable:
    """Fill ``lam`` for all times up to ``t_max`` via the two-step recursion.

    Works for any finite ``theta``, including the degenerate angles the
    spectral form excludes.
    """
    require_finite_fields({"theta": theta})
    require_count("t_max", t_max)
    rows = kernels.lambda_fill(math.cos(theta), t_max)
    rows.setflags(write=False)
    return LambdaTable(theta=theta, t_max=t_max, _rows=rows)


def _recursion_rows(theta: float, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel rows ``t`` and ``t + 1`` at their occupied sites.

    Same values, bit for bit, as ``lambda_table(theta, t + 1)`` gives, from
    a fill that keeps three rows instead of the whole table.
    """
    rows = kernels.lambda_fill(math.cos(theta), t + 1, rolling=True)
    return rows[0, 1:t + 2], rows[1, 1:t + 3]


def save_lambda_csv(table: LambdaTable, path) -> None:
    """Write ``n,t,lambda`` rows for every reachable site of the table."""
    ts = range(table.t_max + 1)
    ns, vals = zip(*(table.occupied_row(t) for t in ts))
    write_csv(path, "n,t,lambda", [
        np.concatenate(ns), np.repeat(ts, [n.size for n in ns]), np.concatenate(vals),
    ])


def one_step_amplitudes(init: InitialState, c: CoinAngles) -> tuple[complex, complex]:
    """The two nonzero amplitudes after a single step, ``(psi_plus(+1, 1),
    psi_minus(-1, 1))``."""
    ce, se = np.cos(init.eta), np.sin(init.eta)
    ct, st = np.cos(c.theta), np.sin(c.theta)
    gain = np.exp(1j * c.chi)
    p11 = gain * (
        np.exp(1j * c.alpha) * ce * ct
        + np.exp(1j * (init.gamma - c.beta)) * se * st
    )
    m11 = gain * (
        np.exp(1j * c.beta) * ce * st
        - np.exp(1j * (init.gamma - c.alpha)) * se * ct
    )
    return complex(p11), complex(m11)


def closed_form_amplitudes(
    init: InitialState, c: CoinAngles, t: int, method: str = "auto"
) -> SpinorField:
    """Evaluate the walk at time ``t`` without stepping.

    ``method`` selects how the kernel values are obtained: ``"spectral"``
    (mode sum, one FFT per row, requires ``0 < theta < pi/2``),
    ``"recursion"`` (table, any ``theta``) or ``"auto"``, which uses the
    spectral form when ``0 < theta < pi/2`` and ``sin(theta) >= 1e-2`` and
    the recursion otherwise, where the mode sum would lose accuracy.
    """
    require_count("t", t)
    if method not in ("auto", "spectral", "recursion"):
        raise InputError(f"unknown method {method!r}")
    if method == "auto":
        usable = 0.0 < c.theta < math.pi / 2 and math.sin(c.theta) >= _SPECTRAL_MIN_SIN
        method = "spectral" if usable else "recursion"

    ns = np.arange(-t, t + 1, 2)
    if method == "recursion":
        lam_t, row_next = _recursion_rows(c.theta, t)
    else:
        _require_spectral(c.theta)
        cos_t = math.cos(c.theta)
        lam_t = kernels.lambda_spectral(t, cos_t)
        row_next = kernels.lambda_spectral(t + 1, cos_t)
    # row t+1 holds sites -(t+1) .. t+1; shifting by one site gives the
    # kernel at n -/+ 1 for every occupied n of row t
    lam_left = row_next[:-1]
    lam_right = row_next[1:]

    p00 = np.cos(init.eta)
    m00 = np.exp(1j * init.gamma) * np.sin(init.eta)
    p11, m11 = one_step_amplitudes(init, c)

    phase = np.exp(1j * (c.chi * t + c.alpha * ns))
    amps = np.zeros((2, 2 * t + 1), dtype=np.complex128)
    amps[0, ::2] = phase * (p00 * lam_t + np.exp(-1j * (c.chi + c.alpha)) * p11 * lam_left)
    amps[1, ::2] = phase * (m00 * lam_t + np.exp(-1j * (c.chi - c.alpha)) * m11 * lam_right)
    return SpinorField._adopt(t, amps)


def initial_velocities(init: InitialState, c: CoinAngles) -> tuple[float, float]:
    """Probabilities of starting rightward/leftward, ``(|psi_plus(+1, 1)|^2,
    |psi_minus(-1, 1)|^2)``.

    Equal to ``(1 +- K)/2`` with ``K = cos(2 eta) cos(2 theta)
    + sin(2 eta) sin(2 theta) cos(alpha + beta - gamma)``; the pair is
    unchanged under swapping ``eta <-> theta`` together with
    ``gamma <-> alpha + beta``.  The two values sum to 1 exactly.
    """
    k = np.cos(2 * init.eta) * np.cos(2 * c.theta) + np.sin(2 * init.eta) * np.sin(
        2 * c.theta
    ) * np.cos(c.alpha + c.beta - init.gamma)
    v_plus = min(max(0.5 * (1.0 + float(k)), 0.0), 1.0)
    return v_plus, 1.0 - v_plus
