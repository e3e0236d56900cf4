"""Numerically hot kernels, in numpy.

``walk_step`` advances a walker one step from one row pair into another,
``lambda_fill`` runs the two-step recursion of the lattice kernel and
``lambda_spectral`` evaluates one row of its mode expansion by FFT.  Rows
hold the values at the occupied sites only, so no kernel touches the sites a
parity-localized walker leaves exactly zero.  Each kernel is the only
implementation of its operation, so repeated calls with identical inputs are
bit-identical.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"

__all__ = ["BACKEND", "walk_step", "lambda_fill", "lambda_spectral"]


# ---------------------------------------------------------------------------
# one walk step: shift after coin, a row gains 2 // stride stored sites
# ---------------------------------------------------------------------------

def walk_step(plus, minus, out_plus, out_minus, stride, a, b, c, d):
    """Advance both components one step, from ``plus``, ``minus`` into
    ``out_plus``, ``out_minus``.

    The source rows hold the ``m`` sites ``-t, -t + stride, .. t``: stride 2
    for a parity-localized walker, whose other sites are zero, else 1.  The
    output rows, ``k = 2 // stride`` entries longer, hold the sites of step
    ``t + 1`` with the same stride and must not overlap the source.  ``a``,
    ``b``, ``c``, ``d`` are the coin entries ``[[a, b], [c, -d]]`` at the
    source sites (scalars for a constant coin).  The plus component moves
    right and the minus component left, so the first ``k`` plus outputs and
    the last ``k`` minus outputs are set to exactly zero.
    """
    k = 2 // stride
    m = len(plus)
    # coin entry first, then the other term added: the float order of
    # a * plus + b * minus, so the result is bitwise that expression
    np.multiply(a, plus, out=out_plus[k:])
    out_plus[k:] += b * minus
    out_plus[:k] = 0
    np.multiply(c, plus, out=out_minus[:m])
    out_minus[:m] -= d * minus
    out_minus[m:] = 0


# ---------------------------------------------------------------------------
# wave-function kernel on the lattice: two-step recursion table
# ---------------------------------------------------------------------------
#
# lam(n, t) satisfies
#     lam(n, t) = cos(theta) * (lam(n-1, t-1) - lam(n+1, t-1)) + lam(n, t-2)
# seeded by lam(0, 0) = 1 with lam vanishing at |n| >= t >= 1.  Tables store
# row t at index t and its occupied site n = -t + 2j (j = 0 .. t) at column
# j + 1; column 0 and the columns past t + 1 stay zero, so the recursion
# reads n - 1 and n + 1 of row t - 1 at columns j and j + 1, and n of row
# t - 2 at column j.

def lambda_fill(cos_theta, t_max, rolling=False):
    """Rows ``0 .. t_max`` of the recursion table, ``t_max + 2`` columns each.

    With ``rolling`` the recursion cycles through three rows and only rows
    ``t_max - 1`` and ``t_max`` are returned, bit-identical to the same rows
    of the full table (``t_max >= 1``).
    """
    depth = 3 if rolling else t_max + 1
    out = np.zeros((depth, t_max + 2))
    out[0, 1] = 1.0
    for t in range(2, t_max + 1):
        prev = out[(t - 1) % depth]
        # a rolling slot last held row t - 3 (columns 1 .. t - 2): every stale
        # entry is overwritten, and the columns read past a row stay zero
        row = out[t % depth, 1:t + 2]
        row[:] = cos_theta * prev[:t + 1]
        row -= cos_theta * prev[1:t + 2]
        row += out[(t - 2) % depth, :t + 1]
    if rolling:
        return out[[(t_max - 1) % depth, t_max % depth]]
    return out


# ---------------------------------------------------------------------------
# wave-function kernel, spectral form
# ---------------------------------------------------------------------------
#
#   lam(n, t) = 1/(t+1) * [ (1 + (-1)^t)/2
#               + sum_{r=1..t} cos((t-1) w_r - pi r n/(t+1)) / cos(w_r) ]
# with w_r = arcsin(cos(theta) sin(pi r/(t+1))).  The sum is the real part of
# a length-2(t+1) DFT of a_r = e^{i(t-1) w_r} / cos(w_r) (a_0 = 0, a_r = 0 for
# r > t) read at k = n mod 2(t+1), so one FFT gives the whole row.  Its terms
# reach 1/sin(theta) in magnitude, so the rounding error grows as theta -> 0.

def lambda_spectral(t, cos_theta):
    """Kernel row ``t`` at the occupied sites ``-t, -t+2, .., t``."""
    size = 2 * (t + 1)
    w = np.arcsin(cos_theta * np.sin(np.pi * np.arange(1, t + 1) / (t + 1)))
    modes = np.zeros(size, dtype=np.complex128)
    modes[1:t + 1] = np.exp(1j * (t - 1) * w) / np.cos(w)
    sums = np.fft.fft(modes).real[np.arange(-t, t + 1, 2) % size]
    head = 1.0 if t % 2 == 0 else 0.0
    return (head + sums) / (t + 1)
