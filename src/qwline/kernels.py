"""Numerically hot kernels, in numpy.

``walk_step`` advances a walker one step in place on a buffer pair,
``lambda_fill`` runs the two-step recursion of the lattice kernel and
``lambda_spectral`` sums its mode expansion at one site.  Each is the only
implementation of its operation, so repeated calls with identical inputs are
bit-identical.
"""
from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

__all__ = ["BACKEND", "walk_step", "lambda_fill", "lambda_spectral"]


# ---------------------------------------------------------------------------
# one walk step: shift after coin, window grows from 2t+1 to 2t+3 sites
# ---------------------------------------------------------------------------

def walk_step(plus, minus, stride, a, b, c, d):
    """Advance both components one step, in place.

    ``plus`` and ``minus`` are views of the target window (length ``m + 2``);
    the source window is their inner ``m`` sites and everything outside it
    must be zero.  Only every ``stride``-th source site, starting at the
    first, is read: 2 for a parity-localized walker, whose other sites are
    zero, else 1.  ``a``, ``b``, ``c``, ``d`` are the coin entries
    ``[[a, b], [c, -d]]`` at those sites (scalars for a constant coin).  The
    plus component moves right, the minus component moves left, and the
    source sites no target covers are left exactly zero.
    """
    src_plus = plus[1:-1:stride]
    src_minus = minus[1:-1:stride]
    out_plus = a * src_plus + b * src_minus
    out_minus = c * src_plus - d * src_minus
    src_plus[...] = 0
    src_minus[...] = 0
    plus[2::stride] = out_plus
    minus[:-2:stride] = out_minus


# ---------------------------------------------------------------------------
# wave-function kernel on the lattice: two-step recursion table
# ---------------------------------------------------------------------------
#
# lam(n, t) satisfies
#     lam(n, t) = cos(theta) * (lam(n-1, t-1) - lam(n+1, t-1)) + lam(n, t-2)
# seeded by lam(0, 0) = 1 with lam vanishing at |n| >= t >= 1.  Tables store
# row t at index t, site n at column n + t_max + 1 (one padding column per
# side keeps the recursion reads in bounds).

def lambda_fill(cos_theta, t_max, rolling=False):
    """Rows ``0 .. t_max`` of the recursion table.

    With ``rolling`` the recursion cycles through three rows and only rows
    ``t_max - 1`` and ``t_max`` are returned, bit-identical to the same rows
    of the full table (``t_max >= 1``).
    """
    width = 2 * (t_max + 1) + 1
    center = t_max + 1
    depth = 3 if rolling else t_max + 1
    out = np.zeros((depth, width))
    out[0, center] = 1.0
    for t in range(2, t_max + 1):
        prev = out[(t - 1) % depth]
        row = out[t % depth]
        # column 0 is never assigned below; it stays zero in both modes
        row[1:] = cos_theta * prev[:-1]
        row[:-1] -= cos_theta * prev[1:]
        row += out[(t - 2) % depth]
    if rolling:
        return out[[(t_max - 1) % depth, t_max % depth]]
    return out


# ---------------------------------------------------------------------------
# wave-function kernel, spectral form
# ---------------------------------------------------------------------------
#
#   lam(n, t) = 1/(t+1) * [ (1 + (-1)^t)/2
#               + sum_{r=1..t} cos((t-1) w_r - pi r n/(t+1)) / cos(w_r) ]
# with w_r = arcsin(cos(theta) sin(pi r/(t+1))).  The sum is accumulated in
# compensated arithmetic: its terms reach 1/sin(theta) in magnitude while
# the result can be orders of magnitude smaller.

def lambda_spectral(n, t, cos_theta):
    if t == 0:
        return 1.0 if n == 0 else 0.0
    r = np.arange(1, t + 1, dtype=np.float64)
    w = np.arcsin(cos_theta * np.sin(np.pi * r / (t + 1)))
    terms = np.cos((t - 1) * w - np.pi * r * n / (t + 1)) / np.cos(w)
    head = 1.0 if t % 2 == 0 else 0.0
    return (head + math.fsum(terms)) / (t + 1)
