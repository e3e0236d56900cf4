"""Numerically hot kernels, in numpy.

``walk_step`` advances a walker one step from one row pair into another,
``lambda_fill`` runs the two-step recursion of the lattice kernel and
``lambda_spectral`` evaluates one row of its mode expansion by FFT.  Rows
hold the values at the occupied sites only, so no kernel touches the sites a
parity-localized walker leaves exactly zero.  The loops make short numpy
calls on rows of hundreds to thousands of sites, where the cost of a call is
much of the work: ``walk_step`` makes one call per term across both
chirality rows, and ``lambda_fill`` forms each product of a row once.  Each
kernel is the only implementation of its operation, so repeated calls with
identical inputs are bit-identical.  ``evolve`` steps a walk's live window
and flushes its underflowed end sites to zero; the invariance verifications
step every stored site, and ``lambda_fill`` keeps its subnormal tails too:
the closed form is the independent side of the cross-check with stepping.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"

__all__ = ["BACKEND", "CHUNK_SITES", "walk_step", "lambda_fill", "lambda_spectral"]

# stored sites per chunk of steps handled at once, packed one after another:
# the invariance verifications' sampled, checked, stepped and compared rows,
# and the moduli of a recorded trajectory (a 64 KiB float chunk).  A wider
# step is a chunk by itself.  Chunks of 8192 sites raised the T = 4000 exact
# verification's tracemalloc peak from 3.29 to 3.90 MiB
CHUNK_SITES = 4096


# ---------------------------------------------------------------------------
# one walk step: shift after coin, a row gains 2 // stride stored sites
# ---------------------------------------------------------------------------

def walk_step(plus, minus, out, head, tail, cross, self_, scratch):
    """Advance both components one step, from ``plus``, ``minus`` into
    ``out``, ``head`` and ``tail``.

    The source rows hold ``m`` consecutive stored sites, ``stride`` apart:
    stride 2 for a parity-localized walker, whose other sites are zero, else
    1.  The output rows, ``k = 2 // stride`` entries longer, hold the sites
    one step later that those sites reach, from the one left of the first to
    the one right of the last, and must not overlap the source.  The plus
    component moves right and the minus component left, so ``out``, a
    ``(2, m)`` array, takes the last ``m`` plus outputs and the first ``m``
    minus outputs, and ``head``, the first ``k`` plus outputs, and ``tail``,
    the last ``k`` minus outputs, are set to exactly zero.  ``cross`` holds
    the coin entries ``(a, c)`` and ``self_`` the entries ``(b, -d)`` of
    ``[[a, b], [c, -d]]`` at the source sites, as :func:`qwline.coin.coin_entries`
    stacks them (one column for a constant coin).  ``scratch``, a ``(2, m)``
    complex array apart from the rows, takes the ``minus`` products, so a
    step allocates no array and makes three numpy calls for both rows.

    The rows are bitwise ``a * plus + b * minus`` and ``c * plus - d *
    minus`` but for the sign of some exact zeros.  ``x + (-y)`` is ``x - y``
    exactly, and ``(-d) * minus`` is ``-(d * minus)`` except where a part of
    ``d * minus`` sums two terms to exactly ``+0.0``: ``(-d) * minus`` has
    ``+0.0`` there too.  Where that part of ``c * plus`` is ``-0.0``, the
    minus output part is then ``+0.0``, not the ``-0.0`` of the difference.

    :func:`qwline.evolution.evolve` hands it only a walk's live window and
    sets end sites whose two components fall below
    ``np.finfo(np.float64).tiny`` to exactly 0 (changing bits only where a
    modulus is below about 1e-270), so no subnormal tail feeds another
    step; the invariance verifications hand it every stored site, tails
    included.
    """
    # coin entry first, then the other term added: the float order of
    # a * plus + b * minus and of c * plus + (-d) * minus
    np.multiply(cross, plus, out=out)
    np.multiply(self_, minus, out=scratch)
    out += scratch
    head.fill(0)
    tail.fill(0)


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
    products = np.empty(t_max + 2)
    for t in range(2, t_max + 1):
        # each product cos(theta) * lam(n, t - 1) once, read at n + 1 and
        # n - 1: the float order of cos * left - cos * right + lam(n, t - 2)
        scaled = products[:t + 2]
        np.multiply(cos_theta, out[(t - 1) % depth, :t + 2], out=scaled)
        # a rolling slot last held row t - 3 (columns 1 .. t - 2): every stale
        # entry is overwritten, and the columns read past a row stay zero
        row = np.subtract(scaled[:-1], scaled[1:], out=out[t % depth, 1:t + 2])
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
