"""The benchmark's own reference computations.

None of this calls the library.  The stepper applies a dense 2x2 coin,
built from the paper's matrix, at every site of a fixed window and then
shifts the two components explicitly, so it shares no code path with the
library's growing-window kernel.
"""
from __future__ import annotations

import math

import numpy as np


def coin_entries(theta, alpha, beta, chi):
    """The four entries of ``e^{i chi} [[e^{i alpha} c, e^{-i beta} s],
    [e^{i beta} s, -e^{-i alpha} c]]``, elementwise over arrays."""
    g = np.exp(1j * chi)
    c, s = np.cos(theta), np.sin(theta)
    return (g * np.exp(1j * alpha) * c, g * np.exp(-1j * beta) * s,
            g * np.exp(1j * beta) * s, -g * np.exp(-1j * alpha) * c)


def step_states(eta, gamma, t_final, coin_at, keep=()):
    """Step from the origin spinor ``(cos eta, e^{i gamma} sin eta)``.

    ``coin_at(ns, t)`` returns the four coin angles at sites ``ns`` and
    step ``t``.  Returns ``{t: (plus, minus)}`` for each ``t`` in ``keep``;
    both arrays span ``n = -t .. t``.
    """
    ns = np.arange(-t_final, t_final + 1)
    plus = np.zeros(ns.size, dtype=np.complex128)
    minus = np.zeros(ns.size, dtype=np.complex128)
    plus[t_final] = math.cos(eta)
    minus[t_final] = np.exp(1j * gamma) * math.sin(eta)
    out = {}
    for t in range(t_final + 1):
        if t in keep:
            sl = slice(t_final - t, t_final + t + 1)
            out[t] = (plus[sl].copy(), minus[sl].copy())
        if t == t_final:
            break
        u00, u01, u10, u11 = coin_entries(*coin_at(ns, t))
        a = u00 * plus + u01 * minus
        b = u10 * plus + u11 * minus
        plus = np.empty_like(a)
        minus = np.empty_like(b)
        plus[0] = 0
        plus[1:] = a[:-1]
        minus[-1] = 0
        minus[:-1] = b[1:]
    return out


def constant_coin(theta, alpha, beta, chi):
    return lambda ns, t: (theta, alpha, beta, chi)


def binomial_pmf(p, t):
    """Classical walk on ``-t .. t`` from ``math.lgamma``, site by site."""
    out = np.zeros(2 * t + 1)
    lp = math.log(p) if p > 0 else -math.inf
    lq = math.log1p(-p) if p < 1 else -math.inf
    for k in range(t + 1):
        right = k * lp if k else 0.0
        left = (t - k) * lq if t - k else 0.0
        out[2 * k] = math.exp(math.lgamma(t + 1) - math.lgamma(k + 1)
                              - math.lgamma(t - k + 1) + right + left)
    return out


def envelope(ns, t, theta, eta, phi):
    """Long-time envelope of the position distribution (paper's stationary form)."""
    ct, st = math.cos(theta), math.sin(theta)
    bias = math.cos(2 * eta) + math.sin(2 * eta) * math.tan(theta) * math.cos(phi)
    out = np.zeros(len(ns))
    for i, n in enumerate(ns):
        if abs(n) < t * ct:
            out[i] = (2.0 * t * st / math.pi * (t + n * bias)
                      / ((t * t - n * n) * math.sqrt(t * t * ct * ct - n * n)))
    return out


def ballistic(theta, eta, phi):
    """Mean-position velocity ``(1 - sin theta)(cos 2eta + sin 2eta tan theta cos phi)``."""
    return (1.0 - math.sin(theta)) * (
        math.cos(2 * eta) + math.sin(2 * eta) * math.tan(theta) * math.cos(phi))


def wrapped(x):
    """``x`` folded into ``[-pi, pi]``."""
    return math.atan2(math.sin(x), math.cos(x))
