"""Workload inputs drawn from the seed.

Every parameter comes from a fixed range through ``random.Random(seed)``;
the sizes (horizons, resolutions, windows) are constants of the workloads
and never depend on the seed.  The formula coin exists twice: as scalar
callables ``(n, t) -> float`` handed to the library, and as one vectorized
numpy function used only by the benchmark's own reference stepper.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The coin table loaded by the dressing workload covers |n|, t <= COIN_T_MAX.
COIN_T_MAX = 120
GAUGE_DOMAIN = (-1.0, 1.0, 0.0, 1.5)


@dataclass(frozen=True)
class Walk:
    """Initial spinor and constant four-angle coin."""

    theta: float
    eta: float
    gamma: float
    alpha: float
    beta: float
    chi: float

    @property
    def phi(self) -> float:
        return self.alpha + self.beta - self.gamma


@dataclass(frozen=True)
class FormulaCoin:
    """Site/time-dependent coin; ``scalar`` feeds the library, ``vector`` the reference."""

    scalar: tuple  # (theta_of, alpha_of, beta_of, chi_of), each (n, t) -> float
    vector: Callable  # (n_array, t) -> (theta, alpha, beta, chi) arrays


@dataclass(frozen=True)
class Dressing:
    coin: FormulaCoin
    rate: float  # beta drift per step of the quasi family
    common: Callable  # common phase g(n, t) for the exact family
    common_twin: Callable  # a second function object with the same values
    cli_a: float  # coefficient of the CLI's bilinear exact family


@dataclass(frozen=True)
class Gauge:
    pairs: dict  # name -> (xi(X, T), zeta(X, T)) on arrays
    symmetric_grad: Callable  # (X, T) -> (d f/dT, d f/dX) of the symmetric pair
    field_a: float  # the changing pair's residual tends to field_a * X / 4
    bilinear_a: float  # xi = zeta = a n t on the lattice
    bilinear: Callable


@dataclass(frozen=True)
class Inputs:
    seed: int
    walk: Walk
    dressing: Dressing
    gauge: Gauge


def _counted(fn, counter):
    if counter is None:
        return fn

    def wrapped(n, t):
        counter()
        return fn(n, t)

    return wrapped


def make_inputs(seed: int, counter=None) -> Inputs:
    """Draw every workload's parameters from ``seed``.

    ``counter``, when given, is called once per evaluation of a scalar
    coin or phase callable handed to the library.
    """
    rng = random.Random(seed)
    u = rng.uniform
    walk = Walk(theta=u(0.35, 1.2), eta=u(0.1, 1.47), gamma=u(-math.pi, math.pi),
                alpha=u(-math.pi, math.pi), beta=u(-math.pi, math.pi),
                chi=u(-math.pi, math.pi))

    th0, th1, k1, w1 = u(0.5, 1.0), u(0.05, 0.2), u(0.05, 0.5), u(0.01, 0.2)
    al0, al1, al2 = u(-math.pi, math.pi), u(-0.05, 0.05), u(-0.05, 0.05)
    be0, be1, k2, w2 = u(-math.pi, math.pi), u(0.05, 0.5), u(0.05, 0.5), u(0.01, 0.2)
    ch0, ch1, k3 = u(-math.pi, math.pi), u(0.05, 0.5), u(0.05, 0.5)
    scalar = (
        lambda n, t: th0 + th1 * math.sin(k1 * n + w1 * t),
        lambda n, t: al0 + al1 * n + al2 * t,
        lambda n, t: be0 + be1 * math.cos(k2 * n - w2 * t),
        lambda n, t: ch0 + ch1 * math.sin(k3 * (n + t)),
    )

    def vector(n, t):
        return (th0 + th1 * np.sin(k1 * n + w1 * t),
                al0 + al1 * n + al2 * t,
                be0 + be1 * np.cos(k2 * n - w2 * t),
                ch0 + ch1 * np.sin(k3 * (n + t)))

    ga, gb, gk, gw = u(0.005, 0.05), u(0.1, 1.0), u(0.05, 0.5), u(0.05, 0.5)
    dressing = Dressing(
        coin=FormulaCoin(tuple(_counted(f, counter) for f in scalar), vector),
        rate=u(0.05, 0.3),
        common=_counted(lambda n, t: ga * n * t + gb * math.sin(gk * n + gw * t), counter),
        common_twin=_counted(lambda n, t: ga * n * t + gb * math.sin(gk * n + gw * t),
                             counter),
        cli_a=u(0.02, 0.2),
    )

    s1, s2, s3 = u(0.8, 1.6), u(0.6, 1.2), u(0.1, 0.4)
    p1, p2 = u(0.7, 1.3), u(0.6, 1.1)
    q = [u(0.5, 1.2) for _ in range(4)]
    big_a = u(0.5, 2.0)

    def sym(X, T):
        return np.sin(s1 * X) * np.cos(s2 * T) + s3 * X * T

    def sym_grad(X, T):
        return (-s2 * np.sin(s1 * X) * np.sin(s2 * T) + s3 * X,
                s1 * np.cos(s1 * X) * np.cos(s2 * T) + s3 * T)

    bil_a = u(0.01, 0.1)
    gauge = Gauge(
        pairs={
            "symmetric": (sym, sym),
            "null": (lambda X, T: np.sin(p1 * (X - T)),
                     lambda X, T: np.cos(p2 * (X + T))),
            "wave": (lambda X, T: np.sin(q[0] * (X - T)) + 0.5 * np.cos(q[1] * (X + T)),
                     lambda X, T: np.cos(q[2] * (X + T)) + 0.4 * np.sin(q[3] * (X - T))),
            "changing": (lambda X, T: big_a * X * T * T + np.sin(X - T),
                         lambda X, T: np.zeros_like(X)),
        },
        symmetric_grad=sym_grad,
        field_a=big_a,
        bilinear_a=bil_a,
        bilinear=_counted(lambda n, t: bil_a * n * t, counter),
    )
    return Inputs(seed=seed, walk=walk, dressing=dressing, gauge=gauge)


def write_coin_table(coin: FormulaCoin, t_max: int, path: Path) -> None:
    """Tabulate the scalar coin on ``|n| <= t_max, 0 <= t <= t_max``.

    Written as ``n,t,theta,alpha,beta,chi`` with 17 significant digits, so
    the loaded table holds bit-for-bit the values the formula returns.
    """
    th, al, be, ch = coin.scalar
    lines = ["n,t,theta,alpha,beta,chi\n"]
    for t in range(t_max + 1):
        for n in range(-t_max, t_max + 1):
            lines.append(f"{n},{t},{th(n, t):.17g},{al(n, t):.17g},"
                         f"{be(n, t):.17g},{ch(n, t):.17g}\n")
    path.write_text("".join(lines))
