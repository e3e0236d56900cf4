"""Coin operators and their site/time dependence.

The single-step coin is a 2x2 unitary parametrized by a mixing angle
``theta`` and three phases ``alpha``, ``beta``, ``chi``::

    e^{i chi} [ e^{i alpha} cos(theta)    e^{-i beta} sin(theta) ]
              [ e^{i beta}  sin(theta)   -e^{-i alpha} cos(theta) ]

A :class:`CoinField` generalizes this to parameters that vary with the site
``n`` and the step ``t``; a :class:`PhaseField` carries the pair of lattice
phases used to build one walk out of another.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import TableError, TotalityError

__all__ = [
    "CoinAngles",
    "CoinField",
    "PhaseField",
    "coin_matrix",
    "coin_entries",
    "bloch_vector",
    "save_coin_field_csv",
    "load_coin_field_csv",
    "load_phase_field_csv",
]

COIN_CSV_HEADER = "n,t,theta,alpha,beta,chi"
PHASE_CSV_HEADER = "n,t,xi,zeta"

HOMOGENEOUS = "homogeneous"
TABULATED = "tabulated"
FORMULA = "formula"


@dataclass(frozen=True)
class CoinAngles:
    """Constant coin parameters, all in radians."""

    theta: float
    alpha: float = 0.0
    beta: float = 0.0
    chi: float = 0.0

    def __post_init__(self):
        for name in ("theta", "alpha", "beta", "chi"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")


def coin_matrix(c: CoinAngles) -> np.ndarray:
    """The 2x2 coin unitary for constant parameters."""
    ct, st = np.cos(c.theta), np.sin(c.theta)
    gain = np.exp(1j * c.chi)
    return gain * np.array(
        [
            [np.exp(1j * c.alpha) * ct, np.exp(-1j * c.beta) * st],
            [np.exp(1j * c.beta) * st, -np.exp(-1j * c.alpha) * ct],
        ],
        dtype=np.complex128,
    )


def coin_entries(theta, alpha, beta, chi):
    """Coin entries ``(a, b, c, d)`` of ``[[a, b], [c, -d]]``, elementwise.

    Accepts scalars or equal-shape arrays; the one step kernel
    (:func:`qwline.kernels.walk_step`) consumes them in this form.
    """
    gain = np.exp(1j * chi)
    cos_g = np.cos(theta) * gain
    sin_g = np.sin(theta) * gain
    ea = np.exp(1j * alpha)
    ebm = np.exp(-1j * beta)
    return ea * cos_g, ebm * sin_g, np.conj(ebm) * sin_g, np.conj(ea) * cos_g


_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)


def bloch_vector(beta: float, theta: float) -> np.ndarray:
    """Unit 3-vector whose Pauli contraction reproduces the coin.

    ``sum_k u_k sigma_k`` equals ``coin_matrix(CoinAngles(theta, 0, beta, 0))``,
    so a step-dependent ``beta`` sequence traces a precession of this vector
    around the z axis at fixed polar angle ``theta``.
    """
    st = np.sin(theta)
    return np.array([st * np.cos(beta), st * np.sin(beta), np.cos(theta)])


@dataclass(frozen=True)
class CoinField:
    """Coin parameters as total mappings ``(n, t) -> radians``.

    Evolution only consumes the four mapping attributes, so any backing
    works: constants (``descriptor == "homogeneous"``), closures
    (``"formula"``) or dense tables loaded from file (``"tabulated"``).
    """

    theta_of: Callable[[int, int], float]
    alpha_of: Callable[[int, int], float]
    beta_of: Callable[[int, int], float]
    chi_of: Callable[[int, int], float]
    descriptor: str = FORMULA
    _angles: CoinAngles | None = field(default=None, repr=False)

    @classmethod
    def homogeneous(cls, c: CoinAngles) -> "CoinField":
        """Lift constant angles to a (trivially) site/time-dependent field."""
        return cls(
            theta_of=lambda n, t: c.theta,
            alpha_of=lambda n, t: c.alpha,
            beta_of=lambda n, t: c.beta,
            chi_of=lambda n, t: c.chi,
            descriptor=HOMOGENEOUS,
            _angles=c,
        )

    @classmethod
    def from_functions(cls, theta_of, alpha_of, beta_of, chi_of) -> "CoinField":
        return cls(theta_of, alpha_of, beta_of, chi_of, descriptor=FORMULA)

    @property
    def angles(self) -> CoinAngles | None:
        """The constant angles of a field built by :meth:`homogeneous`, else ``None``."""
        return self._angles

    def materialize(self, n_lo: int, n_hi: int, t: int):
        """Evaluate all four parameters on ``n = n_lo .. n_hi`` at step ``t``.

        Returns four float arrays.  Non-finite values raise ``ValueError``
        naming the first offending site, so a bad closure cannot silently
        poison the evolution.
        """
        width = n_hi - n_lo + 1
        if self._angles is not None:
            c = self._angles
            return (
                np.full(width, c.theta),
                np.full(width, c.alpha),
                np.full(width, c.beta),
                np.full(width, c.chi),
            )
        out = []
        for fn, name in (
            (self.theta_of, "theta"),
            (self.alpha_of, "alpha"),
            (self.beta_of, "beta"),
            (self.chi_of, "chi"),
        ):
            arr = np.empty(width, dtype=np.float64)
            for i, n in enumerate(range(n_lo, n_hi + 1)):
                arr[i] = fn(n, t)
            if not np.all(np.isfinite(arr)):
                bad = int(np.flatnonzero(~np.isfinite(arr))[0]) + n_lo
                raise ValueError(f"{name} is not finite at (n={bad}, t={t})")
            out.append(arr)
        return tuple(out)


@dataclass(frozen=True)
class PhaseField:
    """A pair of lattice phases ``xi(n, t)``, ``zeta(n, t)`` in radians.

    ``xi`` multiplies the plus component and ``zeta`` the minus component
    when one walk is rewritten in terms of another.
    """

    xi_of: Callable[[int, int], float]
    zeta_of: Callable[[int, int], float]
    descriptor: str = FORMULA

    @classmethod
    def from_functions(cls, xi_of, zeta_of) -> "PhaseField":
        return cls(xi_of, zeta_of, descriptor=FORMULA)

    @classmethod
    def constant(cls, xi: float, zeta: float | None = None) -> "PhaseField":
        z = xi if zeta is None else zeta
        return cls(lambda n, t: xi, lambda n, t: z, descriptor=HOMOGENEOUS)

    @classmethod
    def symmetric(cls, xi_of: Callable[[int, int], float]) -> "PhaseField":
        """Both components carry the same phase (``zeta == xi``)."""
        return cls(xi_of, xi_of, descriptor=FORMULA)

    @property
    def is_symmetric(self) -> bool:
        return self.zeta_of is self.xi_of


def _window_table_lookup(values: np.ndarray, t_max: int, what: str):
    def lookup(n: int, t: int) -> float:
        if t < 0 or t > t_max or abs(n) > t_max:
            raise TotalityError(n, t, what=what)
        return float(values[t, n + t_max])

    return lookup


def save_coin_field_csv(f: CoinField, t_max: int, path) -> None:
    """Tabulate ``f`` on the square window ``|n| <= t_max, 0 <= t <= t_max``."""
    with open(path, "w", newline="") as fh:
        fh.write(COIN_CSV_HEADER + "\n")
        for t in range(t_max + 1):
            th, al, be, ch = f.materialize(-t_max, t_max, t)
            for i, n in enumerate(range(-t_max, t_max + 1)):
                fh.write(
                    f"{n},{t},{th[i]:.17g},{al[i]:.17g},{be[i]:.17g},{ch[i]:.17g}\n"
                )


def save_phase_field_csv(f: PhaseField, t_max: int, path) -> None:
    """Tabulate ``f`` on the square window ``|n| <= t_max, 0 <= t <= t_max``."""
    with open(path, "w", newline="") as fh:
        fh.write(PHASE_CSV_HEADER + "\n")
        for t in range(t_max + 1):
            for n in range(-t_max, t_max + 1):
                fh.write(
                    f"{n},{t},{f.xi_of(n, t):.17g},{f.zeta_of(n, t):.17g}\n"
                )


def _load_window_csv(path, header: str, n_cols: int, what: str):
    """Shared reader for dense (n, t)-keyed tables.

    Returns ``(t_max, list of value arrays)``.  The window is inferred from
    the largest ``t`` present; every pair with ``|n| <= t_max`` and
    ``0 <= t <= t_max`` must appear exactly once, and every value must be
    finite.  A malformed file raises :class:`TableError`, a missing entry
    :class:`TotalityError`.
    """
    def malformed(msg):
        return TableError(f"{what} file {path}: {msg}")

    rows = {}
    with open(path, newline="") as fh:
        got = fh.readline().strip()
        if got != header:
            raise malformed(f"unexpected header {got!r}, want {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 2 + n_cols:
                raise malformed(f"malformed row: {line!r}")
            try:
                key = (int(cells[0]), int(cells[1]))
                vals = [float(c) for c in cells[2:]]
            except ValueError:
                raise malformed(f"malformed row: {line!r}") from None
            if key in rows:
                raise malformed(f"duplicate entry for (n={key[0]}, t={key[1]})")
            rows[key] = vals
    if not rows:
        raise malformed("no data rows")
    t_max = max(t for _, t in rows)
    values = [np.empty((t_max + 1, 2 * t_max + 1)) for _ in range(n_cols)]
    for t in range(t_max + 1):
        for n in range(-t_max, t_max + 1):
            if (n, t) not in rows:
                raise TotalityError(n, t, what=what)
            for k in range(n_cols):
                values[k][t, n + t_max] = rows[(n, t)][k]
    finite = np.logical_and.reduce([np.isfinite(v) for v in values])
    if not finite.all():
        # first offending (t, n) in window order, then its first column
        t, i = np.argwhere(~finite)[0]
        k = next(k for k, v in enumerate(values) if not np.isfinite(v[t, i]))
        name = header.split(",")[2 + k]
        raise malformed(f"{name} is not finite at (n={i - t_max}, t={t})")
    return t_max, values


def load_coin_field_csv(path) -> CoinField:
    """Load a tabulated coin field written as ``n,t,theta,alpha,beta,chi``."""
    t_max, (th, al, be, ch) = _load_window_csv(path, COIN_CSV_HEADER, 4, "coin field")
    return CoinField(
        theta_of=_window_table_lookup(th, t_max, "coin field"),
        alpha_of=_window_table_lookup(al, t_max, "coin field"),
        beta_of=_window_table_lookup(be, t_max, "coin field"),
        chi_of=_window_table_lookup(ch, t_max, "coin field"),
        descriptor=TABULATED,
    )


def load_phase_field_csv(path) -> PhaseField:
    """Load a tabulated phase pair written as ``n,t,xi,zeta``."""
    t_max, (xi, zeta) = _load_window_csv(path, PHASE_CSV_HEADER, 2, "phase field")
    return PhaseField(
        xi_of=_window_table_lookup(xi, t_max, "phase field"),
        zeta_of=_window_table_lookup(zeta, t_max, "phase field"),
        descriptor=TABULATED,
    )
