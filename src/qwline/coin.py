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
from itertools import repeat
from typing import Callable

import numpy as np

from ._csvio import read_csv, write_csv
from .errors import (TableError, TotalityError, UnsupportedParameterError, first_fault,
                     require_finite_fields)

__all__ = [
    "CoinAngles",
    "CoinField",
    "PhaseField",
    "coin_matrix",
    "bloch_vector",
    "save_coin_field_csv",
    "save_phase_field_csv",
    "load_coin_field_csv",
    "load_phase_field_csv",
]

COIN_CSV_HEADER = "n,t,theta,alpha,beta,chi"
PHASE_CSV_HEADER = "n,t,xi,zeta"


@dataclass(frozen=True)
class CoinAngles:
    """Constant coin parameters, all in radians."""

    theta: float
    alpha: float = 0.0
    beta: float = 0.0
    chi: float = 0.0

    def __post_init__(self):
        require_finite_fields(self)


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


def _sample_each(fns, ns, t: int) -> tuple:
    """One float row per callable of ``fns``: ``float(fn(n, t))`` at the
    integer sites ``ns`` (as Python ints) at step ``t``.  The one place a
    site/time callable runs: the sites are listed once, and each distinct
    callable (by identity) is called once per site, a repeat sharing its row."""
    sites, ts = np.asarray(ns).tolist(), repeat(int(t))
    rows = {id(fn): fn for fn in fns}
    rows = {key: np.fromiter(map(fn, sites, ts), dtype=np.float64, count=len(sites))
            for key, fn in rows.items()}
    return tuple(rows[id(fn)] for fn in fns)


@dataclass(frozen=True)
class CoinField:
    """Coin parameters as a row sampler ``rows(ns, t) -> (theta, alpha, beta, chi)``.

    ``rows`` returns four float arrays holding the parameters at the integer
    sites ``ns`` at step ``t``.  Every backing implements it: constants,
    scalar callables evaluated through :func:`_sample_each`, dense tables
    loaded from file and the dressing transforms.  ``angles`` holds the
    constant angles of a field built by :meth:`homogeneous`, else ``None``.
    """

    rows: Callable[[np.ndarray, int], tuple]
    angles: CoinAngles | None = field(default=None, init=False)

    @classmethod
    def homogeneous(cls, c: CoinAngles) -> "CoinField":
        """Lift constant angles to a (trivially) site/time-dependent field."""
        values = (c.theta, c.alpha, c.beta, c.chi)
        lifted = cls(lambda ns, t: tuple(np.full(len(ns), v) for v in values))
        object.__setattr__(lifted, "angles", c)
        return lifted

    @classmethod
    def from_functions(cls, theta_of, alpha_of, beta_of, chi_of) -> "CoinField":
        """A field from four scalar callables ``(n, t) -> radians``."""
        fns = (theta_of, alpha_of, beta_of, chi_of)
        return cls(lambda ns, t: _sample_each(fns, ns, t))

    @staticmethod
    def lift(ref: "CoinField | CoinAngles") -> "CoinField":
        """``ref`` itself, or the constant field of constant angles."""
        return CoinField.homogeneous(ref) if isinstance(ref, CoinAngles) else ref

    def materialize(self, n_lo: int, n_hi: int, t: int, stride: int = 1):
        """Evaluate all four parameters on ``n = n_lo, n_lo + stride, .. n_hi`` at step ``t``.

        Returns four float arrays.  Non-finite values raise
        :class:`UnsupportedParameterError` (a ``ValueError``) naming the
        first offending site, so a bad closure cannot silently poison the
        evolution.
        """
        ns = np.arange(n_lo, n_hi + 1, stride)
        out = self.rows(ns, t)
        _require_finite(ns, t, out)
        return out


def _require_finite(ns, t: int, rows, names=("theta", "alpha", "beta", "chi")) -> None:
    """Raise :class:`UnsupportedParameterError` at the first site of ``ns``
    where one of the ``rows``, a coin row ``(theta, alpha, beta, chi)``
    unless other ``names`` are given, is not finite, naming the first such
    row there.  One pass checks the rows joined (flattened, so a scalar row
    passes too); the bad site is looked for only when that pass fails."""
    if np.isfinite(np.concatenate(rows, axis=None)).all():
        return
    k, i = first_fault([np.isfinite(row) for row in rows])
    raise UnsupportedParameterError(f"{names[k]} is not finite at (n={ns[i]}, t={t})")


class PhaseField:
    """A pair of lattice phases as a row sampler ``rows(ns, t) -> (xi, zeta)``.

    ``xi`` multiplies the plus component and ``zeta`` the minus component
    when one walk is rewritten in terms of another.  ``rows`` returns two
    float arrays at the integer sites ``ns`` at step ``t``, backed like a
    :class:`CoinField`: two scalar callables ``(n, t) -> radians`` passed to
    the constructor and evaluated through :func:`_sample_each`, constants,
    dense tables loaded from file, or any row sampler (:meth:`from_rows`).
    One callable passed twice is sampled once per row, its row returned as
    both components.
    """

    def __init__(self, xi_of: Callable[[int, int], float],
                 zeta_of: Callable[[int, int], float]):
        self.rows = lambda ns, t: _sample_each((xi_of, zeta_of), ns, t)

    @classmethod
    def from_rows(cls, rows: Callable[[np.ndarray, int], tuple]) -> "PhaseField":
        """A pair backed directly by a row sampler ``rows(ns, t) -> (xi, zeta)``."""
        pair = cls.__new__(cls)
        pair.rows = rows
        return pair

    @classmethod
    def constant(cls, xi: float, zeta: float | None = None) -> "PhaseField":
        """Constant phases; without ``zeta`` both components carry ``xi``."""
        values = (xi, xi if zeta is None else zeta)
        return cls.from_rows(
            lambda ns, t: tuple(np.full(len(ns), v, dtype=np.float64) for v in values))

    @classmethod
    def symmetric(cls, xi_of: Callable[[int, int], float]) -> "PhaseField":
        """Both components carry the same phase (``zeta == xi``)."""
        return cls(xi_of, xi_of)


def _window_table_rows(values: list, t_max: int, what: str):
    """Row sampler over dense tables indexed ``[t, n + t_max]``."""

    def rows(ns, t):
        ns = np.asarray(ns)
        outside = (np.abs(ns) > t_max) | (not 0 <= t <= t_max)
        if outside.any():
            raise TotalityError(ns[np.argmax(outside)], t, what=what)
        return tuple(v[t, ns + t_max] for v in values)

    return rows


def _save_window_csv(path, header: str, t_max: int, rows) -> None:
    """Write ``rows(ns, t)`` on the square window ``|n| <= t_max, 0 <= t <= t_max``,
    each row broadcast to the sites, so a scalar row is a constant column.
    Each row is checked finite as it is sampled, before the file is opened,
    so the first fault in step order is the one named."""
    ns, ts = np.arange(-t_max, t_max + 1), np.arange(t_max + 1)

    def sampled(t):
        row = rows(ns, t)
        _require_finite(ns, t, row, header.split(",")[2:])
        return row

    values = zip(*(sampled(int(t)) for t in ts))
    columns = [np.stack([np.broadcast_to(row, ns.shape) for row in v]) for v in values]
    write_csv(path, header, columns, grid=(ns, ts))


def save_coin_field_csv(f: CoinField, t_max: int, path) -> None:
    """Tabulate ``f`` on the square window ``|n| <= t_max, 0 <= t <= t_max``."""
    _save_window_csv(path, COIN_CSV_HEADER, t_max, f.rows)


def save_phase_field_csv(f: PhaseField, t_max: int, path) -> None:
    """Tabulate ``f`` on the square window ``|n| <= t_max, 0 <= t <= t_max``."""
    _save_window_csv(path, PHASE_CSV_HEADER, t_max, f.rows)


def _load_window_csv(path, header: str, what: str):
    """Shared reader for dense (n, t)-keyed tables.

    Returns ``(t_max, list of value arrays indexed [t, n + t_max])``.  The
    window is inferred from the largest ``t`` present; every pair with
    ``|n| <= t_max`` and ``0 <= t <= t_max`` must appear exactly once, no
    row may lie outside, and every value must be finite.  A malformed file
    raises :class:`TableError`, a missing entry :class:`TotalityError`.
    """
    def malformed(msg):
        return TableError(f"{what} file {path}: {msg}")

    cols = read_csv(path, header, what)
    n, t = cols.pop("n"), cols.pop("t")
    # (t, n) order, stable: each repeat lands right after its first row
    order = np.lexsort((n, t))
    again = np.flatnonzero((np.diff(t[order]) == 0) & (np.diff(n[order]) == 0))
    if again.size:
        i = order[again + 1].min()
        raise malformed(f"duplicate entry for (n={n[i]}, t={t[i]})")
    t_max = int(t.max())
    outside = np.flatnonzero((t < 0) | (np.abs(n) > t_max))
    if outside.size:
        i = outside[0]
        why = "t < 0" if t[i] < 0 else f"|n| > t_max = {t_max}"
        raise malformed(f"row outside the window ({why}) at (n={n[i]}, t={t[i]})")
    width = 2 * t_max + 1
    # distinct keys inside the window, ascending: the first gap is the first
    # missing site in (t, n) order
    key = t[order] * width + n[order] + t_max
    gap = np.flatnonzero(key != np.arange(key.size))
    if gap.size or key.size < (t_max + 1) * width:
        k = gap[0] if gap.size else key.size
        raise TotalityError(k % width - t_max, k // width, what=what)
    values = [v[order] for v in cols.values()]
    fault = first_fault([np.isfinite(v) for v in values])
    if fault is not None:
        k, i = fault
        raise malformed(f"{list(cols)[k]} is not finite at (n={i % width - t_max}, t={i // width})")
    return t_max, [v.reshape(t_max + 1, width) for v in values]


def load_coin_field_csv(path) -> CoinField:
    """Load a tabulated coin field written as ``n,t,theta,alpha,beta,chi``."""
    t_max, values = _load_window_csv(path, COIN_CSV_HEADER, "coin field")
    return CoinField(_window_table_rows(values, t_max, "coin field"))


def load_phase_field_csv(path) -> PhaseField:
    """Load a tabulated phase pair written as ``n,t,xi,zeta``."""
    t_max, values = _load_window_csv(path, PHASE_CSV_HEADER, "phase field")
    return PhaseField.from_rows(_window_table_rows(values, t_max, "phase field"))
