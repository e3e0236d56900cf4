"""Two-component wave functions on the integer line.

A walker prepared at the origin and evolved for ``t`` steps lives on the
window ``n = -t .. t`` with one complex amplitude per chirality component.
Amplitudes outside the window are identically zero, and a walker started
from a single site only populates sites with ``n + t`` even.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._csvio import read_csv, write_csv
from .errors import InputError, TableError, require_count, require_finite_fields

__all__ = [
    "InitialState",
    "SpinorField",
    "localized_state",
    "save_spinor_csv",
    "load_spinor_csv",
]

SPINOR_CSV_HEADER = "n,re_plus,im_plus,re_minus,im_minus"


@dataclass(frozen=True)
class InitialState:
    """Origin spinor ``(cos(eta), e^{i*gamma} sin(eta))``.

    ``eta`` sets the weight balance between the two chirality components,
    ``gamma`` their relative phase.  Both must be finite real numbers.
    """

    eta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        require_finite_fields(self)


@dataclass(frozen=True, eq=False)
class SpinorField:
    """Walker state at a fixed time ``t``.

    ``plus_amps[i]`` and ``minus_amps[i]`` hold the two components at site
    ``n = i - t``; both arrays span the full reachable window ``-t .. t``.
    Instances are immutable: the amplitude arrays are copied on construction
    and marked read-only.  ``parity_localized`` is read from the copies: it
    is true when both components vanish exactly on the sites with ``n + t``
    odd, their odd window indices (``-0.0`` does, NaN does not).
    """

    t: int
    plus_amps: np.ndarray
    minus_amps: np.ndarray
    parity_localized: bool = field(init=False)

    def __post_init__(self):
        require_count("time index", self.t)
        width = 2 * self.t + 1
        for name in ("plus_amps", "minus_amps"):
            arr = np.array(getattr(self, name), dtype=np.complex128, copy=True)
            if arr.shape != (width,):
                raise InputError(
                    f"{name} must have shape ({width},) for t={self.t}, got {arr.shape}"
                )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "parity_localized",
                           not (np.any(self.plus_amps[1::2]) or np.any(self.minus_amps[1::2])))

    @property
    def n_values(self) -> np.ndarray:
        """Site labels for the window, ``[-t, ..., t]``."""
        return np.arange(-self.t, self.t + 1)

    def amplitudes_at(self, n: int) -> tuple[complex, complex]:
        """Both components at site ``n`` (zero outside the window)."""
        require_count("n", n, -math.inf)
        if abs(n) > self.t:
            return 0j, 0j
        i = n + self.t
        return complex(self.plus_amps[i]), complex(self.minus_amps[i])

    def norm(self) -> float:
        """Total probability carried by the state."""
        return float(
            np.sum(np.abs(self.plus_amps) ** 2 + np.abs(self.minus_amps) ** 2)
        )

    def validate(self, atol: float | None = None) -> None:
        """Check the physical invariants; raise ``ValueError`` on failure.

        Verifies finiteness and normalization within ``atol``.  The
        default ``atol`` is ``max(1e-12, 8 eps sqrt(t (2t + 1)))``: the norm
        drift of a correct walk grows like ``eps sqrt(t (2t + 1))`` (at most
        1.3 times that over 360 random walks with t up to 4000).
        """
        if not (np.all(np.isfinite(self.plus_amps.view(np.float64)))
                and np.all(np.isfinite(self.minus_amps.view(np.float64)))):
            raise ValueError("amplitudes contain non-finite entries")
        if atol is None:
            eps = np.finfo(np.float64).eps
            atol = max(1e-12, 8 * eps * math.sqrt(self.t * (2 * self.t + 1)))
        drift = abs(self.norm() - 1.0)
        if drift > atol:
            raise ValueError(f"norm deviates from 1 by {drift:.3e} (atol={atol:.1e})")


def localized_state(init: InitialState) -> SpinorField:
    """Walker at ``t = 0``: everything on site 0 with the given spinor."""
    plus = np.array([np.cos(init.eta)], dtype=np.complex128)
    minus = np.array([np.exp(1j * init.gamma) * np.sin(init.eta)], dtype=np.complex128)
    return SpinorField(t=0, plus_amps=plus, minus_amps=minus)


def save_spinor_csv(state: SpinorField, path) -> None:
    """Write the state as ``n,re_plus,im_plus,re_minus,im_minus`` rows."""
    p, m = state.plus_amps, state.minus_amps
    write_csv(path, SPINOR_CSV_HEADER,
              [state.n_values, p.real, p.imag, m.real, m.imag])


def load_spinor_csv(path) -> SpinorField:
    """Read a state written by :func:`save_spinor_csv`.

    The rows must cover a full window ``-t .. t`` in order.  A malformed
    file raises :class:`TableError` (a ``ValueError``).
    """
    cols = read_csv(path, SPINOR_CSV_HEADER, "spinor")
    t = (cols["n"].size - 1) // 2
    if not np.array_equal(cols["n"], np.arange(-t, t + 1)):
        raise TableError(
            f"spinor file {path}: rows must cover the contiguous window -{t}..{t}")
    # assigned, not summed: re + 1j * im can turn a -0.0 real part into +0.0
    plus, minus = np.empty((2, 2 * t + 1), dtype=np.complex128)
    plus.real, plus.imag = cols["re_plus"], cols["im_plus"]
    minus.real, minus.imag = cols["re_minus"], cols["im_minus"]
    return SpinorField(t=t, plus_amps=plus, minus_amps=minus)
