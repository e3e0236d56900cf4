"""Exception types shared across the package, and the rules that pick the
entry an input error names."""

from dataclasses import fields

import numpy as np

__all__ = [
    "InputError",
    "TotalityError",
    "ParityError",
    "UnsupportedParameterError",
    "PhaseConditionError",
    "GridError",
    "TableError",
]


class InputError(ValueError):
    """Bad input: a parameter, a field, a file or a request the library
    cannot serve.  The command line maps every one to exit code 2."""


class TotalityError(InputError):
    """A site/time mapping was queried outside the window it is defined on."""

    def __init__(self, n, t, what="coin field"):
        self.n = int(n)
        self.t = int(t)
        super().__init__(f"{what} has no entry at (n={self.n}, t={self.t})")


class ParityError(InputError):
    """A lattice quantity was requested at a site the walker cannot reach."""


class UnsupportedParameterError(InputError):
    """A parameter lies outside the range an algorithm is valid for."""


class PhaseConditionError(InputError):
    """A phase-field pair violates the precondition of the requested transform."""


class GridError(InputError):
    """A sampling grid is too small or degenerate for the requested stencil."""


class TableError(InputError):
    """An input CSV file is malformed: header, row syntax, no rows, a
    duplicate entry, a row outside the table's window or a non-finite
    value."""


def first_fault(oks):
    """Where the boolean masks ``oks`` first fail, as ``(k, i)``, else ``None``.

    The masks are broadcast together, so a scalar mask covers every entry.
    ``i`` is the first flat index, in C order, at which some mask is False,
    and ``k`` the first mask that is False there: an error names the first
    bad entry and, among the checks failing there, the first.  Checks on a
    hot path decide in one pass whether anything failed and call this only
    then.
    """
    masks = np.broadcast_arrays(*oks)
    hits = np.flatnonzero(~np.logical_and.reduce(masks))
    if not hits.size:
        return None
    i = int(hits[0])
    return next(k for k, ok in enumerate(masks) if not ok.flat[i]), i


def require_finite_fields(params, ok=np.isfinite, must: str = "finite") -> None:
    """Raise :class:`InputError` naming the first field of the dataclass
    ``params``, or the first entry of a dict of named values, that is not a
    real number (a 0-d bool, integer or float; a Python int within the
    int64/uint64 range numpy computes in) or fails ``ok``, the condition the
    message words as what it ``must`` be."""
    named = params.items() if isinstance(params, dict) else (
        (f.name, getattr(params, f.name)) for f in fields(params))
    for name, v in named:
        # as objects, a ragged sequence is one dimension, not an error
        if np.asarray(v, dtype=object).ndim or np.asarray(v).dtype.kind not in "biuf":
            what = ("a float or an integer within the int64/uint64 range"
                    if isinstance(v, int) else "a real number")
            raise InputError(f"{name} must be {what}, got {v!r}")
        if not ok(v):
            raise InputError(f"{name} must be {must}, got {v!r}")


def require_count(name: str, value, least: int = 0, error=InputError) -> None:
    """Raise ``error`` unless ``value``, a horizon or a size, is a Python or
    numpy integer, not a bool, of at least ``least`` (worded non-negative
    for 0, positive for 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        floor = {0: "non-negative", 1: "positive"}.get(least, f"at least {least}")
        raise error(f"{name} must be {floor}, got {value}")
