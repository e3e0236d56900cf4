"""Exception types shared across the package."""


class TotalityError(ValueError):
    """A site/time mapping was queried outside the window it is defined on."""

    def __init__(self, n, t, what="coin field"):
        self.n = int(n)
        self.t = int(t)
        super().__init__(f"{what} has no entry at (n={self.n}, t={self.t})")


class ParityError(ValueError):
    """A lattice quantity was requested at a site the walker cannot reach."""


class UnsupportedParameterError(ValueError):
    """A parameter lies outside the range an algorithm is valid for."""


class PhaseConditionError(ValueError):
    """A phase-field pair violates the precondition of the requested transform."""


class GridError(ValueError):
    """A sampling grid is too small or degenerate for the requested stencil."""


class TableError(ValueError):
    """An input CSV file is malformed: header, row syntax, no rows, a
    duplicate entry, a row outside the table's window or a non-finite
    value."""
