"""Long-double references, so a test can bound a double route's true error.

Two double routes that agree say nothing about which one is off.  These
references take the same double inputs and evaluate in ``np.longdouble``
(64-bit mantissa on x86-64), whose rounding is far below the double
rounding they are used to measure.  Loading the module fails where long
double is plain double: there the mend is a double-double fallback, not a
skip.
"""
import numpy as np

from qwline import UnitSystem

EPS = np.finfo(np.float64).eps

if not np.finfo(np.longdouble).eps <= 1.1e-19:
    raise ImportError(f"np.longdouble has eps {np.finfo(np.longdouble).eps}, "
                      "too coarse to be a reference for float64")


def efield_residual(pair, domain, res: int, units: UnitSystem = UnitSystem()) -> np.ndarray:
    """The residual of :func:`qwline.efield_invariance_residual` in long double.

    The pair is sampled in double on the library's haloed grid, and the
    nested composition ``(hbar_over_e c / 2) [d_minus d_plus xi - d_plus
    d_minus zeta]`` of centered light-cone derivatives ``d_pm = (D_t / (2 k
    dt) / c +- D_x / (2 k dx)) / 2`` (half-width 1 inside, 2 outside) is
    evaluated from those samples in long double.
    """
    x0, x1, t0, t1 = (float(v) for v in domain)
    dx, dt = (x1 - x0) / (res - 1), (t1 - t0) / (res - 1)
    steps = np.arange(-3, res + 3)
    tt, xx = np.meshgrid(t0 + dt * steps, x0 + dx * steps, indexing="ij")
    c, dx, dt = (np.longdouble(v) for v in (units.c, dx, dt))

    def sample(fn):
        return np.broadcast_to(np.asarray(fn(xx, tt), dtype=np.float64),
                               xx.shape).astype(np.longdouble)

    def null(arr, sign, k):
        d_dt = (arr[2 * k:, k:-k] - arr[:-2 * k, k:-k]) / (2 * k * dt)
        d_dx = (arr[k:-k, 2 * k:] - arr[k:-k, :-2 * k]) / (2 * k * dx)
        return (d_dt / c + sign * d_dx) / 2

    term_xi = null(null(sample(pair.xi), +1, 1), -1, 2)
    term_zeta = null(null(sample(pair.zeta), -1, 1), +1, 2)
    return np.longdouble(units.hbar_over_e) * c / 2 * (term_xi - term_zeta)
