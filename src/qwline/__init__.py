"""Discrete-time quantum walks on the line.

Simulation with site/time-dependent coins, the closed-form solution of the
homogeneous walk, position-distribution observables, phase-dressing
families that leave the walk (quasi-)invariant, and the continuum reading
of those dressings as electromagnetic gauge data.

Each module declares its public names in its own ``__all__``; the package
exports exactly their union.
"""

from . import closedform, coin, errors, evolution, gauge, invariance, observables, state
from .closedform import *
from .coin import *
from .errors import *
from .evolution import *
from .gauge import *
from .invariance import *
from .observables import *
from .state import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (closedform, coin, errors, evolution, gauge, invariance, observables, state)
    for name in module.__all__
]
