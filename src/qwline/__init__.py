"""Discrete-time quantum walks on the line.

Simulation with site/time-dependent coins, the closed-form solution of the
homogeneous walk, position-distribution observables, phase-dressing
families that leave the walk (quasi-)invariant, and the continuum reading
of those dressings as electromagnetic gauge data.
"""

from .closedform import (
    LambdaTable,
    closed_form_amplitudes,
    initial_velocities,
    lambda_explicit,
    lambda_table,
    omega,
    one_step_amplitudes,
    save_lambda_csv,
)
from .coin import (
    CoinAngles,
    CoinField,
    PhaseField,
    bloch_vector,
    coin_matrix,
    load_coin_field_csv,
    load_phase_field_csv,
    sample,
    save_coin_field_csv,
    save_phase_field_csv,
)
from .errors import (
    GridError,
    ParityError,
    PhaseConditionError,
    TableError,
    TotalityError,
    UnsupportedParameterError,
)
from .evolution import evolve, step_homogeneous, step_inhomogeneous
from .gauge import (
    PotentialField,
    SmoothPhasePair,
    UnitSystem,
    efield_invariance_residual,
    electric_field,
    finite_difference_transform,
    lattice_phases_from_smooth,
    potentials_from_phase_pair,
    potentials_from_transform,
    save_potentials_csv,
    save_residual_csv,
)
from .invariance import (
    InvarianceReport,
    exact_transform,
    quasi_invariant_phases,
    relative_phase_map,
    transform_coin_field,
    verify_exact_invariance,
    verify_quasi_invariance,
)
from .observables import (
    ObservableRecord,
    ballistic_slope,
    chirality_probabilities,
    classical_pmf,
    fitted_slope,
    magnetization,
    mean_position,
    observe,
    pmf,
    save_comparison_csv,
    save_pmf_csv,
    save_trajectory_csv,
    smoothed_pmf,
    stationary_pmf,
    symmetry_residuals,
)
from .state import (
    InitialState,
    SpinorField,
    load_spinor_csv,
    localized_state,
    save_spinor_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # state
    "InitialState",
    "SpinorField",
    "localized_state",
    "save_spinor_csv",
    "load_spinor_csv",
    # coin
    "CoinAngles",
    "CoinField",
    "PhaseField",
    "coin_matrix",
    "bloch_vector",
    "sample",
    "save_coin_field_csv",
    "save_phase_field_csv",
    "load_coin_field_csv",
    "load_phase_field_csv",
    # evolution
    "step_homogeneous",
    "step_inhomogeneous",
    "evolve",
    # closed form
    "omega",
    "lambda_explicit",
    "LambdaTable",
    "lambda_table",
    "save_lambda_csv",
    "one_step_amplitudes",
    "closed_form_amplitudes",
    "initial_velocities",
    # observables
    "pmf",
    "chirality_probabilities",
    "magnetization",
    "mean_position",
    "ObservableRecord",
    "observe",
    "classical_pmf",
    "stationary_pmf",
    "smoothed_pmf",
    "ballistic_slope",
    "symmetry_residuals",
    "fitted_slope",
    "save_pmf_csv",
    "save_trajectory_csv",
    "save_comparison_csv",
    # invariance
    "transform_coin_field",
    "exact_transform",
    "quasi_invariant_phases",
    "relative_phase_map",
    "InvarianceReport",
    "verify_quasi_invariance",
    "verify_exact_invariance",
    # gauge
    "UnitSystem",
    "finite_difference_transform",
    "PotentialField",
    "potentials_from_transform",
    "electric_field",
    "SmoothPhasePair",
    "lattice_phases_from_smooth",
    "potentials_from_phase_pair",
    "efield_invariance_residual",
    "save_potentials_csv",
    "save_residual_csv",
    # errors
    "TotalityError",
    "ParityError",
    "UnsupportedParameterError",
    "PhaseConditionError",
    "GridError",
    "TableError",
]
