"""Control synthesis toolkit for entanglement generation in weakly pumped
bosonic Josephson junctions: truncated two-mode dynamics, concurrence and
entropy metrics, counterdiabatic shortcut construction with its duration
solver, bounded-control time-optimal synthesis, and an effective loss
model."""

from .dynamics import (
    AMPLITUDE_LABELS,
    ControlSchedule,
    InitialPreparation,
    JunctionParams,
    Trajectory,
    TruncatedState,
    evolve_constant,
    initial_state,
    product_phase,
    propagate,
    symmetric_preparation,
)
from .entanglement import (
    MAX_NORMALIZED_CONCURRENCE,
    ConcurrenceValue,
    EntanglementResult,
    concurrence,
    dominant_trace,
    eigenvalue_approximations,
    entanglement_exact,
    entanglement_of_concurrence,
    max_concurrence,
    reduced_density,
)
from .shortcuts import (
    GaugePhaseRecord,
    ReferenceProfile,
    TwoLevelState,
    counterdiabatic_controls,
    duration_lhs,
    estimate_min_duration,
    phases,
    profile_fast,
    profile_original,
    solve_coeffs_E,
    solve_coeffs_phi,
    solve_duration,
    two_level_reduce,
)
from .optimal_control import (
    ControlVector,
    OptimizationResult,
    SweepCurve,
    maximize,
    minimum_time,
    objective,
    objective_gradient,
    shortcut_seed,
    sweep,
)
from .dissipation import DissipativeTrace, dissipative_trace

__version__ = "0.1.0"
