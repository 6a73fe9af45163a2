"""Control synthesis toolkit for entanglement generation in weakly pumped
bosonic Josephson junctions: truncated two-mode dynamics, concurrence and
entropy metrics, counterdiabatic shortcut construction with its duration
solver, and bounded-control time-optimal synthesis; losses enter as the
complex frequency shift omega -> omega - i*kappa/2."""

from .dynamics import (
    ControlSchedule,
    ControlVector,
    InitialPreparation,
    JunctionParams,
    TruncatedState,
    initial_state,
    propagate,
    symmetric_preparation,
)
from .entanglement import (
    MAX_NORMALIZED_CONCURRENCE,
    concurrence,
    dominant_trace,
    entanglement_exact,
    entanglement_of_concurrence,
    reduced_density,
)
from .shortcuts import (
    ReferenceProfile,
    TransferPhases,
    counterdiabatic_controls,
    duration_lhs,
    estimate_min_duration,
    phases,
    profile_fast,
    profile_original,
    solve_duration,
)
from .optimal_control import (
    OptimizationResult,
    SweepCurve,
    maximize,
    minimum_time,
    objective,
    objective_gradient,
    shortcut_seed,
    sweep,
)

__version__ = "0.1.0"
