"""Effective non-Hermitian loss model.

Markovian losses at rate kappa shift the mode frequency to
omega - i*kappa/2 (jump terms are negligible at these occupations).  The
one-quantum amplitudes then decay as exp(-kappa t/2), the two-quanta ones
as exp(-kappa t), and the dominant concurrence is the lossless value times
exp(-kappa t).  No renormalisation is applied to the decayed state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ControlSchedule,
    InitialPreparation,
    JunctionParams,
    initial_state,
    propagate,
    symmetric_preparation,
)
from .entanglement import dominant_trace


@dataclass(frozen=True)
class DissipativeTrace:
    times: np.ndarray
    concurrence_lossless: np.ndarray
    concurrence_lossy: np.ndarray
    kappa: float
    peak_time: float  # argmax of the lossy curve

    @property
    def analytic_lossy(self) -> np.ndarray:
        """Lossless curve carrying the exp(-kappa t) reduction."""
        return self.concurrence_lossless * np.exp(-self.kappa * self.times)


def dissipative_trace(
    schedule: ControlSchedule,
    kappa: float,
    prep: InitialPreparation | None = None,
    steps: int = 10_000,
) -> DissipativeTrace:
    """Dominant concurrence along a schedule, with and without losses.

    Both curves come from direct propagation; the lossy one should match
    ``analytic_lossy`` to integrator accuracy.
    """
    if kappa < 0.0:
        raise ValueError("kappa must be >= 0")
    prep = prep if prep is not None else symmetric_preparation(0.1)
    state0 = initial_state(prep)
    lossless = propagate(state0, schedule, JunctionParams(), steps)
    base = dominant_trace(lossless.amplitudes)
    if kappa == 0.0:
        lossy = base.copy()
    else:
        run = propagate(state0, schedule, JunctionParams(kappa=kappa), steps)
        lossy = dominant_trace(run.amplitudes)
    peak = float(lossless.times[int(np.argmax(lossy))])
    return DissipativeTrace(
        times=lossless.times,
        concurrence_lossless=base,
        concurrence_lossy=lossy,
        kappa=float(kappa),
        peak_time=peak,
    )
