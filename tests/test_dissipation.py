"""The loss model on the path ``shortcut --kappa`` runs: propagate under
``JunctionParams(0.0, kappa)``, then ``dominant_trace``."""

import math

import numpy as np
import pytest

from bjjctrl import (
    ControlVector,
    JunctionParams,
    dominant_trace,
    initial_state,
    propagate,
    symmetric_preparation,
)
from bjjctrl.dynamics import effective_frequency


def loss_traces(run, kappa, steps):
    """Times and the dominant concurrence along ``run``'s schedule, lossless
    and at loss rate ``kappa``."""
    state0 = initial_state(run.prep)
    lossless = propagate(state0, run.schedule, JunctionParams(0.0, 0.0), steps)
    lossy = propagate(state0, run.schedule, JunctionParams(0.0, kappa), steps)
    return lossless.times, dominant_trace(lossless.amplitudes), dominant_trace(lossy.amplitudes)


def test_effective_params_identity_without_loss():
    assert effective_frequency(JunctionParams(0.7, 0.0)) == 0.7 + 0.0j


def test_effective_params_substitution():
    assert effective_frequency(JunctionParams(0.0, 0.1)) == -0.05j
    assert effective_frequency(JunctionParams(0.4, 0.2)) == 0.4 - 0.1j


def test_one_quantum_amplitudes_decay_at_half_rate():
    kappa, duration = 0.3, 4.0
    state = initial_state(symmetric_preparation(0.1))
    controls = ControlVector([0.3], [0.2], duration)
    base = propagate(state, controls, JunctionParams(0.0, 0.0), steps=1).final
    lossy = propagate(state, controls, JunctionParams(0.0, kappa), steps=1).final
    half = math.exp(-0.5 * kappa * duration)
    fullr = math.exp(-kappa * duration)
    assert lossy.c10 == pytest.approx(base.c10 * half, abs=1e-14)
    assert lossy.c01 == pytest.approx(base.c01 * half, abs=1e-14)
    for name in ("c11", "c20", "c02"):
        assert getattr(lossy, name) == pytest.approx(getattr(base, name) * fullr, abs=1e-14)


def test_lossless_trace_is_identical(fast_run):
    times, lossless, lossy = loss_traces(fast_run, 0.0, steps=2000)
    assert np.array_equal(lossless, lossy)
    assert times[np.argmax(lossy)] == pytest.approx(fast_run.duration, abs=0.05)


@pytest.mark.parametrize("kappa", [0.01, 0.05, 0.1])
def test_concurrence_factorises_exactly(fast_run, kappa):
    times, lossless, lossy = loss_traces(fast_run, kappa, steps=10_000)
    assert np.max(np.abs(lossy - lossless * np.exp(-kappa * times))) <= 1e-8


@pytest.mark.parametrize("kappa", [0.01, 0.05, 0.1])
def test_factorisation_on_slow_shortcut(original_run, kappa):
    times, lossless, lossy = loss_traces(original_run, kappa, steps=10_000)
    assert np.max(np.abs(lossy - lossless * np.exp(-kappa * times))) <= 1e-8


def test_component_decay_rates(fast_run):
    kappa = 0.08
    steps = 4000
    state0 = initial_state(fast_run.prep)
    base = propagate(state0, fast_run.schedule, JunctionParams(0.0, 0.0), steps)
    lossy = propagate(state0, fast_run.schedule, JunctionParams(0.0, kappa), steps)
    t = base.times
    half = np.exp(-0.5 * kappa * t)
    full = np.exp(-kappa * t)
    for col, factor in ((1, half), (2, half), (3, full), (4, full), (5, full)):
        want = np.abs(base.amplitudes[:, col]) * factor
        got = np.abs(lossy.amplitudes[:, col])
        assert np.max(np.abs(got - want)) <= 1e-8


def test_peak_shifts_earlier_with_loss(fast_run):
    peaks = []
    for kappa in (0.0, 0.01, 0.05, 0.1):
        times, _, lossy = loss_traces(fast_run, kappa, steps=4000)
        peaks.append(times[np.argmax(lossy)])
    assert all(b <= a + 1e-12 for a, b in zip(peaks, peaks[1:]))
    assert peaks[-1] < peaks[0]


def test_final_reduction_factor(fast_run):
    kappa = 0.1
    _, lossless, lossy = loss_traces(fast_run, kappa, steps=4000)
    ratio = lossy[-1] / lossless[-1]
    assert ratio == pytest.approx(math.exp(-kappa * fast_run.duration), abs=1e-9)
    # at the headline duration this is e^{-1.5665}
    assert ratio == pytest.approx(math.exp(-1.5665), abs=1e-4)


def test_negative_rate_rejected():
    with pytest.raises(ValueError, match="loss rate kappa must be >= 0"):
        JunctionParams(0.0, -0.1)


@pytest.mark.parametrize("omega, kappa", [
    (math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan), (0.0, math.inf),
])
def test_non_finite_junction_parameters_rejected(omega, kappa):
    with pytest.raises(ValueError, match="junction parameters must be finite"):
        JunctionParams(omega, kappa)
