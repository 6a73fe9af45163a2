import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bjjctrl import (
    ControlSchedule,
    InitialPreparation,
    JunctionParams,
    TruncatedState,
    dominant_trace,
    evolve_constant,
    initial_state,
    propagate,
    symmetric_preparation,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# independent oracles

def block_matrices(u, j, omega_eff):
    """Hamiltonian blocks written out row by row, independent of the library."""
    h1 = np.array([[omega_eff, -j], [-j, omega_eff]], dtype=complex)
    h2 = np.array(
        [
            [2.0 * (u + omega_eff), -SQRT2 * j, 0.0],
            [-SQRT2 * j, 2.0 * omega_eff, -SQRT2 * j],
            [0.0, -SQRT2 * j, 2.0 * (u + omega_eff)],
        ],
        dtype=complex,
    )
    return h1, h2


def rhs_oracle(vec, u, j, omega, kappa):
    h1, h2 = block_matrices(u, j, omega - 0.5j * kappa)
    out = np.zeros(6, dtype=complex)
    out[1:3] = -1j * (h1 @ vec[1:3])
    out[[4, 3, 5]] = -1j * (h2 @ vec[[4, 3, 5]])
    return out


def expm_oracle(state, u, j, omega, kappa, duration):
    """Brute-force matrix exponential of the assembled 6x6 generator."""
    h1, h2 = block_matrices(u, j, omega - 0.5j * kappa)
    big = np.zeros((6, 6), dtype=complex)
    big[1:3, 1:3] = h1
    big[np.ix_([4, 3, 5], [4, 3, 5])] = h2
    return expm(-1j * duration * big) @ state.as_array()


def rk4_oracle(state, schedule, omega, kappa, steps):
    """Textbook RK4 over ``rhs_oracle``, one step at a time."""
    h = schedule.duration / steps
    t = np.linspace(0.0, schedule.duration, steps + 1)

    def f(tk, vec):
        u, j = schedule.controls_at(tk)
        return rhs_oracle(vec, u, j, omega, kappa)

    y = state.as_array()
    out = [y]
    for k in range(steps):
        k1 = f(t[k], y)
        k2 = f(t[k] + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t[k] + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t[k + 1], y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def smooth_schedule(duration, phase=0.0, samples=2001):
    t = np.linspace(0.0, duration, samples)
    u = 0.35 + 0.25 * np.sin(2.0 * np.pi * t / duration + phase)
    j = 0.15 + 0.1 * np.cos(2.0 * np.pi * t / duration)
    return ControlSchedule(t, u, j)


# ---------------------------------------------------------------------------
# initial_state

def test_empty_junction_is_vacuum():
    state = initial_state(InitialPreparation(0.0, 0.0))
    assert state.c00 == 1.0
    assert all(
        getattr(state, k) == 0.0 for k in ("c10", "c01", "c11", "c20", "c02")
    )


def test_leading_order_symmetric_values():
    state = initial_state(symmetric_preparation(0.1))
    assert state.c00 == pytest.approx(0.995, abs=1e-15)
    assert state.c10 == pytest.approx(0.1 / SQRT2, abs=1e-15)
    assert state.c01 == pytest.approx(0.1 / SQRT2, abs=1e-15)
    assert state.c11 == pytest.approx(0.005, abs=1e-15)
    assert state.c20 == pytest.approx(0.005 / SQRT2, abs=1e-15)
    assert state.c02 == pytest.approx(0.005 / SQRT2, abs=1e-15)


def test_weak_pumping_cap_rejected():
    with pytest.raises(ValueError, match="weak-pumping cap"):
        InitialPreparation(0.4, 0.4)


# ---------------------------------------------------------------------------
# evolve_constant (closed form) against the brute-force exponential

def test_evolve_constant_zero_time_is_identity():
    state = initial_state(symmetric_preparation(0.2))
    out = evolve_constant(state, 0.7, 0.2, JunctionParams(0.3, 0.1), 0.0)
    assert np.allclose(out.as_array(), state.as_array(), atol=1e-15)


def test_evolve_constant_pure_nonlinearity_phases():
    state = TruncatedState(c20=0.3, c11=0.5, c02=0.2j)
    u, duration = 0.8, 1.7
    out = evolve_constant(state, u, 0.0, JunctionParams(), duration)
    phase = np.exp(-2j * u * duration)
    assert out.c20 == pytest.approx(0.3 * phase, abs=1e-14)
    assert out.c02 == pytest.approx(0.2j * phase, abs=1e-14)
    assert out.c11 == pytest.approx(0.5, abs=1e-14)


def test_evolve_constant_coupling_eigenmodes():
    state = TruncatedState(c10=0.3, c01=0.1)
    j, duration = 0.4, 2.1
    out = evolve_constant(state, 0.0, j, JunctionParams(), duration)
    plus = (out.c10 + out.c01)
    minus = (out.c10 - out.c01)
    assert plus == pytest.approx(0.4 * np.exp(1j * j * duration), abs=1e-14)
    assert minus == pytest.approx(0.2 * np.exp(-1j * j * duration), abs=1e-14)


def test_evolve_constant_matches_expm_oracle(rng):
    worst = 0.0
    for _ in range(30):
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        vec /= np.linalg.norm(vec)
        state = TruncatedState.from_array(vec)
        u, j = rng.uniform(0, 1.2, 2)
        omega = rng.uniform(-0.8, 0.8)
        kappa = rng.choice([0.0, 0.15])
        duration = rng.uniform(0.0, 8.0)
        got = evolve_constant(state, u, j, JunctionParams(omega, kappa), duration)
        want = expm_oracle(state, u, j, omega, kappa, duration)
        worst = max(worst, np.max(np.abs(got.as_array() - want)))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# propagate

def test_propagate_zero_controls_freezes_state():
    state = initial_state(symmetric_preparation(0.1))
    schedule = ControlSchedule.constant(0.0, 0.0, 5.0)
    traj = propagate(state, schedule, JunctionParams(), steps=200)
    assert traj.times[0] == 0.0 and traj.times[-1] == 5.0
    assert np.max(np.abs(traj.amplitudes - state.as_array())) < 1e-15


def test_propagate_against_constant_oracle():
    state = initial_state(symmetric_preparation(0.1))
    u, j, duration = 0.5, 0.25, 10.0
    schedule = ControlSchedule.constant(u, j, duration)
    traj = propagate(state, schedule, JunctionParams(), steps=10_000)
    want = evolve_constant(state, u, j, JunctionParams(), duration)
    assert np.max(np.abs(traj.final.as_array() - want.as_array())) < 1e-9


def test_propagate_random_constant_instances(rng):
    worst = 0.0
    for _ in range(20):
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        vec /= np.linalg.norm(vec)
        state = TruncatedState.from_array(vec)
        u, j = rng.uniform(0, 1.0), rng.uniform(0, 0.5)
        params = JunctionParams(rng.uniform(-0.5, 0.5), rng.choice([0.0, 0.1]))
        duration = rng.uniform(0.2, 2.5)
        traj = propagate(state, ControlSchedule.constant(u, j, duration), params, steps=3000)
        want = evolve_constant(state, u, j, params, duration)
        worst = max(worst, np.max(np.abs(traj.final.as_array() - want.as_array())))
    assert worst < 1e-9


@pytest.mark.parametrize("kappa", [0.0, 0.1])
def test_propagate_matches_stepwise_rk4_oracle(rng, kappa):
    # time-dependent controls make each step's node and midpoint
    # generators differ; 300 steps span more than one chunk of propagate
    for phase in (0.0, 1.3):
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        state = TruncatedState.from_array(vec / np.linalg.norm(vec))
        schedule = smooth_schedule(6.0, phase=phase, samples=37)
        traj = propagate(state, schedule, JunctionParams(0.2, kappa), steps=300)
        want = rk4_oracle(state, schedule, 0.2, kappa, 300)
        assert np.max(np.abs(traj.amplitudes - want)) < 1e-12


def test_propagate_aborts_on_blowup():
    state = initial_state(symmetric_preparation(0.1))
    schedule = ControlSchedule.constant(0.0, 1e6, 1.0)  # step way past stability
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite"):
            propagate(state, schedule, JunctionParams(), steps=50)


def test_block_decoupling():
    schedule = smooth_schedule(6.0)
    params = JunctionParams(0.2, 0.0)
    full0 = initial_state(symmetric_preparation(0.1))
    one0 = TruncatedState(c10=full0.c10, c01=full0.c01)
    two0 = TruncatedState(c11=full0.c11, c20=full0.c20, c02=full0.c02)
    steps = 500
    full = propagate(full0, schedule, params, steps).final.as_array()
    one = propagate(one0, schedule, params, steps).final.as_array()
    two = propagate(two0, schedule, params, steps).final.as_array()
    rebuilt = one + two
    rebuilt[0] = full0.c00
    assert np.max(np.abs(full - rebuilt)) < 1e-12


def test_conservation_on_smooth_schedule():
    traj = propagate(
        initial_state(symmetric_preparation(0.1)),
        smooth_schedule(8.0),
        JunctionParams(),
        steps=10_000,
    )
    one, two = traj.manifold_populations()
    assert np.max(np.abs(one - one[0])) < 1e-10
    assert np.max(np.abs(two - two[0])) < 1e-10


@st.composite
def lossy_runs(draw):
    """A random complex state, a random linearly interpolated schedule of
    2-30 samples on [0, T] with T in [0.5, 10], U in [0, 1], J in [0, 0.5],
    a frequency in [-0.5, 0.5] and a loss rate of 0 or 0.05."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
    state = TruncatedState.from_array(np.array(parts[:6]) + 1j * np.array(parts[6:]))
    n = draw(st.integers(2, 30))
    gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1)))
    times = draw(st.floats(0.5, 10.0)) * np.concatenate(([0.0], np.cumsum(gaps))) / gaps.sum()
    u = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    j = draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n))
    params = JunctionParams(draw(st.floats(-0.5, 0.5)), draw(st.sampled_from([0.0, 0.05])))
    return state, ControlSchedule(times, np.array(u), np.array(j)), params


@settings(derandomize=True, deadline=None, database=None)
@given(lossy_runs())
def test_manifold_populations_decay_as_exp_minus_n_kappa_t(run):
    """The loss shift is the same on every amplitude of an n-quanta
    manifold, so each population is its initial value times
    exp(-n kappa t), whatever the controls.  At 2000 steps RK4 keeps
    this to 1e-8 relative (the worst drawn case is about 2.3e-9)."""
    state, schedule, params = run
    traj = propagate(state, schedule, params, steps=2000)
    for n, pop in enumerate(traj.manifold_populations(), start=1):
        want = pop[0] * np.exp(-n * params.kappa * traj.times)
        assert np.max(np.abs(pop - want)) <= 1e-8 * pop[0]


def test_symmetric_preparation_keeps_c20_c02_equal():
    traj = propagate(
        initial_state(symmetric_preparation(0.25)),
        smooth_schedule(5.0, phase=0.7),
        JunctionParams(),
        steps=2000,
    )
    gap = np.abs(traj.amplitudes[:, 4] - traj.amplitudes[:, 5])
    assert np.max(gap) < 1e-12


def test_frequency_gauge_invariance_of_concurrence_term():
    state = initial_state(symmetric_preparation(0.1))
    schedule = smooth_schedule(8.0)
    base = propagate(state, schedule, JunctionParams(0.0), steps=4000)
    shifted = propagate(state, schedule, JunctionParams(0.35), steps=4000)
    diff = np.abs(dominant_trace(base.amplitudes) - dominant_trace(shifted.amplitudes))
    assert np.max(diff) < 1e-10


def test_alpha_scaling_of_normalized_concurrence():
    schedule = smooth_schedule(6.0)
    traces = []
    for alpha in (0.01, 0.1):
        traj = propagate(
            initial_state(symmetric_preparation(alpha)),
            schedule,
            JunctionParams(),
            steps=2000,
        )
        traces.append(dominant_trace(traj.amplitudes) / alpha**2)
    assert np.max(np.abs(traces[0] - traces[1])) < 1e-10


# ---------------------------------------------------------------------------
# one-quantum product c10 c01
#
# The symmetric one-quantum state is a coupling eigenvector, so for the
# symmetric preparation at zero frequency c10(T) c01(T) is
# (alpha^2/2) e^{2i Int J dt}: only the integrated coupling matters.

def final_product(schedule, alpha, steps=4000):
    traj = propagate(
        initial_state(symmetric_preparation(alpha)), schedule, JunctionParams(), steps
    )
    return traj.final.c10 * traj.final.c01


def test_product_phase_zero_coupling():
    schedule = ControlSchedule.constant(0.5, 0.0, 3.0)
    assert final_product(schedule, 0.1) == pytest.approx(0.005, abs=1e-15)


def test_product_phase_full_turn_wraps():
    duration = 4.0
    j = 2.0 * math.pi / (2.0 * duration)  # 2 J T = 2 pi
    schedule = ControlSchedule.constant(0.0, j, duration)
    assert final_product(schedule, 0.1) == pytest.approx(0.005, abs=1e-12)


def test_product_phase_modulus_is_pinned(rng):
    for _ in range(10):
        n = int(rng.integers(2, 400))
        t = np.sort(rng.uniform(0.0, 10.0, size=n))
        t[0] = 0.0
        t = np.unique(t)
        schedule = ControlSchedule(t, rng.uniform(0, 1, t.size), rng.uniform(0, 1, t.size))
        # RK4 steps across the kinks of up to 400 samples; 1e4 steps keep
        # the modulus to about 7e-8 relative
        assert abs(final_product(schedule, 0.2, 10_000)) == pytest.approx(0.02, rel=2e-7)


def test_product_phase_matches_propagated_product():
    # J is linear between samples, so the trapezoid rule on them is exact
    schedule = smooth_schedule(7.0)
    alpha = 0.1
    want = 0.5 * alpha**2 * np.exp(2j * np.trapezoid(schedule.j, schedule.times))
    assert abs(final_product(schedule, alpha, steps=10_000) - want) < 1e-8


# ---------------------------------------------------------------------------
# schedule validation

def test_schedule_rejects_bad_grids():
    with pytest.raises(ValueError):
        ControlSchedule(np.array([0.0, 1.0, 1.0]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        ControlSchedule(np.array([0.5, 1.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        ControlSchedule(np.array([0.0, 1.0]), np.array([0.0, np.inf]), np.zeros(2))
