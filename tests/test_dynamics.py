import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bjjctrl.dynamics import _CHUNK, _sweep, _tree

from bjjctrl import (
    ControlSchedule,
    ControlVector,
    InitialPreparation,
    JunctionParams,
    OptimizationResult,
    SweepCurve,
    TruncatedState,
    dominant_trace,
    initial_state,
    objective,
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


def generator(u, j, omega, kappa):
    """The assembled 6x6 generator -iH, with c00's row and column zero."""
    h1, h2 = block_matrices(u, j, omega - 0.5j * kappa)
    big = np.zeros((6, 6), dtype=complex)
    big[1:3, 1:3] = h1
    big[np.ix_([4, 3, 5], [4, 3, 5])] = h2
    return -1j * big


def expm_oracle(state, u, j, omega, kappa, duration):
    """Brute-force matrix exponential of the assembled 6x6 generator."""
    return expm(duration * generator(u, j, omega, kappa)) @ state.as_array()


#: Gauss nodes of a step and the weights a1, a2 of the commutator-free
#: Magnus step CF4:2 (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)).
GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
CF4_WEIGHTS = ((3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0)


def cf4_oracle(state, schedule, omega, kappa, steps):
    """Textbook CF4:2 on the 6x6 generator, one step at a time: step k
    multiplies by expm(h (a1 A1 + a2 A2)) expm(h (a2 A1 + a1 A2)), with A1
    and A2 the generator at the Gauss nodes of [t_k, t_k + h]."""
    h = schedule.duration / steps
    starts = np.linspace(0.0, schedule.duration, steps + 1)[:-1]
    a1, a2 = CF4_WEIGHTS
    gens = [
        np.array([generator(*schedule.controls_at(t + c * h), omega, kappa) for t in starts])
        for c in GAUSS_NODES
    ]
    first = expm(h * (a2 * gens[0] + a1 * gens[1]))
    second = expm(h * (a1 * gens[0] + a2 * gens[1]))
    y = state.as_array()
    out = [y]
    for f, s in zip(first, second):
        y = s @ (f @ y)
        out.append(y)
    return np.array(out)


def one_segment(state, u, j, params, duration):
    """Closed-form propagation under constant controls: a one-segment
    ControlVector."""
    return propagate(state, ControlVector([u], [j], duration), params, steps=1).final


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
# one constant segment (closed form) against the brute-force exponential

def test_evolve_constant_zero_time_is_identity():
    state = initial_state(symmetric_preparation(0.2))
    out = one_segment(state, 0.7, 0.2, JunctionParams(0.3, 0.1), 0.0)
    assert np.allclose(out.as_array(), state.as_array(), atol=1e-15)


def test_evolve_constant_pure_nonlinearity_phases():
    state = TruncatedState(c20=0.3, c11=0.5, c02=0.2j)
    u, duration = 0.8, 1.7
    out = one_segment(state, u, 0.0, JunctionParams(), duration)
    phase = np.exp(-2j * u * duration)
    assert out.c20 == pytest.approx(0.3 * phase, abs=1e-14)
    assert out.c02 == pytest.approx(0.2j * phase, abs=1e-14)
    assert out.c11 == pytest.approx(0.5, abs=1e-14)


def test_evolve_constant_coupling_eigenmodes():
    state = TruncatedState(c10=0.3, c01=0.1)
    j, duration = 0.4, 2.1
    out = one_segment(state, 0.0, j, JunctionParams(), duration)
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
        got = one_segment(state, u, j, JunctionParams(omega, kappa), duration)
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
    want = one_segment(state, u, j, JunctionParams(), duration)
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
        want = one_segment(state, u, j, params, duration)
        worst = max(worst, np.max(np.abs(traj.final.as_array() - want.as_array())))
    assert worst < 1e-9


@pytest.mark.parametrize("kappa", [0.0, 0.1])
def test_propagate_matches_stepwise_cf4_oracle(rng, kappa):
    # time-dependent controls make each step's two Gauss-node generators
    # differ; the chunk edges are left to the random runs below
    for phase in (0.0, 1.3):
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        state = TruncatedState.from_array(vec / np.linalg.norm(vec))
        schedule = smooth_schedule(6.0, phase=phase, samples=37)
        traj = propagate(state, schedule, JunctionParams(0.2, kappa), steps=300)
        want = cf4_oracle(state, schedule, 0.2, kappa, 300)
        assert np.max(np.abs(traj.amplitudes - want)) < 1e-12


@st.composite
def sampled_runs(draw):
    """A random unnormalised state with c10 != c01 and c20 != c02, so that
    every scalar mode and the (S, c11) pair carry amplitude; a random
    linearly interpolated schedule of 2-40 samples on [0, T] with T in
    [0.5, 2]; a frequency in [-0.5, 0.5], a loss rate in [0, 0.2], and a
    step count at and around the chunk edges of ``propagate``."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
    vec = np.array(parts[:6]) + 1j * np.array(parts[6:])
    assume(abs(vec[1] - vec[2]) > 1e-3 and abs(vec[4] - vec[5]) > 1e-3)
    n = draw(st.integers(2, 40))
    gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1)))
    times = draw(st.floats(0.5, 2.0)) * np.concatenate(([0.0], np.cumsum(gaps))) / gaps.sum()
    u = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    j = draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n))
    omega, kappa = draw(st.floats(-0.5, 0.5)), draw(st.floats(0.0, 0.2))
    steps = draw(st.sampled_from([1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]))
    schedule = ControlSchedule(times, np.array(u), np.array(j))
    return TruncatedState.from_array(vec), schedule, omega, kappa, steps


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(sampled_runs())
def test_cf4_matches_stepwise_oracle_on_random_runs(run):
    """``propagate`` on a sampled schedule is the textbook CF4:2 step, one
    step at a time, on every mode and across chunk edges."""
    state, schedule, omega, kappa, steps = run
    traj = propagate(state, schedule, JunctionParams(omega, kappa), steps)
    want = cf4_oracle(state, schedule, omega, kappa, steps)
    assert np.max(np.abs(traj.amplitudes - want)) < 1e-12


def test_sampled_schedules_converge_at_fourth_order():
    """Halving the step divides the error by 2^4 = 16.  The samples lie
    every T/10, so at 10 * 2^k steps each step sees controls linear in t,
    and no kink between samples lowers the order; the differences of
    successive final states stand for the errors."""
    rng = np.random.default_rng(5)
    vec = rng.normal(size=6) + 1j * rng.normal(size=6)
    state = TruncatedState.from_array(vec / np.linalg.norm(vec))
    schedule = smooth_schedule(6.0, samples=11)
    finals = [
        propagate(state, schedule, JunctionParams(0.2, 0.05), 10 * 2**k).final.as_array()
        for k in range(5)
    ]
    diffs = [np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])]
    ratios = [a / b for a, b in zip(diffs, diffs[1:])]
    assert all(15.0 < r < 17.0 for r in ratios), ratios


@st.composite
def matrix_chains(draw):
    """n non-unitary complex 2x2 matrices I + h Z in ``_mul``'s layout
    (2, 2, n), with Z's entries normal and h in
    [0, 0.1], and start columns x of shape (2, m), m in {1, 2}; n is
    around the powers of two where the tree's padding starts or ends."""
    n = draw(st.sampled_from([1, 2, 3, 5, 1023, 1024, 1025]))
    m = draw(st.integers(1, 2))
    h = draw(st.floats(0.0, 0.1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(2, 2, n)) + 1j * rng.normal(size=(2, 2, n))
    mats = np.eye(2)[:, :, None] + h * z
    return mats, rng.normal(size=(2, m)) + 1j * rng.normal(size=(2, m))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(matrix_chains())
def test_sweep_of_tree_is_the_sequential_chain(chain):
    """Column i of the scan is M_{i-1} ... M_0 x for i = 0 .. n, through
    the identity padding and the top product's column; past n the
    padding repeats the last state."""
    mats, x = chain
    n = mats.shape[-1]
    want = [x]
    for k in range(n):
        want.append(mats[..., k] @ want[-1])
    want = np.stack(want, axis=-1)
    got = _sweep(_tree(mats), x)
    width = 1 << (n - 1).bit_length()
    assert got.shape == x.shape + (width + 1,)
    scale = np.linalg.norm(want, axis=0)
    assert np.all(np.linalg.norm(got[..., :n + 1] - want, axis=0) <= 1e-12 * scale)
    tail = got[..., n:] - want[..., -1:]
    assert np.all(np.linalg.norm(tail, axis=0) <= 1e-12 * scale[:, -1:])


def test_propagate_aborts_on_blowup():
    """The error names the first non-finite row, here 37 rows into the
    second chunk: J jumps to 1e200 between the Gauss nodes of the step
    that ends at that row."""
    state = initial_state(symmetric_preparation(0.1))
    steps = _CHUNK + 100
    first = _CHUNK + 37
    h = 1.0 / steps
    jump = (first - 1 + 0.3) * h
    times = np.array([0.0, jump, jump + 0.1 * h, 1.0])
    schedule = ControlSchedule(times, np.full(4, 0.3), np.array([0.1, 0.1, 1e200, 1e200]))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = cf4_oracle(state, schedule, 0.0, 0.0, steps)
        bad = np.flatnonzero(~np.all(np.isfinite(rows), axis=1))
        assert bad[0] == first
        shown = f"t = {np.linspace(0.0, 1.0, steps + 1)[first]:.6g} (step {first}/{steps})"
        with pytest.raises(FloatingPointError, match=re.escape(shown)):
            propagate(state, schedule, JunctionParams(), steps=steps)


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
    exp(-n kappa t), whatever the controls.  Every step is unitary up
    to that factor, so at 2000 steps this holds to rounding: the worst
    drawn case is about 2.5e-14 relative."""
    state, schedule, params = run
    traj = propagate(state, schedule, params, steps=2000)
    for n, pop in enumerate(traj.manifold_populations(), start=1):
        want = pop[0] * np.exp(-n * params.kappa * traj.times)
        assert np.max(np.abs(pop - want)) <= 1e-11 * pop[0]


@st.composite
def piecewise_runs(draw):
    """Random controls on 1-20 equal segments of [0, T] with T in [0, 10],
    a random complex preparation with alpha^2 > 1e-8, a frequency in [-0.5, 0.5], a loss rate
    of 0 or 0.08, and a step count that is not a multiple of the segment
    count (but for one segment)."""
    n = draw(st.integers(1, 20))
    u = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    j = draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n))
    cv = ControlVector(u, j, draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))))
    parts = draw(st.lists(st.floats(-0.15, 0.15), min_size=4, max_size=4))
    assume(sum(p * p for p in parts) > 1e-8)  # C/alpha^2 needs a nonzero alpha
    prep = InitialPreparation(complex(*parts[:2]), complex(*parts[2:]))
    params = JunctionParams(draw(st.floats(-0.5, 0.5)), draw(st.sampled_from([0.0, 0.08])))
    steps = draw(st.integers(1, 500).filter(lambda k: n == 1 or k % n))
    return cv, prep, params, steps


@settings(derandomize=True, deadline=None, database=None)
@given(piecewise_runs())
def test_piecewise_controls_propagate_exactly(run):
    """A ControlVector runs in closed form: the final C/alpha^2 is the
    optimiser's objective, and each manifold population decays as
    exp(-n kappa t) at every sample, including those inside a segment."""
    cv, prep, params, steps = run
    traj = propagate(initial_state(prep), cv, params, steps)
    assert traj.times.size == steps + 1 and traj.times[-1] == cv.duration
    final = dominant_trace(traj.amplitudes)[-1] / prep.alpha_sq
    assert final == pytest.approx(objective(cv, prep, params), abs=1e-9)
    for n, pop in enumerate(traj.manifold_populations(), start=1):
        want = pop[0] * np.exp(-n * params.kappa * traj.times)
        assert np.max(np.abs(pop - want)) <= 1e-12 * pop[0]


def test_piecewise_controls_at_picks_the_segment_holding_t():
    cv = ControlVector([0.1, 0.2, 0.3, 0.4], [1.0, 2.0, 3.0, 4.0], 2.0)
    u, j = cv.controls_at(np.array([0.0, 0.49, 0.5, 1.2, 1.99, 2.0]))
    assert u.tolist() == [0.1, 0.1, 0.2, 0.3, 0.4, 0.4]
    assert j.tolist() == [1.0, 1.0, 2.0, 3.0, 4.0, 4.0]
    assert cv.controls_at(2.0) == (0.4, 4.0)
    instant = ControlVector([0.1, 0.2], [1.0, 2.0], 0.0)
    assert instant.controls_at(np.zeros(3))[0].tolist() == [0.1, 0.1, 0.1]


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
        # the one-quantum steps are unitary, so the modulus holds to
        # rounding (about 3e-16 relative) across the kinks of up to 400
        # samples
        assert abs(final_product(schedule, 0.2, 10_000)) == pytest.approx(0.02, rel=1e-13)


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


_PAIR = np.array([0.1, 0.2])
ARRAY_HOLDERS = {
    "ControlSchedule": lambda: ControlSchedule(np.array([0.0, 1.0]), _PAIR, _PAIR),
    "ControlVector": lambda: ControlVector(_PAIR, _PAIR, 1.0),
    "Trajectory": lambda: propagate(
        initial_state(symmetric_preparation(0.1)), ControlVector(_PAIR, _PAIR, 1.0),
        JunctionParams(), steps=2,
    ),
    "OptimizationResult": lambda: OptimizationResult(
        ControlVector(_PAIR, _PAIR, 1.0), 1.0, 3, True, 0, "pg"
    ),
    "SweepCurve": lambda: SweepCurve(np.array([1.0, 2.0]), _PAIR, 0.0),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS)
def test_array_holding_classes_compare_by_identity(make):
    """Equal-valued instances holding several samples or segments stay
    distinct: ==, ``in`` and hashing follow identity."""
    a, b = make(), make()
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert hash(a) == hash(a) and len({a, b, a}) == 2
