import dataclasses
import logging
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bjjctrl import (
    ControlVector,
    InitialPreparation,
    JunctionParams,
    initial_state,
    maximize,
    minimum_time,
    objective,
    objective_gradient,
    propagate,
    shortcut_seed,
    sweep,
    symmetric_preparation,
)
from bjjctrl import optimal_control
from bjjctrl.entanglement import MAX_NORMALIZED_CONCURRENCE
from bjjctrl.optimal_control import project

BOUNDS = (1.0, 0.25)
CEILING = MAX_NORMALIZED_CONCURRENCE


def random_vector(rng, n=30, duration=None):
    return ControlVector(
        u=rng.uniform(0.0, BOUNDS[0], n),
        j=rng.uniform(0.0, BOUNDS[1], n),
        duration=float(rng.uniform(1.0, 10.0)) if duration is None else duration,
    )


def batch_values(uj, duration, blocks):
    """The objective of each row of controls, shape (starts, 2, segments)."""
    y0, x0, alpha_sq, omega_eff = blocks
    return optimal_control._value(
        optimal_control._forward(uj, duration, y0, x0, omega_eff), alpha_sq
    )


def batch_gradients(uj, duration, blocks):
    """The objective and gradient of each row of controls."""
    y0, x0, alpha_sq, omega_eff = blocks
    fwd = optimal_control._forward(uj, duration, y0, x0, omega_eff)
    return optimal_control._gradient(uj, duration, x0, alpha_sq, fwd)


def assert_same_result(a, b):
    """Two ``maximize`` results agree bit for bit."""
    assert (a.objective, a.iterations, a.converged, a.seed, a.stop) == (
        b.objective, b.iterations, b.converged, b.seed, b.stop)
    assert a.best.duration == b.best.duration
    assert np.array_equal(a.best.u, b.best.u) and np.array_equal(a.best.j, b.best.j)


def projected(uj):
    """Each row of controls clipped into the box."""
    return np.stack(project(uj[:, 0], uj[:, 1], BOUNDS), axis=1)


def chained_oracle(cv, prep, params):
    """Objective recomputed by propagating one segment at a time."""
    state = initial_state(prep)
    dt = cv.duration / cv.segments
    for k in range(cv.segments):
        state = propagate(state, ControlVector([cv.u[k]], [cv.j[k]], dt), params, steps=1).final
    return 2.0 * abs(state.c11 - state.c10 * state.c01) / prep.alpha_sq


def central_difference_gradient(cv, params, prep=None):
    """Central differences of the public objective, 1e-6 relative step."""
    grads = []
    for name in ("u", "j"):
        x0 = getattr(cv, name)
        g = np.zeros(cv.segments)
        for k in range(cv.segments):
            step = 1e-6 * (1.0 + abs(x0[k]))
            values = []
            for sign in (1.0, -1.0):
                x = x0.copy()
                x[k] += sign * step
                values.append(
                    objective(dataclasses.replace(cv, **{name: x}), prep=prep, params=params)
                )
            g[k] = (values[0] - values[1]) / (2.0 * step)
        grads.append(g)
    return np.concatenate(grads)


#: Property tests draw the same examples on every run.
PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def problems(draw):
    """Bounded controls on 1-30 segments with an asymmetric complex
    preparation, a frequency in [-0.5, 0.5] and an optional loss rate."""
    n = draw(st.integers(1, 30))
    u = draw(st.lists(st.floats(0.0, BOUNDS[0]), min_size=n, max_size=n))
    j = draw(st.lists(st.floats(0.0, BOUNDS[1]), min_size=n, max_size=n))
    cv = ControlVector(np.array(u), np.array(j), draw(st.floats(0.5, 10.0)))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    norm = math.sqrt(sum(p * p for p in parts))
    assume(norm > 1e-3)
    scale = math.sqrt(draw(st.floats(1e-4, 0.09))) / norm
    prep = InitialPreparation(
        complex(parts[0], parts[1]) * scale, complex(parts[2], parts[3]) * scale
    )
    params = JunctionParams(draw(st.floats(-0.5, 0.5)), draw(st.sampled_from([0.0, 0.05])))
    return cv, prep, params


# ---------------------------------------------------------------------------
# objective

def test_objective_zero_controls_is_zero():
    cv = ControlVector(np.zeros(50), np.zeros(50), 5.0)
    assert objective(cv) == pytest.approx(0.0, abs=1e-14)


def test_objective_zero_duration_is_zero():
    cv = ControlVector(np.full(20, 0.5), np.full(20, 0.2), 0.0)
    assert objective(cv) == pytest.approx(0.0, abs=1e-14)


def test_objective_matches_chained_propagation(rng):
    prep = symmetric_preparation(0.1)
    for _ in range(5):
        cv = random_vector(rng, n=17)
        params = JunctionParams(rng.uniform(-0.3, 0.3), rng.choice([0.0, 0.05]))
        assert objective(cv, prep, params) == pytest.approx(
            chained_oracle(cv, prep, params), abs=1e-12
        )


@PROPERTY
@given(problems())
def test_objective_matches_chained_propagation_property(problem):
    """With c10 != c01 the closed-form one-quantum factor must get
    sin(Theta) right, which the symmetric preparation cannot show."""
    cv, prep, params = problem
    assert objective(cv, prep, params) == pytest.approx(
        chained_oracle(cv, prep, params), abs=1e-12
    )


def test_resampled_shortcut_recovers_ceiling(fast_run):
    # 1000 piecewise-constant segments track the smooth shortcut closely
    seed = shortcut_seed(fast_run.duration, 1000, (2.0, 2.0))  # no clipping
    assert objective(seed, fast_run.prep) == pytest.approx(CEILING, abs=5e-3)


# ---------------------------------------------------------------------------
# gradients

def test_exact_gradient_matches_central_differences(rng):
    for _ in range(20):
        cv = random_vector(rng, n=12)
        params = JunctionParams(0.0, rng.choice([0.0, 0.05]))
        ge = np.concatenate(objective_gradient(cv, params=params))
        gf = central_difference_gradient(cv, params)
        assert np.linalg.norm(ge - gf) <= 1e-4 * max(np.linalg.norm(gf), 1e-12)


@PROPERTY
@given(problems())
def test_exact_gradient_matches_central_differences_property(problem):
    cv, prep, params = problem
    # |w| has a kink at w = 0, where no gradient exists
    assume(objective(cv, prep, params) > 1e-3)
    ge = np.concatenate(objective_gradient(cv, prep, params))
    gf = central_difference_gradient(cv, params, prep)
    assert np.linalg.norm(ge - gf) <= 1e-4 * max(np.linalg.norm(gf), 1e-12)


@pytest.mark.parametrize("n", [50, 64, 100, 128, 129])
def test_exact_gradient_matches_central_differences_at_tree_widths(n):
    """The benchmark's segment counts and the edges of the product tree's
    power-of-two padding."""
    rng = np.random.default_rng(n)
    cv = random_vector(rng, n=n, duration=7.0)
    params = JunctionParams(0.2, 0.05)
    ge = np.concatenate(objective_gradient(cv, params=params))
    gf = central_difference_gradient(cv, params)
    assert np.linalg.norm(ge - gf) <= 1e-4 * max(np.linalg.norm(gf), 1e-12)


def test_h_div_matches_mpmath():
    """(y cos y - sin y)/y^3 to 1e-13 relative, across [0, 10] and on
    both sides of the series cutoff at y = 0.1."""
    near_cutoff = [1e-8, 1.0001e-4, 3e-4, 1e-3, 0.0999, 0.1 - 1e-12, 0.1 + 1e-12, 0.1001]
    grid = np.concatenate([np.linspace(0.0, 10.0, 2001), near_cutoff])
    for y, got in zip(grid, optimal_control._h_div(grid)):
        if y == 0.0:
            want = mpmath.mpf(-1) / 3
        else:
            # the difference cancels about three digits per decade below 1
            with mpmath.workdps(30 + 3 * max(0, -math.floor(math.log10(y)))):
                ym = mpmath.mpf(y)
                want = (ym * mpmath.cos(ym) - mpmath.sin(ym)) / ym**3
        assert abs(got - want) <= 1e-13 * abs(want), y


def test_gradient_batch_rows_are_independent(rng):
    """A zero row (w = 0) beside random rows: zero gradient without a
    floating-point warning, and every row as if computed alone."""
    blocks = optimal_control._prep_blocks(symmetric_preparation(0.1), JunctionParams())
    uu = np.vstack([np.zeros(12), rng.uniform(0.0, BOUNDS[0], (3, 12))])
    jj = np.vstack([np.zeros(12), rng.uniform(0.0, BOUNDS[1], (3, 12))])
    uj = np.stack((uu, jj), axis=1)
    with np.errstate(all="raise"):
        value, grad = batch_gradients(uj, 4.0, blocks)
        assert value[0] == 0.0
        assert not grad[0].any()
        for row in range(1, 4):
            alone = batch_gradients(uj[row:row + 1], 4.0, blocks)
            assert value[row] == alone[0][0]
            assert np.array_equal(grad[row], alone[1][0])


def test_gradient_at_subnormal_w_is_zero_without_overflow():
    # j = 3e-292 on one segment of length 1 leaves |w| near 3e-310, whose
    # reciprocal overflows inside numpy's complex division
    blocks = optimal_control._prep_blocks(symmetric_preparation(0.1), JunctionParams())
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        value, grad = batch_gradients(np.array([[[0.0], [3e-292]]]), 1.0, blocks)
    assert 0.0 < value[0] < 1e-300
    assert not grad.any()


def test_gradient_from_handed_over_forward_pass_is_bit_equal(rng):
    """The line search writes each row's accepted trial into that row of
    the pass its first round made for every row, over rejected trials, and
    hands the pass to the gradient."""
    blocks = optimal_control._prep_blocks(symmetric_preparation(0.1), JunctionParams(0.2))
    y0, z0, alpha_sq, omega_eff = blocks
    accepted = np.stack(
        (rng.uniform(0.0, BOUNDS[0], (5, 9)), rng.uniform(0.0, BOUNDS[1], (5, 9))), axis=1
    )
    rejected = np.stack(
        (rng.uniform(0.0, BOUNDS[0], (5, 9)), rng.uniform(0.0, BOUNDS[1], (5, 9))), axis=1
    )
    duration = 5.5
    # rows 0 and 2 accept in the first round, 1 and 4 in the second, 3 in the third
    first = np.where(np.isin(np.arange(5), [0, 2])[:, None, None], accepted, rejected)
    fwd = optimal_control._forward(first, duration, y0, z0, omega_eff)
    for search, ok in (([1, 3, 4], [True, False, True]), ([3], [True])):
        ok = np.array(ok)
        trial = np.where(ok[:, None, None], accepted[search], rejected[search])
        part = optimal_control._forward(trial, duration, y0, z0, omega_eff)
        optimal_control._store(fwd, np.array(search)[ok], part, ok)
    value, grad = optimal_control._gradient(accepted, duration, z0, alpha_sq, fwd)
    want = batch_gradients(accepted, duration, blocks)
    assert np.array_equal(value, want[0])
    assert np.array_equal(grad, want[1])


def test_ascent_hands_each_row_its_own_trial(monkeypatch):
    """Rows that accept in a later round of the line search overwrite their
    first-round rows, so every pass the gradient gets is the forward pass
    of the controls that come with it."""
    y0, z0, alpha_sq, omega_eff = optimal_control._prep_blocks(
        symmetric_preparation(0.1), JunctionParams()
    )
    gradient, store = optimal_control._gradient, optimal_control._store
    stores = []

    def checked(uj, duration, x0, alpha_sq, fwd):
        for got, want in zip(fwd, optimal_control._forward(uj, duration, y0, x0, omega_eff)):
            assert np.array_equal(got, want)
        return gradient(uj, duration, x0, alpha_sq, fwd)

    monkeypatch.setattr(optimal_control, "_gradient", checked)
    monkeypatch.setattr(optimal_control, "_store", lambda *a: stores.append(1) or store(*a))
    draw = np.random.default_rng(5)
    uj = np.stack(
        (draw.uniform(0.0, BOUNDS[0], (4, 20)), draw.uniform(0.0, BOUNDS[1], (4, 20))), axis=1
    )
    optimal_control._ascend(uj, 6.5, BOUNDS, y0, z0, alpha_sq, omega_eff, 150)
    assert stores


@st.composite
def ascent_batches(draw):
    """1-4 starts on 1-12 segments, partly outside the box, a duration in
    [0.5, 12], an iteration budget of 0-60 and a smaller one."""
    starts = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    u = draw(st.lists(st.floats(-0.5, 1.5), min_size=starts * n, max_size=starts * n))
    j = draw(st.lists(st.floats(-0.1, 0.4), min_size=starts * n, max_size=starts * n))
    shape = (starts, n)
    max_iter = draw(st.integers(0, 60))
    return (
        np.stack((np.reshape(u, shape), np.reshape(j, shape)), axis=1),
        draw(st.floats(0.5, 12.0)), max_iter, draw(st.integers(0, max_iter)),
    )


@PROPERTY
@given(ascent_batches())
def test_ascent_returns_best_iterate_property(batch):
    """A nonmonotone search may end below its best iterate; each start
    returns the best one, with its own objective.  It never falls below
    the projected start, nor below what a smaller budget returns, since
    that budget's iterates are a prefix of the larger one's."""
    uj0, duration, max_iter, fewer = batch
    blocks = optimal_control._prep_blocks(symmetric_preparation(0.1), JunctionParams())
    uj, value, iterations, stop, start = optimal_control._ascend(
        uj0, duration, BOUNDS, *blocks, max_iter
    )
    assert np.array_equal(start, batch_values(projected(uj0), duration, blocks))
    assert np.array_equal(value, batch_values(uj, duration, blocks))
    assert np.all(value >= start)
    assert np.array_equal(projected(uj), uj)
    assert np.all(iterations <= max_iter) and len(stop) == len(value)
    shorter = optimal_control._ascend(uj0, duration, BOUNDS, *blocks, fewer)
    assert np.all(value >= shorter[1])


@PROPERTY
@given(ascent_batches(), st.one_of(st.floats(0.0, 1.0), st.none()))
def test_target_stops_once_decided_property(batch, level):
    """A target between the lowest and highest final objective of a full
    run (or, for ``None``, just above the highest) leaves the verdict
    "some start reaches it" as the full run gives it, and the run stops
    there exactly when the full run reaches it; a run that stops there
    holds a row at or above it, and one that never reaches it returns the
    full run's arrays exactly."""
    uj0, duration, max_iter, _ = batch
    blocks = optimal_control._prep_blocks(symmetric_preparation(0.1), JunctionParams())
    full = optimal_control._ascend(uj0, duration, BOUNDS, *blocks, max_iter)
    lo, hi = full[1].min(), full[1].max()
    target = np.nextafter(hi, np.inf) if level is None else lo + level * (hi - lo)
    early = optimal_control._ascend(uj0, duration, BOUNDS, *blocks, max_iter, target)
    assert (early[1].max() >= target) == (hi >= target)
    assert ("target" in early[3]) == (hi >= target)
    assert np.array_equal(early[4], full[4])
    if "target" in early[3]:
        assert early[1].max() >= target
        assert np.all(early[2] <= full[2])
    else:
        for a, b in zip(early, full):
            assert np.array_equal(a, b)


def test_flat_stop_comes_at_the_first_flat_window(monkeypatch):
    """A start stops "flat" at the first iteration i >= _FLAT_WINDOW whose
    objective lies within _FLAT_TOL max(1, |v_i|) of the objective
    _FLAT_WINDOW iterations earlier."""
    blocks = optimal_control._prep_blocks(symmetric_preparation(0.1), JunctionParams())
    gradient = optimal_control._gradient
    values = []  # the start's objective, then one per iteration

    def recorded(*args):
        value, grad = gradient(*args)
        values.extend(value)
        return value, grad

    monkeypatch.setattr(optimal_control, "_gradient", recorded)
    draw = np.random.default_rng(1)
    uj = np.stack(
        (draw.uniform(0.0, BOUNDS[0], (1, 6)), draw.uniform(0.0, BOUNDS[1], (1, 6))), axis=1
    )
    _, _, iterations, stop, _ = optimal_control._ascend(uj, 10.0, BOUNDS, *blocks, 500)
    window, tol = optimal_control._FLAT_WINDOW, optimal_control._FLAT_TOL
    flat = [
        i for i in range(window, len(values))
        if abs(values[i] - values[i - window]) <= tol * max(1.0, abs(values[i]))
    ]
    assert stop == ["flat"]
    assert iterations[0] == flat[0] == len(values) - 1


def test_start_at_target_stops_after_zero_iterations(rng):
    blocks = optimal_control._prep_blocks(symmetric_preparation(0.1), JunctionParams())
    uj0 = np.stack((rng.uniform(-0.2, 1.2, (3, 8)), rng.uniform(-0.1, 0.3, (3, 8))), axis=1)
    start = batch_values(projected(uj0), 6.0, blocks)
    uj, value, iterations, stop, _ = optimal_control._ascend(
        uj0, 6.0, BOUNDS, *blocks, 100, start.max()
    )
    assert stop == ["target"] * 3 and not iterations.any()
    assert np.array_equal(value, start)
    assert np.array_equal(uj, projected(uj0))


def test_maximize_evaluates_the_starts_once(monkeypatch):
    """The start objectives that decide ``converged`` come from the
    ascent's own first forward pass."""
    calls = []
    forward = optimal_control._forward
    monkeypatch.setattr(
        optimal_control, "_forward", lambda *args: calls.append(1) or forward(*args)
    )
    # without actuation the objective and its gradient vanish, so every
    # start stops at once, converged in place but not improved
    res = maximize(3.0, (0.0, 0.0), segments=10, seeds=2, max_iter=50)
    assert len(calls) == 1
    assert res.iterations == 1 and not res.converged


def test_projection_idempotent_inside_box(rng):
    u = rng.uniform(0.0, BOUNDS[0], 40)
    j = rng.uniform(0.0, BOUNDS[1], 40)
    pu, pj = project(u, j, BOUNDS)
    assert np.array_equal(pu, u) and np.array_equal(pj, j)
    pu, pj = project(u + 5.0, j - 1.0, BOUNDS)
    assert np.all(pu == BOUNDS[0]) and np.all(pj == 0.0)


# ---------------------------------------------------------------------------
# maximize

def test_maximize_reaches_ceiling_at_t7():
    res = maximize(7.0, BOUNDS, segments=100, seeds=8)
    assert res.objective >= 0.995 * CEILING
    assert res.converged


def test_maximize_impossible_without_actuation():
    res = maximize(3.0, (0.0, 0.0), segments=20, seeds=2)
    assert res.objective == pytest.approx(0.0, abs=1e-12)


def test_short_horizon_stays_below_ceiling():
    res = maximize(2.0, BOUNDS, segments=80, seeds=6)
    assert res.objective < CEILING - 0.1


def test_maximize_is_reproducible():
    a = maximize(4.0, BOUNDS, segments=40, seeds=3, base_seed=77, max_iter=300)
    b = maximize(4.0, BOUNDS, segments=40, seeds=3, base_seed=77, max_iter=300)
    assert a.objective == b.objective
    assert a.seed == b.seed
    assert np.array_equal(a.best.u, b.best.u)
    assert np.array_equal(a.best.j, b.best.j)


def test_batched_ascent_matches_single_starts():
    """Each start of a batch ascends exactly as it does alone, whatever
    its batch mates do; the two durations cover every stop reason."""
    y0, z0, alpha_sq, omega_eff = optimal_control._prep_blocks(
        symmetric_preparation(0.1), JunctionParams()
    )
    uu = [np.zeros(6)]
    jj = [np.zeros(6)]
    for seed in range(3):
        draw = np.random.default_rng(seed)
        uu.append(draw.uniform(0.0, BOUNDS[0], 6))
        jj.append(draw.uniform(0.0, BOUNDS[1], 6))
    uj0 = np.stack((uu, jj), axis=1)
    reasons = set()
    # at T = 1e12 the objective oscillates on a scale far below the line
    # search's smallest trial step, so no Armijo step exists
    for duration, max_iter in ((10.0, 500), (1e12, 5)):
        args = (duration, BOUNDS, y0, z0, alpha_sq, omega_eff, max_iter)
        uj, value, iters, stop, start = optimal_control._ascend(uj0, *args)
        for row in range(len(uj0)):
            alone = optimal_control._ascend(uj0[row:row + 1], *args)
            assert np.array_equal(uj[row], alone[0][0])
            assert value[row] == alone[1][0]
            assert iters[row] == alone[2][0]
            assert stop[row] == alone[3][0]
            assert start[row] == alone[4][0]
        reasons.update(stop)
    assert reasons == {"projected_gradient", "flat", "no_ascent_step"}


def test_maximize_without_iterations_returns_the_best_projected_start():
    """Random starts uniform in the box, the shortcut start and an extra
    start outside the box, each projected; ties go to the earlier start."""
    outside = ControlVector(np.linspace(-0.5, 1.5, 12), np.linspace(0.4, -0.1, 12), 4.0)
    res = maximize(4.0, BOUNDS, segments=12, seeds=3, base_seed=9, max_iter=0,
                   extra_starts=(outside,))
    starts = []
    for i in range(3):
        draw = np.random.default_rng(9 + i)
        starts.append((draw.uniform(0.0, BOUNDS[0], 12), draw.uniform(0.0, BOUNDS[1], 12)))
    seed = shortcut_seed(4.0, 12, BOUNDS)
    starts += [(seed.u, seed.j), project(outside.u, outside.j, BOUNDS)]
    values = [objective(ControlVector(u, j, 4.0)) for u, j in starts]
    best = int(np.argmax(values))
    assert res.iterations == 0 and not res.converged
    assert res.objective == values[best]
    assert res.seed == [0, 1, 2, -1, -2][best]
    assert np.array_equal(np.stack((res.best.u, res.best.j)), np.stack(starts[best]))


def test_zero_duration_gives_zero_controls_without_iterations():
    """At T = 0 the objective and every gradient vanish, so no start ascends."""
    res = maximize(0.0, BOUNDS, segments=7, seeds=2)
    zeros = np.zeros(7)
    assert (res.iterations, res.seed, res.converged, res.stop) == (0, -1, True, "projected_gradient")
    assert np.array_equal(np.stack((res.best.u, res.best.j)), [zeros, zeros])
    assert res.best.duration == 0.0
    assert res.objective == objective(ControlVector(zeros, zeros, 0.0))


def test_maximize_on_one_segment():
    res = maximize(3.0, BOUNDS, segments=1, seeds=2, max_iter=50)
    assert res.best.segments == 1
    assert res.objective == objective(res.best)


def test_maximize_rejects_zero_segments():
    with pytest.raises(ValueError, match="segment"):
        maximize(3.0, BOUNDS, segments=0, seeds=1)


def test_maximize_rejects_negative_seeds():
    with pytest.raises(ValueError, match="seeds"):
        maximize(3.0, BOUNDS, segments=10, seeds=-1)


@pytest.mark.parametrize("seeds", [0, 2])
def test_maximize_rejects_negative_base_seed(seeds):
    with pytest.raises(ValueError, match="base_seed must be >= 0, got -1"):
        maximize(3.0, BOUNDS, segments=10, seeds=seeds, base_seed=-1)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    st.one_of(
        st.just(0),
        st.integers(1, 2**32 - 1),
        st.integers(2**32, 2**128 - 1),
        st.integers(2**128, 2**300),
    ),
    st.integers(1, 200),
    st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 1e300)) for _ in range(2)]),
)
@example(0, 100, (1.0, 0.25))
@example(2**128, 1, (0.0, 0.25))
def test_uniform_start_is_bit_equal_to_numpy_random(seed, n, bounds):
    """The random starts are numpy's ``default_rng(seed).uniform`` stream
    (SeedSequence, PCG64, 53-bit doubles), drawn without ``numpy.random``;
    seeds of one, several (at or above 2^32) and more than four 32-bit words
    (at or above 2^128) take each of SeedSequence's entropy paths."""
    want = np.random.default_rng(seed).uniform(0.0, np.reshape(bounds, (2, 1)), (2, n))
    assert optimal_control._uniform_start(seed, bounds, n).tobytes() == want.tobytes()


def test_maximize_rejects_negative_max_iter():
    with pytest.raises(ValueError, match="max_iter"):
        maximize(3.0, BOUNDS, segments=10, seeds=1, max_iter=-1)


@pytest.mark.parametrize("bounds", [(-1.0, 0.25), (1.0, -0.25), (math.inf, 0.25), (1.0, math.nan)])
def test_maximize_rejects_invalid_bounds(bounds):
    with pytest.raises(ValueError, match="bounds"):
        maximize(3.0, bounds, segments=4, seeds=0, max_iter=5)


def test_maximize_rejects_extra_start_of_other_length():
    extra = ControlVector(np.full(20, 0.5), np.full(20, 0.1), 3.0)
    with pytest.raises(ValueError, match="10 segments"):
        maximize(3.0, BOUNDS, segments=10, seeds=1, extra_starts=(extra,))


def test_maximize_without_random_starts_runs_the_shortcut_start():
    res = maximize(3.0, BOUNDS, segments=10, seeds=0, max_iter=50)
    assert res.seed == -1
    assert res.best.segments == 10
    assert res.objective >= objective(shortcut_seed(3.0, 10, BOUNDS))


def test_optimum_dominates_feasible_shortcut(fast_run):
    duration = fast_run.duration
    seed = shortcut_seed(duration, 100, BOUNDS)
    seed_value = objective(seed, fast_run.prep)
    res = maximize(duration, BOUNDS, segments=100, seeds=2, prep=fast_run.prep)
    assert res.objective >= seed_value - 1e-3


@PROPERTY
@given(problems())
def test_objective_ceiling_never_exceeded(problem):
    """No preparation, frequency or loss rate lets controls beat 1 + sqrt(2),
    the bound that ``maximize``'s default target rests on."""
    cv, prep, params = problem
    assert objective(cv, prep, params) <= CEILING * (1.0 + 1e-12)


def test_default_target_is_the_ceiling_less_the_flatness_tolerance():
    """The default call stops at the ceiling, bit-equal to the call with
    every argument written out.  A start just below the target (the scale
    of the winning controls bisected to adjacent floats) does not stop the
    run, and one at the target stops it before any iteration."""
    target = CEILING * (1.0 - optimal_control._FLAT_TOL)
    default = maximize(7.0, BOUNDS)
    explicit = maximize(7.0, BOUNDS, 100, 8, base_seed=1234, max_iter=2000, target=target)
    assert_same_result(default, explicit)
    assert default.stop == "target"
    assert target <= default.objective <= CEILING + 1e-12

    def scaled(factor):
        return ControlVector(factor * default.best.u, factor * default.best.j, 7.0)

    below, at = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (below + at)
        below, at = (below, mid) if objective(scaled(mid)) >= target else (mid, at)
    for factor, stop in ((below, "max_iter"), (at, "target")):
        res = maximize(7.0, BOUNDS, seeds=0, max_iter=0, extra_starts=(scaled(factor),))
        assert (res.seed, res.stop) == (-2, stop)

    unbounded = maximize(7.0, BOUNDS, target=math.inf)
    assert unbounded.stop != "target"
    assert unbounded.iterations > default.iterations


def test_default_target_leaves_runs_below_the_ceiling_alone():
    """Losses keep every start below the ceiling, so the default target
    changes no iterate."""
    lossy = JunctionParams(kappa=0.05)
    assert_same_result(maximize(7.0, BOUNDS, params=lossy),
                       maximize(7.0, BOUNDS, params=lossy, target=math.inf))


# ---------------------------------------------------------------------------
# minimum time

def test_minimum_time_lands_in_expected_window():
    tstar = minimum_time(BOUNDS, segments=100, epsilon=0.005, seeds=8)
    assert 6.3 <= tstar <= 7.2


def test_looser_bounds_shorten_the_transfer():
    kwargs = dict(segments=60, epsilon=0.01, seeds=3, max_iter=500, resolution=0.1)
    tight = minimum_time(BOUNDS, **kwargs)
    loose = minimum_time((2.0, 0.5), **kwargs)
    assert loose < tight


def test_larger_epsilon_never_lengthens():
    kwargs = dict(segments=50, seeds=3, max_iter=400, resolution=0.1)
    strict = minimum_time(BOUNDS, epsilon=0.004, **kwargs)
    relaxed = minimum_time(BOUNDS, epsilon=0.03, **kwargs)
    assert relaxed <= strict + 1e-12


def test_minimum_time_reports_empty_bracket():
    with pytest.raises(RuntimeError, match="no feasible duration"):
        minimum_time((0.01, 0.01), segments=20, epsilon=0.01, seeds=1,
                     coarse=(1.0, 3.0, 1.0), max_iter=100)


def test_minimum_time_epsilon_domain():
    with pytest.raises(ValueError):
        minimum_time(BOUNDS, epsilon=0.2)


def test_minimum_time_probes_are_pinned(caplog):
    """The benchmark's minimum-time search: each probe logs one DEBUG
    record, and the probes that reach the target stop there without
    changing a verdict."""
    caplog.set_level(logging.DEBUG, logger="bjjctrl.optimal_control")
    tstar = minimum_time(BOUNDS, segments=50, seeds=4, base_seed=1234)
    assert tstar == 6.4375
    probes = [r for r in caplog.records if r.getMessage().startswith("minimum_time probe")]
    assert all(r.levelno == logging.DEBUG for r in probes)
    durations, objectives, verdicts, iterations, stops = zip(*(r.args for r in probes))
    assert list(zip(durations, verdicts)) == [
        *((t, False) for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),
        (7.0, True), (6.5, True), (6.25, False), (6.375, False), (6.4375, True),
        (6.40625, False),
    ]
    target = CEILING * (1.0 - 0.005)
    for objective_, verdict, stop in zip(objectives, verdicts, stops):
        assert (objective_ >= target) == verdict
        assert (stop == "target") == verdict
    assert min(iterations) >= 0


def test_objective_is_a_python_float(caplog):
    """The objective is a float, so each probe record shows its repr
    rather than a numpy scalar's."""
    for duration in (0.0, 3.0):
        assert type(maximize(duration, BOUNDS, 6, 1, max_iter=20).objective) is float
    caplog.set_level(logging.DEBUG, logger="bjjctrl.optimal_control")
    minimum_time(BOUNDS, segments=6, seeds=1, max_iter=20, coarse=(1.0, 9.0, 4.0), resolution=1.0)
    probes = [m for m in caplog.messages if m.startswith("minimum_time probe")]
    assert probes and not any("np.float64" in m for m in probes)


def _refuse_to_optimise(*args, **kwargs):
    raise AssertionError("the scan must be validated before optimising")


@pytest.mark.parametrize(
    "kwargs, shown",
    [
        (dict(resolution=0.0), "0.0"),
        (dict(resolution=-1.0), "-1.0"),
        (dict(resolution=math.nan), "nan"),
        (dict(resolution=math.inf), "inf"),
        (dict(coarse=(1.0, 16.0, 0.0)), "(1.0, 16.0, 0.0)"),
        (dict(coarse=(1.0, 16.0, -1.0)), "(1.0, 16.0, -1.0)"),
        (dict(coarse=(1.0, 16.0, 1e-16)), "(1.0, 16.0, 1e-16)"),
        (dict(coarse=(0.0, 16.0, 1.0)), "(0.0, 16.0, 1.0)"),
        (dict(coarse=(3.0, 2.0, 1.0)), "(3.0, 2.0, 1.0)"),
        (dict(coarse=(1.0, math.inf, 1.0)), "(1.0, inf, 1.0)"),
        (dict(coarse=(math.nan, 16.0, 1.0)), "(nan, 16.0, 1.0)"),
    ],
)
def test_minimum_time_rejects_a_scan_that_cannot_end(monkeypatch, kwargs, shown):
    monkeypatch.setattr(optimal_control, "maximize", _refuse_to_optimise)
    with pytest.raises(ValueError, match=re.escape(shown)):
        minimum_time(BOUNDS, segments=10, seeds=1, **kwargs)


def test_bisection_ends_at_adjacent_durations(monkeypatch):
    """A resolution below the spacing of floats still ends the bisection."""
    def step_at_2_5(duration, bounds, segments, *args, **kwargs):
        zero = np.zeros(segments)
        return optimal_control.OptimizationResult(
            ControlVector(zero, zero, duration), CEILING * (duration >= 2.5), 0, True, 0,
            "projected_gradient",
        )

    monkeypatch.setattr(optimal_control, "maximize", step_at_2_5)
    tstar = minimum_time(BOUNDS, segments=4, epsilon=0.05, resolution=1e-300,
                         coarse=(1.0, 4.0, 1.0))
    assert tstar == 2.5


# ---------------------------------------------------------------------------
# duration sweep

def test_sweep_curves():
    grid = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    curves = sweep(grid, BOUNDS, segments=60, kappa_list=[0.0, 0.05, 0.1], seeds=2)
    base = curves[0]
    assert base.kappa == 0.0
    assert np.all(np.diff(base.objectives) >= -1e-3)
    for curve in curves[1:]:
        want = base.objectives * np.exp(-curve.kappa * grid)
        assert np.max(np.abs(curve.objectives - want)) < 1e-12
    # heavier losses push the best duration earlier
    argmaxes = [c.durations[int(np.argmax(c.objectives))] for c in curves]
    assert all(b <= a + 1e-12 for a, b in zip(argmaxes, argmaxes[1:]))


def test_sweep_validates_inputs(monkeypatch):
    def no_optimisation(*args, **kwargs):
        raise AssertionError("inputs must be validated before optimising")

    monkeypatch.setattr(optimal_control, "maximize", no_optimisation)
    with pytest.raises(ValueError):
        sweep(np.array([]), BOUNDS, 20, [0.0])
    with pytest.raises(ValueError, match="loss rates"):
        sweep(np.array([1.0]), BOUNDS, 20, [0.0, -0.1], seeds=1, max_iter=50)


def test_sweep_refuses_a_lossy_cross_check_gap(monkeypatch):
    """The loss model scales the objective by exactly exp(-kappa T), so a
    relative gap of 1e-9 is a fault."""
    monkeypatch.setattr(optimal_control, "objective",
                        lambda *a, **k: objective(*a, **k) * (1.0 + 1e-9))
    with pytest.raises(FloatingPointError, match=r"relative gap 1\.000e-09"):
        sweep([1.0, 2.0], BOUNDS, 10, [0.0, 0.05], seeds=1, max_iter=50)


@pytest.mark.parametrize("kappa", [104.0, 106.0])
def test_sweep_cross_check_passes_subnormal_objectives(kappa):
    """At kappa T near 740 the lossy objective is subnormal, and its few
    bits cannot match a relative tolerance."""
    curve = sweep([7.0], BOUNDS, 10, [kappa], seeds=1, max_iter=20)[0]
    assert 0.0 < curve.objectives[0] < np.finfo(float).tiny


def test_sweep_accepts_generator_of_rates():
    rates = (k for k in [0.0, 0.05])
    curves = sweep([1.0, 2.0], BOUNDS, 10, rates, seeds=1, max_iter=50)
    assert [c.kappa for c in curves] == [0.0, 0.05]


def test_benchmark_entry_points_stay_importable():
    """bench/run.py --trace 1 times the objective and its gradient on a
    ControlVector built from bjjctrl.optimal_control, and bench/workloads.py
    reads the controls of shortcut_seed."""
    from bjjctrl.optimal_control import ControlVector as ImportedVector

    prep = symmetric_preparation(0.1)
    cv = ImportedVector(u=np.full(10, 0.5), j=np.full(10, 0.2), duration=7.0)
    assert objective(cv, prep) > 0.0
    gu, gj = objective_gradient(cv, prep)
    assert gu.shape == gj.shape == (10,)
    seed = shortcut_seed(7.0, 10, BOUNDS)
    assert seed.u.shape == seed.j.shape == (10,)
