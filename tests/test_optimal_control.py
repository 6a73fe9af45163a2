import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bjjctrl import (
    ControlVector,
    InitialPreparation,
    JunctionParams,
    evolve_constant,
    initial_state,
    maximize,
    minimum_time,
    objective,
    objective_gradient,
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


def chained_oracle(cv, prep, params):
    """Objective recomputed through the public constant-control propagator."""
    state = initial_state(prep)
    dt = cv.duration / cv.segments
    for k in range(cv.segments):
        state = evolve_constant(state, cv.u[k], cv.j[k], params, dt)
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
    y0, z0, alpha_sq, omega_eff = optimal_control._prep_blocks(
        symmetric_preparation(0.1), JunctionParams()
    )
    uu = np.vstack([np.zeros(12), rng.uniform(0.0, BOUNDS[0], (3, 12))])
    jj = np.vstack([np.zeros(12), rng.uniform(0.0, BOUNDS[1], (3, 12))])
    args = (4.0, y0, z0, alpha_sq, omega_eff)
    with np.errstate(all="raise"):
        value, gu, gj = optimal_control._objective_and_gradient(uu, jj, *args)
        assert value[0] == 0.0
        assert not gu[0].any() and not gj[0].any()
        for row in range(1, 4):
            alone = optimal_control._objective_and_gradient(
                uu[row:row + 1], jj[row:row + 1], *args
            )
            assert value[row] == alone[0][0]
            assert np.array_equal(gu[row], alone[1][0])
            assert np.array_equal(gj[row], alone[2][0])


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
    uu, jj = np.array(uu), np.array(jj)
    reasons = set()
    # at T = 1e12 the objective oscillates on a scale far below the line
    # search's smallest trial step, so no Armijo step exists
    for duration, max_iter in ((7.0, 500), (1e12, 5)):
        args = (duration, BOUNDS, y0, z0, alpha_sq, omega_eff, max_iter)
        u, j, value, iters, stop = optimal_control._ascend(uu, jj, *args)
        for row in range(len(uu)):
            alone = optimal_control._ascend(uu[row:row + 1], jj[row:row + 1], *args)
            assert np.array_equal(u[row], alone[0][0])
            assert np.array_equal(j[row], alone[1][0])
            assert value[row] == alone[2][0]
            assert iters[row] == alone[3][0]
            assert stop[row] == alone[4][0]
        reasons.update(stop)
    assert reasons == {"projected_gradient", "flat", "no_ascent_step"}


def test_maximize_rejects_negative_seeds():
    with pytest.raises(ValueError, match="seeds"):
        maximize(3.0, BOUNDS, segments=10, seeds=-1)


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


def test_objective_ceiling_never_exceeded(rng):
    values = [maximize(4.0, BOUNDS, segments=30, seeds=2, max_iter=200).objective]
    for _ in range(20):
        values.append(objective(random_vector(rng, n=25)))
    assert max(values) <= CEILING + 1e-6


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


def test_sweep_accepts_generator_of_rates():
    rates = (k for k in [0.0, 0.05])
    curves = sweep([1.0, 2.0], BOUNDS, 10, rates, seeds=1, max_iter=50)
    assert [c.kappa for c in curves] == [0.0, 0.05]
