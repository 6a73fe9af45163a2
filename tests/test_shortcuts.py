import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from bjjctrl import (
    JunctionParams,
    counterdiabatic_controls,
    duration_lhs,
    estimate_min_duration,
    initial_state,
    phases,
    profile_fast,
    profile_original,
    propagate,
    solve_coeffs_E,
    solve_coeffs_phi,
    solve_duration,
    symmetric_preparation,
)
from bjjctrl._quadrature import simpson_pieces, simpson_uniform
from bjjctrl.dynamics import SQRT2
from bjjctrl.shortcuts import _LHS_CHUNK, PiecewisePoly, ReferenceProfile, _controls_on

HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# oracles

def gauss_solve(m, b):
    """Plain Gaussian elimination with partial pivoting (test-side solver)."""
    m = np.array(m, dtype=float)
    b = np.array(b, dtype=float)
    n = b.size
    for col in range(n):
        piv = col + int(np.argmax(np.abs(m[col:, col])))
        m[[col, piv]] = m[[piv, col]]
        b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = m[row, col] / m[col, col]
            m[row, col:] -= f * m[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - m[row, row + 1 :] @ x[row + 1 :]) / m[row, row]
    return x


def gap_system(s0):
    m = [
        [1, 1, 1, 1, 1],
        [0, 1, 2, 3, 4],
        [1, s0, s0**2, s0**3, s0**4],
        [0, 1, 2 * s0, 3 * s0**2, 4 * s0**3],
        [0, 0, 1, 3 * s0, 6 * s0**2],
    ]
    return m, [0, 0, 1, 0, 0]


def angle_entry_system(s1):
    m = [
        [s1**3, s1**4, s1**5, s1**6],
        [3 * s1**2, 4 * s1**3, 5 * s1**4, 6 * s1**5],
        [3 * s1, 6 * s1**2, 10 * s1**3, 15 * s1**4],
        [1, 4 * s1, 10 * s1**2, 20 * s1**3],
    ]
    return m, [-math.pi / 4, 0, 0, 0]


def angle_exit_system(s2):
    m = [
        [1, 1, 1, 1, 1, 1],
        [0, 1, 2, 3, 4, 5],
        [1, s2, s2**2, s2**3, s2**4, s2**5],
        [0, 1, 2 * s2, 3 * s2**2, 4 * s2**3, 5 * s2**4],
        [0, 0, 1, 3 * s2, 6 * s2**2, 10 * s2**3],
        [0, 0, 0, 1, 4 * s2, 10 * s2**2],
    ]
    return m, [0, 0, math.pi / 4, 0, 0, 0]


def polyval_d(coeffs, s, order):
    c = np.asarray(coeffs, dtype=float)
    if order:
        c = npoly.polyder(c, m=order) if len(c) > order else np.zeros(1)
    return float(npoly.polyval(s, c))


def flat_profile(angle_value=math.pi / 4.0, gap_value=1.0):
    """Boundary-free reference with constant angle and gap."""
    return ReferenceProfile(
        kind="flat",
        angle=PiecewisePoly(edges=(0.0, 1.0), coeffs=((angle_value,),)),
        gap=PiecewisePoly(edges=(0.0, 1.0), coeffs=((gap_value,),)),
    )


# ---------------------------------------------------------------------------
# coefficient solves

@pytest.mark.parametrize("s0", [0.5, 0.9, 0.95])
def test_gap_coefficients_satisfy_boundaries(s0):
    e = solve_coeffs_E(s0)
    residuals = [
        abs(polyval_d(e, 1.0, 0)),
        abs(polyval_d(e, 1.0, 1)),
        abs(polyval_d(e, s0, 0) - 1.0),
        abs(polyval_d(e, s0, 1)),
        abs(polyval_d(e, s0, 2)),
    ]
    # normwise: knots near 1 blow the monomial coefficients up to ~1e5,
    # so float64 representation alone floors the absolute residual
    assert max(residuals) <= 1e-12 * max(1.0, np.abs(e).max())
    if np.abs(e).max() < 1e3:
        assert max(residuals) <= 1e-12


@pytest.mark.parametrize("s0", [0.5, 0.9])
def test_gap_coefficients_match_elimination_oracle(s0):
    m, b = gap_system(s0)
    got = solve_coeffs_E(s0)
    want = gauss_solve(m, b)
    assert np.allclose(got, want, rtol=1e-8, atol=1e-10)


def test_gap_solver_rejects_bad_knot():
    for s0 in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            solve_coeffs_E(s0)


@pytest.mark.parametrize("s1,s2", [(0.2, 0.8), (0.15, 0.7), (0.3, 0.9)])
def test_angle_coefficients_satisfy_boundaries(s1, s2):
    a, b = solve_coeffs_phi(s1, s2)
    assert a[0] == HALF_PI and a[1] == 0.0 and a[2] == 0.0
    scale_a = 1e-12 * max(1.0, np.abs(a).max())
    scale_b = 1e-12 * max(1.0, np.abs(b).max())
    # entry branch: land on the plateau with three flat derivatives
    assert abs(polyval_d(a, s1, 0) - math.pi / 4) <= scale_a
    for order in (1, 2, 3):
        assert abs(polyval_d(a, s1, order)) <= 100.0 * scale_a
    # exit branch: leave the plateau equally smoothly, close at 1
    assert abs(polyval_d(b, s2, 0) - math.pi / 4) <= scale_b
    for order in (1, 2, 3):
        assert abs(polyval_d(b, s2, order)) <= 100.0 * scale_b
    assert abs(polyval_d(b, 1.0, 0)) <= scale_b
    assert abs(polyval_d(b, 1.0, 1)) <= scale_b


def test_angle_coefficients_match_elimination_oracle():
    a, b = solve_coeffs_phi(0.2, 0.8)
    m, rhs_ = angle_entry_system(0.2)
    assert np.allclose(a[3:], gauss_solve(m, rhs_), rtol=1e-8, atol=1e-9)
    m, rhs_ = angle_exit_system(0.8)
    assert np.allclose(b, gauss_solve(m, rhs_), rtol=1e-8, atol=1e-9)


def test_angle_solver_rejects_bad_knots():
    with pytest.raises(ValueError):
        solve_coeffs_phi(0.8, 0.2)


# ---------------------------------------------------------------------------
# reference profiles

def test_original_profile_boundaries(original_profile):
    p = original_profile
    assert float(p.angle(0.0)) == pytest.approx(HALF_PI, abs=1e-15)
    assert float(p.angle(1.0)) == pytest.approx(0.0, abs=1e-15)
    assert float(p.angle(0.0, 1)) == 0.0
    assert float(p.angle(1.0, 1)) == pytest.approx(0.0, abs=1e-12)
    assert float(p.angle(0.0, 2)) == 0.0
    assert float(p.gap(0.0)) == 1.0
    assert float(p.gap(1.0)) == 0.0


def test_original_profile_midpoint_values(original_profile):
    # direct polynomial evaluation: pi/2 - 2 pi/8 + (3 pi/2)/16 = 11 pi/32
    assert float(original_profile.angle(0.5)) == pytest.approx(
        HALF_PI - math.pi / 4.0 + 3.0 * math.pi / 32.0, abs=1e-15
    )
    assert float(original_profile.angle(0.5)) == pytest.approx(0.34375 * math.pi, abs=1e-15)
    assert float(original_profile.gap(0.5)) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("kind", ["original", "fast"])
def test_profile_derivatives_match_finite_differences(kind, original_profile, fast_profile):
    # points away from the knots; the steep last gap piece of the fast
    # profile would drown the difference quotient in cancellation noise
    p = original_profile if kind == "original" else fast_profile
    pts = np.array([0.05, 0.1, 0.33, 0.55, 0.77, 0.85])
    h = 1e-6
    for order, tol in ((1, 1e-6), (2, 1e-4)):
        for s in pts:
            fd = (p.angle(s + h, order - 1) - p.angle(s - h, order - 1)) / (2 * h)
            assert float(p.angle(s, order)) == pytest.approx(float(fd), abs=tol)
        fd = (p.gap(pts + h, order - 1) - p.gap(pts - h, order - 1)) / (2 * h)
        assert np.max(np.abs(p.gap(pts, order) - fd)) < tol


def test_fast_profile_plateaus(fast_profile):
    assert float(fast_profile.angle(0.5)) == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert float(fast_profile.gap(0.5)) == 1.0
    assert np.all(fast_profile.angle(np.array([0.25, 0.4, 0.75]), 1) == 0.0)
    assert np.all(fast_profile.gap(np.array([0.1, 0.5, 0.85]), 1) == 0.0)


def test_fast_profile_knot_continuity(fast_profile):
    # evaluate the adjoining branch polynomials exactly at the knots
    angle = fast_profile.angle
    for knot, left, right in ((0.2, 0, 1), (0.8, 1, 2)):
        for order in range(4):
            lo = polyval_d(angle.coeffs[left], knot, order)
            hi = polyval_d(angle.coeffs[right], knot, order)
            assert abs(lo - hi) <= 1e-10
    gap = fast_profile.gap
    for order in range(3):
        lo = polyval_d(gap.coeffs[0], 0.9, order)
        hi = polyval_d(gap.coeffs[1], 0.9, order)
        assert abs(lo - hi) <= 1e-10


def test_fast_profile_validates_knots():
    with pytest.raises(ValueError):
        profile_fast(s0=1.2)


# ---------------------------------------------------------------------------
# counterdiabatic controls

def test_plateau_reduces_to_reference_controls(fast_profile):
    duration = 15.0
    s = np.linspace(0.25, 0.75, 101)  # angle plateau inside the gap plateau
    u, j = _controls_on(fast_profile, duration, s)
    u_ref = 0.5 * fast_profile.gap(s) * np.cos(fast_profile.angle(s))
    j_ref = 0.25 * fast_profile.gap(s) * np.sin(fast_profile.angle(s))
    assert np.max(np.abs(u - u_ref)) < 1e-12
    assert np.max(np.abs(j - j_ref)) < 1e-12
    assert u[50] == pytest.approx(0.5 * SQRT2 / 2.0, abs=1e-12)
    assert j[50] == pytest.approx(0.25 * SQRT2 / 2.0, abs=1e-12)


@pytest.mark.parametrize("run_name", ["original_run", "fast_run"])
def test_controls_positive_and_coupling_dominates(run_name, request):
    run = request.getfixturevalue(run_name)
    sched = run.schedule
    assert sched.u.min() >= -1e-12
    assert sched.j.min() >= -1e-12
    s = sched.times / run.duration
    floor = 0.25 * run.profile.gap(s) * np.sin(run.profile.angle(s))
    assert np.all(sched.j >= floor - 1e-12)


def test_control_maxima_consistent_with_box_bounds(original_run, fast_run):
    # the optimisation box (1, 0.25) sits close to the shortcut control peaks
    assert 0.8 <= fast_run.schedule.u.max() <= 1.05
    assert 0.2 <= fast_run.schedule.j.max() <= 0.3
    assert 0.2 <= original_run.schedule.j.max() <= 0.3
    assert original_run.schedule.u.max() <= 1.05


def test_counterdiabatic_controls_validation(fast_profile):
    with pytest.raises(ValueError):
        counterdiabatic_controls(fast_profile, 0.0)
    with pytest.raises(ValueError):
        counterdiabatic_controls(fast_profile, 10.0, samples=1)
    # rejected before any arithmetic: the suite turns a warning into an error
    for duration in (math.inf, math.nan):
        with pytest.raises(ValueError, match="duration must be finite and positive"):
            counterdiabatic_controls(fast_profile, duration)


# ---------------------------------------------------------------------------
# duration equation

def test_duration_lhs_at_reference_roots(original_profile, fast_profile):
    assert duration_lhs(original_profile, 77.724) == pytest.approx(math.pi, abs=2e-3)
    assert duration_lhs(fast_profile, 15.665) == pytest.approx(math.pi, abs=2e-3)


def test_duration_lhs_grid_doubling(fast_profile, original_profile):
    for p in (fast_profile, original_profile):
        a = duration_lhs(p, 15.665, points_per_unit=4000)
        b = duration_lhs(p, 15.665, points_per_unit=8000)
        assert abs(a - b) <= 1e-9


def test_duration_lhs_linear_growth(original_profile, fast_profile):
    for p in (original_profile, fast_profile):
        lhs_1k = duration_lhs(p, 1000.0)
        lhs_2k = duration_lhs(p, 2000.0)
        assert abs(lhs_2k / (2.0 * lhs_1k) - 1.0) < 2e-3
        slope = simpson(
            lambda s: 0.5 * p.gap(s) * (np.cos(p.angle(s)) + np.sin(p.angle(s)) - 1.0),
            p.breakpoints,
        )
        assert lhs_2k / 2000.0 == pytest.approx(slope, rel=1e-3)


def test_duration_lhs_rejects_nonpositive_time(fast_profile):
    for duration in (0.0, -1.0, math.nan, math.inf, -math.inf, [1.0, 0.0, 2.0],
                     [3.0] * _LHS_CHUNK + [-1.0], [1.0, math.inf]):
        with pytest.raises(ValueError, match="duration must be finite and positive"):
            duration_lhs(fast_profile, np.array(duration))


def simpson(fun, edges):
    """Piecewise Simpson integral of ``fun`` on the library's nodes."""
    return sum(simpson_uniform(fun(s), dx) for s, dx in simpson_pieces(edges))


def lhs_oracle(profile, duration):
    """T * piecewise Simpson of the integrand at one T, evaluated afresh."""

    def integrand(s):
        phi = profile.angle(s)
        e0 = profile.gap(s)
        dphi = profile.angle(s, 1) / duration
        return 0.5 * (e0 * np.cos(phi) + np.sqrt((e0 * np.sin(phi)) ** 2 + dphi**2) - e0)

    return duration * simpson(integrand, profile.breakpoints)


@st.composite
def knots_and_durations(draw):
    s1 = draw(st.floats(0.05, 0.45))
    s2 = draw(st.floats(s1 + 0.05, 0.95))
    s0 = draw(st.floats(0.05, 0.95))
    count = draw(st.sampled_from([1, _LHS_CHUNK, _LHS_CHUNK + 1]))
    durations = draw(st.lists(st.floats(0.5, 2000.0), min_size=count, max_size=count))
    return (s0, s1, s2), durations


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(knots_and_durations())
def test_duration_lhs_array_matches_per_duration_oracle(case):
    knots, durations = case
    profile = profile_fast(*knots)
    got = duration_lhs(profile, np.array(durations))
    assert got.shape == (len(durations),)
    want = np.array([lhs_oracle(profile, t) for t in durations])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert duration_lhs(profile, durations[-1]) == got[-1]


def test_duration_lhs_rejects_non_finite_integrand():
    with pytest.raises(FloatingPointError, match="non-finite"):
        duration_lhs(flat_profile(gap_value=math.nan), np.array([1.0, 2.0]))


def test_solved_durations_reference_values(original_run, fast_run):
    assert original_run.duration == pytest.approx(77.724, abs=0.05)
    assert fast_run.duration == pytest.approx(15.665, abs=0.05)
    # the roots of the scalar scan-and-bisect solver, bit for bit
    assert original_run.duration == pytest.approx(77.7230026535778, rel=0.0, abs=1e-12)
    assert fast_run.duration == pytest.approx(15.664959606234735, rel=0.0, abs=1e-12)


def test_flat_profile_duration_equals_estimate():
    # constant angle pi/4 at full gap: the LHS is exactly T (sqrt(2)-1)/2
    t = solve_duration(flat_profile())
    assert t == pytest.approx(estimate_min_duration(), abs=1e-6)


def test_solve_duration_reports_missing_bracket(fast_profile):
    with pytest.raises(RuntimeError, match="no phase-condition crossing"):
        solve_duration(fast_profile, scan=(0.5, 5.0, 0.5))


@pytest.mark.parametrize("step", [0.0, -0.5, math.nan, math.inf, 1e-17])
def test_solve_duration_rejects_scan_that_never_advances(fast_profile, step):
    # 0.5 + 1e-17 == 0.5: the scan would yield 0.5 forever
    with pytest.raises(ValueError, match="step"):
        solve_duration(fast_profile, scan=(0.5, 5.0, step))


@pytest.mark.parametrize("scan", [(math.inf, 5.0, 0.5), (0.5, math.inf, 0.5), (math.nan, 5.0, 0.5)])
def test_solve_duration_rejects_nonfinite_scan(fast_profile, scan):
    with pytest.raises(ValueError, match="must be finite"):
        solve_duration(fast_profile, scan=scan)


def test_estimate_identity():
    est = estimate_min_duration()
    assert est == pytest.approx(15.169, abs=1e-3)
    assert est == pytest.approx(2.0 * math.pi * (SQRT2 + 1.0), abs=1e-12)


def test_estimate_below_fast_duration(fast_run):
    assert estimate_min_duration() < fast_run.duration


# ---------------------------------------------------------------------------
# transfer phases

@pytest.mark.parametrize("run_name", ["original_run", "fast_run"])
def test_phase_difference_condition(run_name, request):
    run = request.getfixturevalue(run_name)
    rec = phases(run.profile, run.duration, run.schedule)
    wrapped = (rec.theta - rec.zeta + math.pi) % (2.0 * math.pi) - math.pi
    assert abs(abs(wrapped) - math.pi) <= 1e-6 or abs(wrapped + math.pi) <= 1e-6
    # the solved duration builds exactly -pi (mod 2 pi)
    assert math.cos(rec.theta - rec.zeta) == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, math.nan])
def test_phases_rejects_nonfinite_or_nonpositive_time(fast_profile, duration):
    with pytest.raises(ValueError, match="duration must be finite and positive"):
        phases(fast_profile, duration)


@st.composite
def profiles_and_duration(draw):
    if draw(st.booleans()):
        s1 = draw(st.floats(0.05, 0.45))
        s2 = draw(st.floats(s1 + 0.05, 0.95))
        profile = profile_fast(draw(st.floats(0.05, 0.95)), s1, s2)
    else:
        profile = profile_original()
    return profile, draw(st.floats(0.5, 2000.0))


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(profiles_and_duration())
def test_phases_and_condition_share_one_integrand(case):
    """theta and zeta are the Simpson integrals of T (E0/2)(1 - cos phi) and
    2 T J_I, and the phase condition's LHS is their difference zeta - theta."""
    profile, duration = case
    rec = phases(profile, duration)
    theta = duration * simpson(
        lambda s: 0.5 * profile.gap(s) * (1.0 - np.cos(profile.angle(s))), profile.breakpoints
    )
    zeta = 2.0 * duration * simpson(
        lambda s: np.sqrt((profile.gap(s) * np.sin(profile.angle(s))) ** 2
                          + (profile.angle(s, 1) / duration) ** 2) / 4.0,
        profile.breakpoints,
    )
    assert rec.theta == pytest.approx(theta, rel=1e-13, abs=0.0)
    assert rec.zeta == pytest.approx(zeta, rel=1e-13, abs=0.0)
    lhs = duration_lhs(profile, duration)
    assert abs(lhs - (rec.zeta - rec.theta)) <= 1e-12 * max(1.0, rec.theta, rec.zeta)


def test_zeta_matches_product_phase(fast_run):
    # c10 c01 = (alpha^2/2) e^{2i Int J dt}, Int J dt by Simpson's rule on
    # the schedule's odd, uniform sample grid
    times = fast_run.schedule.times
    got = cmath.phase(cmath.exp(2j * simpson_uniform(fast_run.schedule.j, times[1] - times[0])))
    want = fast_run.record.zeta % (2.0 * math.pi)
    want = want - 2.0 * math.pi if want > math.pi else want
    assert abs(got - want) <= 1e-6


def test_phases_validates_schedule(fast_profile, fast_run):
    with pytest.raises(ValueError):
        phases(fast_profile, fast_run.duration + 1.0, fast_run.schedule)


# ---------------------------------------------------------------------------
# two-level reduction
#
# For the symmetric preparation (c20 + c02, sqrt(2) c11) follows, up to the
# accumulated nonlinearity phase, a two-level Schroedinger equation with
# Hamiltonian 2 U_I Sz - 4 J_I Sx, which is what the counterdiabatic
# construction steers.  Its norm is alpha^2 for a lossless run.

def two_level_vector(state):
    return state.c20 + state.c02, SQRT2 * state.c11


def test_two_level_initial_vector():
    alpha = 0.1
    psi1, psi2 = two_level_vector(initial_state(symmetric_preparation(alpha)))
    assert psi1 == pytest.approx(alpha**2 / SQRT2, abs=1e-15)
    assert psi2 == pytest.approx(alpha**2 / SQRT2, abs=1e-15)
    assert math.hypot(abs(psi1), abs(psi2)) == pytest.approx(alpha**2, abs=1e-15)


def test_two_level_norm_preserved_along_transfer(fast_run):
    a = fast_run.trajectory.amplitudes
    norm_sq = np.abs(a[:, 4] + a[:, 5]) ** 2 + 2.0 * np.abs(a[:, 3]) ** 2
    # alpha^4 to 2e-11, i.e. the norm alpha^2 to 1e-9, at every sample
    assert np.max(np.abs(norm_sq - fast_run.alpha**4)) <= 2e-11


def test_two_level_final_state_is_south_pole(fast_run, original_run):
    for run in (fast_run, original_run):
        psi1, psi2 = two_level_vector(run.trajectory.final)
        assert abs(psi1) <= 1e-3 * run.alpha**2
        assert abs(psi2) == pytest.approx(run.alpha**2, abs=1e-3 * run.alpha**2)


# ---------------------------------------------------------------------------
# shortcut delivery (full system)

@pytest.mark.parametrize("run_name", ["original_run", "fast_run"])
def test_shortcut_delivers_maximum_concurrence(run_name, request):
    run = request.getfixturevalue(run_name)
    fin = run.trajectory.final
    a2 = run.alpha**2
    assert abs(fin.c20) <= 1e-3 * a2
    assert abs(fin.c02) <= 1e-3 * a2
    assert abs(fin.c11) == pytest.approx(a2 / SQRT2, abs=1e-3 * a2)
    norm_conc = 2.0 * abs(fin.c11 - fin.c10 * fin.c01) / a2
    assert norm_conc == pytest.approx(1.0 + SQRT2, abs=1e-3)


def test_delivery_is_frequency_independent(fast_run):
    traj = propagate(
        initial_state(fast_run.prep),
        fast_run.schedule,
        JunctionParams(omega=0.4),
        steps=10_000,
    )
    fin = traj.final
    norm_conc = 2.0 * abs(fin.c11 - fin.c10 * fin.c01) / fast_run.alpha**2
    assert norm_conc == pytest.approx(1.0 + SQRT2, abs=1e-3)
