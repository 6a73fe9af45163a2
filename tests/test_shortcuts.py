import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from bjjctrl import (
    JunctionParams,
    counterdiabatic_controls,
    dominant_trace,
    duration_lhs,
    estimate_min_duration,
    initial_state,
    phases,
    profile_fast,
    profile_original,
    propagate,
    solve_duration,
    symmetric_preparation,
)
from bjjctrl import shortcuts
from bjjctrl.dynamics import SQRT2
from bjjctrl.entanglement import MAX_NORMALIZED_CONCURRENCE
from bjjctrl.shortcuts import (
    _LHS_CHUNK,
    PiecewisePoly,
    ReferenceProfile,
    TransferPhases,
    _controls_on,
    duration_grid,
    simpson_pieces,
    simpson_uniform,
)

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


def piece_value(poly, piece, s, order=0):
    """Order-th derivative at s of one piece of a PiecewisePoly, from that
    piece's local-variable coefficients alone (so a knot can be approached
    from either side)."""
    lo, hi = poly.edges[piece], poly.edges[piece + 1]
    return polyval_d(poly.coeffs[piece], (s - lo) / (hi - lo), order) / (hi - lo) ** order


def numpy_piecewise(poly, s, order):
    """``poly(s, order)`` evaluated with ``numpy.polynomial`` on the same
    pieces, whose ``polyder`` gives [0.0] for an order past the degree."""
    idx = np.clip(np.searchsorted(poly.edges, s, side="right") - 1, 0, len(poly.coeffs) - 1)
    out = np.empty(s.shape)
    for i, c in enumerate(poly.coeffs):
        lo, width = poly.edges[i], poly.edges[i + 1] - poly.edges[i]
        c = npoly.polyder(np.asarray(c, dtype=float), m=order)
        out[idx == i] = npoly.polyval((s[idx == i] - lo) / width, c) / width**order
    return out


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(st.lists(st.floats(0.0, 1.0), max_size=40))
def test_piecewise_poly_is_bit_equal_to_numpy_polynomial(points):
    """Both reference profiles, at random s and every knot, for each order
    from 0 to the longest piece's coefficient count + 1 (past a piece's
    degree its zero branch runs)."""
    for profile in (profile_original(), profile_fast()):
        for poly in (profile.angle, profile.gap):
            s = np.array(points + list(poly.edges))
            for order in range(max(map(len, poly.coeffs)) + 2):
                assert poly(s, order).tobytes() == numpy_piecewise(poly, s, order).tobytes()


def flat_profile(angle_value=math.pi / 4.0, gap_value=1.0):
    """Boundary-free reference with constant angle and gap."""
    return ReferenceProfile(
        kind="flat",
        angle=PiecewisePoly(edges=(0.0, 1.0), coeffs=((angle_value,),)),
        gap=PiecewisePoly(edges=(0.0, 1.0), coeffs=((gap_value,),)),
    )


# ---------------------------------------------------------------------------
# fast profile: boundary conditions and the boundary-value systems

def interior(lo, hi, count=101):
    return np.linspace(lo, hi, count + 2)[1:-1]


@pytest.mark.parametrize("s0", [0.5, 0.9, 0.95])
def test_gap_coefficients_satisfy_boundaries(s0):
    gap = profile_fast(s0).gap
    residuals = [
        abs(float(gap(1.0))),
        abs(float(gap(1.0, 1))),
        abs(float(gap(s0)) - 1.0),
        abs(float(gap(s0, 1))),
        abs(float(gap(s0, 2))),
    ]
    assert max(residuals) <= 1e-12


@pytest.mark.parametrize("s0", [0.5, 0.9, 0.95])
def test_gap_coefficients_match_elimination_oracle(s0):
    # the oracle is the monomial solution in s of the five boundary
    # conditions; its coefficients grow like (1 - s0)^-4, which sets the
    # tolerance
    s = interior(s0, 1.0)
    want = npoly.polyval(s, gauss_solve(*gap_system(s0)))
    assert np.max(np.abs(profile_fast(s0).gap(s) - want)) <= 1e-9


@pytest.mark.parametrize("s1,s2", [(0.2, 0.8), (0.15, 0.7), (0.3, 0.9)])
def test_angle_coefficients_satisfy_boundaries(s1, s2):
    angle = profile_fast(0.9, s1, s2).angle
    assert float(angle(0.0)) == HALF_PI
    assert float(angle(0.0, 1)) == 0.0 and float(angle(0.0, 2)) == 0.0
    # entry piece: land on the plateau with three flat derivatives
    assert abs(piece_value(angle, 0, s1) - math.pi / 4) <= 1e-12
    for order in (1, 2, 3):
        assert abs(piece_value(angle, 0, s1, order)) <= 1e-12 / s1**order
    # exit piece: leave the plateau equally smoothly, close at 1
    assert abs(float(angle(s2)) - math.pi / 4) <= 1e-12
    for order in (1, 2, 3):
        assert abs(float(angle(s2, order))) <= 1e-12 / (1.0 - s2) ** order
    assert abs(float(angle(1.0))) <= 1e-12
    assert abs(float(angle(1.0, 1))) <= 1e-12 / (1.0 - s2)


def test_angle_coefficients_match_elimination_oracle():
    for s1, s2 in ((0.2, 0.8), (0.15, 0.7), (0.3, 0.9)):
        angle = profile_fast(0.9, s1, s2).angle
        entry = np.concatenate(([HALF_PI, 0.0, 0.0], gauss_solve(*angle_entry_system(s1))))
        s = interior(0.0, s1)
        assert np.max(np.abs(angle(s) - npoly.polyval(s, entry))) <= 1e-9
        s = interior(s2, 1.0)
        want = npoly.polyval(s, gauss_solve(*angle_exit_system(s2)))
        assert np.max(np.abs(angle(s) - want)) <= 1e-9


@st.composite
def fast_knots(draw):
    s1 = draw(st.floats(1e-6, 0.99))
    s2 = draw(st.floats(s1 + 1e-6, 1.0 - 1e-6))
    return draw(st.floats(1e-6, 1.0 - 1e-6)), s1, s2


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(fast_knots())
def test_fast_profile_meets_its_conditions_for_any_knots(knots):
    s0, s1, s2 = knots
    profile = profile_fast(s0, s1, s2)
    gap, angle = profile.gap, profile.angle
    grid = np.concatenate((np.linspace(0.0, 1.0, 20001), knots))
    values = gap(grid)
    assert values.min() >= 0.0 and values.max() <= 1.0
    values = angle(grid)
    assert values.min() >= 0.0 and values.max() <= HALF_PI
    assert float(gap(s0)) == pytest.approx(1.0, rel=1e-12)
    for order in (0, 1):
        assert abs(float(gap(1.0, order))) <= 1e-12 / (1.0 - s0) ** order
        assert abs(float(angle(1.0, order))) <= 1e-12 / (1.0 - s2) ** order
    assert float(angle(0.0)) == pytest.approx(HALF_PI, rel=1e-12)
    # across each knot the two adjoining pieces agree; derivatives relative
    # to their scale on the shorter piece, (piece width)^-order
    for poly, knot, left, orders in ((gap, s0, 0, 3), (angle, s1, 0, 4), (angle, s2, 1, 4)):
        edges = poly.edges
        width = min(edges[left + 1] - edges[left], edges[left + 2] - edges[left + 1])
        for order in range(orders):
            lo = piece_value(poly, left, knot, order)
            hi = piece_value(poly, left + 1, knot, order)
            assert abs(lo - hi) <= 1e-12 / width**order


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
    # points away from the knots, where a difference quotient would
    # straddle two pieces
    p = original_profile if kind == "original" else fast_profile
    pts = np.array([0.05, 0.1, 0.33, 0.55, 0.77, 0.85, 0.95])
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
    # evaluate the adjoining pieces from their local coefficients at the knots
    angle = fast_profile.angle
    for knot, left in ((0.2, 0), (0.8, 1)):
        for order in range(4):
            lo = piece_value(angle, left, knot, order)
            hi = piece_value(angle, left + 1, knot, order)
            assert abs(lo - hi) <= 1e-10
    gap = fast_profile.gap
    for order in range(3):
        assert abs(piece_value(gap, 0, 0.9, order) - piece_value(gap, 1, 0.9, order)) <= 1e-10


def test_gap_solver_rejects_bad_knot():
    for s0 in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            profile_fast(s0)


def test_angle_solver_rejects_bad_knots():
    with pytest.raises(ValueError):
        profile_fast(0.9, 0.8, 0.2)


def test_fast_profile_validates_knots():
    for knots in ((1.2, 0.2, 0.8), (0.0, 0.2, 0.8), (1.0, 0.2, 0.8), (-0.2, 0.2, 0.8),
                  (math.nan, 0.2, 0.8)):
        with pytest.raises(ValueError, match=r"s0 must lie strictly inside \(0, 1\)"):
            profile_fast(*knots)
    for knots in ((0.9, 0.8, 0.2), (0.9, 0.0, 0.8), (0.9, 0.2, 1.0), (0.9, 0.5, 0.5)):
        with pytest.raises(ValueError, match="knots must satisfy 0 < s1 < s2 < 1"):
            profile_fast(*knots)


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


def sampled(run):
    """Scaled times s and the run's controls (U_I, J_I) at the times s T of
    a uniform 4001-point grid over [0, 1]."""
    s = np.linspace(0.0, 1.0, 4001)
    return (s, *run.controls.controls_at(s * run.duration))


@pytest.mark.parametrize("run_name", ["original_run", "fast_run"])
def test_controls_positive_and_coupling_dominates(run_name, request):
    run = request.getfixturevalue(run_name)
    s, u, j = sampled(run)
    assert u.min() >= -1e-12
    assert j.min() >= -1e-12
    floor = 0.25 * run.profile.gap(s) * np.sin(run.profile.angle(s))
    assert np.all(j >= floor - 1e-12)


#: Step counts for the ceiling: every coarse one, and a few up to the default.
CEILING_STEPS = [*range(1, 61), 100, 200, 500, 1000, 3000, 10_000]


@pytest.mark.parametrize("run_name", ["original_run", "fast_run"])
def test_shortcut_stays_below_the_ceiling_at_any_step_count(run_name, request):
    """Every step is unitary, so no step count lifts the normalised
    concurrence above 1 + sqrt(2), however coarse; the worst case measured
    is about 2e-12 below it, relative."""
    run = request.getfixturevalue(run_name)
    state = initial_state(run.prep)
    worst = max(
        dominant_trace(propagate(state, run.controls, JunctionParams(), steps).amplitudes).max()
        for steps in CEILING_STEPS
    ) / run.alpha**2
    assert worst <= MAX_NORMALIZED_CONCURRENCE * (1.0 + 1e-12)


def test_control_maxima_consistent_with_box_bounds(original_run, fast_run):
    # the optimisation box (1, 0.25) sits close to the shortcut control peaks
    _, fast_u, fast_j = sampled(fast_run)
    _, original_u, original_j = sampled(original_run)
    assert 0.8 <= fast_u.max() <= 1.05
    assert 0.2 <= fast_j.max() <= 0.3
    assert 0.2 <= original_j.max() <= 0.3
    assert original_u.max() <= 1.05


def test_counterdiabatic_controls_validation(fast_profile):
    with pytest.raises(ValueError):
        counterdiabatic_controls(fast_profile, 0.0)
    # rejected before any arithmetic: the suite turns a warning into an error
    for duration in (math.inf, math.nan):
        with pytest.raises(ValueError, match="duration must be finite and positive"):
            counterdiabatic_controls(fast_profile, duration)
    # rates of order 1/T overflow, and the controls refuse to be read
    controls = counterdiabatic_controls(fast_profile, 1e-300)
    with pytest.raises(ValueError, match="schedule samples must be finite"):
        controls.controls_at(np.array([0.0, 0.5e-300, 1e-300]))


def test_duration_cap_is_the_phase_tolerance(fast_profile):
    """The longest shortcut is the last T below 2^23, whose ulp times the
    peak gap is 2^-30 rad; from 2^23 on the ulp is 2^-29, past 1e-9."""
    longest = math.nextafter(2.0**23, 0.0)
    assert math.ulp(longest) * shortcuts.E0_MAX <= shortcuts.PHASE_TOLERANCE
    assert counterdiabatic_controls(fast_profile, longest).duration == longest
    with pytest.raises(FloatingPointError, match=r"T = 8388608.0 is too long"):
        counterdiabatic_controls(fast_profile, 2.0**23)


# ---------------------------------------------------------------------------
# duration equation

def test_duration_lhs_at_reference_roots(original_profile, fast_profile):
    assert duration_lhs(original_profile, 77.724) == pytest.approx(math.pi, abs=2e-3)
    assert duration_lhs(fast_profile, 15.665) == pytest.approx(math.pi, abs=2e-3)


@pytest.mark.parametrize("name, duration", [("fast_profile", 15.665), ("original_profile", 77.724)])
def test_duration_lhs_matches_quad_per_piece(request, name, duration):
    """Adaptive quadrature on each breakpoint piece, an integrator
    independent of the Simpson nodes, agrees near each profile's root."""
    p = request.getfixturevalue(name)

    def integrand(s):
        phi, e0 = p.angle(s), p.gap(s)
        dphi = p.angle(s, 1) / duration
        return 0.5 * (e0 * np.cos(phi) + np.sqrt((e0 * np.sin(phi)) ** 2 + dphi**2) - e0)

    edges = p.breakpoints
    pieces = (quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
              for lo, hi in zip(edges[:-1], edges[1:]))
    assert abs(duration_lhs(p, duration) - duration * sum(pieces)) <= 1e-9


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


def unfolded(profile, durations):
    """The phase-condition LHS and both transfer phases per duration, from
    the arithmetic of ``_lhs_block`` and ``phases`` on every piece of the
    node table: no piece's integral is taken from its ``flat`` field."""
    per_t = np.asarray(durations, dtype=float)[:, None]
    lhs = theta = zeta = 0.0
    for e0_cos, e0_sin_sq, e0, rate, dx, _ in profile.nodes:
        lhs += simpson_uniform(0.5 * (e0_cos + np.sqrt(e0_sin_sq + (rate / per_t) ** 2) - e0), dx)
        theta += simpson_uniform(0.5 * (e0 - e0_cos), dx)
        zeta += simpson_uniform(np.sqrt(e0_sin_sq + (rate / per_t) ** 2) / 4.0, dx)
    t = per_t[:, 0]
    return t * lhs, t * theta, 2.0 * t * zeta


@st.composite
def plateau_knots_and_durations(draw):
    """Fast-profile knots with s0 before, inside or after the angle's
    plateau [s1, s2] (inside: two flat pieces) or on one of its ends."""
    s1 = draw(st.floats(0.05, 0.45))
    s2 = draw(st.floats(s1 + 0.05, 0.95))
    s0 = draw(st.one_of(
        st.floats(0.05, 0.95),
        st.floats(s1, s2, exclude_min=True, exclude_max=True),
        st.sampled_from([s1, s2]),
    ))
    count = draw(st.sampled_from([1, _LHS_CHUNK, _LHS_CHUNK + 1]))
    durations = draw(st.lists(st.floats(0.5, 2000.0), min_size=count, max_size=count))
    return (s0, s1, s2), durations


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(plateau_knots_and_durations())
@example(((0.5, 0.2, 0.8), [15.0]))
@example(((0.2, 0.2, 0.8), [float(k) for k in range(1, _LHS_CHUNK + 1)]))
@example(((0.8, 0.2, 0.8), [0.5 + 7.0 * k for k in range(_LHS_CHUNK + 1)]))
def test_flat_pieces_are_folded_bit_for_bit(case):
    """Where phi' = 0 on a whole piece, ``duration_lhs`` adds the piece's
    integral taken once: every LHS keeps the bits of the unfolded sum, on
    arrays and scalars alike, and ``phases`` never reads the fold."""
    knots, durations = case
    profile = profile_fast(*knots)
    flat = [row[-1] for row in profile.nodes]
    plateau = sum(knots[1] <= a and b <= knots[2] for a, b in
                  zip(profile.breakpoints[:-1], profile.breakpoints[1:]))
    assert sum(f is not None for f in flat) == plateau
    lhs, theta, zeta = unfolded(profile, durations)
    assert duration_lhs(profile, np.array(durations)).tolist() == lhs.tolist()
    assert duration_lhs(profile, durations[-1]) == lhs[-1]
    for t, th, ze in zip(durations, theta.tolist(), zeta.tolist()):
        assert phases(profile, t) == TransferPhases(th, ze)


def test_duration_lhs_rejects_non_finite_integrand():
    with pytest.raises(FloatingPointError, match="non-finite"):
        duration_lhs(flat_profile(gap_value=math.nan), np.array([1.0, 2.0]))


def test_solved_durations_reference_values(original_run, fast_run):
    assert original_run.duration == pytest.approx(77.724, abs=0.05)
    assert fast_run.duration == pytest.approx(15.665, abs=0.05)
    # the roots of the scalar scan-and-bisect solver, bit for bit
    assert original_run.duration == pytest.approx(77.7230026535778, rel=0.0, abs=1e-12)
    assert fast_run.duration == pytest.approx(15.664959606237385, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("scan", [(0.5, 300.0, 0.5), (0.3, 300.0, 0.7)])
@pytest.mark.parametrize("name", ["fast_profile", "original_profile"])
def test_solve_duration_evaluates_no_duration_twice(request, monkeypatch, name, scan):
    """The bisection stops once its bracket's ends are adjacent floats,
    so it never evaluates the LHS at an end again."""
    profile = request.getfixturevalue(name)
    seen, halvings = [], 0

    def recorded(prof, durations):
        nonlocal halvings
        halvings += np.ndim(durations) == 0
        seen.extend(np.ravel(durations).tolist())
        return duration_lhs(prof, durations)

    monkeypatch.setattr(shortcuts, "duration_lhs", recorded)
    root = solve_duration(profile, scan=scan)
    assert len(set(seen)) == len(seen)
    assert 0 < halvings <= 60
    assert root in (15.664959606237385, 77.7230026535778)


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


def test_solve_duration_refuses_scan_of_too_many_points(fast_profile, monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("the point count must be checked before scanning")

    monkeypatch.setattr(shortcuts, "duration_lhs", no_evaluation)
    # 0.5 + 1e-15 > 0.5, so the scan would advance through about 1.5e16
    # points below the root; only the point count stops it
    with pytest.raises(ValueError, match="scan step 1e-15 gives more than"):
        solve_duration(fast_profile, scan=(0.5, 300.0, 1e-15))
    one_past_cap = 0.5 + 0.5 * (shortcuts.MAX_SCAN_POINTS + 1)
    with pytest.raises(ValueError, match="scan step 0.5 gives more than"):
        solve_duration(fast_profile, scan=(0.5, one_past_cap, 0.5))


@pytest.mark.parametrize("scan", [(math.inf, 5.0, 0.5), (0.5, math.inf, 0.5), (math.nan, 5.0, 0.5)])
def test_solve_duration_rejects_nonfinite_scan(fast_profile, scan):
    with pytest.raises(ValueError, match="must be finite"):
        solve_duration(fast_profile, scan=scan)


@st.composite
def grid_bounds(draw):
    start = draw(st.floats(-1e3, 1e3))
    stop = start + draw(st.floats(0.0, 100.0))
    return start, stop, draw(st.floats(1e-3, 100.0))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(grid_bounds())
def test_duration_grid_is_every_step_up_to_stop(bounds):
    start, stop, step = bounds
    grid = duration_grid(start, stop, step)
    n = grid.size - 1
    assert grid[0] == start
    assert np.all(np.diff(grid) > 0.0)
    assert grid[-1] <= stop < start + (n + 1) * step
    assert grid.tolist() == [start + k * step for k in range(n + 1)]


def test_duration_grid_keeps_a_stop_it_lands_on_and_a_full_cap():
    assert duration_grid(1.0, 2.0, 0.6).tolist() == [1.0, 1.6]
    assert duration_grid(1.0, 7.0, 0.1)[-1] == 7.0
    assert duration_grid(2.0, 2.0, 1.0).tolist() == [2.0]
    cap = shortcuts.MAX_SCAN_POINTS
    assert duration_grid(0.5, 0.5 * cap, 0.5).size == cap


@pytest.mark.parametrize("bounds, message", [
    ((3.0, 2.0, 1.0), "scan stop 2.0 is below its start 3.0"),
    # 1 + 1.5e-16 rounds up to the next float, so the step leaves 1.0, but
    # start + k * step repeats values further on
    ((1.0, 1.0 + 1e-11, 1.5e-16), "scan step 1.5e-16 does not advance past T = 1.0000000000000"),
    # one point past the cap
    ((0.5, 0.5 + 0.5 * shortcuts.MAX_SCAN_POINTS, 0.5), "gives more than 1000000 points"),
])
def test_duration_grid_refuses(bounds, message):
    with pytest.raises(ValueError, match=message):
        duration_grid(*bounds)


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
    rec = phases(run.profile, run.duration)
    wrapped = (rec.theta - rec.zeta + math.pi) % (2.0 * math.pi) - math.pi
    assert abs(abs(wrapped) - math.pi) <= 1e-6 or abs(wrapped + math.pi) <= 1e-6
    # the solved duration builds exactly -pi (mod 2 pi)
    assert math.cos(rec.theta - rec.zeta) == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("duration", [0.0, -1.0, math.inf, math.nan])
def test_phases_rejects_nonfinite_or_nonpositive_time(fast_profile, duration):
    with pytest.raises(ValueError, match="duration must be finite and positive"):
        phases(fast_profile, duration)


def test_phases_refuses_a_duration_whose_rate_overflows(fast_profile):
    """phi'/T overflows at T = 1e-300: refused as ``duration_lhs`` refuses
    it, and nothing warns on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for integrate in (phases, duration_lhs):
            with pytest.raises(FloatingPointError, match="non-finite phase-condition integrand"):
                integrate(fast_profile, 1e-300)


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
    # an odd, uniform sample grid
    s, _, j = sampled(fast_run)
    got = cmath.phase(cmath.exp(2j * simpson_uniform(j, (s[1] - s[0]) * fast_run.duration)))
    want = fast_run.record.zeta % (2.0 * math.pi)
    want = want - 2.0 * math.pi if want > math.pi else want
    assert abs(got - want) <= 1e-6


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
        psi1, psi2 = two_level_vector(run.trajectory.state(-1))
        assert abs(psi1) <= 1e-3 * run.alpha**2
        assert abs(psi2) == pytest.approx(run.alpha**2, abs=1e-3 * run.alpha**2)


@st.composite
def shortcut_paths(draw):
    """The original profile, or the fast one with every piece between its
    knots at least 0.05 wide, and a duration within a factor 2 of its root."""
    if draw(st.booleans()):
        profile = profile_original()
    else:
        s1 = draw(st.floats(0.05, 0.45))
        knots = draw(st.floats(0.05, 0.95)), s1, draw(st.floats(s1 + 0.05, 0.95))
        edges = sorted({0.0, 1.0, *knots})
        assume(all(b - a >= 0.05 for a, b in zip(edges[:-1], edges[1:])))
        profile = profile_fast(*knots)
    return profile, draw(st.floats(0.5, 2.0)) * solve_duration(profile)


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(shortcut_paths())
@example((profile_fast(), 15.664959606237385))
@example((profile_fast(0.7, 0.1, 0.5), 0.5 * 15.0))
def test_shortcut_follows_the_gauge_rotated_ground_state(case):
    """The counterdiabatic controls keep the state, at every sample, on the
    reference ground state rotated by the gauge angle b = atan2(-phi',
    E0 sin phi): on the normalised (S, c11) pair,
    g = (sin(phi/2) e^{-ib/2}, cos(phi/2) e^{ib/2}) (Berry, J. Phys. A 42,
    365303 (2009)).  Over these draws at 4000 steps 1 - |<g|psi>| peaks at
    3.3e-16, 300 times below the bound; controls interpolated linearly
    between 4001 samples left 2.4e-8, and the opposite sign of b leaves
    fidelities of 0.41 to 0.997."""
    profile, duration = case
    traj = propagate(initial_state(symmetric_preparation(0.1)),
                     counterdiabatic_controls(profile, duration), JunctionParams(), 4000)
    a = traj.amplitudes
    psi = np.array([(a[:, 4] + a[:, 5]) / SQRT2, a[:, 3]])
    s = traj.times / duration
    phi, gap = profile.angle(s), profile.gap(s)
    b = np.arctan2(-profile.angle(s, 1) / duration, gap * np.sin(phi))
    g = np.array([np.sin(phi / 2.0) * np.exp(-0.5j * b), np.cos(phi / 2.0) * np.exp(0.5j * b)])
    fidelity = np.abs((g.conj() * psi).sum(axis=0)) / np.linalg.norm(psi, axis=0)
    assert np.max(1.0 - fidelity) <= 1e-13


# ---------------------------------------------------------------------------
# shortcut delivery (full system)

@pytest.mark.parametrize("run_name", ["original_run", "fast_run"])
def test_shortcut_delivers_maximum_concurrence(run_name, request):
    run = request.getfixturevalue(run_name)
    fin = run.trajectory.state(-1)
    a2 = run.alpha**2
    assert abs(fin.c20) <= 1e-3 * a2
    assert abs(fin.c02) <= 1e-3 * a2
    assert abs(fin.c11) == pytest.approx(a2 / SQRT2, abs=1e-3 * a2)
    # CF4 reads the closed-form controls at its Gauss nodes: at 10 000 steps
    # C/alpha^2 ends 3.0e-13 (fast) and 3.6e-15 (original) below 1 + sqrt(2);
    # a linear interpolant of 4001 samples left 7.1e-12 on the fast profile
    norm_conc = 2.0 * abs(fin.c11 - fin.c10 * fin.c01) / a2
    assert norm_conc == pytest.approx(1.0 + SQRT2, abs=1e-12)


def test_delivery_is_frequency_independent(fast_run):
    traj = propagate(
        initial_state(fast_run.prep),
        fast_run.controls,
        JunctionParams(omega=0.4),
        steps=10_000,
    )
    fin = traj.state(-1)
    norm_conc = 2.0 * abs(fin.c11 - fin.c10 * fin.c01) / fast_run.alpha**2
    assert norm_conc == pytest.approx(1.0 + SQRT2, abs=1e-3)
