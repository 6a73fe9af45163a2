import math

import numpy as np
import pytest

from bjjctrl import (
    JunctionParams,
    TruncatedState,
    concurrence,
    dominant_trace,
    entanglement_exact,
    entanglement_of_concurrence,
    initial_state,
    propagate,
    reduced_density,
    symmetric_preparation,
)
from bjjctrl.entanglement import MAX_NORMALIZED_CONCURRENCE

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# independent oracles

def rho_by_partial_trace(state):
    """Trace mode 2 out of |psi><psi| via the coefficient matrix A[m, k]."""
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0], a[0, 1], a[0, 2] = state.c00, state.c01, state.c02
    a[1, 0], a[1, 1] = state.c10, state.c11
    a[2, 0] = state.c20
    return a @ a.conj().T


def random_state(rng, normalize=True):
    vec = rng.normal(size=6) + 1j * rng.normal(size=6)
    if normalize:
        vec /= np.linalg.norm(vec)
    return TruncatedState.from_array(vec)


def max_concurrence_state(alpha):
    """Weak-pumping state saturating the concurrence bound, unit norm.

    c11 at its population cap alpha^2/sqrt(2), the one-quantum product at
    alpha^2/2 and in anti-phase with c11 (via purely imaginary one-quantum
    amplitudes), no double occupations.
    """
    half = alpha / SQRT2
    c11 = alpha**2 / SQRT2
    c00 = math.sqrt(1.0 - alpha**2 - c11**2)
    return TruncatedState(c00=c00, c10=1j * half, c01=1j * half, c11=c11)


def constrained_mid_state(alpha, rng):
    """State with the per-manifold populations of a pumped junction and a
    nonzero triple product, mimicking a mid-transfer snapshot."""
    th1, th2, th3 = rng.uniform(0, 2 * np.pi, 3)
    c10 = alpha / SQRT2 * np.exp(1j * th1)
    c01 = alpha / SQRT2 * np.exp(-1j * th2)
    c11 = 0.5 * alpha**2 * np.exp(1j * th3)
    # remaining two-quanta population split evenly between c20 and c02
    rest = alpha**4 / 2.0 - abs(c11) ** 2
    c20 = math.sqrt(rest / 2.0)
    return TruncatedState(
        c00=1.0 - alpha**2 / 2.0, c10=c10, c01=c01, c11=c11, c20=c20, c02=c20
    )


# ---------------------------------------------------------------------------
# reduced density matrix

def test_reduced_density_vacuum():
    rho = reduced_density(TruncatedState(c00=1.0))
    assert np.allclose(rho, np.diag([1.0, 0.0, 0.0]))


def test_reduced_density_single_pair():
    rho = reduced_density(TruncatedState(c11=1.0))
    assert np.allclose(rho, np.diag([0.0, 1.0, 0.0]))


def test_reduced_density_matches_partial_trace(rng):
    for normalize in (True, False):
        for _ in range(15):
            state = random_state(rng, normalize)
            got = reduced_density(state)
            want = rho_by_partial_trace(state)
            assert np.max(np.abs(got - want)) < 1e-14
            assert np.max(np.abs(got - got.conj().T)) == 0.0


def test_reduced_density_initial_state_entries():
    alpha = 0.1
    state = initial_state(symmetric_preparation(alpha))
    rho = reduced_density(state)
    half = alpha / SQRT2
    c00 = 1.0 - alpha**2 / 2.0
    c11 = alpha**2 / 2.0
    c20 = alpha**2 / (2.0 * SQRT2)
    assert rho[0, 0] == pytest.approx(c00**2 + half**2 + c20**2, abs=1e-15)
    assert rho[1, 1] == pytest.approx(half**2 + c11**2, abs=1e-15)
    assert rho[2, 2] == pytest.approx(c20**2, abs=1e-15)
    assert rho[0, 1] == pytest.approx(c00 * half + c11 * half, abs=1e-15)
    assert rho[0, 2] == pytest.approx(c00 * c20, abs=1e-15)
    assert rho[1, 2] == pytest.approx(half * c20, abs=1e-15)
    # trace exceeds one only at O(alpha^4)
    assert np.trace(rho).real == pytest.approx(1.0 + 0.75 * alpha**4, abs=1e-12)


# ---------------------------------------------------------------------------
# concurrence

def test_initial_state_has_zero_dominant_concurrence():
    state = initial_state(symmetric_preparation(0.1))
    cv = concurrence(state, alpha=0.1)
    assert cv.dominant == pytest.approx(0.0, abs=1e-16)
    assert cv.normalized == pytest.approx(0.0, abs=1e-14)


def test_max_phase_state_saturates_bound():
    alpha = 0.1
    cv = concurrence(max_concurrence_state(alpha), alpha=alpha)
    assert cv.dominant == pytest.approx((1.0 + SQRT2) * alpha**2, rel=1e-12)
    assert cv.normalized == pytest.approx(MAX_NORMALIZED_CONCURRENCE, rel=1e-12)


def test_normalized_flagged_without_alpha():
    state = max_concurrence_state(0.1)
    assert concurrence(state).normalized is None
    assert concurrence(state, alpha=0.0).normalized is None


def test_full_vs_dominant_gap_is_second_order(fast_run):
    fin = fast_run.trajectory.final
    cv = concurrence(fin, alpha=fast_run.alpha)
    assert cv.full == pytest.approx(cv.dominant, rel=5 * fast_run.alpha**2)
    assert cv.dominant <= 2.0 * (abs(fin.c11) + abs(fin.c10 * fin.c01)) + 1e-15


def test_dominant_trace_matches_scalar_route(rng):
    amps = rng.normal(size=(20, 6)) + 1j * rng.normal(size=(20, 6))
    trace = dominant_trace(amps)
    for i in range(20):
        cv = concurrence(TruncatedState.from_array(amps[i]))
        assert trace[i] == pytest.approx(cv.dominant, rel=1e-14)


def test_bound_holds_along_shortcut(fast_run, original_run):
    for run in (fast_run, original_run):
        ceiling = MAX_NORMALIZED_CONCURRENCE * run.alpha**2 * (1.0 + 1e-6)
        assert dominant_trace(run.trajectory.amplitudes).max() <= ceiling


# ---------------------------------------------------------------------------
# exact eigen-analysis

def test_entropy_of_pure_product_state():
    res = entanglement_exact(TruncatedState(c00=1.0))
    assert res.eigenvalues == pytest.approx((1.0, 0.0, 0.0), abs=1e-14)
    assert res.entropy == pytest.approx(0.0, abs=1e-12)


def test_entropy_of_balanced_two_level_mixture():
    # (|00> + |11>)/sqrt(2) reduces to eigenvalues (1/2, 1/2, 0)
    state = TruncatedState(c00=1.0 / SQRT2, c11=1.0 / SQRT2)
    res = entanglement_exact(state)
    assert res.eigenvalues == pytest.approx((0.5, 0.5, 0.0), abs=1e-14)
    assert res.entropy == pytest.approx(1.0, abs=1e-12)


def test_characteristic_cubic_residual_on_random_states(rng):
    for _ in range(40):
        res = entanglement_exact(random_state(rng, normalize=False))
        assert res.cubic_residual <= 1e-10
        assert sum(res.eigenvalues) == pytest.approx(1.0, abs=1e-10)


def test_exact_entropy_matches_concurrence_formula_near_maximum():
    alpha = 0.1
    state = max_concurrence_state(alpha)
    exact = entanglement_exact(state).entropy
    approx = entanglement_of_concurrence((1.0 + SQRT2) * alpha**2)
    assert abs(exact - approx) <= 1e-4


def test_rejects_zero_state():
    with pytest.raises(ValueError):
        entanglement_exact(TruncatedState())


# ---------------------------------------------------------------------------
# entropy-of-concurrence map

def test_entropy_of_concurrence_endpoints():
    assert entanglement_of_concurrence(0.0) == 0.0
    assert entanglement_of_concurrence(1.0) == pytest.approx(1.0, abs=1e-14)


def test_entropy_of_concurrence_monotone():
    grid = np.linspace(0.0, 1.0, 1001)
    vals = np.array([entanglement_of_concurrence(c) for c in grid])
    assert np.all(np.diff(vals) > 0.0)


def test_entropy_of_concurrence_domain():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            entanglement_of_concurrence(bad)


# ---------------------------------------------------------------------------
# weak-pumping eigenvalue estimates
#
# With D = 0 the characteristic cubic -l^3 + l^2 - (C^2/4) l + D = 0 has
# the roots 0 and l1, l2 = (1 +- sqrt(1 - C^2))/2; for small D the third
# root is about 4D/C^2.  C and D are those of the unit-norm amplitudes.

def unit_concurrence_sq(state):
    return (concurrence(state).full / np.linalg.norm(state.as_array()) ** 2) ** 2


def test_lambda3_vanishes_without_triple_product():
    state = max_concurrence_state(0.1)  # c20 = c02 = 0 so D = 0
    res = entanglement_exact(state)
    root = math.sqrt(1.0 - unit_concurrence_sq(state))
    assert res.triple_product == 0.0
    want = ((1.0 + root) / 2.0, (1.0 - root) / 2.0, 0.0)
    assert res.eigenvalues == pytest.approx(want, abs=1e-15)


def test_lambda3_accuracy_on_mid_transfer_state(fast_run):
    n = fast_run.trajectory.times.size
    state = fast_run.trajectory.state(n // 2)
    res = entanglement_exact(state)
    csq = unit_concurrence_sq(state)
    root = math.sqrt(1.0 - csq)
    l3_app = 4.0 * res.triple_product / csq
    l1_app, l2_app = (1.0 + root) / 2.0, (1.0 - root) / 2.0
    exact = res.eigenvalues
    assert exact[2] > 0.0
    assert 0.5 <= l3_app / exact[2] <= 2.0
    assert l3_app / l2_app < 10.0 * fast_run.alpha**4
    assert l1_app == pytest.approx(exact[0], abs=1e-4)
    assert l2_app == pytest.approx(exact[1], rel=1e-2)


def test_lambda3_ratio_scales_like_alpha_fourth(rng):
    ratios = {}
    for alpha in (0.2, 0.1, 0.05):
        state = constrained_mid_state(alpha, np.random.default_rng(5))
        exact = entanglement_exact(state).eigenvalues
        ratios[alpha] = exact[2] / exact[1]
    assert 8.0 <= ratios[0.2] / ratios[0.1] <= 32.0
    assert 8.0 <= ratios[0.1] / ratios[0.05] <= 32.0


def test_normalized_concurrence_stays_under_ceiling_with_slack(fast_run):
    trace = dominant_trace(fast_run.trajectory.amplitudes) / fast_run.alpha**2
    assert trace.max() <= MAX_NORMALIZED_CONCURRENCE + 0.05
