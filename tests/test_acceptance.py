"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one [ACCEPTANCE n] PASS/FAIL line (run pytest with -s to
see them live).  The criteria pin the headline numbers: shortcut
durations 77.724 and 15.665, the speed estimate 2*pi/(sqrt(2)-1), the
concurrence ceiling 1+sqrt(2) and its delivery, conservation laws, oracle
agreement, entanglement metrics, loss factorisation, and the
bounded-control optimisation targets.
"""

import math
import time

import numpy as np
import pytest

from bjjctrl import (
    ControlSchedule,
    ControlVector,
    JunctionParams,
    TruncatedState,
    concurrence,
    counterdiabatic_controls,
    dominant_trace,
    entanglement_exact,
    entanglement_of_concurrence,
    initial_state,
    maximize,
    minimum_time,
    phases,
    profile_fast,
    profile_original,
    propagate,
    solve_duration,
    sweep,
    symmetric_preparation,
)
from bjjctrl.entanglement import MAX_NORMALIZED_CONCURRENCE

SQRT2 = math.sqrt(2.0)
BOUNDS = (1.0, 0.25)

#: normalized concurrence values observed across the module, for the
#: ceiling criterion
OBSERVED = []


def report(num, ok, detail):
    print(f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_duration_roots():
    t0 = time.monotonic()
    root_orig = solve_duration(profile_original())
    dt_orig = time.monotonic() - t0
    t0 = time.monotonic()
    root_fast = solve_duration(profile_fast(0.9, 0.2, 0.8))
    dt_fast = time.monotonic() - t0
    ok = (
        abs(root_orig - 77.724) <= 0.05
        and abs(root_fast - 15.665) <= 0.05
        and dt_orig < 5.0
        and dt_fast < 5.0
    )
    report(
        1, ok,
        f"T_original={root_orig:.4f} ({dt_orig:.2f}s), "
        f"T_fast={root_fast:.4f} ({dt_fast:.2f}s)",
    )


def test_criterion_2_duration_estimate():
    from bjjctrl import estimate_min_duration

    est = estimate_min_duration()
    ok = abs(est - 2.0 * math.pi / (SQRT2 - 1.0)) < 1e-12 and abs(est - 15.169) <= 1e-3
    report(2, ok, f"estimate={est:.6f}")


@pytest.mark.parametrize(
    "run_name,omega", [("original_run", 0.0), ("fast_run", 0.3)]
)
def test_criterion_3_shortcut_delivery(run_name, omega, request):
    run = request.getfixturevalue(run_name)
    a2 = run.alpha**2
    t0 = time.monotonic()
    traj = propagate(
        initial_state(run.prep), run.controls, JunctionParams(omega=omega),
        steps=10_000,
    )
    elapsed = time.monotonic() - t0
    fin = traj.state(-1)
    norm_conc = 2.0 * abs(fin.c11 - fin.c10 * fin.c01) / a2
    rec = phases(run.profile, run.duration)
    wrapped = (rec.theta - rec.zeta + math.pi) % (2.0 * math.pi) - math.pi
    phase_err = min(abs(wrapped - math.pi), abs(wrapped + math.pi))
    OBSERVED.append(dominant_trace(traj.amplitudes).max() / a2)
    ok = (
        abs(norm_conc - (1.0 + SQRT2)) <= 1e-3
        and abs(fin.c20) <= 1e-3 * a2
        and abs(fin.c02) <= 1e-3 * a2
        and phase_err <= 1e-3
        and elapsed < 10.0
    )
    report(
        3, ok,
        f"{run.profile.kind} (omega={omega}): C/a^2={norm_conc:.6f}, "
        f"|c20|={abs(fin.c20) / a2:.2e}a^2, phase_err={phase_err:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_conservation(original_run, fast_run):
    drifts = []
    for run in (original_run, fast_run):
        one, two = run.trajectory.manifold_populations()
        drifts.append(np.max(np.abs(one - one[0])))
        drifts.append(np.max(np.abs(two - two[0])))
    state0 = initial_state(fast_run.prep)
    base = propagate(state0, fast_run.controls, JunctionParams(0.0), steps=10_000)
    shifted = propagate(state0, fast_run.controls, JunctionParams(0.25), steps=10_000)
    gauge_err = np.max(
        np.abs(dominant_trace(base.amplitudes) - dominant_trace(shifted.amplitudes))
    )
    ok = max(drifts) <= 1e-10 and gauge_err <= 1e-10
    report(4, ok, f"max drift={max(drifts):.2e}, gauge error={gauge_err:.2e}")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        vec /= np.linalg.norm(vec)
        state = TruncatedState.from_array(vec)
        u = rng.uniform(0.0, 1.0)
        j = rng.uniform(0.0, 0.5)
        params = JunctionParams(rng.uniform(-0.5, 0.5), rng.choice([0.0, 0.08]))
        duration = rng.uniform(0.2, 2.5)
        traj = propagate(
            state, ControlSchedule(np.array([0.0, duration]), np.full(2, u), np.full(2, j)),
            params, steps=3000,
        )
        want = propagate(state, ControlVector([u], [j], duration), params, steps=1).state(-1)
        worst = max(worst, np.max(np.abs(traj.state(-1).as_array() - want.as_array())))
    ok = worst <= 1e-9
    report(5, ok, f"max componentwise error={worst:.2e} over 100 instances")


def test_criterion_6_entanglement_metrics(fast_run):
    # characteristic cubic along the transfer
    idx = np.linspace(0, fast_run.trajectory.times.size - 1, 50).astype(int)
    residual = max(
        entanglement_exact(fast_run.trajectory.state(i)).cubic_residual for i in idx
    )

    # exact entropy vs the concurrence formula near the maximum
    fin = fast_run.trajectory.state(-1)
    exact = entanglement_exact(fin).entropy
    approx = entanglement_of_concurrence(concurrence(fin).dominant)
    entropy_gap = abs(exact - approx)

    # third-eigenvalue suppression scales like alpha^4
    ratios = {}
    for alpha in (0.2, 0.1, 0.05):
        traj = propagate(
            initial_state(symmetric_preparation(alpha)),
            fast_run.controls,
            JunctionParams(),
            steps=2000,
        )
        lam = entanglement_exact(traj.state(1000)).eigenvalues
        ratios[alpha] = lam[2] / lam[1]
    scale_a = ratios[0.2] / ratios[0.1]
    scale_b = ratios[0.1] / ratios[0.05]
    ok = (
        residual <= 1e-10
        and entropy_gap <= 1e-4
        and 8.0 <= scale_a <= 32.0
        and 8.0 <= scale_b <= 32.0
    )
    report(
        6, ok,
        f"cubic residual={residual:.2e}, entropy gap={entropy_gap:.2e} bits, "
        f"lambda3 ratio scaling {scale_a:.1f}x / {scale_b:.1f}x per alpha halving",
    )


def test_criterion_7_dissipation(fast_run):
    times = fast_run.trajectory.times
    lossless = dominant_trace(fast_run.trajectory.amplitudes)
    worst = 0.0
    peaks = []
    for kappa in (0.0, 0.01, 0.05, 0.1):
        run = propagate(
            initial_state(fast_run.prep), fast_run.controls, JunctionParams(0.0, kappa), steps=10_000
        )
        lossy = dominant_trace(run.amplitudes)
        worst = max(worst, np.max(np.abs(lossy - lossless * np.exp(-kappa * times))))
        peaks.append(times[np.argmax(lossy)])
    strictly_earlier = all(b < a for a, b in zip(peaks, peaks[1:]))
    ok = worst <= 1e-8 and strictly_earlier
    report(
        7, ok,
        f"factorisation error={worst:.2e}, peak times={[f'{p:.2f}' for p in peaks]}",
    )


def test_criterion_8_optimal_control():
    t0 = time.monotonic()
    res = maximize(7.0, BOUNDS, segments=100, seeds=8)
    OBSERVED.append(res.objective)
    reach_ok = res.objective >= 0.995 * (1.0 + SQRT2)

    tstar = minimum_time(BOUNDS, segments=100, epsilon=0.005, seeds=8)
    tstar_ok = 6.3 <= tstar <= 7.2

    grid = np.round(np.arange(1.0, 7.0 + 1e-9, 0.1), 10)
    curves = sweep(grid, BOUNDS, segments=100, kappa_list=[0.0], seeds=2)
    curve = curves[0].objectives
    OBSERVED.extend(curve.tolist())
    monotone_ok = bool(np.all(np.diff(curve) >= -1e-3))
    elapsed = time.monotonic() - t0
    ok = reach_ok and tstar_ok and monotone_ok and elapsed < 1800.0
    report(
        8, ok,
        f"objective(T=7)={res.objective:.6f}, T*={tstar:.3f}, "
        f"sweep min step={np.diff(curve).min():.2e}, total {elapsed:.0f}s",
    )


def test_criterion_9_concurrence_ceiling(original_run, fast_run):
    values = list(OBSERVED)
    for run in (original_run, fast_run):
        values.append(
            dominant_trace(run.trajectory.amplitudes).max() / run.alpha**2
        )
    worst = max(values)
    ok = worst <= MAX_NORMALIZED_CONCURRENCE * (1.0 + 1e-6)
    report(9, ok, f"largest normalized concurrence observed={worst:.9f}")
