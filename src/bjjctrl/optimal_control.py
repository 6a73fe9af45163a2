"""Bounded-control maximisation of the final normalised concurrence.

The controls are piecewise constant on N segments, so the objective
propagates the truncated state with exact per-segment matrix exponentials
(no integrator error inside the optimisation loop).  Maximisation uses
projected gradient ascent with Armijo backtracking and analytic gradients
obtained by differentiating the segment propagators; multistart plus a
shortcut-informed seed guards against local optima.  A bisection on the
feasibility predicate locates the minimum duration that reaches the
concurrence ceiling 1 + sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import shortcuts
from .dynamics import (
    InitialPreparation,
    JunctionParams,
    _one_quantum_propagator,
    _two_quanta_propagator,
    _Q_SYM,
    _chain,
    effective_frequency,
    initial_state,
    symmetric_preparation,
)
from .entanglement import MAX_NORMALIZED_CONCURRENCE

_ARMIJO_C1 = 1e-4
_PG_TOL = 1e-6
_FLAT_TOL = 1e-10
_FLAT_WINDOW = 20


@dataclass(frozen=True)
class ControlVector:
    """Piecewise-constant controls on N equal segments of [0, T]."""

    u: np.ndarray
    j: np.ndarray
    duration: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        j = np.asarray(self.j, dtype=float)
        if u.ndim != 1 or u.shape != j.shape or u.size == 0:
            raise ValueError("u and j must be 1-d arrays of equal nonzero length")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(j))):
            raise ValueError("controls must be finite")
        if not math.isfinite(self.duration) or self.duration < 0.0:
            raise ValueError("duration must be finite and >= 0")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "j", j)

    @property
    def segments(self) -> int:
        return self.u.size


@dataclass(frozen=True)
class OptimizationResult:
    best: ControlVector
    objective: float
    iterations: int
    converged: bool
    seed: int  # index of the winning start; -1 for the shortcut seed


@dataclass(frozen=True)
class SweepCurve:
    durations: np.ndarray
    objectives: np.ndarray
    kappa: float


def _prep_blocks(prep: InitialPreparation, params: JunctionParams):
    state = initial_state(prep)
    y0 = np.array([state.c10, state.c01], dtype=complex)
    z0 = np.array([state.c20, state.c11, state.c02], dtype=complex)
    return y0, z0, prep.alpha_sq, effective_frequency(params)


def _segment_states(uu, jj, duration, y0, z0, omega_eff):
    """Segment propagators of both blocks and the block states they chain."""
    dt = duration / uu.size
    a = _one_quantum_propagator(jj, omega_eff, dt)
    b = _two_quanta_propagator(uu, jj, omega_eff, dt)
    return a, b, _chain(a, y0), _chain(b, z0)


def _objective_value(uu, jj, duration, y0, z0, alpha_sq, omega_eff) -> float:
    _, _, ys, zs = _segment_states(uu, jj, duration, y0, z0, omega_eff)
    w = zs[-1][1] - ys[-1][0] * ys[-1][1]
    return 2.0 * abs(w) / alpha_sq


def objective(
    controls: ControlVector,
    prep: InitialPreparation | None = None,
    params: JunctionParams | None = None,
    bounds: tuple[float, float] | None = None,
) -> float:
    """Final normalised dominant concurrence C(T)/alpha^2 of the controls."""
    if bounds is not None:
        u_max, j_max = bounds
        if (
            controls.u.min() < 0.0
            or controls.j.min() < 0.0
            or controls.u.max() > u_max + 1e-12
            or controls.j.max() > j_max + 1e-12
        ):
            raise ValueError("controls violate the stated bounds")
    prep = prep if prep is not None else symmetric_preparation(0.1)
    params = params if params is not None else JunctionParams()
    y0, z0, alpha_sq, omega_eff = _prep_blocks(prep, params)
    return _objective_value(controls.u, controls.j, controls.duration, y0, z0, alpha_sq, omega_eff)


def _h_div(y):
    """(y cos y - sin y)/y^3, regular with limit -1/3 at 0."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = np.abs(y) < 1e-4
    ys = y[small]
    out[small] = -1.0 / 3.0 + ys * ys / 30.0
    yl = y[~small]
    out[~small] = (yl * np.cos(yl) - np.sin(yl)) / yl**3
    return out


def _segment_grads(uu, jj, omega_eff, dt):
    """d/du and d/dj of the per-segment block propagators.

    Differentiates the closed forms used by the propagator builders; the
    sin(y)/y style factors keep everything regular at zero controls.
    Returns (dA/dj, dB/du, dB/dj) with leading segment axis.
    """
    uu = np.asarray(uu, dtype=float)
    jj = np.asarray(jj, dtype=float)
    n = uu.size

    # one-quantum block: only the coupling enters
    c = np.cos(jj * dt)
    s = np.sin(jj * dt)
    da_j = np.empty((n, 2, 2), dtype=complex)
    da_j[:, 0, 0] = -s
    da_j[:, 1, 1] = -s
    da_j[:, 0, 1] = 1j * c
    da_j[:, 1, 0] = 1j * c
    da_j *= dt * np.exp(-1j * omega_eff * dt)

    # two-quanta block in the symmetric/antisymmetric basis
    r = np.sqrt(uu * uu + 4.0 * jj * jj)
    y = r * dt
    sc = np.sinc(y / np.pi)
    cy = np.cos(y)
    h = _h_div(y)
    q = np.exp(-1j * (uu + 2.0 * omega_eff) * dt)
    pa = np.exp(-2j * (uu + omega_eff) * dt)
    big_s = dt * sc  # sin(y)/r

    g00 = cy - 1j * big_s * uu
    g01 = 2j * big_s * jj
    g11 = cy + 1j * big_s * uu

    dg00_u = -(dt**2) * uu * sc - 1j * (dt**3 * h * uu * uu + big_s)
    dg01_u = 2j * dt**3 * h * uu * jj
    dg11_u = -(dt**2) * uu * sc + 1j * (dt**3 * h * uu * uu + big_s)

    dg00_j = -4.0 * dt**2 * jj * sc - 4j * dt**3 * h * uu * jj
    dg01_j = 2j * (4.0 * dt**3 * h * jj * jj + big_s)
    dg11_j = -4.0 * dt**2 * jj * sc + 4j * dt**3 * h * uu * jj

    db_u = np.zeros((n, 3, 3), dtype=complex)
    db_u[:, 0, 0] = -1j * dt * q * g00 + q * dg00_u
    db_u[:, 0, 1] = -1j * dt * q * g01 + q * dg01_u
    db_u[:, 1, 0] = db_u[:, 0, 1]
    db_u[:, 1, 1] = -1j * dt * q * g11 + q * dg11_u
    db_u[:, 2, 2] = -2j * dt * pa

    db_j = np.zeros((n, 3, 3), dtype=complex)
    db_j[:, 0, 0] = q * dg00_j
    db_j[:, 0, 1] = q * dg01_j
    db_j[:, 1, 0] = db_j[:, 0, 1]
    db_j[:, 1, 1] = q * dg11_j

    return da_j, _Q_SYM @ db_u @ _Q_SYM, _Q_SYM @ db_j @ _Q_SYM


def _objective_and_gradient(uu, jj, duration, y0, z0, alpha_sq, omega_eff):
    n = uu.size
    dt = duration / n
    a, b, ys, zs = _segment_states(uu, jj, duration, y0, z0, omega_eff)
    w = zs[n][1] - ys[n][0] * ys[n][1]
    value = 2.0 * abs(w) / alpha_sq
    gu = np.zeros(n)
    gj = np.zeros(n)
    if abs(w) == 0.0:
        return value, gu, gj
    pref = (2.0 / alpha_sq) * (w.conjugate() / abs(w))
    da_j, db_u, db_j = _segment_grads(uu, jj, omega_eff, dt)
    ay = np.array([-ys[n][1], -ys[n][0]])  # d w / d y_final (row)
    az = np.array([0.0, 1.0, 0.0], dtype=complex)  # d w / d z_final (row)
    for k in range(n - 1, -1, -1):
        gu[k] = (pref * (az @ (db_u[k] @ zs[k]))).real
        gj[k] = (pref * (az @ (db_j[k] @ zs[k]) + ay @ (da_j[k] @ ys[k]))).real
        az = az @ b[k]
        ay = ay @ a[k]
    return value, gu, gj


def objective_gradient(
    controls: ControlVector,
    prep: InitialPreparation | None = None,
    params: JunctionParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the objective w.r.t. (u, j), from the analytically
    differentiated segment propagators."""
    prep = prep if prep is not None else symmetric_preparation(0.1)
    params = params if params is not None else JunctionParams()
    y0, z0, alpha_sq, omega_eff = _prep_blocks(prep, params)
    _, gu, gj = _objective_and_gradient(
        controls.u, controls.j, controls.duration, y0, z0, alpha_sq, omega_eff
    )
    return gu, gj


def project(u, j, bounds):
    """Clip a control pair into the box [0, U_max] x [0, J_max]."""
    u_max, j_max = bounds
    return np.clip(u, 0.0, u_max), np.clip(j, 0.0, j_max)


def _ascend(u0, j0, duration, bounds, y0, z0, alpha_sq, omega_eff, max_iter):
    """Projected gradient ascent with Armijo backtracking from one start."""
    u, j = project(np.asarray(u0, float), np.asarray(j0, float), bounds)
    value, gu, gj = _objective_and_gradient(u, j, duration, y0, z0, alpha_sq, omega_eff)
    step = 1.0
    history = [value]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        pu, pj = project(u + gu, j + gj, bounds)
        pg_norm = math.sqrt(np.sum((pu - u) ** 2) + np.sum((pj - j) ** 2))
        if pg_norm <= _PG_TOL:
            converged = True
            break
        accepted = False
        s = step
        for _ in range(60):
            cu, cj = project(u + s * gu, j + s * gj, bounds)
            cand = _objective_value(cu, cj, duration, y0, z0, alpha_sq, omega_eff)
            gain = np.sum(gu * (cu - u)) + np.sum(gj * (cj - j))
            if cand >= value + _ARMIJO_C1 * gain and cand > value:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            converged = True  # no ascent direction left at line-search resolution
            break
        u, j = cu, cj
        value, gu, gj = _objective_and_gradient(u, j, duration, y0, z0, alpha_sq, omega_eff)
        step = min(2.0 * s, 1e3)
        history.append(value)
        if len(history) > _FLAT_WINDOW:
            old = history[-_FLAT_WINDOW - 1]
            if abs(value - old) <= _FLAT_TOL * max(1.0, abs(value)):
                converged = True
                break
    return u, j, value, it, converged


def shortcut_seed(
    duration: float,
    segments: int,
    bounds: tuple[float, float],
    profile: shortcuts.ReferenceProfile | None = None,
) -> ControlVector:
    """Fast-shortcut controls resampled to segment midpoints and clipped."""
    profile = profile if profile is not None else shortcuts.profile_fast()
    mid = (np.arange(segments) + 0.5) / segments
    u, j = shortcuts._controls_on(profile, duration, mid)
    u, j = project(u, j, bounds)
    return ControlVector(u=u, j=j, duration=duration)


def maximize(
    duration: float,
    bounds: tuple[float, float],
    segments: int = 100,
    seeds: int = 8,
    params: JunctionParams | None = None,
    *,
    prep: InitialPreparation | None = None,
    base_seed: int = 1234,
    max_iter: int = 2000,
    extra_starts: tuple[ControlVector, ...] = (),
) -> OptimizationResult:
    """Maximise C(T)/alpha^2 over bounded piecewise-constant controls.

    Runs ``seeds`` random starts (uniform in the box, seeded from
    ``base_seed``) plus one fast-shortcut-informed start plus any
    ``extra_starts``, each ascending with projected gradients, and
    returns the best.  Identical inputs give identical results.
    """
    if duration < 0.0:
        raise ValueError("duration must be >= 0")
    if segments < 1:
        raise ValueError("need at least one segment")
    params = params if params is not None else JunctionParams()
    prep = prep if prep is not None else symmetric_preparation(0.1)
    y0, z0, alpha_sq, omega_eff = _prep_blocks(prep, params)

    starts: list[tuple[int, np.ndarray, np.ndarray]] = []
    u_max, j_max = bounds
    for i in range(seeds):
        rng = np.random.default_rng(base_seed + i)
        starts.append(
            (i, rng.uniform(0.0, u_max, segments), rng.uniform(0.0, j_max, segments))
        )
    if duration > 0.0:
        seed_cv = shortcut_seed(duration, segments, bounds)
        starts.append((-1, seed_cv.u, seed_cv.j))
    for offset, cv in enumerate(extra_starts):
        starts.append((-2 - offset, cv.u.copy(), cv.j.copy()))

    if duration == 0.0 or not starts:
        zero = ControlVector(np.zeros(segments), np.zeros(segments), duration)
        return OptimizationResult(
            best=zero,
            objective=_objective_value(zero.u, zero.j, duration, y0, z0, alpha_sq, omega_eff),
            iterations=0,
            converged=True,
            seed=-1,
        )

    best = None
    improved = False
    for label, u0, j0 in starts:
        u0c, j0c = project(u0, j0, bounds)
        f0 = _objective_value(u0c, j0c, duration, y0, z0, alpha_sq, omega_eff)
        u, j, value, iters, conv = _ascend(
            u0, j0, duration, bounds, y0, z0, alpha_sq, omega_eff, max_iter
        )
        if value > f0 + 1e-15:
            improved = True
        if best is None or value > best[1]:
            best = ((u, j), value, iters, conv, label)
    (u, j), value, iters, conv, label = best
    return OptimizationResult(
        best=ControlVector(u=u, j=j, duration=duration),
        objective=value,
        iterations=iters,
        converged=bool(conv and improved),
        seed=label,
    )


def _resample_piecewise(cv: ControlVector, duration: float, segments: int):
    """Reinterpret piecewise-constant controls on a new duration, padding
    with zero actuation past the old horizon."""
    mid = (np.arange(segments) + 0.5) * duration / segments
    old_dt = cv.duration / cv.segments
    idx = np.minimum((mid / old_dt).astype(int), cv.segments - 1)
    inside = mid <= cv.duration
    u = np.where(inside, cv.u[idx], 0.0)
    j = np.where(inside, cv.j[idx], 0.0)
    return ControlVector(u=u, j=j, duration=duration)


def minimum_time(
    bounds: tuple[float, float],
    segments: int = 100,
    epsilon: float = 0.005,
    params: JunctionParams | None = None,
    *,
    prep: InitialPreparation | None = None,
    seeds: int = 8,
    base_seed: int = 1234,
    max_iter: int = 2000,
    coarse: tuple[float, float, float] = (1.0, 16.0, 1.0),
    resolution: float = 0.05,
) -> float:
    """Smallest duration whose optimum reaches (1 - epsilon) of the ceiling.

    Coarse scan for a feasibility bracket, then bisection down to
    ``resolution``.  The answer inherits the optimiser's discretisation,
    so treat it as a window of width ~resolution around the ideal value.
    """
    if not 0.0 < epsilon <= 0.05:
        raise ValueError("epsilon must lie in (0, 0.05]")
    target = MAX_NORMALIZED_CONCURRENCE * (1.0 - epsilon)
    warm: list[ControlVector] = []

    def feasible(duration):
        res = maximize(
            duration, bounds, segments, seeds, params,
            prep=prep, base_seed=base_seed, max_iter=max_iter,
            extra_starts=tuple(
                _resample_piecewise(cv, duration, segments) for cv in warm
            ),
        )
        del warm[:]
        warm.append(res.best)
        return res.objective >= target

    start, stop, step = coarse
    lo = None
    hi = None
    t = start
    while t <= stop + 1e-12:
        if feasible(t):
            hi = t
            break
        lo = t
        t += step
    if hi is None:
        raise RuntimeError(f"no feasible duration in [{start}, {stop}]")
    if lo is None:
        return hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def sweep(
    durations,
    bounds: tuple[float, float],
    segments: int = 100,
    kappa_list=(0.0,),
    params: JunctionParams | None = None,
    *,
    prep: InitialPreparation | None = None,
    seeds: int = 2,
    base_seed: int = 1234,
    max_iter: int = 800,
) -> list[SweepCurve]:
    """Optimal objective versus duration, for each loss rate.

    The lossless curve is optimised point by point (warm-started from the
    previous duration, so it is non-decreasing up to resampling noise).
    Lossy curves are the lossless one scaled by exp(-kappa T): for fixed
    controls the loss model multiplies the objective by exactly that
    factor, so the lossless optimisers remain optimal.  The scaling is
    cross-checked by direct lossy propagation at three grid points.
    """
    durations = np.asarray(durations, dtype=float)
    kappa_list = list(kappa_list)
    if durations.size == 0 or not kappa_list:
        raise ValueError("duration grid and kappa list must be non-empty")
    if any(kappa < 0.0 for kappa in kappa_list):
        raise ValueError("loss rates must be >= 0")
    params = params if params is not None else JunctionParams()
    if params.kappa != 0.0:
        raise ValueError("pass loss rates through kappa_list")
    prep = prep if prep is not None else symmetric_preparation(0.1)

    base = np.empty(durations.size)
    bests: list[ControlVector] = []
    prev: ControlVector | None = None
    for i, t in enumerate(durations):
        extra = ()
        if prev is not None:
            extra = (_resample_piecewise(prev, t, segments),)
        res = maximize(
            t, bounds, segments, seeds, params,
            prep=prep, base_seed=base_seed, max_iter=max_iter, extra_starts=extra,
        )
        base[i] = res.objective
        bests.append(res.best)
        prev = res.best

    check_idx = sorted({0, durations.size // 2, durations.size - 1})
    curves = []
    for kappa in kappa_list:
        scaled = base * np.exp(-kappa * durations)
        for i in check_idx:
            direct = objective(
                bests[i], prep, JunctionParams(params.omega, kappa)
            )
            if abs(direct - scaled[i]) > 5e-3:
                raise FloatingPointError(
                    f"lossy cross-check failed at T = {durations[i]:.3f}: "
                    f"direct {direct:.6f} vs scaled {scaled[i]:.6f}"
                )
        curves.append(SweepCurve(durations=durations.copy(), objectives=scaled, kappa=float(kappa)))
    return curves
