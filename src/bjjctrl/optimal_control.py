"""Bounded-control maximisation of the final normalised concurrence.

The controls are piecewise constant on N segments, so the objective
propagates the truncated state with exact per-segment matrix exponentials
(no integrator error inside the optimisation loop).  Maximisation uses
projected gradient ascent with Armijo backtracking and analytic gradients
obtained by differentiating the segment propagators; multistart plus a
shortcut-informed seed guards against local optima, and all starts ascend
together as one batch.  A bisection on the
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
    """Segment propagators of both blocks and the block states they chain.

    ``uu`` and ``jj`` hold one row of controls per start, shape
    (starts, segments).  The propagators come back segment-major,
    (segments, starts, n, n), so that one stacked product per segment
    advances every start; the states are (starts, n, 1) columns, the
    initial ones first.
    """
    starts, n = uu.shape
    dt = duration / n
    u_seg = np.ascontiguousarray(uu.T)
    j_seg = np.ascontiguousarray(jj.T)
    a = _one_quantum_propagator(j_seg, omega_eff, dt)
    b = _two_quanta_propagator(u_seg, j_seg, omega_eff, dt)
    y = np.repeat(y0[None, :, None], starts, axis=0)
    z = np.repeat(z0[None, :, None], starts, axis=0)
    return a, b, _chain(a, y), _chain(b, z)


def _final_overlap(ys, zs):
    """Real and imaginary parts of w = c11 - c10 c01 at T, one per start.

    The complex product is written out in real arithmetic, which rounds
    like numpy's scalar complex product; the vectorised one fuses
    multiply-adds and would move every iterate of the ascent.
    """
    y10, y01 = ys[-1][:, 0, 0], ys[-1][:, 1, 0]
    z11 = zs[-1][:, 1, 0]
    w_re = z11.real - (y10.real * y01.real - y10.imag * y01.imag)
    w_im = z11.imag - (y10.real * y01.imag + y10.imag * y01.real)
    return w_re, w_im


def _objective_value(uu, jj, duration, y0, z0, alpha_sq, omega_eff):
    """C(T)/alpha^2 of each row of controls, shape (starts, segments).

    |w| is taken with hypot, which rounds like the scalar complex modulus
    (np.abs on a complex array does not).
    """
    _, _, ys, zs = _segment_states(uu, jj, duration, y0, z0, omega_eff)
    return 2.0 * np.hypot(*_final_overlap(ys, zs)) / alpha_sq


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
    return _objective_value(
        controls.u[None], controls.j[None], controls.duration, y0, z0, alpha_sq, omega_eff
    )[0]


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
    Takes controls of shape (starts, segments) and returns (dA/dj, dB/du,
    dB/dj) segment-major, like the propagators of ``_segment_states``.
    """
    uu = np.ascontiguousarray(uu.T)
    jj = np.ascontiguousarray(jj.T)
    shape = uu.shape

    # one-quantum block: only the coupling enters
    c = np.cos(jj * dt)
    s = np.sin(jj * dt)
    da_j = np.empty(shape + (2, 2), dtype=complex)
    da_j[..., 0, 0] = -s
    da_j[..., 1, 1] = -s
    da_j[..., 0, 1] = 1j * c
    da_j[..., 1, 0] = 1j * c
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

    db_u = np.zeros(shape + (3, 3), dtype=complex)
    db_u[..., 0, 0] = -1j * dt * q * g00 + q * dg00_u
    db_u[..., 0, 1] = -1j * dt * q * g01 + q * dg01_u
    db_u[..., 1, 0] = db_u[..., 0, 1]
    db_u[..., 1, 1] = -1j * dt * q * g11 + q * dg11_u
    db_u[..., 2, 2] = -2j * dt * pa

    db_j = np.zeros(shape + (3, 3), dtype=complex)
    db_j[..., 0, 0] = q * dg00_j
    db_j[..., 0, 1] = q * dg01_j
    db_j[..., 1, 0] = db_j[..., 0, 1]
    db_j[..., 1, 1] = q * dg11_j

    return da_j, _Q_SYM @ db_u @ _Q_SYM, _Q_SYM @ db_j @ _Q_SYM


def _objective_and_gradient(uu, jj, duration, y0, z0, alpha_sq, omega_eff):
    """Objective and its (u, j) gradient for each row of controls.

    Adjoint method: after the forward chain, only the costate recursion
    runs segment by segment; the contractions with the propagator
    derivatives then cover every segment and start at once.  A start with
    w = 0 has no ascent direction and gets a zero gradient.
    """
    starts, n = uu.shape
    a, b, ys, zs = _segment_states(uu, jj, duration, y0, z0, omega_eff)
    w_re, w_im = _final_overlap(ys, zs)
    modulus = np.hypot(w_re, w_im)
    value = 2.0 * modulus / alpha_sq
    gu = np.zeros((starts, n))
    gj = np.zeros((starts, n))
    live = np.flatnonzero(modulus)
    if live.size == 0:
        return value, gu, gj
    if live.size < starts:
        uu, jj, a, b = uu[live], jj[live], a[:, live], b[:, live]
        ys = [y[live] for y in ys]
        zs = [z[live] for z in zs]
    w_conj = np.empty(live.size, dtype=complex)
    w_conj.real = w_re[live]
    w_conj.imag = -w_im[live]
    pref = (2.0 / alpha_sq) * (w_conj / modulus[live])

    # costates d w / d(state after segment k), as rows; az_k[k] and ay_k[k]
    # multiply the derivative of segment k's propagator
    az_k = np.zeros((n, live.size, 1, 3), dtype=complex)
    ay_k = np.empty((n, live.size, 1, 2), dtype=complex)
    az_k[-1, :, 0, 1] = 1.0
    ay_k[-1, :, 0, 0] = -ys[-1][:, 1, 0]
    ay_k[-1, :, 0, 1] = -ys[-1][:, 0, 0]
    for k in range(n - 1, 0, -1):
        np.matmul(az_k[k], b[k], out=az_k[k - 1])
        np.matmul(ay_k[k], a[k], out=ay_k[k - 1])

    da_j, db_u, db_j = _segment_grads(uu, jj, omega_eff, duration / n)
    z_in = np.stack(zs[:-1])
    t_u = (az_k @ (db_u @ z_in))[..., 0, 0]
    t_j = (az_k @ (db_j @ z_in) + ay_k @ (da_j @ np.stack(ys[:-1])))[..., 0, 0]
    # Re(pref * t), in real arithmetic for the reason given in _final_overlap
    gu[live] = (pref.real * t_u.real - pref.imag * t_u.imag).T
    gj[live] = (pref.real * t_j.real - pref.imag * t_j.imag).T
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
        controls.u[None], controls.j[None], controls.duration, y0, z0, alpha_sq, omega_eff
    )
    return gu[0], gj[0]


def project(u, j, bounds):
    """Clip a control pair into the box [0, U_max] x [0, J_max]."""
    u_max, j_max = bounds
    return np.clip(u, 0.0, u_max), np.clip(j, 0.0, j_max)


def _ascend(u0, j0, duration, bounds, y0, z0, alpha_sq, omega_eff, max_iter):
    """Projected gradient ascent with Armijo backtracking, all starts at once.

    Row i of ``u0`` and ``j0`` (shape (starts, segments)) is one start.
    Every start keeps its own step length, backtracking, flat-window
    history and stop reason, so it takes the same iterates as it would
    alone; a start leaves the batch once it stops.  Returns per start the
    controls, the objective, the iteration count and the stop reason:
    "projected_gradient", "no_ascent_step" (the line search found no
    ascent at its resolution), "flat" or "max_iter" (not converged).
    """
    u, j = project(np.asarray(u0, float), np.asarray(j0, float), bounds)
    value, gu, gj = _objective_and_gradient(u, j, duration, y0, z0, alpha_sq, omega_eff)
    starts = value.size
    step = np.ones(starts)
    # each start's last _FLAT_WINDOW + 1 objectives; iteration i in column
    # i % (_FLAT_WINDOW + 1)
    history = np.empty((starts, _FLAT_WINDOW + 1))
    history[:, 0] = value
    iterations = np.full(starts, max_iter)
    stop = ["max_iter"] * starts
    active = np.arange(starts)

    def finish(rows, it, reason):
        iterations[rows] = it
        for row in rows:
            stop[row] = reason

    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        ua, ja, ga, ha = u[active], j[active], gu[active], gj[active]
        pu, pj = project(ua + ga, ja + ha, bounds)
        pg_norm = np.sqrt(np.sum((pu - ua) ** 2, axis=1) + np.sum((pj - ja) ** 2, axis=1))
        done = pg_norm <= _PG_TOL
        finish(active[done], it, "projected_gradient")
        keep = ~done
        active, ua, ja, ga, ha = active[keep], ua[keep], ja[keep], ga[keep], ha[keep]
        va = value[active]

        # backtracking in lock step: a start leaves the search once it accepts
        s = step[active]
        accepted = np.zeros(active.size, dtype=bool)
        cu = np.empty_like(ua)
        cj = np.empty_like(ja)
        search = np.arange(active.size)
        for _ in range(60):
            if search.size == 0:
                break
            tu, tj = project(
                ua[search] + s[search, None] * ga[search],
                ja[search] + s[search, None] * ha[search],
                bounds,
            )
            cand = _objective_value(tu, tj, duration, y0, z0, alpha_sq, omega_eff)
            gain = np.sum(ga[search] * (tu - ua[search]), axis=1) + np.sum(
                ha[search] * (tj - ja[search]), axis=1
            )
            ok = (cand >= va[search] + _ARMIJO_C1 * gain) & (cand > va[search])
            hit = search[ok]
            accepted[hit] = True
            cu[hit], cj[hit] = tu[ok], tj[ok]
            search = search[~ok]
            s[search] *= 0.5
        finish(active[~accepted], it, "no_ascent_step")
        active, cu, cj, s = active[accepted], cu[accepted], cj[accepted], s[accepted]
        if active.size == 0:
            break

        u[active], j[active] = cu, cj
        value[active], gu[active], gj[active] = _objective_and_gradient(
            cu, cj, duration, y0, z0, alpha_sq, omega_eff
        )
        step[active] = np.minimum(2.0 * s, 1e3)
        history[active, it % (_FLAT_WINDOW + 1)] = value[active]
        if it >= _FLAT_WINDOW:
            va = value[active]
            old = history[active, (it + 1) % (_FLAT_WINDOW + 1)]  # iteration it - window
            flat = np.abs(va - old) <= _FLAT_TOL * np.maximum(1.0, np.abs(va))
            finish(active[flat], it, "flat")
            active = active[~flat]
    return u, j, value, iterations, stop


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
    ``extra_starts`` (each with ``segments`` segments), all ascending
    together with projected gradients, and returns the best; ties go to
    the earlier start.  Identical inputs give identical results.
    """
    if duration < 0.0:
        raise ValueError("duration must be >= 0")
    if segments < 1:
        raise ValueError("need at least one segment")
    if seeds < 0:
        raise ValueError("seeds must be >= 0")
    if any(cv.segments != segments for cv in extra_starts):
        raise ValueError(f"extra starts must have {segments} segments")
    params = params if params is not None else JunctionParams()
    prep = prep if prep is not None else symmetric_preparation(0.1)
    y0, z0, alpha_sq, omega_eff = _prep_blocks(prep, params)

    if duration == 0.0:
        zero = np.zeros((1, segments))
        return OptimizationResult(
            best=ControlVector(zero[0], zero[0], duration),
            objective=_objective_value(zero, zero, duration, y0, z0, alpha_sq, omega_eff)[0],
            iterations=0,
            converged=True,
            seed=-1,
        )

    labels = list(range(seeds))
    u0 = []
    j0 = []
    u_max, j_max = bounds
    for i in labels:
        rng = np.random.default_rng(base_seed + i)
        u0.append(rng.uniform(0.0, u_max, segments))
        j0.append(rng.uniform(0.0, j_max, segments))
    seed_cv = shortcut_seed(duration, segments, bounds)
    extra = [seed_cv, *extra_starts]
    labels += [-1 - offset for offset in range(len(extra))]
    u0 += [cv.u for cv in extra]
    j0 += [cv.j for cv in extra]
    u0 = np.array(u0)
    j0 = np.array(j0)

    f0 = _objective_value(*project(u0, j0, bounds), duration, y0, z0, alpha_sq, omega_eff)
    u, j, value, iterations, stop = _ascend(
        u0, j0, duration, bounds, y0, z0, alpha_sq, omega_eff, max_iter
    )
    improved = bool(np.any(value > f0 + 1e-15))
    best = 0
    for row in range(1, len(labels)):
        if value[row] > value[best]:
            best = row
    return OptimizationResult(
        best=ControlVector(u=u[best], j=j[best], duration=duration),
        objective=value[best],
        iterations=int(iterations[best]),
        converged=stop[best] != "max_iter" and improved,
        seed=labels[best],
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
