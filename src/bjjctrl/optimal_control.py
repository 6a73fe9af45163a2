"""Bounded-control maximisation of the final normalised concurrence.

The objective is C(T)/alpha^2 = 2 |w| / alpha^2 with w = c11 - c10 c01 at
the final time.  The controls are piecewise constant on N segments, so w
is computed exactly (no integrator error inside the optimisation loop),
in a frame where it needs little work:

- In the basis S = (c20 + c02)/sqrt(2), A = (c20 - c02)/sqrt(2) the
  two-quanta block splits into a 2x2 part on (S, c11) and a pure phase on
  A, which never reaches c11.  Each segment's 2x2 part is a phase times a
  rotation R; the phases multiply out to one per start, so a single 2x2
  rotation chain carries (S, c11).
- The one-quantum block is diagonal in (c10 +- c01)/sqrt(2), so its final
  amplitudes have a closed form in the integrated coupling dt sum(j).

Maximisation uses projected gradient ascent with Armijo backtracking and
adjoint gradients (one costate recursion back through the rotations, then
elementwise contractions with their derivatives); multistart plus a
shortcut-informed seed guards against local optima, and all starts ascend
together as one batch.  A bisection on the feasibility predicate locates
the minimum duration that reaches the concurrence ceiling 1 + sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import shortcuts
from .dynamics import (
    InitialPreparation,
    JunctionParams,
    SQRT2,
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
    """The preparation in the optimiser's frame: the one-quantum pair
    (c10, c01), the two-quanta pair (S, c11) with S = (c20 + c02)/sqrt(2),
    alpha^2 and the complex frequency."""
    state = initial_state(prep)
    y0 = np.array([state.c10, state.c01], dtype=complex)
    x0 = np.array([(state.c20 + state.c02) / SQRT2, state.c11], dtype=complex)
    return y0, x0, prep.alpha_sq, effective_frequency(params)


def _angles(uu, jj, dt):
    """Segment-major controls u, j, the rotation angles
    y = dt sqrt(u^2 + 4 j^2) and s = sin(y) / sqrt(u^2 + 4 j^2)."""
    u, j = uu.T, jj.T
    y = dt * np.sqrt(u * u + 4.0 * j * j)
    return u, j, y, dt * np.sinc(y / np.pi)  # sinc keeps s regular at y = 0


def _forward(uu, jj, duration, y0, x0, omega_eff):
    """Segment rotations, the (S, c11) states they chain, and the final
    amplitudes c10, c01 and c11 of each row of controls.

    ``uu`` and ``jj`` hold one row of controls per start, shape
    (starts, segments).  Segment k maps (S, c11) by q_k R_k with
    q_k = exp(-i (u_k + 2 omega) dt); the phases multiply out to one per
    start, so only the rotations R_k are chained.  They come back
    segment-major, (segments, starts, 2, 2), so that one stacked product
    per segment advances every start; the states are stacked
    (segments + 1, starts, 2, 1) columns, the initial ones first.  The
    one-quantum block depends on the coupling only through
    Theta = dt sum(j), so its final amplitudes have a closed form.
    """
    starts, n = uu.shape
    dt = duration / n
    u, j, y, s = _angles(uu, jj, dt)
    rot = np.zeros((n, starts, 2, 2), dtype=complex)
    rot.real[..., 0, 0] = rot.real[..., 1, 1] = np.cos(y)
    rot.imag[..., 0, 0] = -s * u
    rot.imag[..., 1, 1] = s * u
    rot.imag[..., 0, 1] = rot.imag[..., 1, 0] = 2.0 * s * j
    xs = _chain(rot, np.repeat(x0[None, :, None], starts, axis=0))
    phase = np.exp(-1j * (dt * uu.sum(axis=1) + 2.0 * omega_eff * duration))
    theta = dt * jj.sum(axis=1)
    cos, isin = np.cos(theta), 1j * np.sin(theta)
    turn = np.exp(-1j * omega_eff * duration)
    c10 = turn * (cos * y0[0] + isin * y0[1])
    c01 = turn * (isin * y0[0] + cos * y0[1])
    return rot, xs, phase, c10, c01, phase * xs[-1, :, 1, 0]


def _objective_value(uu, jj, duration, y0, x0, alpha_sq, omega_eff):
    """C(T)/alpha^2 = 2 |c11 - c10 c01| / alpha^2 at T of each row of
    controls, shape (starts, segments)."""
    _, _, _, c10, c01, c11 = _forward(uu, jj, duration, y0, x0, omega_eff)
    w = c11 - c10 * c01
    return 2.0 * np.hypot(w.real, w.imag) / alpha_sq


def objective(
    controls: ControlVector,
    prep: InitialPreparation | None = None,
    params: JunctionParams | None = None,
) -> float:
    """Final normalised dominant concurrence C(T)/alpha^2 of the controls."""
    prep = prep if prep is not None else symmetric_preparation(0.1)
    params = params if params is not None else JunctionParams()
    y0, x0, alpha_sq, omega_eff = _prep_blocks(prep, params)
    return _objective_value(
        controls.u[None], controls.j[None], controls.duration, y0, x0, alpha_sq, omega_eff
    )[0]


def _h_div(y):
    """(y cos y - sin y)/y^3, regular with limit -1/3 at 0.

    The difference cancels for small y, so below |y| = 0.1 the Taylor
    series takes over; its first omitted term, y^8/3991680, is below
    1e-14 of the value there.
    """
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = np.abs(y) < 0.1
    y2 = y[small] ** 2
    out[small] = -1.0 / 3.0 + y2 * (1.0 / 30.0 + y2 * (-1.0 / 840.0 + y2 / 45360.0))
    yl = y[~small]
    out[~small] = (yl * np.cos(yl) - np.sin(yl)) / yl**3
    return out


def _objective_and_gradient(uu, jj, duration, y0, x0, alpha_sq, omega_eff):
    """Objective and its (u, j) gradient for each row of controls.

    Adjoint method: after the forward chain, one costate recursion runs
    back through the rotations; the contractions with their derivatives
    then cover every segment and start at once, elementwise.  A start
    with w = 0 has no ascent direction and gets a zero gradient.
    """
    starts, n = uu.shape
    dt = duration / n
    rot, xs, phase, c10, c01, c11 = _forward(uu, jj, duration, y0, x0, omega_eff)
    w = c11 - c10 * c01
    modulus = np.hypot(w.real, w.imag)
    value = 2.0 * modulus / alpha_sq
    gu = np.zeros((starts, n))
    gj = np.zeros((starts, n))
    live = np.flatnonzero(modulus)
    if live.size == 0:
        return value, gu, gj
    if live.size < starts:
        uu, jj, rot, xs, phase = uu[live], jj[live], rot[:, live], xs[:, live], phase[live]
        w, c10, c01, c11 = w[live], c10[live], c01[live], c11[live]
    # d value = Re(pref dw), and dw/du_k, dw/dj_k hold phase lam_k R_k' x_k
    # with lam_k = e_1^T R_{n-1} ... R_{k+1}; the phase's own u-derivative
    # adds -i dt c11, and Theta's j-derivative -i dt (c10^2 + c01^2)
    pref = (2.0 / alpha_sq) * w.conj() / modulus[live]
    top = np.zeros((live.size, 2, 1), dtype=complex)
    top[:, 1, 0] = pref * phase
    # R is symmetric, so the costate rows chain as columns
    lam = _chain(rot[:0:-1], top)[::-1, :, :, 0]
    x = xs[:-1, :, :, 0]
    # R' = [[a - ib, ic], [ic, a + ib]] with real a, b, c, so that with
    # p0 = lam0 x0, p1 = lam1 x1 and p01 = lam0 x1 + lam1 x0,
    # Re(lam R' x) = a Re(p0 + p1) - b Im(p1 - p0) - c Im(p01)
    p0 = lam[..., 0] * x[..., 0]
    p1 = lam[..., 1] * x[..., 1]
    diag = (p0 + p1).real
    skew = (p1 - p0).imag
    cross = (lam[..., 0] * x[..., 1] + lam[..., 1] * x[..., 0]).imag

    # (a, b, c) of dR/du are (-dt u s, h u^2 + s, 2 h u j) and of dR/dj
    # (-4 dt j s, 4 h u j, 2 (4 h j^2 + s)), with h = dt^3 _h_div(y)
    u, j, y, s = _angles(uu, jj, dt)
    h = dt**3 * _h_div(y)
    ujh = u * j * h
    gu_seg = -dt * u * s * diag - (h * u * u + s) * skew - 2.0 * ujh * cross
    gj_seg = -4.0 * dt * j * s * diag - 4.0 * ujh * skew - 2.0 * (4.0 * h * j * j + s) * cross
    gu[live] = gu_seg.T + (dt * (pref * c11).imag)[:, None]
    gj[live] = gj_seg.T + (dt * (pref * (c10 * c10 + c01 * c01)).imag)[:, None]
    return value, gu, gj


def objective_gradient(
    controls: ControlVector,
    prep: InitialPreparation | None = None,
    params: JunctionParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the objective w.r.t. (u, j), by the adjoint method
    through the segment rotations."""
    prep = prep if prep is not None else symmetric_preparation(0.1)
    params = params if params is not None else JunctionParams()
    y0, x0, alpha_sq, omega_eff = _prep_blocks(prep, params)
    _, gu, gj = _objective_and_gradient(
        controls.u[None], controls.j[None], controls.duration, y0, x0, alpha_sq, omega_eff
    )
    return gu[0], gj[0]


def project(u, j, bounds):
    """Clip a control pair into the box [0, U_max] x [0, J_max]."""
    u_max, j_max = bounds
    return np.clip(u, 0.0, u_max), np.clip(j, 0.0, j_max)


def _ascend(u0, j0, duration, bounds, y0, x0, alpha_sq, omega_eff, max_iter):
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
    value, gu, gj = _objective_and_gradient(u, j, duration, y0, x0, alpha_sq, omega_eff)
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
            cand = _objective_value(tu, tj, duration, y0, x0, alpha_sq, omega_eff)
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
            cu, cj, duration, y0, x0, alpha_sq, omega_eff
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


def shortcut_seed(duration: float, segments: int, bounds: tuple[float, float]) -> ControlVector:
    """Fast-shortcut controls resampled to segment midpoints and clipped."""
    mid = (np.arange(segments) + 0.5) / segments
    u, j = shortcuts._controls_on(shortcuts.profile_fast(), duration, mid)
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
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if not all(math.isfinite(b) and b >= 0.0 for b in bounds):
        raise ValueError(f"bounds must be two finite values >= 0, got {tuple(bounds)}")
    if any(cv.segments != segments for cv in extra_starts):
        raise ValueError(f"extra starts must have {segments} segments")
    params = params if params is not None else JunctionParams()
    prep = prep if prep is not None else symmetric_preparation(0.1)
    y0, x0, alpha_sq, omega_eff = _prep_blocks(prep, params)

    if duration == 0.0:
        zero = np.zeros((1, segments))
        return OptimizationResult(
            best=ControlVector(zero[0], zero[0], duration),
            objective=_objective_value(zero, zero, duration, y0, x0, alpha_sq, omega_eff)[0],
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

    f0 = _objective_value(*project(u0, j0, bounds), duration, y0, x0, alpha_sq, omega_eff)
    u, j, value, iterations, stop = _ascend(
        u0, j0, duration, bounds, y0, x0, alpha_sq, omega_eff, max_iter
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
            duration, bounds, segments, seeds,
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
    prep = prep if prep is not None else symmetric_preparation(0.1)

    base = np.empty(durations.size)
    bests: list[ControlVector] = []
    prev: ControlVector | None = None
    for i, t in enumerate(durations):
        extra = ()
        if prev is not None:
            extra = (_resample_piecewise(prev, t, segments),)
        res = maximize(
            t, bounds, segments, seeds,
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
            direct = objective(bests[i], prep, JunctionParams(kappa=kappa))
            if abs(direct - scaled[i]) > 5e-3:
                raise FloatingPointError(
                    f"lossy cross-check failed at T = {durations[i]:.3f}: "
                    f"direct {direct:.6f} vs scaled {scaled[i]:.6f}"
                )
        curves.append(SweepCurve(durations=durations.copy(), objectives=scaled, kappa=float(kappa)))
    return curves
