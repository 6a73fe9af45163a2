"""Bounded-control maximisation of the final normalised concurrence.

The objective is C(T)/alpha^2 = 2 |w| / alpha^2 with w = c11 - c10 c01 at
the final time.  The controls are piecewise constant on N segments, so w
is computed exactly (no integrator error inside the optimisation loop),
in a frame where it needs little work:

- In the basis S = (c20 + c02)/sqrt(2), A = (c20 - c02)/sqrt(2) the
  two-quanta block splits into a 2x2 part on (S, c11) and a pure phase on
  A, which never reaches c11.  Each segment's 2x2 part is a phase times a
  rotation R in SU(2); the phases multiply out to one per start, and the
  rotations of every segment and start multiply out in the product tree
  of ``dynamics._tree``.
- The one-quantum block is diagonal in (c10 +- c01)/sqrt(2), so its final
  amplitudes have a closed form in the integrated coupling dt sum(j).

Maximisation uses spectral projected gradient ascent (Barzilai-Borwein
steps under a nonmonotone Armijo test; Birgin, Martinez & Raydan, SIAM J.
Optim. 10, 1196 (2000)) with adjoint gradients (``dynamics._sweep`` of
the accepted trial's product tree for each segment's state, unitarity for
its costate); multistart plus a shortcut-informed seed guards against local
optima, and all starts ascend together as one batch.  ``maximize`` is the
one entry point: its result carries the winning start's stop reason
(``OptimizationResult.stop``), and its ``target`` stops the ascent as soon
as one start reaches it.  By default ``target`` is the concurrence ceiling
1 + sqrt(2), which no controls can exceed (see
``entanglement.MAX_NORMALIZED_CONCURRENCE``), less the ascent's flatness
tolerance of 1e-10 relative: once a start is that close, no other start
can do better.  A bisection on the feasibility predicate "some start
reaches (1 - epsilon) of the ceiling" locates the minimum duration.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import shortcuts
from .dynamics import (
    ControlVector,
    InitialPreparation,
    JunctionParams,
    SQRT2,
    _one_quantum,
    _rotation,
    _sweep,
    _tree,
    effective_frequency,
    initial_state,
    symmetric_preparation,
)
from .entanglement import MAX_NORMALIZED_CONCURRENCE

_ARMIJO_C1 = 1e-4
_PG_TOL = 1e-6
_FLAT_TOL = 1e-10
_FLAT_WINDOW = 20
_MEMORY = 10  # objectives the nonmonotone Armijo test looks back over
_MIN_STEP = 1e-3
_MAX_STEP = 1e3

_log = logging.getLogger(__name__)

# array fields: compared by identity, as a field-wise == of arrays is ambiguous
@dataclass(frozen=True, eq=False)
class OptimizationResult:
    best: ControlVector
    objective: float
    iterations: int
    converged: bool
    seed: int  # index of the winning start; -1 for the shortcut seed
    stop: str  # the winning start's stop reason, as ``_ascend`` gives it


@dataclass(frozen=True, eq=False)
class SweepCurve:
    durations: np.ndarray
    objectives: np.ndarray
    kappa: float


def _prep_blocks(prep: InitialPreparation | None, params: JunctionParams | None):
    """The preparation in the optimiser's frame: the one-quantum pair
    (c10, c01), the two-quanta pair (S, c11) with S = (c20 + c02)/sqrt(2),
    alpha^2 and the complex frequency.  ``None`` stands for the symmetric
    preparation at alpha = 0.1 and for lossless controls at omega = 0."""
    prep = prep if prep is not None else symmetric_preparation(0.1)
    params = params if params is not None else JunctionParams()
    state = initial_state(prep)
    y0 = np.array([state.c10, state.c01], dtype=complex)
    x0 = np.array([(state.c20 + state.c02) / SQRT2, state.c11], dtype=complex)
    return y0, x0, prep.alpha_sq, effective_frequency(params)


def _forward(uj, duration, y0, x0, omega_eff):
    """The product tree of each row's segment rotations, the rotation
    angles, and the final amplitudes c10, c01 and c11 of each row of controls.

    ``uj`` holds one row of controls per start, shape (starts, 2, segments),
    u in ``uj[:, 0]`` and j in ``uj[:, 1]``.  Segment k maps (S, c11) by a
    phase times the rotation R_k of ``dynamics._rotation``, and the phases
    multiply out to one per start.  The controls are padded with zeros,
    whose rotations are identities, to a power-of-two width, so
    ``dynamics._tree`` adds no padding of its own; its levels have shape
    (2, 2, starts, width / 2^l).  The pass is (levels..., y, s, phase,
    c10, c01, c11), with rows on axis -2 throughout: ``_rotation``'s y and
    s as (starts, width), the rest (starts, 1).  The one-quantum amplitudes
    follow from dt sum(j).
    """
    starts, _, n = uj.shape
    dt = duration / n
    padded = np.zeros((2, starts, 1 << (n - 1).bit_length()))  # u, j contiguous
    padded[..., :n] = uj.transpose(1, 0, 2)
    rot, y, s = _rotation(padded[0], padded[1], dt)
    *levels, top = _tree(rot)
    sums = dt * uj.sum(axis=2, keepdims=True)
    phase = np.exp(-1j * (sums[:, 0] + 2.0 * omega_eff * duration))
    one = _one_quantum(sums[:, 1], np.exp(-1j * omega_eff * duration), y0)
    c10, c01 = one[:, :1], one[:, 1:]
    return (*levels, top, y, s, phase, c10, c01, phase * (top[1, 0] * x0[0] + top[1, 1] * x0[1]))


def _value(fwd, alpha_sq):
    """C(T)/alpha^2 = 2 |c11 - c10 c01| / alpha^2 of a forward pass."""
    *_, c10, c01, c11 = fwd
    w = c11 - c10 * c01
    return 2.0 * np.hypot(w.real, w.imag)[:, 0] / alpha_sq


def objective(
    controls: ControlVector,
    prep: InitialPreparation | None = None,
    params: JunctionParams | None = None,
) -> float:
    """Final normalised dominant concurrence C(T)/alpha^2 of the controls."""
    y0, x0, alpha_sq, omega_eff = _prep_blocks(prep, params)
    uj = np.stack((controls.u, controls.j))[None]
    return _value(_forward(uj, controls.duration, y0, x0, omega_eff), alpha_sq)[0]


def _h_div(y):
    """(y cos y - sin y)/y^3, regular with limit -1/3 at 0.

    The difference cancels for small y, so below |y| = 0.1 the Taylor
    series takes over; its first omitted term, y^8/3991680, is below
    1e-14 of the value there.
    """
    y = np.asarray(y, dtype=float)
    y2 = y * y
    out = -1.0 / 3.0 + y2 * (1.0 / 30.0 + y2 * (-1.0 / 840.0 + y2 / 45360.0))
    big = np.abs(y) >= 0.1
    if big.any():
        yl = y[big]
        out[big] = (yl * np.cos(yl) - np.sin(yl)) / yl**3
    return out


def _gradient(uj, duration, x0, alpha_sq, fwd):
    """Objective and gradient, shaped like ``uj``, of each row of controls
    from the initial (S, c11) pair ``x0``, given the ``_forward`` pass
    ``fwd`` of those same controls.

    Adjoint method: segment k's derivatives need the state x_k = E_k x0
    entering it, E_k = R_{k-1} ... R_0, and the costate
    lam_k = e_1^T R_{n-1} ... R_{k+1}.  One ``dynamics._sweep`` of the
    pass's product tree applies every E_k to two columns at once.  Each
    R_k is in SU(2), so R_{n-1} ... R_{k+1} = T E_{k+1}^dagger with T the
    top product, and lam_k^T = conj(E_{k+1} conj(T^T e_1)): the costates are
    the sweep's second column, one segment on.  The contractions with the
    rotations' derivatives are elementwise.  A start with w = 0 has
    no ascent direction and gets a zero gradient, and so does one whose |w|
    is subnormal, where the complex division by |w| would overflow.
    """
    starts, _, n = uj.shape
    dt = duration / n
    *levels, y, s, phase, c10, c01, c11 = fwd
    w = c11 - c10 * c01
    modulus = np.hypot(w.real, w.imag)
    value = 2.0 * modulus[:, 0] / alpha_sq
    grad = np.zeros((starts, 2, n))
    live = np.flatnonzero(modulus[:, 0] >= np.finfo(float).tiny)
    if live.size == 0:
        return value, grad
    rows = slice(None)
    if live.size < starts:
        rows, uj = live, uj[live]
        *levels, y, s, phase, c10, c01, c11, w, modulus = (
            a[..., live, :] for a in (*fwd, w, modulus))
    # d value = Re(pref dw), and dw/du_k, dw/dj_k hold phase lam_k R_k' x_k;
    # the phase's own u-derivative adds -i dt c11, and Theta's j-derivative
    # -i dt (c10^2 + c01^2)
    pref = (2.0 / alpha_sq) * w.conj() / modulus
    scale = pref * phase
    # column k of the sweep holds E_k (x0, v), v = conj(scale T^T e_1); the
    # costate's column width is T v = conj(scale) e_1 by unitarity, which
    # replaces the sweep's rounded product there
    start = np.empty((2, 2, len(scale)), dtype=complex)
    start[:, 0], start[:, 1] = x0[:, None], (scale * levels[-1][1]).conj()[..., 0]
    cols = _sweep(levels, start)
    cols[:, 1, :, -1] = np.zeros(len(scale)), scale.conj()[:, 0]
    x, lam = cols[:, 0, :, :n], cols[:, 1, :, 1:n + 1].conj()
    # R' = [[a - ib, ic], [ic, a + ib]] with real a, b, c, so that with
    # p0 = lam0 x0, p1 = lam1 x1 and p01 = lam0 x1 + lam1 x0,
    # Re(lam R' x) = a Re(p0 + p1) - b Im(p1 - p0) - c Im(p01)
    p0 = lam[0] * x[0]
    p1 = lam[1] * x[1]
    diag = (p0 + p1).real
    skew = (p1 - p0).imag
    cross = (lam[0] * x[1] + lam[1] * x[0]).imag

    # (a, b, c) of dR/du are (-dt u s, h u^2 + s, 2 h u j) and of dR/dj
    # (-4 dt j s, 4 h u j, 2 (4 h j^2 + s)), with h = dt^3 _h_div(y)
    u, j, s = uj[:, 0], uj[:, 1], s[:, :n]
    h = dt**3 * _h_div(y[:, :n])
    ujh = u * j * h
    gu_seg = -dt * u * s * diag - (h * u * u + s) * skew - 2.0 * ujh * cross
    gj_seg = -4.0 * dt * j * s * diag - 4.0 * ujh * skew - 2.0 * (4.0 * h * j * j + s) * cross
    grad[rows, 0] = gu_seg + dt * (pref * c11).imag
    grad[rows, 1] = gj_seg + dt * (pref * (c10 * c10 + c01 * c01)).imag
    return value, grad


def objective_gradient(
    controls: ControlVector,
    prep: InitialPreparation | None = None,
    params: JunctionParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the objective w.r.t. (u, j), by the adjoint method
    through the segment rotations."""
    y0, x0, alpha_sq, omega_eff = _prep_blocks(prep, params)
    uj = np.stack((controls.u, controls.j))[None]
    fwd = _forward(uj, controls.duration, y0, x0, omega_eff)
    grad = _gradient(uj, controls.duration, x0, alpha_sq, fwd)[1]
    return grad[0, 0], grad[0, 1]


def project(u, j, bounds):
    """Clip a control pair into the box [0, U_max] x [0, J_max]."""
    u_max, j_max = bounds
    return np.clip(u, 0.0, u_max), np.clip(j, 0.0, j_max)


def _store(fwd, rows, part, ok):
    """Write rows ``ok`` of the ``_forward`` pass ``part`` into rows
    ``rows`` of the pass ``fwd``."""
    for slot, values in zip(fwd, part):
        slot[..., rows, :] = values[..., ok, :]


def _ascend(uj0, duration, bounds, y0, x0, alpha_sq, omega_eff, max_iter, target=math.inf):
    """Spectral projected gradient ascent, all starts at once.

    Row i of ``uj0`` (shape (starts, 2, segments), u then j) is one start.
    Each start's trial step is its own Barzilai-Borwein step
    s.s / (-s.y), from its last move s and the change y of its gradient,
    clipped to [_MIN_STEP, _MAX_STEP]; it is _MAX_STEP where s.y >= 0 and
    1 at the first iteration.  The step halves until the nonmonotone
    Armijo test against the lowest of the start's last _MEMORY objectives
    holds; each start's accepted trial, controls and forward pass, goes to
    its own row of the pass that feeds the gradient.  Every start keeps
    its own step, history and stop reason, so it takes the same iterates
    as it would alone; a start leaves the batch once it stops.

    The whole batch stops as soon as any start's best objective reaches
    ``target``, the start objectives included (then after 0 iterations):
    the feasibility question "can some start reach ``target``?" is then
    settled, since each start returns its best iterate.  A run that never
    reaches ``target`` takes the same iterates as one without it.

    Returns (uj, objective, iterations, stop, start): per start its best
    controls, shaped like ``uj0``, and their objective (a nonmonotone
    search can end below them), the iteration count, the stop reason
    ("projected_gradient", "no_ascent_step" (the line search found no step
    at its resolution), "flat", "target" or "max_iter", not converged) and
    the projected start's objective.
    """
    box = np.array([[bounds[0]], [bounds[1]]], dtype=float)
    uj = np.clip(np.asarray(uj0, float), 0.0, box)
    start, grad = _gradient(uj, duration, x0, alpha_sq, _forward(uj, duration, y0, x0, omega_eff))
    rows = start.size
    best, best_uj = start.copy(), uj.copy()
    iterations = np.full(rows, max_iter)
    stop = ["max_iter"] * rows
    window = _FLAT_WINDOW + 1
    # columns of the last _MEMORY iterations, by the latest one's column
    recent = (np.arange(window)[:, None] - np.arange(_MEMORY)) % window

    # the starts still ascending, with their controls, gradients, trial
    # steps and last _FLAT_WINDOW + 1 objectives (iteration i in column
    # i % window; the columns of iterations before 0 hold the start's
    # objective)
    active, ctrl, step = np.arange(rows), uj, np.ones(rows)
    history = np.repeat(start[:, None], window, axis=1)

    def retire(leaving, it, reason):
        nonlocal active, ctrl, grad, step, history
        for row in active[leaving]:
            iterations[row] = it
            stop[row] = reason
        keep = ~leaving
        active, ctrl, grad = active[keep], ctrl[keep], grad[keep]
        step, history = step[keep], history[keep]

    if np.any(start >= target):
        retire(np.ones(rows, bool), 0, "target")
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        d = np.minimum(np.maximum(ctrl + grad, 0.0), box) - ctrl
        sq = (d * d).sum(axis=2)
        done = np.sqrt(sq[:, 0] + sq[:, 1]) <= _PG_TOL
        if done.any():
            retire(done, it, "projected_gradient")
            if active.size == 0:
                break
        ref = history[:, recent[(it - 1) % window]].min(axis=1)

        # backtracking in lock step: a start leaves the search once it
        # accepts, and its trial goes to its own row of ``new`` and ``fwd``,
        # which the first round fills for every start
        new = fwd = None
        search = np.arange(active.size)
        sc, sg, sref, sstep = ctrl, grad, ref, step
        for _ in range(60):
            trial_uj = np.minimum(np.maximum(sc + sstep[:, None, None] * sg, 0.0), box)
            trial = _forward(trial_uj, duration, y0, x0, omega_eff)
            cand = _value(trial, alpha_sq)
            gain = (sg * (trial_uj - sc)).sum(axis=2)
            ok = (cand >= sref + _ARMIJO_C1 * (gain[:, 0] + gain[:, 1])) & (cand > sref)
            if new is None:
                new, fwd = trial_uj, trial
            elif ok.any():
                new[search[ok]] = trial_uj[ok]
                _store(fwd, search[ok], trial, ok)
            if ok.all():
                search = search[:0]
                break
            keep = ~ok
            search, sc, sg, sref = search[keep], sc[keep], sg[keep], sref[keep]
            sstep = 0.5 * sstep[keep]
        if search.size == active.size:
            retire(np.ones(active.size, bool), it, "no_ascent_step")
            break
        value, new_grad = _gradient(new, duration, x0, alpha_sq, fwd)
        if search.size:
            # rows that found no step; their rows of the pass hold a
            # rejected trial
            failed = np.zeros(active.size, bool)
            failed[search] = True
            retire(failed, it, "no_ascent_step")
            new, value, new_grad = new[~failed], value[~failed], new_grad[~failed]

        su = new - ctrl
        sy = (su * (new_grad - grad)).sum(axis=2)
        sy = sy[:, 0] + sy[:, 1]
        ss = (su * su).sum(axis=2)
        bb = np.full(active.size, _MAX_STEP)
        curved = sy < 0.0
        bb[curved] = (ss[:, 0] + ss[:, 1])[curved] / -sy[curved]
        step = np.minimum(np.maximum(bb, _MIN_STEP), _MAX_STEP)
        ctrl, grad = new, new_grad
        up = value > best[active]
        best_uj[active[up]], best[active[up]] = new[up], value[up]

        history[:, it % window] = value
        if np.any(value >= target):
            retire(np.ones(active.size, bool), it, "target")
            break
        if it >= _FLAT_WINDOW:
            old = history[:, (it + 1) % window]  # iteration it - _FLAT_WINDOW
            flat = np.abs(value - old) <= _FLAT_TOL * np.maximum(1.0, np.abs(value))
            if flat.any():
                retire(flat, it, "flat")
    return best_uj, best, iterations, stop, start


def shortcut_seed(duration: float, segments: int, bounds: tuple[float, float]) -> ControlVector:
    """Fast-shortcut controls resampled to segment midpoints and clipped."""
    mid = (np.arange(segments) + 0.5) / segments
    u, j = shortcuts._controls_on(shortcuts.profile_fast(), duration, mid)
    u, j = project(u, j, bounds)
    return ControlVector(u=u, j=j, duration=duration)


def _uniform_start(seed: int, bounds: tuple[float, float], segments: int) -> np.ndarray:
    """The random start of ``seed``, u then j uniform in [0, bounds): numpy's
    ``default_rng(seed).uniform(0.0, bounds (as a column), (2, segments))``
    bit for bit, so the starts stay fixed across numpy releases.  The seed's
    32-bit words feed SeedSequence's 4-word pool, whose state seeds PCG64
    (XSL-RR; O'Neill, HMC-CS-2014-0905); a draw's top 53 bits give [0, 1)."""
    m32, m64, m128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
    seed = operator.index(seed)  # numpy integers too: Python ints do not wrap
    words = [seed >> k & m32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hash_const, hash_mult = 0x43B0D7E5, 0x931E8875  # SeedSequence's mix_entropy

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * hash_mult & m32
        value = value * hash_const & m32
        return value ^ value >> 16

    def mix(x, y):
        value = 0xCA01F9DD * x - 0x4973F715 * y & m32
        return value ^ value >> 16

    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(words[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, hash_mult = 0x8B51F9DD, 0x58F38DED  # generate_state(4, uint64)
    state = [hashmix(pool[i % 4]) for i in range(8)]
    s0, s1, s2, s3 = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = ((s2 << 64 | s3) << 1 | 1) & m128
    pcg = ((inc + (s0 << 64 | s1)) * mult + inc) & m128
    draws = np.empty(2 * segments)
    for i in range(draws.size):
        pcg = (pcg * mult + inc) & m128
        x, rot = (pcg >> 64 ^ pcg) & m64, pcg >> 122
        draws[i] = ((x >> rot | x << (64 - rot)) & m64) >> 11
    return np.reshape(bounds, (2, 1)) * (draws.reshape(2, segments) * 2.0**-53)


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
    target: float = MAX_NORMALIZED_CONCURRENCE * (1.0 - _FLAT_TOL),
) -> OptimizationResult:
    """Maximise C(T)/alpha^2 over bounded piecewise-constant controls.

    Runs ``seeds`` random starts (uniform in the box; start i is the
    SeedSequence-seeded PCG64 stream of numpy's ``default_rng(base_seed +
    i)``, drawn by ``_uniform_start``) plus one fast-shortcut-informed start
    plus any ``extra_starts`` (each with ``segments`` segments), all
    ascending together with projected gradients, and returns the best; ties
    go to the earlier start.  The ascent stops as soon as some start reaches
    ``target`` (stop reason "target").  The default is the ceiling
    ``MAX_NORMALIZED_CONCURRENCE`` less the ascent's flatness tolerance
    ``_FLAT_TOL`` (1e-10 relative): no preparation, frequency or loss rate
    lets any controls exceed the ceiling, so a start that gets this close
    has settled the maximisation, and a run that stays below it takes the
    same iterates as with ``target=math.inf``.  The result's ``stop`` is
    the winning start's stop reason.  Identical inputs give identical
    results.
    """
    if not (math.isfinite(duration) and duration >= 0.0):
        raise ValueError(f"duration must be finite and >= 0, got {duration!r}")
    if segments < 1:
        raise ValueError("need at least one segment")
    if seeds < 0:
        raise ValueError("seeds must be >= 0")
    if base_seed < 0:
        raise ValueError(f"base_seed must be >= 0, got {base_seed}")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if not all(math.isfinite(b) and b >= 0.0 for b in bounds):
        raise ValueError(f"bounds must be two finite values >= 0, got {tuple(bounds)}")
    if any(cv.segments != segments for cv in extra_starts):
        raise ValueError(f"extra starts must have {segments} segments")
    y0, x0, alpha_sq, omega_eff = _prep_blocks(prep, params)

    if duration == 0.0:
        # the objective vanishes, and with it every gradient
        zero = np.zeros((1, 2, segments))
        value = _value(_forward(zero, duration, y0, x0, omega_eff), alpha_sq)
        return OptimizationResult(
            best=ControlVector(zero[0, 0], zero[0, 1], duration),
            objective=float(value[0]),
            iterations=0,
            converged=True,
            seed=-1,
            stop="projected_gradient",
        )

    # rows: the random starts (u, then j, per seed), the shortcut start,
    # then the extra starts
    starts = np.empty((seeds + 1 + len(extra_starts), 2, segments))
    for i in range(seeds):
        starts[i] = _uniform_start(base_seed + i, bounds, segments)
    for row, cv in enumerate((shortcut_seed(duration, segments, bounds), *extra_starts), seeds):
        starts[row] = cv.u, cv.j

    uj, value, iterations, stop, start = _ascend(
        starts, duration, bounds, y0, x0, alpha_sq, omega_eff, max_iter, target
    )
    best = int(np.argmax(value))
    return OptimizationResult(
        best=ControlVector(u=uj[best, 0], j=uj[best, 1], duration=duration),
        objective=float(value[best]),
        iterations=int(iterations[best]),
        converged=stop[best] != "max_iter" and bool(np.any(value > start + 1e-15)),
        seed=best if best < seeds else seeds - 1 - best,
        stop=stop[best],
    )


def _resample_piecewise(cv: ControlVector, duration: float, segments: int):
    """Reinterpret piecewise-constant controls on a new duration, padding
    with zero actuation past the old horizon."""
    mid = (np.arange(segments) + 0.5) * duration / segments
    inside = mid <= cv.duration
    u, j = cv.controls_at(mid)
    return ControlVector(u=np.where(inside, u, 0.0), j=np.where(inside, j, 0.0), duration=duration)


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

    Coarse scan of ``shortcuts.duration_grid(*coarse)`` for a feasibility
    bracket, then bisection down to ``resolution``; a grid it refuses, or
    one from T <= 0, raises ValueError before any probe.  Each probe is
    one ``maximize`` call with the feasibility level as its ``target``, so
    it stops as soon as some start reaches it (stop reason "target").
    Every probe warm-starts from the previous probe's best controls, and
    logs one DEBUG record: duration, best objective, verdict, and the
    winner's iterations and ``stop``.  The answer inherits the optimiser's
    discretisation, so treat it as a window of width ~resolution around
    the ideal value.
    """
    if not 0.0 < epsilon <= 0.05:
        raise ValueError("epsilon must lie in (0, 0.05]")
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution must be finite and > 0, got {resolution!r}")
    try:
        if not coarse[0] > 0.0:
            raise ValueError("scan start must be positive")
        scan = shortcuts.duration_grid(*coarse).tolist()
    except ValueError as exc:
        raise ValueError(f"coarse (start, stop, step) {tuple(coarse)!r}: {exc}") from None
    target = MAX_NORMALIZED_CONCURRENCE * (1.0 - epsilon)
    warm: tuple[ControlVector, ...] = ()

    def feasible(duration):
        nonlocal warm
        res = maximize(
            duration, bounds, segments, seeds,
            prep=prep, base_seed=base_seed, max_iter=max_iter,
            extra_starts=tuple(_resample_piecewise(cv, duration, segments) for cv in warm),
            target=target,
        )
        warm = (res.best,)
        verdict = res.objective >= target
        _log.debug(
            "minimum_time probe T=%r objective=%r feasible=%s iterations=%d stop=%s",
            duration, res.objective, verdict, res.iterations, res.stop,
        )
        return verdict

    lo = None
    hi = None
    for t in scan:
        if feasible(t):
            hi = t
            break
        lo = t
    if hi is None:
        raise RuntimeError(f"no feasible duration in [{coarse[0]}, {coarse[1]}]")
    if lo is None:
        return hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def sweep(
    durations,
    bounds: tuple[float, float],
    segments: int,
    kappa_list,
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
    factor, so the lossless optimisers remain optimal.  At three grid
    points the scaling is cross-checked against ``objective`` of the same
    controls under ``JunctionParams(kappa)``, to 1e-12 relative; a larger
    gap raises ``FloatingPointError``.
    """
    durations = np.asarray(durations, dtype=float)
    kappa_list = list(kappa_list)
    if durations.size == 0 or not kappa_list:
        raise ValueError("duration grid and kappa list must be non-empty")
    if any(kappa < 0.0 for kappa in kappa_list):
        raise ValueError("loss rates must be >= 0")

    base = np.empty(durations.size)
    bests: list[ControlVector] = []
    for i, t in enumerate(durations):
        res = maximize(
            t, bounds, segments, seeds,
            prep=prep, base_seed=base_seed, max_iter=max_iter,
            extra_starts=tuple(_resample_piecewise(cv, t, segments) for cv in bests[-1:]),
        )
        base[i] = res.objective
        bests.append(res.best)

    check_idx = sorted({0, durations.size // 2, durations.size - 1})
    curves = []
    for kappa in kappa_list:
        scaled = base * np.array([math.exp(-kappa * t) for t in durations.tolist()])
        for i in check_idx:
            direct = float(objective(bests[i], prep, JunctionParams(kappa=kappa)))
            want = float(scaled[i])
            # relative to the smallest normal float at least: subnormal
            # objectives carry too few bits for a relative comparison
            gap = abs(direct - want) / max(abs(want), np.finfo(float).tiny)
            if not gap <= 1e-12:
                raise FloatingPointError(
                    f"lossy cross-check failed at T = {durations[i]:.3f}: "
                    f"direct {direct!r} vs scaled {want!r}, relative gap {gap:.3e}"
                )
        curves.append(SweepCurve(durations=durations.copy(), objectives=scaled, kappa=float(kappa)))
    return curves
