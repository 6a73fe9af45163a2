"""Truncated dynamics of a weakly pumped two-mode bosonic Josephson junction.

For weak coherent pumping (total mean quantum number alpha^2 << 1) the
junction state stays confined to the manifolds with zero, one and two
total quanta, so six complex amplitudes

    c00 |00> + c10 |10> + c01 |01> + c11 |11> + c20 |20> + c02 |02>

describe it.  The two-site Bose-Hubbard Hamiltonian conserves the total
quantum number, so the three blocks evolve independently:

    c00 is constant,
    i d/dt (c10, c01)      = [[w, -J], [-J, w]] (c10, c01),
    i d/dt (c20, c11, c02) = [[2(U+w), -s2 J, 0],
                              [-s2 J,  2w,   -s2 J],
                              [0,      -s2 J, 2(U+w)]] (c20, c11, c02),

with s2 = sqrt(2), nonlinearity U(t), coupling J(t) and mode frequency w.
Linear losses at rate kappa enter through the complex shift
w -> w - i*kappa/2, which multiplies the n-quanta block by exp(-n*kappa*t/2).

Units: the peak reference gap is 1 (hbar = 1); times are its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .shortcuts import ShortcutControls

SQRT2 = math.sqrt(2.0)

#: Largest alpha^2 a preparation may carry: the truncation to two quanta
#: is only trustworthy for alpha^2 well below one.
MAX_ALPHA_SQ = 0.1

#: Column order of amplitude arrays throughout the package.
AMPLITUDE_LABELS = ("c00", "c10", "c01", "c11", "c20", "c02")

#: Gauss nodes 1/2 -+ sqrt(3)/6 of a step, and twice the weights
#: (3 -+ 2 sqrt(3))/12 of the commutator-free Magnus step ``_cf4``.
_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_W1, _W2 = 0.5 - math.sqrt(3.0) / 3.0, 0.5 + math.sqrt(3.0) / 3.0


@dataclass(frozen=True)
class JunctionParams:
    """Mode frequency and loss rate, both in units of the peak gap."""

    omega: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.omega) and math.isfinite(self.kappa)):
            raise ValueError("junction parameters must be finite")
        if self.kappa < 0.0:
            raise ValueError("loss rate kappa must be >= 0")


def effective_frequency(params: JunctionParams) -> complex:
    """Complex frequency implementing the loss model, omega - i*kappa/2."""
    return params.omega - 0.5j * params.kappa


@dataclass(frozen=True)
class TruncatedState:
    """Six amplitudes of the (<= 2 quanta) junction state."""

    c00: complex = 0.0
    c10: complex = 0.0
    c01: complex = 0.0
    c11: complex = 0.0
    c20: complex = 0.0
    c02: complex = 0.0

    def __post_init__(self):
        for name in AMPLITUDE_LABELS:
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"amplitude {name} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.c00, self.c10, self.c01, self.c11, self.c20, self.c02],
            dtype=complex,
        )

    @classmethod
    def from_array(cls, values) -> "TruncatedState":
        values = np.asarray(values, dtype=complex)
        if values.shape != (6,):
            raise ValueError("expected 6 amplitudes")
        return cls(*(complex(v) for v in values))


@dataclass(frozen=True)
class InitialPreparation:
    """Product of two coherent states |alpha1>|alpha2> feeding the junction.

    The total pump ``alpha_sq`` = |alpha1|^2 + |alpha2|^2 may not exceed
    ``MAX_ALPHA_SQ``, below which the truncation to two quanta holds.
    """

    alpha1: complex
    alpha2: complex

    def __post_init__(self):
        for v in (complex(self.alpha1), complex(self.alpha2)):
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("coherent amplitudes must be finite")
        if self.alpha_sq > MAX_ALPHA_SQ:
            raise ValueError(
                f"alpha^2 = {self.alpha_sq:.4g} exceeds the weak-pumping cap "
                f"{MAX_ALPHA_SQ:.4g}"
            )

    @property
    def alpha_sq(self) -> float:
        a1, a2 = abs(self.alpha1), abs(self.alpha2)
        return a1 * a1 + a2 * a2  # float ** raises OverflowError, * gives inf


def symmetric_preparation(alpha: float) -> InitialPreparation:
    """In-phase, real, even split alpha1 = alpha2 = alpha/sqrt(2)."""
    half = alpha / SQRT2
    return InitialPreparation(half, half)


# Classes holding arrays compare by identity: a field-wise == of arrays is
# ambiguous.
@dataclass(frozen=True, eq=False)
class ControlSchedule:
    """Sampled controls (t, U, J) on [0, T], as ``simulate`` reads them
    from a t,u,j file; values between samples are linearly interpolated."""

    times: np.ndarray
    u: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        u = np.asarray(self.u, dtype=float)
        j = np.asarray(self.j, dtype=float)
        if t.ndim != 1 or t.shape != u.shape or t.shape != j.shape:
            raise ValueError("times, u, j must be 1-d arrays of equal length")
        if t.size == 0:
            raise ValueError("schedule needs at least one sample")
        if t[0] != 0.0:
            raise ValueError("schedule must start at t = 0")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(j)) and np.all(np.isfinite(t))):
            raise ValueError("schedule samples must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "j", j)

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def controls_at(self, t):
        """Linearly interpolated (U, J) at time(s) t."""
        return np.interp(t, self.times, self.u), np.interp(t, self.times, self.j)


@dataclass(frozen=True, eq=False)
class ControlVector:
    """Piecewise-constant controls (U, J) on N equal segments of [0, T]."""

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

    def _segment(self, t):
        """Index of the segment holding time(s) t; T and later times fall
        in the last segment, and every time in the first when segments have
        no length (T = 0, or T / N underflows to 0)."""
        dt = self.duration / self.segments
        if dt == 0.0:
            return np.zeros(np.shape(t), dtype=int)
        k = (np.asarray(t) / dt).astype(int)
        return np.minimum(k, self.segments - 1)

    def controls_at(self, t):
        """(U, J) of the segment holding time(s) t."""
        k = self._segment(t)
        return self.u[k], self.j[k]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States sampled on a uniform time grid, endpoints included."""

    times: np.ndarray
    amplitudes: np.ndarray  # shape (n, 6), columns per AMPLITUDE_LABELS

    def state(self, i: int) -> TruncatedState:
        return TruncatedState.from_array(self.amplitudes[i])

    def manifold_populations(self) -> tuple[np.ndarray, np.ndarray]:
        """(|c10|^2+|c01|^2, |c20|^2+|c11|^2+|c02|^2) along the trajectory.

        Both are constants of the motion for kappa = 0; with losses they
        decay as exp(-kappa t) and exp(-2 kappa t).
        """
        a = self.amplitudes
        one = np.abs(a[:, 1]) ** 2 + np.abs(a[:, 2]) ** 2
        two = np.abs(a[:, 3]) ** 2 + np.abs(a[:, 4]) ** 2 + np.abs(a[:, 5]) ** 2
        return one, two


def initial_state(prep: InitialPreparation) -> TruncatedState:
    """Expand the coherent product state on the truncated basis, to leading
    order in alpha.

    The exp(-alpha^2/2) normalisation of each coherent state is dropped
    everywhere except in c00, where 1 - alpha^2/2 is kept.  The per-manifold
    populations are then exactly alpha^2 and alpha^4/2.
    """
    a1 = complex(prep.alpha1)
    a2 = complex(prep.alpha2)
    return TruncatedState(
        c00=1.0 - prep.alpha_sq / 2.0,
        c10=a1,
        c01=a2,
        c11=a1 * a2,
        c20=a1 * a1 / SQRT2,
        c02=a2 * a2 / SQRT2,
    )


#: Segments per ``_tree`` (a chunk) and rows per fill (a row block) in
#: ``propagate``.  Each costs a fixed number of numpy calls, a chunk also the
#: tree's O(log2 _CHUNK), so long ones pay; at 1024 their temporaries stay
#: within 128 kB.  Another chunk regroups the tree's products, and so moves
#: the edge states' last bits.
_CHUNK = 1024


def _mul(x, y):
    """Products of the matrices x of shape (k, k, ...) and y of shape
    (k, m, ...), elementwise over the trailing axes."""
    return (x[:, :, None] * y).sum(axis=1)


def _tree(mats):
    """Product tree of the matrices M_0 .. M_{n-1}, shape (k, k, ..., n) in
    the layout of ``_mul``, as a list of levels.

    Level 0 holds the matrices, padded with identities to a power-of-two
    width when n is not one; level l + 1 holds the products M' M of
    adjacent pairs M, M' of level l, so the top level holds the whole
    product M_{n-1} ... M_0.  log2(width) rounds of elementwise products,
    O(width) work in all (the up-sweep of Blelloch, "Prefix sums and their
    applications", 1990).  ``_sweep`` turns the levels into states.
    """
    n = mats.shape[-1]
    if n & (n - 1):  # identities up to the next power of two
        mats = np.pad(mats, [(0, 0)] * (mats.ndim - 1) + [(0, (1 << n.bit_length()) - n)])
        mats[range(len(mats)), range(len(mats)), ..., n:] = 1.0
    levels = [mats]
    while levels[-1].shape[-1] > 1:
        levels.append(_mul(levels[-1][..., 1::2], levels[-1][..., ::2]))
    return levels


def _sweep(levels, x):
    """The states E_i x, i = 0 .. width, of the ``_tree`` ``levels`` over
    the columns x, shape (k, m, ...), with E_i = M_{i-1} ... M_0 (E_0 = I),
    stacked along a new last axis.

    The down-sweep: a tree node spans matrices [a, b), and E_a x is known
    for it.  Its left child starts where it does, at E_a x, and its right
    child at E_c x = L E_a x, c the midpoint and L the left child's
    product, so each level takes one elementwise product on its left
    children.  The top node is taken as the left child of a root over
    [0, 2 width), which gives E_width x = T x, T the top product; the
    leaves give every E_i x with i < width.  Past the real matrices the
    identities of the padding repeat E_n x.
    """
    width = levels[0].shape[-1]
    cols = np.empty(x.shape + (width + 1,), dtype=complex)
    cols[..., 0] = x
    for level in levels[::-1]:
        step = 2 * width // level.shape[-1]  # between the nodes one level up
        cols[..., step // 2:width + 1:step] = _mul(level[..., ::2], cols[..., :width:step])
    return cols


def _rotation(u, j, dt):
    """The (S, c11) part of the two-quanta propagator over a time dt of
    constant controls u, j (all three broadcast), phase aside.

    In the basis S = (c20 + c02)/sqrt(2), A = (c20 - c02)/sqrt(2) the
    two-quanta block maps (S, c11) by exp(-i (u + 2 w) dt) R and A by
    exp(-2i (u + w) dt); R rotates by y = dt sqrt(u^2 + 4 j^2) and lies in
    SU(2).  Returns R in the layout of ``_mul``, shape (2, 2) + y.shape,
    y and s = sin(y) / sqrt(u^2 + 4 j^2).
    """
    y = dt * np.sqrt(u * u + 4.0 * j * j)
    s = dt * np.sinc(y / np.pi)  # sinc keeps s regular at y = 0
    cos, isu, off = np.cos(y), 1j * (s * u), 2j * (s * j)
    return np.array([[cos - isu, off], [off, cos + isu]]), y, s


def _frame(state: TruncatedState):
    """``state`` in the frame that splits the two-quanta block: the pairs
    (c10, c01) and (S, c11) and the mode A, S, A = (c20 +- c02)/sqrt(2) with
    each part divided once (numpy would multiply by a rounded 1/sqrt(2))."""
    _, c10, c01, c11, c20, c02 = state.as_array().tolist()
    return np.array([c10, c01]), np.array([(c20 + c02) / SQRT2, c11]), (c20 - c02) / SQRT2


def _one_quantum(theta, turn, v):
    """(c10, c01) evolved from the pair ``v`` under integrated coupling
    ``theta`` with the frequency phase turn = exp(-i w t), both ending in a
    unit axis that the pair fills.  The one-quantum Hamiltonians commute,
    so no other trace of the controls enters."""
    return turn * (np.cos(theta) * v + 1j * np.sin(theta) * v[::-1])


def _cf4(schedule, tgrid):
    """The controls ``schedule``, read at the Gauss nodes of each step of
    ``tgrid``, as two equal constant-control segments per step: the 4th-order
    commutator-free Magnus step CF4:2 (Blanes & Moan, Appl. Numer. Math. 56,
    1519 (2006); Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)).

    With the generators A1, A2 at the Gauss nodes t + (1/2 -+ sqrt(3)/6) h,
    a step is exp(h (a1 A1 + a2 A2)) exp(h (a2 A1 + a1 A2)), with
    a1,2 = (3 -+ 2 sqrt(3))/12.  The generator is linear in (U, J), and the
    frequency enters each factor with weight a1 + a2 = 1/2, so each factor
    is a constant-control propagator over h/2: first under 2 (a2 U1 + a1 U2),
    then under 2 (a1 U1 + a2 U2), and likewise for J.
    """
    h = schedule.duration / (tgrid.size - 1)
    g1, g2 = (np.array(schedule.controls_at(tgrid[:-1] + c * h)) for c in _NODES)
    uj = np.stack((_W2 * g1 + _W1 * g2, _W1 * g1 + _W2 * g2), axis=-1).reshape(2, -1)
    if not np.all(np.isfinite(uj)):  # |U| or |J| above about 1.67e308
        raise FloatingPointError("controls overflow in the Magnus step's node weighting")
    return ControlVector(*uj, schedule.duration)


def propagate(
    state: TruncatedState,
    schedule: ControlVector | ControlSchedule | ShortcutControls,
    params: JunctionParams,
    steps: int = 10_000,
) -> Trajectory:
    """The state, from its initial amplitudes ``state``, at ``steps`` + 1
    uniform times over [0, T], endpoints included.

    Piecewise-constant ``ControlVector`` controls are propagated exactly,
    up to floating point, whatever ``steps``.  Any other controls, a
    shortcut's closed-form ``ShortcutControls`` or a ``ControlSchedule``
    sampled from a t,u,j file, take one 4th-order commutator-free Magnus
    step ``_cf4`` per step, read at its Gauss nodes: two constant-control
    segments, run exactly, so every step is unitary up to the loss factor
    and each sample is the state at a segment edge.  ``params`` holds the
    frequency and loss rate.  Raises FloatingPointError (and warns of
    nothing) if the state stops being finite (controls that overflow).

    In closed form, sample i lies ``offset[i]`` into segment ``k[i]`` (or,
    at offset 0, on the edge k[i] <= N): (c10, c01) follow the integrated
    coupling Theta(t); in the (S, c11, A) frame of ``_frame``, (S, c11)
    takes the phase exp(-i (Phi + 2 w t)) and A exp(-2i (Phi + w t)), Phi(t)
    the integrated nonlinearity.  (S, c11) at each segment's start is the
    ``_sweep`` of a chunk of ``_CHUNK`` rotations' ``_tree`` from the edge
    the previous chunk ended on; the samples up to the chunk's closing edge
    follow, a row block of ``_CHUNK`` rows at a time, each block advanced by
    its offsets unless they are all 0.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    tgrid = np.linspace(0.0, schedule.duration, steps + 1)
    out = np.tile(state.as_array(), (steps + 1, 1))  # c00 is constant
    w = effective_frequency(params)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if isinstance(schedule, ControlVector):
            cv, k = schedule, schedule._segment(tgrid)
            offset = tgrid - k * (cv.duration / cv.segments)
        else:  # sample i on edge 2i, after i steps of two segments
            cv, k = _cf4(schedule, tgrid), 2 * np.arange(steps + 1)
            offset = np.zeros(steps + 1)
        dt = cv.duration / cv.segments
        y0, x0, a0 = _frame(state)
        edge, sums = x0[:, None], np.zeros((2, 1))  # (Phi, Theta) = dt * sums
        done = 1  # the next row to fill; row 0 holds the initial state
        for a in range(0, cv.segments, _CHUNK):
            u, j = cv.u[a:a + _CHUNK], cv.j[a:a + _CHUNK]
            cols = _sweep(_tree(_rotation(u, j, dt)[0]), edge)[:, 0]
            sums = np.cumsum(np.concatenate((sums[:, -1:], [u, j]), axis=1), axis=1)
            edge = cols[:, u.size, None]
            end = np.searchsorted(k, a + u.size, side="right")  # k <= a + u.size
            for lo in range(done, end, _CHUNK):
                rows = slice(lo, min(lo + _CHUNK, end))
                t, off, seg = tgrid[rows], offset[rows], k[rows]
                pair, (p, q) = cols[:, seg - a], dt * sums[:, seg - a]
                if off.any():  # segment a + u.size, past the closing edge, is the next chunk's
                    us, js = cv.u[seg], cv.j[seg]
                    p, q = p + off * us, q + off * js
                    pair = (_rotation(us, js, off)[0] * pair).sum(axis=1)
                sym, out[rows, 3] = pair * np.exp(-1j * (p + 2.0 * w * t))  # S, c11
                anti = a0 * np.exp(-2j * (p + w * t))
                out[rows, 4], out[rows, 5] = (sym + anti) / SQRT2, (sym - anti) / SQRT2
                out[rows, 1:3] = _one_quantum(q[:, None], np.exp(-1j * w * t)[:, None], y0)
                bad = ~np.all(np.isfinite(out[rows]), axis=1)
                if bad.any():
                    i = lo + int(np.argmax(bad))
                    raise FloatingPointError(
                        f"state became non-finite at t = {tgrid[i]:.6g} (step {i}/{steps})"
                    )
            done = end
    return Trajectory(times=tgrid, amplitudes=out)
