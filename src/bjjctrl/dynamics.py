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

import numpy as np

from ._quadrature import simpson_uniform

SQRT2 = math.sqrt(2.0)

#: Column order of amplitude arrays throughout the package.
AMPLITUDE_LABELS = ("c00", "c10", "c01", "c11", "c20", "c02")

#: Basis change (c20, c11, c02) -> ((c20+c02)/s2, c11, (c20-c02)/s2).
#: Orthogonal involution; conjugating with it block-diagonalises the
#: two-quanta system into a symmetric 2x2 part and a decoupled mode.
_Q_SYM = np.array(
    [
        [1.0 / SQRT2, 0.0, 1.0 / SQRT2],
        [0.0, 1.0, 0.0],
        [1.0 / SQRT2, 0.0, -1.0 / SQRT2],
    ]
)


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))


@dataclass(frozen=True)
class InitialPreparation:
    """Product of two coherent states |alpha1>|alpha2> feeding the junction.

    ``alpha`` is the total pump amplitude sqrt(|alpha1|^2 + |alpha2|^2).
    The truncation to two quanta is only trustworthy for alpha^2 well
    below one, enforced via ``max_alpha_sq``.
    """

    alpha1: complex
    alpha2: complex
    max_alpha_sq: float = 0.1

    def __post_init__(self):
        for v in (complex(self.alpha1), complex(self.alpha2)):
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("coherent amplitudes must be finite")
        if self.alpha_sq > self.max_alpha_sq:
            raise ValueError(
                f"alpha^2 = {self.alpha_sq:.4g} exceeds the weak-pumping cap "
                f"{self.max_alpha_sq:.4g}"
            )

    @property
    def alpha_sq(self) -> float:
        return abs(self.alpha1) ** 2 + abs(self.alpha2) ** 2

    @property
    def alpha(self) -> float:
        return math.sqrt(self.alpha_sq)


def symmetric_preparation(alpha: float, max_alpha_sq: float = 0.1) -> InitialPreparation:
    """In-phase, real, even split alpha1 = alpha2 = alpha/sqrt(2)."""
    half = alpha / SQRT2
    return InitialPreparation(half, half, max_alpha_sq)


@dataclass(frozen=True)
class ControlSchedule:
    """Sampled controls (t, U, J) on [0, T]; values between samples are
    linearly interpolated."""

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

    @classmethod
    def constant(cls, u: float, j: float, duration: float) -> "ControlSchedule":
        return cls(np.array([0.0, duration]), np.array([u, u]), np.array([j, j]))


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a uniform time grid, endpoints included."""

    times: np.ndarray
    amplitudes: np.ndarray  # shape (n, 6), columns per AMPLITUDE_LABELS

    def state(self, i: int) -> TruncatedState:
        return TruncatedState.from_array(self.amplitudes[i])

    @property
    def final(self) -> TruncatedState:
        return self.state(-1)

    def manifold_populations(self) -> tuple[np.ndarray, np.ndarray]:
        """(|c10|^2+|c01|^2, |c20|^2+|c11|^2+|c02|^2) along the trajectory.

        Both are constants of the motion for kappa = 0; with losses they
        decay as exp(-kappa t) and exp(-2 kappa t).
        """
        a = self.amplitudes
        one = np.abs(a[:, 1]) ** 2 + np.abs(a[:, 2]) ** 2
        two = np.abs(a[:, 3]) ** 2 + np.abs(a[:, 4]) ** 2 + np.abs(a[:, 5]) ** 2
        return one, two


def initial_state(prep: InitialPreparation, mode: str = "leading_order") -> TruncatedState:
    """Expand the coherent product state on the truncated basis.

    ``exact`` keeps the exp(-alpha^2/2) normalisation of each coherent
    state; ``leading_order`` (default) drops it everywhere except in c00,
    where 1 - alpha^2/2 is kept.  The leading-order amplitudes make the
    per-manifold populations exactly alpha^2 and alpha^4/2.
    """
    a1 = complex(prep.alpha1)
    a2 = complex(prep.alpha2)
    if mode == "exact":
        g = math.exp(-prep.alpha_sq / 2.0)
        return TruncatedState(
            c00=g,
            c10=g * a1,
            c01=g * a2,
            c11=g * a1 * a2,
            c20=g * a1 * a1 / SQRT2,
            c02=g * a2 * a2 / SQRT2,
        )
    if mode == "leading_order":
        return TruncatedState(
            c00=1.0 - prep.alpha_sq / 2.0,
            c10=a1,
            c01=a2,
            c11=a1 * a2,
            c20=a1 * a1 / SQRT2,
            c02=a2 * a2 / SQRT2,
        )
    raise ValueError(f"unknown preparation mode {mode!r}")


#: Amplitude columns of the one-quanta (c10, c01) and two-quanta
#: (c20, c11, c02) blocks, in the order the block matrices use.
_ONE = [1, 2]
_TWO = [4, 3, 5]

#: Steps whose RK4 matrices ``propagate`` builds at once.  Building all
#: 10k steps of a shortcut run together lifted its peak memory from 43 to
#: 55 MB; chunks keep the temporaries small at no measurable speed cost.
_CHUNK = 256


def _generators(u, j, omega_eff):
    """-iH of the one- and two-quanta blocks, stacked over the sample arrays
    ``u`` and ``j`` (of equal shape)."""
    one = np.empty(j.shape + (2, 2), dtype=complex)
    one[..., 0, 0] = one[..., 1, 1] = -1j * omega_eff
    one[..., 0, 1] = one[..., 1, 0] = 1j * j
    two = np.zeros(u.shape + (3, 3), dtype=complex)
    two[..., 0, 0] = two[..., 2, 2] = -2j * (u + omega_eff)
    two[..., 1, 1] = -2j * omega_eff
    two[..., 0, 1] = two[..., 1, 0] = two[..., 1, 2] = two[..., 2, 1] = 1j * SQRT2 * j
    return one, two


def _rk4_steps(node, mid, h):
    """Classical RK4 step matrices of the linear system y' = M(t) y.

    ``node`` holds M at the n + 1 step boundaries and ``mid`` at the n
    midpoints.  Step k is I + h/6 (M1 + 2 M2 P2 + 2 M2 P3 + M4 P4) with
    P2 = I + h/2 M1, P3 = I + h/2 M2 P2 and P4 = I + h M2 P3.
    """
    m1, m4 = node[:-1], node[1:]
    eye = np.eye(node.shape[-1])
    k2 = mid @ (eye + 0.5 * h * m1)
    k3 = mid @ (eye + 0.5 * h * k2)
    k4 = m4 @ (eye + h * k3)
    return eye + (h / 6.0) * (m1 + 2.0 * k2 + 2.0 * k3 + k4)


def _chain(mats, v):
    """States v, M0 v, M1 M0 v, ... under the step matrices in order,
    stacked on a new leading axis.

    Stacked vectors ride along: with ``mats`` of shape (steps, starts, n, n)
    and ``v`` of shape (starts, n, 1), each step is one stacked product
    that advances every start, and each state has the shape of ``v``.
    """
    states = np.empty((len(mats) + 1,) + v.shape, dtype=np.result_type(mats, v))
    states[0] = v
    for m, state, following in zip(mats, states, states[1:]):
        np.matmul(m, state, out=following)
    return states


def propagate(
    state: TruncatedState,
    schedule: ControlSchedule,
    params: JunctionParams,
    steps: int = 10_000,
) -> Trajectory:
    """Fixed-step classical 4th-order (RK4) integration over the schedule.

    The equations of motion are linear, so each RK4 step is a matrix
    polynomial in the block generators at the step's ends and midpoint.
    The step matrices are built vectorised, a chunk of steps at a time,
    and chained onto each block's amplitudes.

    Parameters
    ----------
    state : TruncatedState
        Initial amplitudes.
    schedule : ControlSchedule
        Control samples; U and J between samples are linearly interpolated.
    params : JunctionParams
        Frequency and loss rate.
    steps : int
        Number of uniform RK4 steps over [0, T].

    Returns
    -------
    Trajectory with ``steps + 1`` samples, endpoints included.  Raises
    FloatingPointError if the state stops being finite (runaway step size).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    duration = schedule.duration
    tgrid = np.linspace(0.0, duration, steps + 1)
    h = duration / steps
    u_nodes, j_nodes = schedule.controls_at(tgrid)
    u_mid, j_mid = schedule.controls_at(tgrid[:-1] + 0.5 * h)
    omega_eff = effective_frequency(params)

    out = np.empty((steps + 1, 6), dtype=complex)
    out[0] = state.as_array()
    out[:, 0] = state.c00
    for lo in range(0, steps, _CHUNK):
        hi = min(lo + _CHUNK, steps)
        nodes = _generators(u_nodes[lo:hi + 1], j_nodes[lo:hi + 1], omega_eff)
        mids = _generators(u_mid[lo:hi], j_mid[lo:hi], omega_eff)
        for cols, node, mid in zip((_ONE, _TWO), nodes, mids):
            out[lo + 1:hi + 1, cols] = _chain(_rk4_steps(node, mid, h), out[lo, cols])[1:]
        bad = ~np.all(np.isfinite(out[lo + 1:hi + 1]), axis=1)
        if bad.any():
            k = lo + 1 + int(np.argmax(bad))
            raise FloatingPointError(
                f"state became non-finite at t = {tgrid[k]:.6g} "
                f"(step {k}/{steps}); reduce the step size or the controls"
            )
    return Trajectory(times=tgrid, amplitudes=out)


def _one_quantum_propagator(j, omega_eff, dt):
    """exp(-i dt H1) for the (c10, c01) block; broadcasts over ``j``."""
    j = np.asarray(j, dtype=float)
    c = np.cos(j * dt)
    s = np.sin(j * dt)
    out = np.empty(j.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 1, 1] = c
    out[..., 0, 1] = 1j * s
    out[..., 1, 0] = 1j * s
    return np.exp(-1j * omega_eff * dt) * out


def _two_quanta_propagator(u, j, omega_eff, dt):
    """exp(-i dt H2) for the (c20, c11, c02) block; broadcasts over u, j.

    Built in the symmetric/antisymmetric basis where H2 splits into a 2x2
    part with Rabi frequency sqrt(u^2 + 4 j^2) and a pure phase on
    (c20 - c02)/sqrt(2), then rotated back.
    """
    u = np.asarray(u, dtype=float)
    j = np.asarray(j, dtype=float)
    u, j = np.broadcast_arrays(u, j)
    r = np.sqrt(u * u + 4.0 * j * j)
    y = r * dt
    sc = np.sinc(y / np.pi)  # sin(y)/y, regular at 0
    cy = np.cos(y)
    q = np.exp(-1j * (u + 2.0 * omega_eff) * dt)
    pa = np.exp(-2j * (u + omega_eff) * dt)

    d = np.zeros(u.shape + (3, 3), dtype=complex)
    d[..., 0, 0] = q * (cy - 1j * dt * sc * u)
    d[..., 0, 1] = q * (2j * dt * sc * j)
    d[..., 1, 0] = d[..., 0, 1]
    d[..., 1, 1] = q * (cy + 1j * dt * sc * u)
    d[..., 2, 2] = pa
    return _Q_SYM @ d @ _Q_SYM


def evolve_constant(
    state: TruncatedState,
    u: float,
    j: float,
    params: JunctionParams,
    duration: float,
) -> TruncatedState:
    """Closed-form propagation under constant controls.

    Exact up to floating point: each block is a small matrix exponential
    evaluated analytically.  Serves as the independent oracle for the RK4
    integrator and for the control optimiser's objective.
    """
    omega_eff = effective_frequency(params)
    a = _one_quantum_propagator(float(j), omega_eff, duration)
    b = _two_quanta_propagator(float(u), float(j), omega_eff, duration)
    one = a @ np.array([state.c10, state.c01], dtype=complex)
    two = b @ np.array([state.c20, state.c11, state.c02], dtype=complex)
    return TruncatedState(
        c00=state.c00,
        c10=complex(one[0]),
        c01=complex(one[1]),
        c11=complex(two[1]),
        c20=complex(two[0]),
        c02=complex(two[2]),
    )


def product_phase(schedule: ControlSchedule, alpha: float) -> complex:
    """c10(T)*c01(T) for the symmetric preparation, (alpha^2/2) e^{2i Int J dt}.

    The symmetric one-quantum state is a coupling eigenvector, so only the
    integrated coupling matters (frequency treated as 0; it drops out of
    the product's modulus anyway).  The integral uses Simpson's rule when
    the sample grid is uniform with an odd count, trapezoid otherwise.
    """
    t = schedule.times
    j = schedule.j
    if t.size >= 3 and t.size % 2 == 1:
        dt = np.diff(t)
        if np.allclose(dt, dt[0], rtol=1e-12, atol=1e-15):
            integral = simpson_uniform(j, float(dt[0]))
        else:
            integral = float(np.trapezoid(j, t))
    else:
        integral = float(np.trapezoid(j, t))
    return 0.5 * alpha**2 * np.exp(2j * integral)
