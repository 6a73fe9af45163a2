"""Counterdiabatic control synthesis for the junction's two-quanta transfer.

A reference Hamiltonian parametrised by a mixing angle phi(s) and a gap
E0(s) (s = t/T) takes the symmetric two-quanta superposition to the |11>
state along its instantaneous ground state.  Following that path exactly
at finite speed requires a rotating-frame correction; absorbing it with a
gauge rotation exp(-i b(t) Sz), tan b = dphi/dt / (E0 sin phi), turns the
corrected Hamiltonian back into the physical form 2*U*Sz - 4*J*Sx with
implementable controls

    U_I = (E0^3 sin^2 cos + dE0 dphi sin + E0 (2 dphi^2 cos - ddphi sin))
          / (2 (E0^2 sin^2 + dphi^2)),
    J_I = sqrt(E0^2 sin^2 phi + dphi^2) / 4.

Maximum concurrence additionally needs the phase of c11 to oppose the
phase of c10*c01, i.e. theta - zeta = -pi.  That phase-difference
condition is an algebraic equation fixing the transfer duration T; this
module solves it for the polynomial reference profile (slow) and for a
plateau profile that hugs the speed estimate 2*pi/(sqrt(2)-1) (fast).
The condition and both phases are Simpson sums over one per-profile
table of E0 cos phi, (E0 sin phi)^2, E0 and phi' on fixed nodes.

The gap is expressed in units of its peak value (so E0 <= 1) and times in
the inverse of that peak.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._quadrature import simpson_pieces, simpson_uniform
from .dynamics import SQRT2, ControlSchedule

#: Peak reference gap; the unit of energy throughout.
E0_MAX = 1.0

_HALF_PI = math.pi / 2.0

#: Durations per (T x s) block of the phase condition; a block of 8 rows
#: over the ~4000 Simpson nodes stays near a quarter megabyte.
_LHS_CHUNK = 8

#: Simpson nodes per unit of s in the phase node table.
_POINTS_PER_UNIT = 4000


@dataclass(frozen=True)
class PiecewisePoly:
    """Polynomial pieces on consecutive intervals of [0, 1]."""

    edges: tuple[float, ...]  # length = number of pieces + 1, increasing
    coeffs: tuple[tuple[float, ...], ...]  # ascending-order coefficients per piece

    def __post_init__(self):
        if len(self.edges) != len(self.coeffs) + 1:
            raise ValueError("need one more edge than pieces")
        if any(b <= a for a, b in zip(self.edges[:-1], self.edges[1:])):
            raise ValueError("edges must be strictly increasing")

    def __call__(self, s, order: int = 0):
        s = np.asarray(s, dtype=float)
        out = np.empty(s.shape, dtype=float)
        idx = np.clip(
            np.searchsorted(self.edges, s, side="right") - 1, 0, len(self.coeffs) - 1
        )
        for i, c in enumerate(self.coeffs):
            mask = idx == i
            if not mask.any():
                continue
            ci = np.asarray(c, dtype=float)
            if order:
                ci = npoly.polyder(ci, m=order) if len(ci) > order else np.zeros(1)
            out[mask] = npoly.polyval(s[mask], ci)
        return out


@dataclass(frozen=True)
class ReferenceProfile:
    """Mixing angle phi and gap E0 of the reference path as piecewise
    polynomials in s = t/T; ``angle(s, k)`` is the k-th derivative of phi
    with respect to s, and likewise ``gap``."""

    kind: str
    angle: PiecewisePoly
    gap: PiecewisePoly
    knots: tuple[float, float, float] | None = None  # (s0, s1, s2) for "fast"
    # points_per_unit -> phase node table, filled by _node_table
    _node_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.angle.edges) | set(self.gap.edges)))


@dataclass(frozen=True)
class TransferPhases:
    """Final phases of a shortcut: ``theta`` of c11 and ``zeta`` of c10*c01."""

    theta: float
    zeta: float


def _solve_exact(rows, rhs) -> np.ndarray:
    """Gaussian elimination over the rationals.

    The boundary-condition systems are tiny but get badly scaled for
    knots near the interval ends (coefficients ~1e5 at s0 = 0.9), where a
    float solve leaves residuals above the advertised accuracy.  Exact
    rational arithmetic on the (exactly represented) float entries makes
    the returned coefficients satisfy the conditions to the last bit
    before the final rounding.
    """
    n = len(rhs)
    m = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            raise np.linalg.LinAlgError("singular boundary-condition system")
        m[col], m[piv] = m[piv], m[col]
        b[col], b[piv] = b[piv], b[col]
        for row in range(col + 1, n):
            f = m[row][col] / m[col][col]
            if f:
                for k in range(col, n):
                    m[row][k] -= f * m[col][k]
                b[row] -= f * b[col]
    x = [Fraction(0)] * n
    for row in range(n - 1, -1, -1):
        acc = b[row] - sum(m[row][k] * x[k] for k in range(row + 1, n))
        x[row] = acc / m[row][row]
    return np.array([float(v) for v in x])


def solve_coeffs_E(s0: float) -> np.ndarray:
    """Quartic gap coefficients e0..e4 for the plateau profile.

    The five conditions are E0(1) = E0'(1) = 0 plus value/slope/curvature
    matching E0(s0) = 1, E0'(s0) = E0''(s0) = 0 at the plateau edge; the
    curvature row keeps U_I differentiable across the knot.
    """
    if not 0.0 < s0 < 1.0:
        raise ValueError("s0 must lie strictly inside (0, 1)")
    s = Fraction(s0)
    rows = [
        [1, 1, 1, 1, 1],
        [0, 1, 2, 3, 4],
        [1, s, s**2, s**3, s**4],
        [0, 1, 2 * s, 3 * s**2, 4 * s**3],
        [0, 0, 1, 3 * s, 6 * s**2],
    ]
    return _solve_exact(rows, [0, 0, E0_MAX, 0, 0])


def solve_coeffs_phi(s1: float, s2: float) -> tuple[np.ndarray, np.ndarray]:
    """Angle-branch coefficients (a0..a6, b0..b5) for the plateau profile.

    The entry branch starts at pi/2 with three vanishing derivatives
    (a0 = pi/2, a1 = a2 = 0 analytically) and lands on the pi/4 plateau at
    s1 with continuity through the third derivative; the exit branch
    leaves the plateau at s2 the same way and reaches 0 with zero slope
    at s = 1.
    """
    if not 0.0 < s1 < s2 < 1.0:
        raise ValueError("knots must satisfy 0 < s1 < s2 < 1")
    p, q = Fraction(s1), Fraction(s2)
    quarter_pi = Fraction(math.pi) / 4
    rows_a = [
        [p**3, p**4, p**5, p**6],
        [3 * p**2, 4 * p**3, 5 * p**4, 6 * p**5],
        [3 * p, 6 * p**2, 10 * p**3, 15 * p**4],
        [1, 4 * p, 10 * p**2, 20 * p**3],
    ]
    rows_b = [
        [1, 1, 1, 1, 1, 1],
        [0, 1, 2, 3, 4, 5],
        [1, q, q**2, q**3, q**4, q**5],
        [0, 1, 2 * q, 3 * q**2, 4 * q**3, 5 * q**4],
        [0, 0, 1, 3 * q, 6 * q**2, 10 * q**3],
        [0, 0, 0, 1, 4 * q, 10 * q**2],
    ]
    tail = _solve_exact(rows_a, [-quarter_pi, 0, 0, 0])
    b_coeffs = _solve_exact(rows_b, [0, 0, quarter_pi, 0, 0, 0])
    a_coeffs = np.concatenate(([_HALF_PI, 0.0, 0.0], tail))
    return a_coeffs, b_coeffs


def profile_original() -> ReferenceProfile:
    """Single-piece polynomial reference: phi = pi/2 - 2 pi s^3 + (3 pi/2) s^4
    with a linearly closing gap E0 = 1 - s."""
    angle = PiecewisePoly(
        edges=(0.0, 1.0),
        coeffs=((_HALF_PI, 0.0, 0.0, -2.0 * math.pi, 1.5 * math.pi),),
    )
    gap = PiecewisePoly(edges=(0.0, 1.0), coeffs=((E0_MAX, -E0_MAX),))
    return ReferenceProfile(kind="original", angle=angle, gap=gap)


def profile_fast(s0: float = 0.9, s1: float = 0.2, s2: float = 0.8) -> ReferenceProfile:
    """Plateau reference: gap pinned at its peak until s0, angle pinned at
    pi/4 on [s1, s2].  Hugging the constant-angle speed optimum keeps the
    phase-difference duration near the 2*pi/(sqrt(2)-1) estimate; the
    transients are polynomial with enough smoothness for differentiable
    controls."""
    if not 0.0 < s0 < 1.0:
        raise ValueError("s0 must lie strictly inside (0, 1)")
    a_coeffs, b_coeffs = solve_coeffs_phi(s1, s2)
    e_coeffs = solve_coeffs_E(s0)
    angle = PiecewisePoly(
        edges=(0.0, s1, s2, 1.0),
        coeffs=(tuple(a_coeffs), (math.pi / 4.0,), tuple(b_coeffs)),
    )
    gap = PiecewisePoly(edges=(0.0, s0, 1.0), coeffs=((E0_MAX,), tuple(e_coeffs)))
    return ReferenceProfile(kind="fast", angle=angle, gap=gap, knots=(s0, s1, s2))


def _controls_on(profile: ReferenceProfile, duration: float, s: np.ndarray):
    """(U_I, J_I) sampled at scaled times s for a transfer of length T."""
    phi = profile.angle(s)
    dphi = profile.angle(s, 1) / duration
    d2phi = profile.angle(s, 2) / duration**2
    e0 = profile.gap(s)
    de0 = profile.gap(s, 1) / duration
    sin = np.sin(phi)
    cos = np.cos(phi)
    den = (e0 * sin) ** 2 + dphi**2
    num = e0**3 * sin**2 * cos + de0 * dphi * sin + e0 * (2.0 * dphi**2 * cos - d2phi * sin)
    u = np.zeros_like(den)
    ok = den > 1e-24
    # Where gap and angle rate vanish together (t = T) the boundary
    # conditions force the numerator to higher order; extend by 0.
    u[ok] = num[ok] / (2.0 * den[ok])
    j = np.sqrt(den) / 4.0
    return u, j


def counterdiabatic_controls(
    profile: ReferenceProfile, duration: float, samples: int = 4001
) -> tuple[ControlSchedule, TransferPhases]:
    """Implementable control schedule (U_I, J_I) for the given profile.

    Parameters
    ----------
    profile : ReferenceProfile
    duration : float
        Transfer time T, finite and > 0.
    samples : int
        Sample count of the emitted schedule (uniform grid on [0, T]).

    Returns the schedule together with the transfer phases of the run.
    """
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be finite and positive, got {duration!r}")
    if samples < 2:
        raise ValueError("need at least two schedule samples")
    s = np.linspace(0.0, 1.0, samples)
    u, j = _controls_on(profile, duration, s)
    schedule = ControlSchedule(times=s * duration, u=u, j=j)
    return schedule, phases(profile, duration, schedule)


def _node_table(profile: ReferenceProfile, points_per_unit: int) -> list:
    """Per Simpson piece: (E0 cos phi, (E0 sin phi)^2, E0, phi', node spacing).

    None of these depends on T, so each profile tabulates them once per
    resolution, and the phase condition and both transfer phases reuse
    them for every T.  The table lives and dies with the profile object
    (the CLI builds a new one per command).
    """
    table = profile._node_tables.get(points_per_unit)
    if table is None:
        table = []
        for s, dx in simpson_pieces(profile.breakpoints, points_per_unit):
            phi = profile.angle(s)
            e0 = profile.gap(s)
            table.append((e0 * np.cos(phi), (e0 * np.sin(phi)) ** 2, e0, profile.angle(s, 1), dx))
        profile._node_tables[points_per_unit] = table
    return table


def _lhs_block(table: list, durations: np.ndarray) -> np.ndarray:
    """LHS for a 1-d block of durations, as one (T x s) array per piece."""
    per_t = durations[:, None]
    total = 0.0
    for e0_cos, e0_sin_sq, e0, rate, dx in table:
        val = 0.5 * (e0_cos + np.sqrt(e0_sin_sq + (rate / per_t) ** 2) - e0)
        if not np.all(np.isfinite(val)):
            raise FloatingPointError("non-finite phase-condition integrand")
        total += simpson_uniform(val, dx)
    return durations * total


def duration_lhs(
    profile: ReferenceProfile, duration, points_per_unit: int = _POINTS_PER_UNIT
) -> float | np.ndarray:
    """Left-hand side of the phase-difference condition at duration T.

    T * Int_0^1 (E0/2) (cos phi + sin phi sqrt(1 + phi'^2/(T^2 E0^2 sin^2 phi)) - 1) ds,
    evaluated in the equivalent form
    (1/2)(E0 cos phi + sqrt(E0^2 sin^2 phi + (phi'/T)^2) - E0), which stays
    finite where gap and angle close together.  Maximum concurrence is
    reached when this equals pi.

    ``duration`` is a finite positive scalar (a float comes back) or an
    array of them (an array of the same shape comes back).  T enters the integrand
    only through phi'/T: phi, phi' and E0 on the piecewise Simpson nodes
    are tabulated once per profile, and the durations are integrated in
    blocks of a few at a time, so memory stays bounded for any count.
    """
    durations = np.asarray(duration, dtype=float)
    bad = ~(np.isfinite(durations) & (durations > 0.0))
    if bad.any():
        raise ValueError(f"duration must be finite and positive, got {float(durations[bad][0])!r}")
    table = _node_table(profile, points_per_unit)
    flat = durations.ravel()
    lhs = np.empty_like(flat)
    for i in range(0, flat.size, _LHS_CHUNK):
        lhs[i : i + _LHS_CHUNK] = _lhs_block(table, flat[i : i + _LHS_CHUNK])
    return float(lhs[0]) if durations.ndim == 0 else lhs.reshape(durations.shape)


def _scan_points(start: float, stop: float, step: float):
    """start, start + step, ... up to stop, accumulated one step at a time.
    A step too small to move a point past its predecessor is an error."""
    t = start
    while True:
        yield t
        t, prev = t + step, t
        if t > stop + 1e-12:
            return
        if t == prev:
            raise ValueError(f"scan step {step!r} does not advance past T = {prev!r}")


def solve_duration(
    profile: ReferenceProfile,
    scan: tuple[float, float, float] = (0.5, 300.0, 0.5),
) -> float:
    """Smallest duration satisfying the phase-difference condition.

    Scans the LHS - pi sign along the given (start, stop, step) grid for
    its first crossing, then bisects 60 times.  The LHS grows linearly
    for large T, so a single crossing exists for sensible profiles.  The
    scan evaluates its points in blocks of a few durations per
    ``duration_lhs`` call and stops after the first block that holds a
    crossing; the profile's node table is built by the first call and
    reused by every scan block and bisection step.
    """
    for name, value in zip(("start", "stop", "step"), scan):
        if not math.isfinite(value):
            raise ValueError(f"scan {name} must be finite, got {value!r}")
    start, stop, step = scan
    if not step > 0.0:
        raise ValueError(f"scan step must be positive, got {step!r}")
    points = _scan_points(start, stop, step)
    bracket = None
    t_prev = f_prev = None
    while bracket is None and (block := list(itertools.islice(points, _LHS_CHUNK))):
        for t, f in zip(block, duration_lhs(profile, np.array(block)) - math.pi):
            if f_prev is not None:
                if f == 0.0:
                    return t
                if f_prev < 0.0 < f or f < 0.0 < f_prev:
                    bracket = (t_prev, f_prev, t)
                    break
            t_prev, f_prev = t, f
    if bracket is None:
        raise RuntimeError(
            f"no phase-condition crossing for T in [{start}, {stop}]"
        )
    lo, f_lo, hi = bracket
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = duration_lhs(profile, mid) - math.pi
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def estimate_min_duration() -> float:
    """Speed estimate 2*pi/(sqrt(2) - 1): a constant pi/4 angle at full gap
    builds the pi phase difference fastest."""
    return 2.0 * math.pi / (SQRT2 - 1.0)


def phases(
    profile: ReferenceProfile,
    duration: float,
    schedule: ControlSchedule | None = None,
) -> TransferPhases:
    """Transfer phases for a shortcut of length T.

    theta = Int (E0/2)(1 - cos phi) dt and zeta = 2 Int J_I dt, summed on
    the node table of ``duration_lhs``; at the solved duration
    theta - zeta = -pi (mod 2 pi).  A schedule from
    ``counterdiabatic_controls`` may be passed; it must span T.
    """
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be finite and positive, got {duration!r}")
    if schedule is not None and abs(schedule.duration - duration) > 1e-9 * max(1.0, duration):
        raise ValueError("schedule duration does not match T")
    theta = zeta = 0.0
    for e0_cos, e0_sin_sq, e0, rate, dx in _node_table(profile, _POINTS_PER_UNIT):
        theta += simpson_uniform(0.5 * (e0 - e0_cos), dx)
        zeta += simpson_uniform(np.sqrt(e0_sin_sq + (rate / duration) ** 2) / 4.0, dx)
    return TransferPhases(float(duration * theta), float(2.0 * duration * zeta))
