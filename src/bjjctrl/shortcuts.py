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
Both profiles are piecewise polynomials written in each piece's local
variable; the fast one's three transitions are fixed regularized
incomplete beta polynomials, so no coefficients are solved for.
The condition and both phases are Simpson sums over one per-profile
table of E0 cos phi, (E0 sin phi)^2, E0 and phi' on fixed nodes.

The gap is expressed in units of its peak value (so E0 <= 1) and times in
the inverse of that peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import SQRT2, ControlSchedule

#: Peak reference gap; the unit of energy throughout.
E0_MAX = 1.0

#: Finest phase, in radians, that a shortcut's duration must resolve: one
#: ulp of T times the peak gap, the spacing of the phases E0 t near t = T.
#: Up to T < 2^23 (about 8.4e6 / E0_MAX) it is at most 2^-30 (about 9.3e-10).
PHASE_TOLERANCE = 1e-9

_HALF_PI = math.pi / 2.0

#: Durations per (T x s) block of the phase condition; a block of 8 rows
#: over the ~4000 Simpson nodes stays near a quarter megabyte.
_LHS_CHUNK = 8

#: Most points any duration grid may hold (see ``duration_grid``): about
#: 25 s of phase-condition evaluations for a root scan, an 8 MB curve for
#: ``duration --out``, and a bound on ``sweep`` and ``minimum_time`` grids.
MAX_SCAN_POINTS = 1_000_000

#: Simpson nodes per unit of s in the phase node table.
_POINTS_PER_UNIT = 4000


def duration_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Every duration grid: start + k*step for k = 0, 1, ... up to the last
    point that does not pass ``stop`` (inclusive, never exceeded).

    Raises ValueError, before allocating, when a bound is not finite, the
    step is not positive or does not advance past ``start``, ``stop <
    start`` or the grid would hold more than ``MAX_SCAN_POINTS`` points;
    and when rounding makes two consecutive points equal.
    """
    for name, value in zip(("start", "stop", "step"), (start, stop, step)):
        if not math.isfinite(value):
            raise ValueError(f"scan {name} must be finite, got {value!r}")
    if not step > 0.0:
        raise ValueError(f"scan step must be positive, got {step!r}")
    if start + step == start:
        raise ValueError(f"scan step {step!r} does not advance past T = {start!r}")
    if stop < start:
        raise ValueError(f"scan stop {stop!r} is below its start {start!r}")
    # (stop - start) / step, which may be infinite, is within a rounding of
    # the last k; the loops settle it on the points' own arithmetic
    last = int(min((stop - start) / step, MAX_SCAN_POINTS))
    while last > 0 and start + last * step > stop:
        last -= 1
    while last < MAX_SCAN_POINTS and start + (last + 1) * step <= stop:
        last += 1
    if last >= MAX_SCAN_POINTS:
        raise ValueError(
            f"scan step {step!r} gives more than {MAX_SCAN_POINTS} points on [{start!r}, {stop!r}]"
        )
    points = start + step * np.arange(last + 1, dtype=float)
    stalled = np.flatnonzero(np.diff(points) <= 0.0)
    if stalled.size:
        prev = float(points[stalled[0]])
        raise ValueError(f"scan step {step!r} does not advance past T = {prev!r}")
    return points


@dataclass(frozen=True)
class PiecewisePoly:
    """Polynomial pieces on consecutive intervals of [0, 1].

    Each piece's coefficients are in its local variable
    x = (s - lo) / (hi - lo), which runs over [0, 1] on the piece, so a
    transition between two knots is written once, whatever the knots, and
    evaluated without the cancellation that monomials in s suffer near
    s = 1.  The k-th derivative in s is the k-th derivative in x divided
    by (hi - lo)^k.
    """

    edges: tuple[float, ...]  # length = number of pieces + 1, increasing
    coeffs: tuple[tuple[float, ...], ...]  # ascending coefficients in x, per piece

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
            if order >= len(c):
                out[mask] = 0.0
                continue
            lo, width = self.edges[i], self.edges[i + 1] - self.edges[i]
            for _ in range(order):
                c = [k * c[k] for k in range(1, len(c))]
            x = (s[mask] - lo) / width
            value = c[-1] + x * 0  # Horner, as numpy.polynomial's polyval
            for ck in c[-2::-1]:
                value = ck + value * x
            out[mask] = value / width**order
        return out


@dataclass(frozen=True)
class ReferenceProfile:
    """Mixing angle phi and gap E0 of the reference path as piecewise
    polynomials in s = t/T; ``angle(s, k)`` is the k-th derivative of phi
    with respect to s, and likewise ``gap``."""

    kind: str
    angle: PiecewisePoly
    gap: PiecewisePoly

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.angle.edges) | set(self.gap.edges)))

    @cached_property
    def nodes(self) -> list:
        """Per Simpson piece: (E0 cos phi, (E0 sin phi)^2, E0, phi', node
        spacing, flat).

        None of these depends on T, so each profile tabulates them once, and
        the phase condition and both transfer phases reuse them for every T.
        Where every phi' is 0, (phi'/T)^2 is exactly 0 for any T > 0, so the
        piece's phase-condition integral has the same bits at every T:
        ``flat`` holds it, taken once, and is None on the other pieces.
        The table lives and dies with the profile object (the CLI builds a
        new one per command).
        """
        rows = []
        for s, dx in simpson_pieces(self.breakpoints):
            phi = self.angle(s)
            e0 = self.gap(s)
            rate = self.angle(s, 1)
            row = (e0 * np.cos(phi), (e0 * np.sin(phi)) ** 2, e0, rate, dx)
            flat = None if rate.any() else float(_lhs_block([row + (None,)], np.ones(1))[0])
            rows.append(row + (flat,))
        return rows


@dataclass(frozen=True)
class TransferPhases:
    """Final phases of a shortcut: ``theta`` of c11 and ``zeta`` of c10*c01."""

    theta: float
    zeta: float


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
    phase-difference duration near the 2*pi/(sqrt(2)-1) estimate.

    Smoothness alone fixes each transition, so each is a regularized
    incomplete beta polynomial I_x(a, b) in its piece's local variable x:

    - gap on [s0, 1]: 1 - I_x(3, 2) = 1 - 4x^3 + 3x^4, flat through the
      second derivative at s0 (so U_I stays differentiable) and closing
      with zero slope at 1;
    - angle on [0, s1]: pi/2 - (pi/4) I_x(3, 4)
      = pi/2 - (pi/4)(20x^3 - 45x^4 + 36x^5 - 10x^6), flat through the
      second derivative at 0 and the third at s1;
    - angle on [s2, 1]: (pi/4)(1 - I_x(4, 2)) = (pi/4)(1 - 5x^4 + 4x^5),
      flat through the third derivative at s2 and closing with zero slope
      at 1.

    In x the coefficients do not depend on the knots and are at most 45
    times the plateau value.  Expanded in s they would grow like inverse
    powers of the piece width (about 1e5 for s0 = 0.9) and cancel near
    s = 1, enough to push the gap above its peak; in x the gap stays in
    [0, 1] and the angle in [0, pi/2].  Knots outside 0 < s0 < 1,
    0 < s1 < s2 < 1 raise ValueError.
    """
    if not 0.0 < s0 < 1.0:
        raise ValueError("s0 must lie strictly inside (0, 1)")
    if not 0.0 < s1 < s2 < 1.0:
        raise ValueError("knots must satisfy 0 < s1 < s2 < 1")
    quarter_pi = math.pi / 4.0
    entry = (_HALF_PI, 0.0, 0.0, -20.0 * quarter_pi, 45.0 * quarter_pi,
             -36.0 * quarter_pi, 10.0 * quarter_pi)
    exit_ = (quarter_pi, 0.0, 0.0, 0.0, -5.0 * quarter_pi, 4.0 * quarter_pi)
    angle = PiecewisePoly(edges=(0.0, s1, s2, 1.0), coeffs=(entry, (quarter_pi,), exit_))
    closing = (E0_MAX, 0.0, 0.0, -4.0 * E0_MAX, 3.0 * E0_MAX)
    gap = PiecewisePoly(edges=(0.0, s0, 1.0), coeffs=((E0_MAX,), closing))
    return ReferenceProfile(kind="fast", angle=angle, gap=gap)


def _controls_on(profile: ReferenceProfile, duration: float, s: np.ndarray):
    """(U_I, J_I) sampled at scaled times s for a transfer of length T; a T
    that overflows them gives non-finite controls, for the schedule types to
    refuse, and one whose square overflows raises ``FloatingPointError``."""
    try:
        duration_sq = duration**2
    except OverflowError:
        raise FloatingPointError(f"T = {duration!r} is too long: T^2 overflows") from None
    phi = profile.angle(s)
    e0 = profile.gap(s)
    sin = np.sin(phi)
    cos = np.cos(phi)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dphi = profile.angle(s, 1) / duration
        d2phi = profile.angle(s, 2) / duration_sq
        de0 = profile.gap(s, 1) / duration
        den = (e0 * sin) ** 2 + dphi**2
        num = e0 * e0 * e0 * sin**2 * cos + de0 * dphi * sin + e0 * (2.0 * dphi**2 * cos - d2phi * sin)
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
        Transfer time T, finite and > 0.  Phases of order E0 T resolve only
        to ulp(T) * E0_MAX; a T whose ulp(T) * E0_MAX exceeds
        ``PHASE_TOLERANCE`` (T >= 2^23) raises ``FloatingPointError``, since
        the phases, controls and trace would carry no significant bits.
    samples : int
        Sample count of the emitted schedule (uniform grid on [0, T]).

    Returns the schedule together with the transfer phases of the run.
    """
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be finite and positive, got {duration!r}")
    if math.ulp(duration) * E0_MAX > PHASE_TOLERANCE:
        raise FloatingPointError(
            f"T = {duration!r} is too long: its phases resolve to ulp(T) * E0 = "
            f"{math.ulp(duration) * E0_MAX:.3g} rad, above {PHASE_TOLERANCE:g}"
        )
    if samples < 2:
        raise ValueError("need at least two schedule samples")
    s = np.linspace(0.0, 1.0, samples)
    u, j = _controls_on(profile, duration, s)
    schedule = ControlSchedule(times=s * duration, u=u, j=j)
    return schedule, phases(profile, duration, schedule)


def simpson_uniform(y, dx):
    """Integrate uniformly sampled values along the last axis.  Needs an odd
    sample count; each row of a 2-d ``y`` gets the bits a 1-d call gives."""
    y = np.asarray(y)
    n = y.shape[-1]
    if n < 3 or n % 2 == 0:
        raise ValueError("composite Simpson needs an odd number of samples >= 3")
    acc = (
        y[..., 0] + y[..., -1]
        + 4.0 * np.sum(y[..., 1:-1:2], axis=-1) + 2.0 * np.sum(y[..., 2:-2:2], axis=-1)
    )
    return acc * (dx / 3.0)


def simpson_pieces(edges):
    """(nodes, spacing) of each piece [edges[k], edges[k+1]] of increasing
    edges: an even number of intervals, at least 4 and about
    ``_POINTS_PER_UNIT`` per unit."""
    for lo, hi in zip(edges[:-1], edges[1:]):
        width = hi - lo
        n = max(int(np.ceil(width * _POINTS_PER_UNIT)), 4)
        if n % 2:
            n += 1
        yield np.linspace(lo, hi, n + 1), width / n


def _lhs_block(table: list, durations: np.ndarray) -> np.ndarray:
    """LHS for a 1-d block of durations, as one (T x s) array per non-flat piece."""
    per_t = durations[:, None]
    total = 0.0
    for e0_cos, e0_sin_sq, e0, rate, dx, flat in table:
        if flat is not None:
            total += flat
            continue
        with np.errstate(over="ignore"):  # phi'/T overflows at tiny T: refused below
            val = 0.5 * (e0_cos + np.sqrt(e0_sin_sq + (rate / per_t) ** 2) - e0)
        if not np.all(np.isfinite(val)):
            raise FloatingPointError("non-finite phase-condition integrand")
        total += simpson_uniform(val, dx)
    return durations * total


def duration_lhs(profile: ReferenceProfile, duration) -> float | np.ndarray:
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
    table = profile.nodes
    flat = durations.ravel()
    lhs = np.empty_like(flat)
    for i in range(0, flat.size, _LHS_CHUNK):
        lhs[i : i + _LHS_CHUNK] = _lhs_block(table, flat[i : i + _LHS_CHUNK])
    return float(lhs[0]) if durations.ndim == 0 else lhs.reshape(durations.shape)


def solve_duration(
    profile: ReferenceProfile,
    scan: tuple[float, float, float] = (0.5, 300.0, 0.5),
) -> float:
    """Smallest duration satisfying the phase-difference condition.

    Scans the LHS - pi sign along ``duration_grid(*scan)`` for its first
    crossing, then bisects it until its ends are adjacent floats, at most
    60 times.  The LHS grows linearly for large T, so a single crossing
    exists for sensible profiles.  The scan evaluates
    its points in blocks of a few durations per ``duration_lhs`` call and
    stops after the first block that holds a crossing; the profile's node
    table is built by the first call and reused by every scan block and
    bisection step.  A grid that ``duration_grid`` refuses raises its
    ValueError before any evaluation.
    """
    grid = duration_grid(*scan)
    blocks = (grid[i : i + _LHS_CHUNK] for i in range(0, grid.size, _LHS_CHUNK))
    points = (tf for b in blocks for tf in zip(b.tolist(), duration_lhs(profile, b) - math.pi))
    lo, f_lo = next(points)
    for hi, f in points:
        if f == 0.0:
            return hi
        if f_lo < 0.0 < f or f < 0.0 < f_lo:
            break
        lo, f_lo = hi, f
    else:
        raise RuntimeError(f"no phase-condition crossing for T in [{scan[0]}, {scan[1]}]")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
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
    for e0_cos, e0_sin_sq, e0, rate, dx, _ in profile.nodes:
        theta += simpson_uniform(0.5 * (e0 - e0_cos), dx)
        zeta += simpson_uniform(np.sqrt(e0_sin_sq + (rate / duration) ** 2) / 4.0, dx)
    return TransferPhases(float(duration * theta), float(2.0 * duration * zeta))
