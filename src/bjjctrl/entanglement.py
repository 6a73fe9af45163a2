"""Entanglement metrics for the truncated junction state.

The bipartite entanglement of the pure two-mode state is the entropy of
the 3x3 reduced density matrix of either mode.  In the weak-pumping
regime the concurrence is dominated by 2|c11 - c10*c01| and caps at
(1 + sqrt(2)) alpha^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TruncatedState

#: Ceiling of the normalised dominant concurrence 2 |c11 - c10 c01| / alpha^2,
#: for any preparation, frequency omega, loss rate kappa >= 0 and controls:
#: - the one-quantum norm alpha^2 and the two-quanta norm alpha^4/2 are
#:   conserved, or decay when kappa > 0;
#: - so |c10 c01| <= alpha^2/2 and |c11| <= alpha^2/sqrt(2);
#: - so C/alpha^2 <= 2 (1/sqrt(2) + 1/2) = 1 + sqrt(2).
#: The bound holds for every preparation but is tight for the symmetric
#: one, which controls drive to it; for other preparations it can be loose.
MAX_NORMALIZED_CONCURRENCE = 1.0 + math.sqrt(2.0)


@dataclass(frozen=True)
class ConcurrenceValue:
    full: float  # six-term pure-state concurrence
    dominant: float  # 2|c11 - c10*c01|
    normalized: float | None  # dominant / alpha^2, None when alpha unknown/0


@dataclass(frozen=True)
class EntanglementResult:
    eigenvalues: tuple[float, float, float]  # reduced-density eigenvalues, descending
    entropy: float  # bits
    triple_product: float  # D = |c11 c02 c20|^2 of the unit-norm amplitudes
    cubic_residual: float  # worst characteristic-cubic residual


def reduced_density(state: TruncatedState) -> np.ndarray:
    """Reduced density matrix of one mode in its {0, 1, 2}-quanta basis."""
    c00, c10, c01, c11, c20, c02 = (
        state.c00, state.c10, state.c01, state.c11, state.c20, state.c02,
    )
    rho = np.empty((3, 3), dtype=complex)
    rho[0, 0] = abs(c00) ** 2 + abs(c01) ** 2 + abs(c02) ** 2
    rho[0, 1] = c00 * np.conj(c10) + np.conj(c11) * c01
    rho[0, 2] = c00 * np.conj(c20)
    rho[1, 1] = abs(c10) ** 2 + abs(c11) ** 2
    rho[1, 2] = c10 * np.conj(c20)
    rho[2, 2] = abs(c20) ** 2
    rho[1, 0] = np.conj(rho[0, 1])
    rho[2, 0] = np.conj(rho[0, 2])
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def _full_concurrence_sq(c00, c10, c01, c11, c20, c02) -> float:
    return 4.0 * (
        abs(c00 * c11 - c10 * c01) ** 2
        + abs(c10 * c02) ** 2
        + abs(c01 * c20) ** 2
        + abs(c11 * c02) ** 2
        + abs(c11 * c20) ** 2
        + abs(c02 * c20) ** 2
    )


def concurrence(state: TruncatedState, alpha: float | None = None) -> ConcurrenceValue:
    """Full and dominant concurrence of the (possibly unnormalised) state.

    No renormalisation is applied: with losses the decayed amplitudes are
    meant to carry the exp(-kappa t) concurrence reduction directly.
    """
    full = math.sqrt(
        _full_concurrence_sq(
            state.c00, state.c10, state.c01, state.c11, state.c20, state.c02
        )
    )
    dominant = 2.0 * abs(state.c11 - state.c10 * state.c01)
    normalized = None
    if alpha is not None and alpha > 0.0:
        normalized = dominant / (alpha * alpha)  # inf, not OverflowError, past 1e154
    return ConcurrenceValue(full=full, dominant=dominant, normalized=normalized)


def dominant_trace(amplitudes: np.ndarray) -> np.ndarray:
    """Vectorised 2|c11 - c10*c01| over an (n, 6) amplitude array."""
    a = np.asarray(amplitudes)
    return 2.0 * np.abs(a[..., 3] - a[..., 1] * a[..., 2])


def _unit_amplitudes(state: TruncatedState) -> np.ndarray:
    vec = state.as_array()
    nrm = np.linalg.norm(vec)
    if nrm == 0.0:
        raise ValueError("cannot analyse the zero state")
    return vec / nrm


def entanglement_exact(state: TruncatedState) -> EntanglementResult:
    """Eigen-decomposition route to the entanglement entropy.

    The amplitudes are scaled to unit norm first (a density matrix needs
    unit trace; the truncated amplitudes are normalised only up to
    O(alpha^4) and may carry loss-induced decay).  Each eigenvalue is
    checked against the characteristic cubic
    -l^3 + l^2 - (C^2/4) l + D = 0, which ties the spectrum to the
    concurrence and the triple product D = |c11 c02 c20|^2.
    """
    vec = _unit_amplitudes(state)
    unit = TruncatedState.from_array(vec)
    rho = reduced_density(unit)
    lams = np.linalg.eigvalsh(rho)
    if lams.min() < -1e-12:
        raise FloatingPointError("reduced density matrix has a negative eigenvalue")
    csq = _full_concurrence_sq(*vec)
    d = abs(vec[3] * vec[5] * vec[4]) ** 2
    residual = float(
        np.max(np.abs(-(lams**3) + lams**2 - 0.25 * csq * lams + d))
    )
    if residual > 1e-10:
        raise FloatingPointError(
            f"characteristic-cubic residual {residual:.3e} exceeds 1e-10"
        )
    clipped = np.clip(lams, 0.0, None)
    entropy = float(-np.sum(clipped[clipped > 0.0] * np.log2(clipped[clipped > 0.0])))
    ordered = tuple(float(v) for v in clipped[::-1])
    return EntanglementResult(
        eigenvalues=ordered,
        entropy=entropy,
        triple_product=float(d),
        cubic_residual=residual,
    )


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with 0 log 0 = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary entropy argument must lie in [0, 1]")
    out = 0.0
    if 0.0 < x < 1.0:
        out = -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
    return out


def entanglement_of_concurrence(c: float) -> float:
    """Two-eigenvalue entropy approximation h((1 + sqrt(1 - C^2))/2).

    Valid for weak pumping, where the third reduced-density eigenvalue
    (order alpha^8) is negligible.  Strictly increasing on [0, 1].
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError("concurrence must lie in [0, 1]")
    return binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)
