"""Correctness checks on the CLI's outputs.

Each check compares an output with a reference computed apart from the
program (the paper's duration roots, an independent ``scipy.linalg.expm``
propagator) or with a property the method must have (the phase condition,
the concurrence ceiling, conservation, loss factorisation).  None compares
with stored outputs.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import math

import numpy as np

CEILING = 1.0 + math.sqrt(2.0)
PAPER_ROOTS = {"original": 77.724, "fast": 15.665}
ROOT_TOL = 0.05
PHASE_TOL = 1e-3
DELIVERY_TOL = 1e-3
CEILING_SLACK = 1e-6
RESIDUAL_TOL = 1e-10
LOSS_TOL = 1e-8
EXPM_TOL = 1e-9
REPLAY_TOL = 1e-4
MINTIME_WINDOW = (6.3, 7.2)


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_csv(path):
    """Columns of a CLI CSV by header name; ``#`` lines are metadata."""
    header = None
    rows = []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            fields = line.rstrip("\n").split(",")
            if header is None:
                header = fields
                continue
            try:
                rows.append([float(v) for v in fields])
            except ValueError:
                raise CheckFailed(f"{path}: non-numeric row {line.strip()!r}")
    require(header is not None and rows, f"{path}: no data rows")
    require(all(len(r) == len(header) for r in rows), f"{path}: ragged rows")
    table = np.array(rows)
    return {name: table[:, i] for i, name in enumerate(header)}


def duration_root(doc, profile):
    ref = PAPER_ROOTS[profile]
    require(abs(doc["root"] - ref) <= ROOT_TOL,
            f"{profile} duration root {doc['root']} not within {ROOT_TOL} of {ref}")


def duration_curve(cols, root):
    """The last row is the root, where the curve meets pi; the root is the
    first crossing, so the grid stays below pi before it."""
    t, lhs = cols["T"], cols["lhs"]
    require(t[-1] == root, "duration CSV does not end at the root")
    require(abs(lhs[-1] - math.pi) <= 1e-6, f"curve at the root is {lhs[-1]}, not pi")
    below = t[:-1] < root
    require(below.any() and np.all(lhs[:-1][below] < math.pi),
            "duration curve reaches pi before the reported root")


def phase_condition(doc):
    """theta - zeta = -pi (mod 2 pi)."""
    gap = (doc["theta"] - doc["zeta"] + math.pi) % (2.0 * math.pi)
    require(min(gap, 2.0 * math.pi - gap) <= PHASE_TOL,
            f"theta - zeta = {doc['theta'] - doc['zeta']} is not -pi mod 2 pi")


def delivered(value, what):
    require(abs(value - CEILING) <= DELIVERY_TOL,
            f"{what}: final C/alpha^2 = {value}, not within {DELIVERY_TOL} of 1 + sqrt(2)")


def under_ceiling(value, what):
    require(value <= CEILING + CEILING_SLACK, f"{what}: C/alpha^2 = {value} exceeds the ceiling")


def lossless_trace(cols, doc, what):
    conc = cols["concurrence_norm"]
    require(conc[-1] == doc["final_concurrence_norm"], f"{what}: CSV and JSON disagree")
    under_ceiling(float(conc.max()), what)
    for name in ("one_quantum_residual", "two_quanta_residual"):
        worst = float(np.max(cols[name]))
        require(worst <= RESIDUAL_TOL, f"{what}: {name} reaches {worst}")


def loss_factorisation(lossy, lossless, kappa):
    """With losses the concurrence is the lossless one times exp(-kappa t)."""
    require(np.array_equal(lossy["t"], lossless["t"]), "lossy and lossless time grids differ")
    expected = lossless["concurrence_norm"] * np.exp(-kappa * lossless["t"])
    gap = float(np.max(np.abs(lossy["concurrence_norm"] - expected)))
    require(gap <= LOSS_TOL, f"lossy trace departs from lossless * exp(-kappa t) by {gap}")


def expm_objective(u, j, duration, alpha):
    """Final C/alpha^2 of piecewise-constant controls, propagated with
    scipy.linalg.expm of the block Hamiltonians (omega = kappa = 0) from the
    leading-order symmetric coherent preparation."""
    from scipy.linalg import expm

    s2 = math.sqrt(2.0)
    a = alpha / s2
    y = np.array([a, a], dtype=complex)  # c10, c01
    z = np.array([a * a / s2, a * a, a * a / s2], dtype=complex)  # c20, c11, c02
    dt = duration / u.size
    for uk, jk in zip(u, j):
        h1 = np.array([[0.0, -jk], [-jk, 0.0]])
        h2 = np.array([[2.0 * uk, -s2 * jk, 0.0],
                       [-s2 * jk, 0.0, -s2 * jk],
                       [0.0, -s2 * jk, 2.0 * uk]])
        y = expm(-1j * dt * h1) @ y
        z = expm(-1j * dt * h2) @ z
    return 2.0 * abs(z[1] - y[0] * y[1]) / alpha**2


def optimized_controls(cols, doc, duration, segments, bounds, alpha):
    u, j = cols["u"], cols["j"]
    require(u.size == segments, f"{u.size} segments written, {segments} asked for")
    require(np.array_equal(cols["segment"], np.arange(segments)), "segment column out of order")
    require(np.allclose(cols["t_start"], np.arange(segments) * duration / segments,
                        rtol=0.0, atol=1e-12), "t_start column off the segment grid")
    u_max, j_max = bounds
    require(u.min() >= 0.0 and u.max() <= u_max and j.min() >= 0.0 and j.max() <= j_max,
            "controls leave the bounds")
    under_ceiling(doc["objective"], "optimize")
    value = expm_objective(u, j, duration, alpha)
    require(abs(value - doc["objective"]) <= EXPM_TOL,
            f"objective {doc['objective']} vs expm recomputation {value}")


def replay(doc, duration, objective):
    """simulate must replay optimised controls over the same duration and
    deliver the optimised objective."""
    require(abs(doc["T"] - duration) <= 1e-9, f"replay lasts T = {doc['T']}, not {duration}")
    require(abs(doc["final_concurrence_norm"] - objective) <= REPLAY_TOL,
            f"replay delivers C/alpha^2 = {doc['final_concurrence_norm']}, "
            f"the optimiser reported {objective}")


def minimum_time(doc):
    lo, hi = MINTIME_WINDOW
    require(lo <= doc["minimum_time"] <= hi, f"T* = {doc['minimum_time']} outside [{lo}, {hi}]")
