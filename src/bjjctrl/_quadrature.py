"""Composite Simpson quadrature helpers."""

from __future__ import annotations

import numpy as np


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


def simpson_pieces(edges, points_per_unit=4000):
    """(nodes, spacing) of each nonempty piece [edges[k], edges[k+1]]: an even
    number of intervals, at least 4 and about ``points_per_unit`` per unit."""
    for lo, hi in zip(edges[:-1], edges[1:]):
        width = hi - lo
        if width <= 0.0:
            continue
        n = max(int(np.ceil(width * points_per_unit)), 4)
        if n % 2:
            n += 1
        yield np.linspace(lo, hi, n + 1), width / n


def piecewise_simpson(fun, edges, points_per_unit=4000):
    """Integrate ``fun`` over [edges[0], edges[-1]], one Simpson rule per piece.

    ``fun`` must accept a vector of abscissae.  Splitting at the piece edges
    keeps the rule's full convergence order when the integrand has kinks
    there.
    """
    total = 0.0
    for grid, dx in simpson_pieces(edges, points_per_unit):
        total += simpson_uniform(fun(grid), dx)
    return total
