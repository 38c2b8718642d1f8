"""Independent disk mass of a bilinear grid density, for checking the
``mass_grid`` workload.

The integral over the disk is taken as an outer integral in x of the
exact inner integral in y.  With x = cx - r cos(theta), the inner limits
are cy -/+ r sin(theta), and the integrand is smooth between the angles
where x crosses a grid column or a limit crosses a grid row.  A
fixed Gauss-Legendre rule on each such piece is accurate to round-off.
This shares no code with the package's adaptive polar quadrature.
"""

from __future__ import annotations

import math

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def _breakpoints(cx, cy, r, xs, ys):
    cuts = [0.0, math.pi]
    for x in xs:
        if abs(x - cx) < r:
            cuts.append(math.acos((cx - x) / r))
    for y in ys:
        a = abs(y - cy) / r
        if 0.0 < a < 1.0:
            cuts += [math.asin(a), math.pi - math.asin(a)]
    return np.unique(cuts)


def grid_disk_mass(origin, cell, values, center, r):
    """Mass of the bilinear grid density (zero outside the grid) over the
    disk of radius ``r`` about ``center``."""
    values = np.asarray(values, dtype=float)
    ny, nx = values.shape
    ox, oy = origin.real, origin.imag
    cx, cy = center.real, center.imag
    xs = ox + cell * np.arange(nx)
    ys = oy + cell * np.arange(ny)

    cuts = _breakpoints(cx, cy, r, xs, ys)
    a, b = cuts[:-1, None], cuts[1:, None]
    theta = (0.5 * (a + b) + 0.5 * (b - a) * _GL_X[None, :]).ravel()
    wts = (0.5 * (b - a) * _GL_W[None, :]).ravel()

    x = cx - r * np.cos(theta)
    half = r * np.sin(theta)
    gx = (x - ox) / cell
    inside = (gx >= 0.0) & (gx <= nx - 1)
    ix = np.clip(np.floor(gx).astype(int), 0, nx - 2)
    fx = gx - ix
    # piecewise-linear profile in y along each vertical line x
    g = (values[:, ix] * (1.0 - fx) + values[:, ix + 1] * fx).T
    cum = np.zeros(g.shape)
    cum[:, 1:] = cell * np.cumsum(0.5 * (g[:, :-1] + g[:, 1:]), axis=1)

    def antiderivative(y):
        u = np.clip((y - oy) / cell, 0.0, ny - 1.0)
        j = np.minimum(np.floor(u).astype(int), ny - 2)
        t = u - j
        rows = np.arange(len(y))
        gj, gj1 = g[rows, j], g[rows, j + 1]
        return cum[rows, j] + cell * (gj * t + 0.5 * (gj1 - gj) * t * t)

    inner = antiderivative(cy + half) - antiderivative(cy - half)
    inner = np.where(inside, inner, 0.0)
    return float(np.dot(wts, r * np.sin(theta) * inner))
