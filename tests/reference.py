"""Reference integrals for the tests, independent of the package's kernels.

Each reference reads a field only through its pointwise ``density`` or
``potential_gradient`` (and the data that define it: a bump lattice's
bumps, a grid's lines) and integrates with scipy's ``quad``.  None calls
a ccstruct quadrature rule, disk-mass kernel or helper, so a test that
compares a kernel against them checks it against another method.

* ``disk_mass``: nested ``quad`` in polar coordinates about the disk's
  center, for densities that are smooth on the disk (constant,
  polynomial and radial fields).
* ``bump_disk_mass``: per bump, a 1-D ``quad`` over the support radius
  of the bump's density times the angle of its circle inside the disk,
  split where that angle has kinks.
* ``grid_disk_mass``: an outer ``quad`` in x, split at the grid columns
  and where the chord's ends cross a grid row, of the exact inner
  integral of the density along the chord, piecewise linear in y.
* ``twist``: ``quad`` of -2 Im((w - z) P_z) along the segment from z to w.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad

from ccstruct.density import BumpLattice

#: relative tolerance of every ``quad``; the absolute one is 0
REL_TOL = 1e-13
#: most subintervals of each ``quad``
LIMIT = 200


def _quad(f, a, b, points=()):
    """The integral of the scalar function f on [a, b], split at the
    ``points`` inside it."""
    cuts = [a, *sorted(p for p in set(points) if a < p < b), b]
    return math.fsum(quad(f, lo, hi, epsabs=0.0, epsrel=REL_TOL,
                          limit=LIMIT)[0]
                     for lo, hi in zip(cuts[:-1], cuts[1:]))


def _density_at(field, point):
    return float(field.density(np.array([point]))[0])


def disk_mass(field, center, r):
    """The mass of the disk B(center, r): an outer ``quad`` in the angle
    of an inner one along the radius."""
    c = complex(center)

    def ray(theta):
        u = cmath.exp(1j * theta)
        return _quad(lambda s: s * _density_at(field, c + s * u), 0.0, r)

    return _quad(ray, 0.0, 2.0 * math.pi)


def _arc_inside(d, t, r):
    """The angle of the circle of radius t about a point at distance d
    from a disk's center that lies inside the disk of radius r."""
    if d == 0.0:
        return 2.0 * math.pi if t <= r else 0.0
    cos = (d * d + t * t - r * r) / (2.0 * d * t)
    return 2.0 * math.acos(min(max(cos, -1.0), 1.0))


def bump_disk_mass(field: BumpLattice, center, r):
    """The mass of the disk B(center, r) on a bump lattice, bump by bump:
    each bump's density, read from a lattice of that bump alone, is
    radial, so its mass inside the disk is one integral over the support
    radius t of t rho(t) times the angle of the circle of radius t inside
    the disk.  That angle has kinks at t = |r - d| and t = r + d."""
    c = complex(center)
    total = []
    for b, m, rho in zip(field.centers, field.masses, field.radii):
        one = BumpLattice([0j], [m], [rho])
        d = abs(complex(b) - c)
        total.append(_quad(
            lambda t: t * _density_at(one, t) * _arc_inside(d, t, r),
            0.0, float(rho), points=(abs(r - d), r + d)))
    return math.fsum(total)


def _lines(origin, cell, n, periodic, lo, hi):
    """The grid lines origin + cell k strictly between lo and hi: every
    lattice line under periodic extension, the table's n otherwise."""
    if periodic:
        ks = range(math.floor((lo - origin) / cell),
                   math.ceil((hi - origin) / cell) + 1)
    else:
        ks = range(n)
    return [origin + cell * k for k in ks if lo < origin + cell * k < hi]


def grid_disk_mass(field, center, r):
    """The mass of the disk B(center, r) on a grid field.  At each x the
    density is linear in y between grid rows (zero beyond a zero-extended
    table), so its integral over the chord is the sum of each segment's
    length times the density at its midpoint.  The outer integrand is
    smooth between the columns and the x where a chord end crosses a row,
    where it is split."""
    c = complex(center)
    o, cell = field.origin, field.cell_size
    ny, nx = field.values.shape
    periodic = field.extension == "periodic"
    rows = _lines(o.imag, cell, ny, periodic, c.imag - r, c.imag + r)

    def chord(x):
        h = math.sqrt(max(r * r - (x - c.real) ** 2, 0.0))
        ends = [c.imag - h, *[y for y in rows if abs(y - c.imag) < h],
                c.imag + h]
        lo, hi = np.array(ends[:-1]), np.array(ends[1:])
        return float(np.sum((hi - lo) * field.density(
            x + 1j * (0.5 * (lo + hi)))))

    cols = _lines(o.real, cell, nx, periodic, c.real - r, c.real + r)
    crossings = [c.real + sign * math.sqrt(r * r - (y - c.imag) ** 2)
                 for y in rows for sign in (-1.0, 1.0)]
    return _quad(chord, c.real - r, c.real + r, points=cols + crossings)


def twist(field, z, w):
    """-2 Im( integral_0^1 (w - z) P_z(z + t (w - z)) dt ), with
    P_z = (P_x - i P_y) / 2."""
    z, w = complex(z), complex(w)

    def integrand(t):
        px, py = field.potential_gradient(np.array([z + t * (w - z)]))
        return ((w - z) * 0.5 * complex(px[0], -py[0])).imag

    return -2.0 * _quad(integrand, 0.0, 1.0)
