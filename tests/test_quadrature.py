"""Quadrature kernels against closed-form integrals."""

import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from ccstruct import quadrature
from ccstruct.density import RadialProfileDensity
from ccstruct.errors import QuadratureFailure
from ccstruct.geometry import Pen, boundary_line_integral
from ccstruct.quadrature import (adaptive_1d, disk_integral, gl_nodes,
                                 polar_sector, triangle_integral)
from ccstruct.structure import twist


def test_gl_nodes_polynomial_exactness():
    x, w = gl_nodes(0.0, 2.0, 8)
    assert np.dot(w, x ** 3) == pytest.approx(4.0, rel=1e-13)


def test_adaptive_1d_smooth():
    val = adaptive_1d(np.sin, 0.0, math.pi)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_adaptive_1d_zero_interval():
    assert adaptive_1d(np.sin, 1.0, 1.0) == 0.0


def test_disk_integral_constant():
    val = disk_integral(lambda z: np.ones(np.shape(z)), 1 + 1j, 2.0)
    assert val == pytest.approx(4 * math.pi, rel=1e-8)


def test_disk_integral_offset_quadratic():
    # integral of |z|^2 over B(c, r) = pi r^2 (|c|^2 + r^2/2)
    c, r = 1 - 2j, 1.5
    val = disk_integral(lambda z: np.abs(z) ** 2, c, r, rel_tol=1e-9)
    expect = math.pi * r ** 2 * (abs(c) ** 2 + r ** 2 / 2)
    assert val == pytest.approx(expect, rel=1e-8)


def test_polar_sector_quarter_annulus():
    val = polar_sector(lambda z: np.ones(np.shape(z)), 0j, 1.0, 2.0,
                       0.0, math.pi / 2)
    assert val == pytest.approx(3 * math.pi / 4, rel=1e-8)


def test_polar_sector_resolves_indicator():
    # characteristic function of B(0, 1) integrated over B(0, 2)
    val = disk_integral(lambda z: (np.abs(z) <= 1.0).astype(float), 0j, 2.0,
                        rel_tol=1e-4)
    assert val == pytest.approx(math.pi, rel=1e-3)


def test_polar_sector_budget_exhaustion():
    rng_like = lambda z: np.random.default_rng(0).uniform(size=np.shape(z))
    with pytest.raises(QuadratureFailure):
        polar_sector(rng_like, 0j, 0.0, 1.0, 0.0, 2 * math.pi,
                     rel_tol=1e-12, max_patches=64)


def test_triangle_integral_linear():
    # integral of x over the unit right triangle (0,0),(1,0),(0,1) = 1/6
    val = triangle_integral(lambda z: np.real(z), 0j, 1.0 + 0j, 1j)
    assert val == pytest.approx(1.0 / 6.0, rel=1e-9)


def test_triangle_integral_orientation_independent():
    f = lambda z: np.abs(z) ** 2
    a, b, c = 0j, 2 + 0j, 1 + 2j
    assert triangle_integral(f, a, b, c) == pytest.approx(
        triangle_integral(f, c, b, a), rel=1e-9)


# ---------------------------------------------------------------------------
# callers of the order-doubling rule report non-convergence

#: unit disk indicator: P' has a kink at r = 1, so Gauss-Legendre
#: estimates across it never settle to the callers' tolerances
KINKED = RadialProfileDensity(lambda s: (s < 1).astype(float),
                              cumulative=lambda r: min(r, 1) ** 2 / 2)


@pytest.fixture
def fast_legendre(monkeypatch):
    """Swap the eigenvalue Gauss-Legendre rule (about 45 s to build at
    8192 nodes) for scipy's faster one: these tests check that running
    out of orders raises, not the last bits of the nodes."""
    monkeypatch.setattr(quadrature, "gauss_legendre", roots_legendre)


def test_twist_unconverged_raises(fast_legendre):
    with pytest.raises(QuadratureFailure):
        twist(KINKED, 0.5, 0.5 + 2j)


def test_boundary_line_integral_unconverged_raises(fast_legendre):
    with pytest.raises(QuadratureFailure):
        boundary_line_integral(KINKED, Pen.circle(0.5, 1.0).boundary)
