"""Quadrature kernels against closed-form integrals, and the callers of
the order-doubling rule raising where it does not converge.  The polar
sector rule is tested over whole disks too; the twist has a fixed rule
only, ``structure.twist_many`` (``test_structure.py``)."""

import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from ccstruct import quadrature
from ccstruct.density import RadialAlphaDensity, RadialProfileDensity
from ccstruct.errors import QuadratureFailure
from ccstruct.geometry import Pen, boundary_line_integral
from ccstruct.quadrature import (adaptive_1d, gl_nodes, polar_sector,
                                 triangle_integral)


def test_gl_nodes_polynomial_exactness():
    x, w = gl_nodes(0.0, 2.0, 8)
    assert np.dot(w, x ** 3) == pytest.approx(4.0, rel=1e-13)


def test_adaptive_1d_smooth():
    val = adaptive_1d(np.sin, 0.0, math.pi)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_adaptive_1d_zero_interval():
    assert adaptive_1d(np.sin, 1.0, 1.0) == 0.0


def _per_order_adaptive_1d(f, a, b, rel_tol=1e-9, abs_floor=1e-14,
                           max_order=2048, rows=None):
    """The order-doubling rule with one call of f per order, each estimate
    summed by the einsum of ``adaptive_1d``: the fused start must give its
    values bit for bit.  With ``rows``, each row of the batch runs the rule
    on its own."""
    if rows is not None:
        return np.array([_per_order_adaptive_1d(
            lambda x, i=i: f(x, np.array([i]))[0], a, b, rel_tol, abs_floor,
            max_order) for i in range(rows)])
    if b == a:
        return 0.0
    prev = None
    n = 16
    while n <= max_order:
        x, w = gl_nodes(a, b, n)
        val = float(np.einsum("ij,j->i", np.asarray(f(x), dtype=float)[None],
                              w)[0])
        if prev is not None:
            if abs(val - prev) <= rel_tol * max(abs(val), abs_floor):
                return val
        prev = val
        n *= 2
    raise QuadratureFailure("did not converge")


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _runge(x):
    return 1.0 / (1.0 + 400.0 * x * x)


def _counting(f):
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    return counted, calls


def test_adaptive_1d_fused_start_is_bitwise():
    rng = np.random.default_rng(7)
    cases = [(np.sin, 0.0, math.pi), (np.sin, -1.3, 2.9), (np.exp, 0.0, 1.0),
             (_runge, -1.0, 1.0)]
    cases += [(np.sin, *sorted(rng.uniform(-5, 5, 2))) for _ in range(40)]
    for f, a, b in cases:
        assert _bits(adaptive_1d(f, a, b)) == _bits(
            _per_order_adaptive_1d(f, a, b))
    # the Runge function needs 64 nodes or more: the per-order loop after
    # the fused start
    f, calls = _counting(_runge)
    adaptive_1d(f, -1.0, 1.0)
    assert calls[0] == 48 and calls[-1] >= 64


def test_adaptive_1d_fused_start_is_bitwise_on_its_callers(monkeypatch):
    """The radial annulus integrand of a scalar disk mass and
    ``boundary_line_integral`` are elementwise, so their values do not
    move with the fused start."""
    rng = np.random.default_rng(11)
    radial = RadialAlphaDensity(0.5)
    profile = RadialProfileDensity(lambda s: np.exp(-np.asarray(s) ** 2))
    disks = [(complex(*rng.uniform(-15, 15, 2)) * rng.choice([1e-3, 1.0]),
              float(rng.uniform(0.01, 12.0))) for _ in range(60)]
    ends = [(complex(*rng.uniform(-3, 3, 2)), complex(*rng.uniform(-3, 3, 2)))
            for _ in range(20)]

    def values():
        out = [field.disk_mass(c, r) for c, r in disks
               for field in (radial, profile)]
        out += [boundary_line_integral(radial, Pen.circle(z, 1.5).boundary)
                for z, _ in ends]
        return out

    fused = values()
    monkeypatch.setattr(quadrature, "adaptive_1d", _per_order_adaptive_1d)
    assert np.array_equal(_bits(fused), _bits(values()))


def test_adaptive_1d_converged_at_32_nodes_calls_f_once():
    # degree 5: the 16- and 32-node rules are both exact
    f, calls = _counting(lambda x: x ** 5 - 2.0 * x)
    assert adaptive_1d(f, 0.0, 2.0) == pytest.approx(32.0 / 3.0 - 4.0,
                                                     rel=1e-14)
    assert calls == [48]


def test_adaptive_1d_small_max_order_raises():
    f, calls = _counting(np.sin)
    with pytest.raises(QuadratureFailure):
        adaptive_1d(f, 0.0, 1.0, max_order=16)
    assert calls == [16]
    f, calls = _counting(np.sin)
    with pytest.raises(QuadratureFailure):
        adaptive_1d(f, 0.0, 1.0, max_order=8)
    assert calls == []


def test_disk_integral_constant():
    # a whole disk is the polar sector of all angles about its center
    val = polar_sector(lambda z: np.ones(np.shape(z)), 1 + 1j, 0.0, 2.0,
                       0.0, 2.0 * np.pi)
    assert val == pytest.approx(4 * math.pi, rel=1e-8)


def test_disk_integral_offset_quadratic():
    # integral of |z|^2 over B(c, r) = pi r^2 (|c|^2 + r^2/2)
    c, r = 1 - 2j, 1.5
    val = polar_sector(lambda z: np.abs(z) ** 2, c, 0.0, r, 0.0, 2.0 * np.pi,
                       rel_tol=1e-9)
    expect = math.pi * r ** 2 * (abs(c) ** 2 + r ** 2 / 2)
    assert val == pytest.approx(expect, rel=1e-8)


def test_polar_sector_quarter_annulus():
    val = polar_sector(lambda z: np.ones(np.shape(z)), 0j, 1.0, 2.0,
                       0.0, math.pi / 2)
    assert val == pytest.approx(3 * math.pi / 4, rel=1e-8)


def test_polar_sector_resolves_indicator():
    # characteristic function of B(0, 1) integrated over B(0, 2)
    val = polar_sector(lambda z: (np.abs(z) <= 1.0).astype(float), 0j, 0.0,
                       2.0, 0.0, 2.0 * np.pi, rel_tol=1e-4)
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


def test_triangle_integral_rejects_nonfinite_refinement():
    # twice the area of this triangle overflows to inf, and inf * 0 is nan:
    # raise at once instead of refining the nan to the depth limit
    def zero(z):
        return np.zeros(np.shape(z))

    with pytest.raises(QuadratureFailure, match="non-finite"):
        triangle_integral(zero, 0j, 1e200 + 0j, 1e200j)
    with pytest.raises(QuadratureFailure, match="non-finite"):
        triangle_integral(lambda z: np.full(np.shape(z), np.nan),
                          0j, 1.0 + 0j, 1j)


# ---------------------------------------------------------------------------
# callers of the order-doubling rule report non-convergence

class _Kinked(RadialProfileDensity):
    """Unit disk indicator, with m(r) in closed form: P' has a kink at
    r = 1, so Gauss-Legendre estimates across it never settle to the
    callers' tolerances."""

    def __init__(self):
        super().__init__(lambda s: (s < 1).astype(float))

    def cumulative(self, r):
        return np.minimum(np.asarray(r, dtype=float), 1.0) ** 2 / 2


KINKED = _Kinked()


@pytest.fixture
def fast_legendre(monkeypatch):
    """Swap the eigenvalue Gauss-Legendre rule (about 45 s to build at
    8192 nodes) for scipy's faster one: these tests check that running
    out of orders raises, not the last bits of the nodes."""
    monkeypatch.setattr(quadrature, "gauss_legendre", roots_legendre)


def test_boundary_line_integral_unconverged_raises(fast_legendre):
    with pytest.raises(QuadratureFailure):
        boundary_line_integral(KINKED, Pen.circle(0.5, 1.0).boundary)


def test_radial_disk_mass_across_a_jump_raises(fast_legendre):
    # disks whose rim crosses the step at |w| = 1 put the jump inside
    # their annulus integrals, which never settle: each raises, alone or
    # in a batch at a common radius, and none returns a value.  Disks
    # whose annulus misses the step keep their masses
    rng = np.random.default_rng(52)
    r = 0.6
    d = rng.uniform(0.45, 1.55, 20)
    centers = d * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, d.size))
    with pytest.raises(QuadratureFailure):
        KINKED.disk_mass(centers, np.full(d.size, r))
    for c in centers:
        with pytest.raises(QuadratureFailure):
            KINKED.disk_mass(c, r)
    assert KINKED.disk_mass(0.2, 0.5) == pytest.approx(0.25 * math.pi,
                                                       rel=1e-7)
    assert KINKED.disk_mass(0.2j, 3.0) == pytest.approx(math.pi, rel=1e-12)


def test_radial_cumulative_without_closed_form_on_steps(fast_legendre):
    # a jump on a piece edge of m(r)'s rule integrates exactly; one inside
    # a piece never settles and raises
    edge = RadialProfileDensity(lambda s: (s < 1).astype(float))
    radii = np.array([0.5, 1.0, 3.0, 1e10])
    assert np.array_equal(edge.cumulative(radii), [0.125, 0.5, 0.5, 0.5])
    inside = RadialProfileDensity(lambda s: (s < 1.5).astype(float))
    with pytest.raises(QuadratureFailure):
        inside.cumulative(3.0)
