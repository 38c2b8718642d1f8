"""Curves, pens, stockyards: Green-identity oracles and the geometric
constructions (packing grid, seven-loop split)."""

import math
import time

import numpy as np
import pytest

from ccstruct.density import (ConstantDensity, PolynomialPotential,
                              RadialAlphaDensity)
from ccstruct.errors import CCStructError, InvalidStockyard
from ccstruct.geometry import (Pen, PlaneCurve, Segment, Stockyard,
                               boundary_line_integral, circle_curve,
                               pack_disks, pen_boundary_distance, pen_mass,
                               point_boundary_distance, polygon_curve,
                               split_loop_into_seven, stockyard_mass,
                               validate_stockyard)

import reference

P_Z2 = PolynomialPotential({(1, 1): 1.0})     # P = |z|^2, lap P = 4


# ---------------------------------------------------------------------------
# curves

def test_circle_curve_geometry():
    c = circle_curve(1 + 2j, 3.0)
    assert c.closed
    assert c.length == pytest.approx(6 * math.pi, rel=1e-12)
    assert c.point_at_length(0.0) == pytest.approx(4 + 2j)


def test_polygon_curve_closed():
    p = polygon_curve([0, 1, 1 + 1j])
    assert p.closed
    assert p.length == pytest.approx(2 + math.sqrt(2), rel=1e-12)


def test_curve_rejects_gaps():
    with pytest.raises(ValueError):
        PlaneCurve([Segment(0, 1), Segment(2, 3)])


def test_subcurve_splits_length():
    c = circle_curve(0, 1.0)
    half = c.subcurve(0.0, c.length / 2)
    assert half.length == pytest.approx(math.pi, rel=1e-9)
    assert half.start == pytest.approx(1 + 0j)
    assert half.end == pytest.approx(-1 + 0j, abs=1e-9)


# ---------------------------------------------------------------------------
# Green identity: clockwise line integral equals enclosed mass

def test_green_identity_circle():
    # P = |z|^2: circle of radius rho encloses mass 4 pi rho^2
    loop = circle_curve(0.5 - 0.5j, 1.5)
    val = boundary_line_integral(P_Z2, loop)
    assert val == pytest.approx(4 * math.pi * 1.5 ** 2, rel=1e-8)


def test_green_identity_counterclockwise_negates():
    loop = circle_curve(0, 1.0).reversed()
    val = boundary_line_integral(P_Z2, loop)
    assert val == pytest.approx(-4 * math.pi, rel=1e-8)


def test_green_identity_square():
    # clockwise unit square encloses mass 4 * area = 4
    loop = polygon_curve([0, 1j, 1 + 1j, 1])   # clockwise ordering
    val = boundary_line_integral(P_Z2, loop)
    assert val == pytest.approx(4.0, rel=1e-8)


@pytest.mark.parametrize("field", [ConstantDensity(4.0), P_Z2,
                                   RadialAlphaDensity(0.5)])
def test_green_identity_random_pens(field):
    rng = np.random.default_rng(7)
    for _ in range(8):
        if rng.uniform() < 0.5:
            pen = Pen.circle(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                             rng.uniform(0.2, 1.5))
        else:
            k = int(rng.integers(3, 7))
            ang = np.sort(rng.uniform(0, 2 * math.pi, k))
            ctr = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            vs = [ctr + rng.uniform(0.3, 1.2) * complex(math.cos(a),
                                                        math.sin(a))
                  for a in ang]
            pen = Pen.polygon(vs)
        mass = pen_mass(field, pen)
        line = boundary_line_integral(field, pen.boundary)
        assert line == pytest.approx(mass, rel=1e-5, abs=1e-9)


def test_pen_polygon_orientation_normalized():
    # counterclockwise input is flipped so the line integral is +mass
    ccw = Pen.polygon([0, 1, 1 + 1j, 1j])
    assert boundary_line_integral(P_Z2, ccw.boundary) == pytest.approx(
        4.0, rel=1e-8)


@pytest.mark.parametrize("make", [
    lambda: Pen.polygon([0, 1, complex(math.nan, 0.0)]),
    lambda: Pen.polygon([0, 1, complex(0.0, math.inf)]),
    lambda: Pen.circle(complex(math.nan, 0.0), 1.0),
    lambda: Pen.circle(complex(0.0, -math.inf), 1.0),
    lambda: Pen.circle(0j, math.inf),
    lambda: Pen.circle(0j, math.nan),
    lambda: Pen.polygon([0, 1e200, 1e200j]),
    lambda: Pen.polygon([0, 1e308, 1e308j]),
    lambda: Pen.circle(0j, 1e308),
], ids=["polygon-nan", "polygon-inf", "circle-nan-center",
        "circle-inf-center", "circle-inf-radius", "circle-nan-radius",
        "polygon-1e200", "polygon-1e308", "circle-1e308"])
def test_pen_rejects_non_finite_input(make):
    # a nan vertex gave fencing nan, and a nan center or an infinite
    # radius a pen that every later step misreads; finite input whose
    # area or fencing overflows gave an infinite pen
    with pytest.raises(ValueError, match="finite"):
        make()


def test_pen_mass_nonconvex_polygon():
    # L-shaped hexagon, area 3: mass = 4 * 3 for P = |z|^2
    vs = [0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]
    pen = Pen.polygon(vs)
    assert pen_mass(P_Z2, pen) == pytest.approx(12.0, rel=1e-6)
    assert boundary_line_integral(P_Z2, pen.boundary) == pytest.approx(
        12.0, rel=1e-6)


Z4 = PolynomialPotential({(2, 2): 1.0})       # P = |z|^4
#: a triangle whose first edge is radial on |z|^4, so that edge adds 0
ZERO_EDGE_TRIANGLE = [0j, 2 + 0.5j, 0.5 + 1.5j]


def test_line_integral_with_a_zero_first_edge():
    # the quadrature's floor is the curve's size, not its first piece's
    start = time.perf_counter()
    line = boundary_line_integral(Z4, polygon_curve(ZERO_EDGE_TRIANGLE))
    assert time.perf_counter() - start < 1.0
    mass = pen_mass(Z4, Pen.polygon(ZERO_EDGE_TRIANGLE))
    assert line == pytest.approx(-mass, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("field", [ConstantDensity(4.0), Z4,
                                   RadialAlphaDensity(0.5)])
def test_line_integral_along_an_edge_and_back(field):
    # omega cancels pointwise between the two pieces, so the floor is
    # taken piece by piece
    a, b = 0.3 + 0.1j, 2 + 1j
    loop = PlaneCurve([Segment(a, b), Segment(b, a)])
    size = reference.line_integral(field, loop, absolute=True)
    assert abs(boundary_line_integral(field, loop)) <= 1e-14 * size


@pytest.mark.parametrize("field", [ConstantDensity(4.0), Z4,
                                   RadialAlphaDensity(0.5)])
def test_line_integral_does_not_depend_on_the_start_vertex(field):
    # no floor depends on the order of the pieces: each start vertex gives
    # the value to a few ulps of the curve's size, sum_p int |omega_p|
    # (of a thin triangle far out the value is 1e-2 of it)
    rng = np.random.default_rng(33)
    polygons = [ZERO_EDGE_TRIANGLE]
    for _ in range(8):
        k = int(rng.integers(3, 8))
        ang = np.sort(rng.uniform(0, 2 * math.pi, k))
        ctr = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        polygons.append([ctr + rng.uniform(0.3, 1.2) * complex(math.cos(a),
                                                              math.sin(a))
                         for a in ang])
    for vs in polygons:
        first = boundary_line_integral(field, polygon_curve(vs))
        size = reference.line_integral(field, polygon_curve(vs),
                                       absolute=True)
        for j in range(1, len(vs)):
            line = boundary_line_integral(field,
                                          polygon_curve(vs[j:] + vs[:j]))
            assert abs(line - first) <= 4 * np.spacing(size), (vs, j)


def test_line_integral_far_out_raises():
    # |z|^4's gradient overflows on a circle about 1e200: an error at
    # once, with no numpy warning
    with pytest.raises(CCStructError, match="line integral"):
        boundary_line_integral(Z4, Pen.circle(1e200, 1.0).boundary)


# ---------------------------------------------------------------------------
# distances and stockyard validation

def test_point_boundary_distance_circle():
    pen = Pen.circle(0, 2.0)
    assert point_boundary_distance(3 + 0j, pen) == pytest.approx(1.0)
    assert point_boundary_distance(0.5, pen) == pytest.approx(1.5)


def test_pen_boundary_distance_cases():
    a = Pen.circle(0, 1.0)
    b = Pen.circle(3 + 0j, 1.0)
    assert pen_boundary_distance(a, b) == pytest.approx(1.0)
    c = Pen.circle(2 + 0j, 1.0)     # tangent
    assert pen_boundary_distance(a, c) == pytest.approx(0.0, abs=1e-12)
    d = Pen.circle(0, 0.25)          # nested
    assert pen_boundary_distance(a, d) == pytest.approx(0.75)


def test_validate_stockyard_accepts_tangent_chain():
    pens = [Pen.circle(1 + 0j, 1.0), Pen.circle(3 + 0j, 1.0)]
    s = Stockyard(pens, 0j, 5 * math.pi)
    report = validate_stockyard(s)
    assert report.ok and report.connected and report.base_on_boundary


def test_validate_stockyard_flags_disconnected():
    pens = [Pen.circle(1 + 0j, 1.0), Pen.circle(10 + 0j, 1.0)]
    s = Stockyard(pens, 0j, 100.0)
    report = validate_stockyard(s)
    assert not report.ok and not report.connected
    assert report.n_components == 2


def test_validate_stockyard_flags_budget():
    s = Stockyard([Pen.circle(1 + 0j, 1.0)], 0j, 1.0)
    report = validate_stockyard(s)
    assert not report.ok and not report.fencing_ok


def test_validate_stockyard_flags_base_off_boundary():
    s = Stockyard([Pen.circle(5 + 0j, 1.0)], 0j, 100.0)
    report = validate_stockyard(s)
    assert not report.base_on_boundary


def test_stockyard_mass_counts_copies():
    f = ConstantDensity(4.0)
    pen = Pen.circle(1 + 0j, 1.0)
    s = Stockyard([pen, pen, pen], 0j, 100.0)
    assert stockyard_mass(f, s) == pytest.approx(3 * 4 * math.pi, rel=1e-9)


def test_stockyard_mass_rejects_invalid():
    f = ConstantDensity(4.0)
    s = Stockyard([Pen.circle(5 + 0j, 1.0)], 0j, 100.0)
    with pytest.raises(InvalidStockyard):
        stockyard_mass(f, s)


# ---------------------------------------------------------------------------
# disk packing

def test_pack_disks_spot_values():
    assert len(pack_disks(10.0, 1.0)) == 49
    assert len(pack_disks(4.0, 1.0)) == 4


def test_pack_disks_disjoint_and_inside():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = rng.uniform(0.05, 1.0)
        b = a * rng.uniform(1.0, 25.0)
        centers = pack_disks(b, a)
        assert len(centers) >= b * b / (16 * a * a)
        # all disks inside B(0, b)
        assert np.all(np.abs(centers) + a <= b + 1e-9)
        # pairwise disjoint
        if len(centers) > 1:
            diff = np.abs(centers[:, None] - centers[None, :])
            np.fill_diagonal(diff, np.inf)
            assert diff.min() >= 2 * a - 1e-9


def test_pack_disks_degenerate_single():
    assert len(pack_disks(1.0, 0.9)) == 1


# ---------------------------------------------------------------------------
# seven-loop split

def _random_loop(rng):
    kind = rng.integers(0, 2)
    if kind == 0:
        return circle_curve(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                            rng.uniform(0.5, 1.5))
    k = int(rng.integers(3, 7))
    ang = np.sort(rng.uniform(0, 2 * math.pi, k))
    vs = [rng.uniform(0.4, 1.3) * complex(math.cos(a), math.sin(a))
          for a in ang]
    return polygon_curve(vs)


def test_seven_split_properties():
    rng = np.random.default_rng(3)
    for _ in range(12):
        loop = _random_loop(rng)
        delta = loop.length / 3.0
        parts = split_loop_into_seven(loop)
        assert len(parts) == 7
        total = boundary_line_integral(P_Z2, loop)
        acc = sum(boundary_line_integral(P_Z2, p) for p in parts)
        assert acc == pytest.approx(total, rel=1e-9, abs=1e-12)
        for p in parts:
            assert p.closed
            assert p.length <= 2 * delta + 1e-9
