"""Acceptance suite: twelve end-to-end criteria, one test each.

Each criterion pins an analytic target, a derived exponent, or a
property suite at a stated tolerance.  The conftest hook prints one
pass/fail line per criterion at the end of the run.
"""

import math
import time

import numpy as np
import pytest

from ccstruct.ccpath import (ball_volume_mc, control_from_polygon,
                             integrate_path, loop_displacement,
                             sample_lambda_direct)
from ccstruct.classify import (CLASSIFY_OPTS, Window, dichotomy_probe,
                               doubling_ratio, fit_loglog_slope, track_slope)
from ccstruct.density import (BumpLattice, ConstantDensity,
                              PolynomialPotential, RadialAlphaDensity,
                              decaying_bump_lattice)
from ccstruct.geometry import (Pen, Stockyard, boundary_line_integral,
                               circle_curve, pack_disks, pen_mass,
                               polygon_curve, split_loop_into_seven,
                               stockyard_mass, validate_stockyard)
from ccstruct.structure import lambda_stockyard, lambda_sup, volume_estimate

CONSTANT = ConstantDensity(4.0)          # lap P = 4 (P = |z|^2)
P_Z2 = PolynomialPotential({(1, 1): 1.0})
P_Z4 = PolynomialPotential({(2, 2): 1.0})


def _random_polygon(rng, center=0j, scale=1.0):
    k = int(rng.integers(3, 7))
    ang = np.sort(rng.uniform(0, 2 * math.pi, k))
    return [center + scale * rng.uniform(0.3, 1.0)
            * complex(math.cos(a), math.sin(a)) for a in ang]


# ---------------------------------------------------------------------------

def test_c01_constant_field_proxy_and_verdict():
    """Constant density: proxy equals 4 pi delta^2 within 1%, cross-z
    spread below 1%, classifier verdict Quadratic with slope 2.00+-0.02,
    all inside 10 seconds."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    zs = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(5)]
    for d in (1.0, 10.0, 100.0):
        vals = [lambda_sup(CONSTANT, z, d).value for z in zs]
        target = 4 * math.pi * d * d
        for v in vals:
            assert abs(v - target) <= 0.01 * target
        assert (max(vals) - min(vals)) <= 0.01 * min(vals)
    rep = dichotomy_probe(CONSTANT, Window(-2, -2, 2, 2, 3),
                          np.geomspace(1, 100, 7))
    assert rep.verdict == "Quadratic"
    for s in rep.slopes.values():
        assert abs(s - 2.0) <= 0.02
    assert time.time() - t0 < 10.0


def test_c02_radial_alpha_exponents():
    """alpha = 0.5 radial family: growth exponent 2 - alpha = 1.5 at the
    origin, at most 2 - 3 alpha / 2 = 1.25 (+0.1) along the moving track
    z = delta^{3/2}, dichotomy verdict NoUGS; all inside 5 minutes."""
    t0 = time.time()
    f = RadialAlphaDensity(0.5)
    deltas = np.geomspace(100, 10000, 7)
    vals = [lambda_sup(f, 0j, d).value for d in deltas]
    slope0 = fit_loglog_slope(deltas, vals)
    assert abs(slope0 - 1.5) <= 0.1
    slope_track = track_slope(f, lambda d: complex(d ** 1.5), deltas)
    assert slope_track <= 2 - 3 * 0.5 / 2 + 0.1
    rep = dichotomy_probe(f, Window(-5, -5, 5, 5, 3),
                          np.geomspace(1, 1000, 8))
    assert rep.verdict == "NoUGS"
    assert time.time() - t0 < 300.0


def test_c03_z4_band_and_verdict():
    """P = |z|^4: the proxy normalized by (|z| + delta)^2 delta^2 sits in
    a band of ratio at most 50, and the verdict is NoUGS."""
    ratios = []
    for z in (0j, 1 + 0j, 10 + 0j, 100 + 0j):
        for d in (1.0, 10.0, 100.0):
            v = lambda_sup(P_Z4, z, d).value
            ratios.append(v / ((abs(z) + d) ** 2 * d * d))
    assert max(ratios) / min(ratios) <= 50.0
    rep = dichotomy_probe(P_Z4, Window(-10, -10, 10, 10, 3),
                          np.geomspace(0.5, 50, 8))
    assert rep.verdict == "NoUGS"


def test_c04_green_identity_suite():
    """50 randomized circular/polygonal pens across three families: the
    boundary line integral equals the enclosed mass to 1e-5 relative."""
    rng = np.random.default_rng(404)
    fields = [CONSTANT, P_Z2, RadialAlphaDensity(0.5)]
    checked = 0
    while checked < 50:
        field = fields[checked % 3]
        if rng.uniform() < 0.5:
            pen = Pen.circle(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                             rng.uniform(0.2, 2.0))
        else:
            pen = Pen.polygon(_random_polygon(
                rng, complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                rng.uniform(0.5, 1.5)))
        mass = pen_mass(field, pen)
        line = boundary_line_integral(field, pen.boundary)
        assert abs(line - mass) <= 1e-5 * max(abs(mass), 1e-9)
        checked += 1


def test_c05_packing_suite():
    """pack_disks places at least b^2/(16 a^2) pairwise-disjoint radius-a
    disks inside B(0, b); spot values 49 (b = 10a) and 4 (b = 4a)."""
    assert len(pack_disks(10.0, 1.0)) == 49
    assert len(pack_disks(4.0, 1.0)) == 4
    rng = np.random.default_rng(505)
    for _ in range(100):
        a = rng.uniform(0.01, 2.0)
        b = a * rng.uniform(1.0, 40.0)
        centers = pack_disks(b, a)
        assert len(centers) >= b * b / (16 * a * a)
        assert np.all(np.abs(centers) + a <= b + 1e-9 * b)
        if len(centers) > 1:
            diff = np.abs(centers[:, None] - centers[None, :])
            np.fill_diagonal(diff, np.inf)
            assert diff.min() >= 2 * a - 1e-9 * a


def test_c06_seven_curve_split_suite():
    """50 random piecewise-smooth loops of length 3 delta: the split
    yields seven closed loops of length <= 2 delta whose line integrals
    sum to the original within 1e-9 relative."""
    rng = np.random.default_rng(606)
    for i in range(50):
        if i % 2 == 0:
            loop = circle_curve(complex(rng.uniform(-1, 1),
                                        rng.uniform(-1, 1)),
                                rng.uniform(0.4, 1.6))
        else:
            loop = polygon_curve(_random_polygon(rng))
        delta = loop.length / 3.0
        parts = split_loop_into_seven(loop)
        assert len(parts) == 7
        for p in parts:
            assert p.closed
            assert p.length <= 2 * delta + 1e-9
        total = boundary_line_integral(P_Z2, loop)
        acc = sum(boundary_line_integral(P_Z2, p) for p in parts)
        assert abs(acc - total) <= 1e-9 * max(abs(total), 1e-12)


def _random_stockyard(rng, field_scale=1.0):
    """A validated chain of tangent circles whose first circle passes
    through the base point."""
    z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * field_scale
    n = int(rng.integers(1, 5))
    r = rng.uniform(0.1, 0.6, n) * field_scale
    ang = rng.uniform(0, 2 * math.pi)
    c = z + r[0] * complex(math.cos(ang), math.sin(ang))
    pens = [Pen.circle(c, r[0])]
    for i in range(1, n):
        ang = rng.uniform(0, 2 * math.pi)
        c = c + (r[i - 1] + r[i]) * complex(math.cos(ang), math.sin(ang))
        pens.append(Pen.circle(c, r[i]))
    fencing = sum(p.fencing for p in pens)
    budget = fencing * rng.uniform(1.0, 1.5)
    return Stockyard(pens, z, budget)


def test_c07_sandwich_soundness():
    """200 randomized valid stockyards: mass never exceeds the sup proxy
    at the same budget, and the constructive lower bound recovers at
    least 0.4 of the proxy."""
    rng = np.random.default_rng(707)
    fields = [CONSTANT, P_Z4, RadialAlphaDensity(0.5)]
    for i in range(200):
        field = fields[i % 3]
        yard = _random_stockyard(rng)
        report = validate_stockyard(yard)
        assert report.ok
        mass = stockyard_mass(field, yard)
        sup = lambda_sup(field, yard.base, yard.budget, CLASSIFY_OPTS)
        assert mass <= sup.value * (1 + 1e-9)
    for field in fields:
        for d in (1.0, 10.0):
            sup = lambda_sup(field, 0.3 - 0.2j, d)
            low = lambda_stockyard(field, 0.3 - 0.2j, d)
            assert low.value >= 0.4 * sup.value


def test_c08_direct_sampler_isoperimetry():
    """Constant density: the direct sampler finds at least 80% of the
    isoperimetric optimum delta^2/pi and never beats the proxy."""
    for z, d in ((0j, 1.0), (1 + 1j, 2.0)):
        est = sample_lambda_direct(CONSTANT, z, d, budget=10000, seed=808)
        target = d * d / math.pi
        assert 0.8 * target <= est.value <= target * (1 + 1e-9)
        assert est.value <= lambda_sup(CONSTANT, z, d).value


def test_c09_bridge_identity():
    """20 random loops on P = |z|^2 and P = |z|^4: the lifted path
    t-displacement matches the loop line integral to 1e-6."""
    rng = np.random.default_rng(909)
    for field in (P_Z2, P_Z4):
        for _ in range(10):
            vs = _random_polygon(rng)
            perim = sum(abs(w - v) for v, w in zip(vs, vs[1:] + vs[:1]))
            delta = perim * 1.25
            control = control_from_polygon(vs, delta)
            _, _, t = integrate_path(field, (vs[0].real, vs[0].imag, 0.0),
                                     control, delta)
            line = loop_displacement(field, polygon_curve(vs))
            assert abs(t - line) <= 1e-6


def test_c10_volume_sandwich():
    """Constant density: the Monte-Carlo ball volume lands inside the
    sandwich for delta in {1, 5}, and the upper bound follows the
    delta^2 Lambda scaling (ratio 16 in [8, 32] under doubling)."""
    for d in (1.0, 5.0):
        lower, upper = volume_estimate(CONSTANT, 0j, d)
        est, _band = ball_volume_mc(CONSTANT, 0j, 0.0, d, n_paths=10000,
                                    seed=1010)
        assert lower <= est <= upper
    _, up1 = volume_estimate(CONSTANT, 0j, 1.0)
    _, up2 = volume_estimate(CONSTANT, 0j, 2.0)
    assert 8.0 <= up2 / up1 <= 32.0


def test_c11_doubling():
    """Doubling ratios: exactly 4.00 +- 0.05 for the constant field, and
    never above the chain bound 49 for fields classified as UGS."""
    rows = doubling_ratio(CONSTANT, Window(-2, -2, 2, 2, 3),
                          [1.0, 2.0, 4.0, 8.0])
    for row in rows:
        assert abs(row["max_ratio"] - 4.0) <= 0.05
    lattice = decaying_bump_lattice(30)
    rows = doubling_ratio(lattice, Window(-5, -5, 5, 5, 2), [2.0, 4.0, 8.0])
    for row in rows:
        assert row["max_ratio"] <= 49.0
        assert not row["flagged"]


def test_c12_linear_regime_classifier():
    """Decaying bump lattice (masses 1/(1+|k|), radii min(1/4, mass)):
    verdict Linear on window [-20, 20]^2 with delta ladder up to 40,
    cross-checked against bracketing lattice mass sums, in under 10
    minutes."""
    t0 = time.time()
    f = decaying_bump_lattice(70)

    # oracle: summing whole-bump masses brackets the disk mass
    centers = np.asarray(f.centers)
    masses = np.asarray(f.masses)
    radii = np.asarray(f.radii)
    for z, d in ((0j, 5.0), (10 + 3j, 8.0), (-15 - 15j, 3.0)):
        dist = np.abs(centers - z)
        lower = masses[dist + radii <= d].sum()
        upper = masses[dist - radii <= d].sum()
        mu = f.disk_mass(z, d)
        assert lower - 1e-9 <= mu <= upper + 1e-9

    rep = dichotomy_probe(f, Window(-20, -20, 20, 20, 3),
                          np.geomspace(0.4, 40, 9))
    assert rep.verdict == "Linear"
    assert time.time() - t0 < 600.0
