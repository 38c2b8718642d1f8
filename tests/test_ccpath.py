"""Horizontal path integration: the ODE side of the metric, the bridge
identity to the line-integral side, and the samplers built on it."""

import math

import numpy as np
import pytest

from ccstruct import ccpath
from ccstruct.ccpath import (ControlSignal, _random_controls, ball_volume_mc,
                             control_from_polygon, integrate_endpoints,
                             integrate_path, loop_displacement,
                             sample_lambda_direct)
from ccstruct.density import (ConstantDensity, PolynomialPotential,
                              RadialAlphaDensity, ZeroDensity)
from ccstruct.errors import QuadratureFailure
from ccstruct.geometry import circle_curve, polygon_curve
from ccstruct.structure import lambda_sup, twist_many

import reference

P_Z2 = PolynomialPotential({(1, 1): 1.0})
P_Z4 = PolynomialPotential({(2, 2): 1.0})
RADIAL = RadialAlphaDensity(0.5)


def _controls(seed, n_paths, n_intervals=8):
    """``n_paths`` random controls, drawn as ``ball_volume_mc`` draws its
    paths."""
    a, b, bps = _random_controls(np.random.default_rng(seed), n_paths,
                                 n_intervals)
    return [ControlSignal(tuple(bps), tuple(zip(ar, br)))
            for ar, br in zip(a, b)]


# ---------------------------------------------------------------------------
# control signals

def test_control_validation():
    with pytest.raises(ValueError):
        ControlSignal((0.0, 1.0), ())                       # no values
    with pytest.raises(ValueError):
        ControlSignal((0.0, 0.5), ((0.1, 0.1),))            # not spanning
    with pytest.raises(ValueError):
        ControlSignal((0.0, 1.0), ((1.0, 1.0),))            # speed > 1
    with pytest.raises(ValueError):
        ControlSignal((0.0, 1.0), ((math.nan, 0.0),))       # NaN value
    with pytest.raises(ValueError):
        ControlSignal((0.0, math.nan, 1.0), ((0.1, 0.1),) * 2)  # NaN point
    with pytest.raises(ValueError):
        ControlSignal((0.0, 1.5, 1.0), ((0.1, 0.1),) * 2)   # not increasing


def test_random_control_respects_constraint():
    (c,) = _controls(0, 1, 8)
    assert c.n_intervals == 8
    assert all(a * a + b * b <= 1 + 1e-12 for a, b in c.values)


# ---------------------------------------------------------------------------
# integration

def test_zero_control_stays_put():
    c = ControlSignal((0.0, 1.0), ((0.0, 0.0),))
    end = integrate_path(P_Z2, (1.0, 2.0, 3.0), c, 5.0)
    assert end == pytest.approx((1.0, 2.0, 3.0))


def test_straight_control_planar_part():
    c = ControlSignal((0.0, 1.0), ((0.5, 0.0),))
    x, y, _ = integrate_path(P_Z2, (0.0, 1.0, 0.0), c, 2.0)
    assert x == pytest.approx(1.0, abs=1e-12)   # x advances by 0.5 * delta
    assert y == pytest.approx(1.0, abs=1e-12)   # y unchanged


def test_t_translation_invariance():
    (c,) = _controls(5, 1, 4)
    x0, y0, t0 = integrate_path(P_Z2, (0.5, -0.5, 0.0), c, 1.5)
    x7, y7, t7 = integrate_path(P_Z2, (0.5, -0.5, 7.0), c, 1.5)
    assert (x7, y7) == pytest.approx((x0, y0))
    assert t7 == pytest.approx(t0 + 7.0)


def test_square_loop_displacement():
    # clockwise square of side a under P = |z|^2: lifted displacement
    # equals mass 4 a^2
    a = 0.8
    vs = [0, a * 1j, a + a * 1j, a + 0j]    # clockwise
    perim = 4 * a
    control = control_from_polygon(vs, perim)
    _, _, t = integrate_path(P_Z2, (0.0, 0.0, 0.0), control, perim)
    assert t == pytest.approx(4 * a * a, abs=1e-8)


# ---------------------------------------------------------------------------
# bridge identity

def test_loop_displacement_is_line_integral():
    loop = circle_curve(0.5 + 0.5j, 1.0)
    assert loop_displacement(P_Z2, loop) == pytest.approx(4 * math.pi,
                                                          rel=1e-8)


def test_loop_reversal_antisymmetry():
    loop = circle_curve(1 + 0j, 0.7)
    assert loop_displacement(P_Z2, loop.reversed()) == pytest.approx(
        -loop_displacement(P_Z2, loop), rel=1e-9)


@pytest.mark.parametrize("field", [P_Z2, P_Z4, RADIAL])
def test_bridge_identity_random_loops(field):
    rng = np.random.default_rng(17)
    for _ in range(10):
        k = int(rng.integers(3, 7))
        ang = np.sort(rng.uniform(0, 2 * math.pi, k))
        vs = [rng.uniform(0.3, 1.0) * complex(math.cos(t), math.sin(t))
              for t in ang]
        perim = sum(abs(w - v) for v, w in zip(vs, vs[1:] + vs[:1]))
        control = control_from_polygon(vs, perim * 1.5)
        _, _, t = integrate_path(field, (vs[0].real, vs[0].imag, 0.0),
                                 control, perim * 1.5)
        line = loop_displacement(field, polygon_curve(vs))
        assert abs(t - line) <= 1e-6


@pytest.mark.parametrize("field", [P_Z4, RADIAL])
def test_batch_matches_single_paths_bitwise(field):
    controls = _controls(0, 50)
    a = np.array([[v[0] for v in c.values] for c in controls])
    b = np.array([[v[1] for v in c.values] for c in controls])
    start = (0.3, -0.7, 1.0)
    ends = integrate_endpoints(field, start, a, b, controls[0].breakpoints,
                               2.0)
    for c, end in zip(controls, ends):
        assert tuple(end) == integrate_path(field, start, c, 2.0)


def _vertices(start, a, b, bps, delta):
    """The planar vertices v_0 ... v_n of each path, as complex rows."""
    v = np.empty((a.shape[0], a.shape[1] + 1), dtype=complex)
    v[:, 0] = complex(start[0], start[1])
    for j in range(a.shape[1]):
        v[:, j + 1] = v[:, j] + (bps[j + 1] - bps[j]) * delta * (
            a[:, j] - 1j * b[:, j])
    return v


@pytest.mark.parametrize("field, delta, tol", [
    (P_Z4, 2.0, 1e-13), (RADIAL, 0.5, 1e-13), (RADIAL, 2.0, 1e-13),
    (RADIAL, 20.0, 1e-10)])
def test_lift_matches_reference_line_integrals(field, delta, tol):
    # t gains the line integral of P_y dx - P_x dy along each edge: the
    # reference twist summed per segment.  Twelve nodes are exact on P_Z4
    a, b, bps = _random_controls(np.random.default_rng(31), 6, 8)
    start = (1.0, 1.0, 0.5)
    ends = integrate_endpoints(field, start, a, b, bps, delta)
    for end, v in zip(ends, _vertices(start, a, b, bps, delta)):
        assert complex(end[0], end[1]) == pytest.approx(v[-1], abs=1e-12)
        want = start[2] + math.fsum(reference.twist(field, p, q)
                                    for p, q in zip(v[:-1], v[1:]))
        assert abs(end[2] - want) <= tol


def test_lift_minus_twist_is_the_fan_mass():
    # on a constant density c the lift, sheared by the twist from z to the
    # endpoint, is c times the clockwise signed area of the fan
    # (z, v_i, v_{i+1}): the closed polygon's enclosed mass
    c = 2.0
    a, b, bps = _random_controls(np.random.default_rng(41), 500, 8)
    start, delta = (0.3, -0.2, 0.75), 2.0
    ends = integrate_endpoints(ConstantDensity(c), start, a, b, bps, delta)
    z = complex(start[0], start[1])
    sheared = ends[:, 2] - start[2] - twist_many(
        ConstantDensity(c), z, ends[:, 0] + 1j * ends[:, 1])
    v = _vertices(start, a, b, bps, delta) - z
    area = -0.5 * (np.conj(v[:, :-1]) * v[:, 1:]).imag.sum(axis=1)
    assert np.abs(sheared - c * area).max() <= 1e-12


class _CountingField:
    """Forwards ``potential_gradient`` to a field and counts the points it
    is asked for."""

    def __init__(self, field):
        self.field = field
        self.points = 0

    def potential_gradient(self, z):
        self.points += np.size(z)
        return self.field.potential_gradient(z)


def test_lift_takes_twelve_gradient_points_per_interval():
    rng = np.random.default_rng(23)
    a = rng.uniform(-0.7, 0.7, (40, 5))
    b = rng.uniform(-0.7, 0.7, (40, 5))
    bps = (0.0, 0.1, 0.35, 0.5, 0.8, 1.0)
    counting = _CountingField(RADIAL)
    integrate_endpoints(counting, (0.4, -1.1, 0.25), a, b, bps, 1.7)
    assert counting.points == 40 * 5 * 12


def test_integrate_endpoints_rejects_bad_input():
    a = b = np.zeros((1, 2))
    bps = (0.0, 0.5, 1.0)
    for delta in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            integrate_endpoints(P_Z2, (0, 0, 0), a, b, bps, delta)
    bad_inputs = [
        ((math.nan, 0, 0), a, b, bps),                  # NaN start
        ((0, 0, math.inf), a, b, bps),                  # infinite t
        ((0, 0), a, b, bps),                            # no t
        ((0, 0, 0), np.full((1, 2), 5.0), b, bps),      # outside the disk
        ((0, 0, 0), np.full((1, 2), math.nan), b, bps),  # NaN control
        ((0, 0, 0), a, b, (0.0, 1.5, 1.0)),             # not increasing
        ((0, 0, 0), a, b, (0.0, 0.5, 3.0)),             # not ending at 1
        ((0, 0, 0), a, b, (0.5, 0.75, 1.0)),            # not starting at 0
        ((0, 0, 0), a, b, (0.0, 1.0)),                  # one too few
        ((0, 0, 0), a, b, (0.0, math.nan, 1.0)),        # NaN breakpoint
        ((0, 0, 0), np.zeros((3, 2)), b, bps),          # unequal shapes
        ((0, 0, 0), np.zeros(2), np.zeros(2), bps),     # 1-D controls
        ((0, 0, 0), np.zeros((1, 0)), np.zeros((1, 0)), (0.0,)),  # empty
    ]
    for start, a_bad, b_bad, bps_bad in bad_inputs:
        with pytest.raises(ValueError):
            integrate_endpoints(P_Z2, start, a_bad, b_bad, bps_bad, 1.0)


# ---------------------------------------------------------------------------
# direct sampler

def test_direct_sampler_isoperimetric_optimum():
    # constant density: the best loop of length delta is a single circle
    # of radius delta/(2 pi), displacement delta^2 / pi
    f = ConstantDensity(4.0)
    for d in (1.0, 3.0):
        est = sample_lambda_direct(f, 0.5 - 0.5j, d, seed=2)
        target = d * d / math.pi
        assert 0.8 * target <= est.value <= target * (1 + 1e-9)
        assert est.value <= lambda_sup(f, 0.5 - 0.5j, d).value


def test_direct_sampler_zero_density():
    est = sample_lambda_direct(ZeroDensity(), 0j, 1.0, seed=0)
    assert est.value == 0.0


def test_direct_sampler_reproducible():
    f = PolynomialPotential({(1, 1): 1.0, (2, 2): 0.5})
    a = sample_lambda_direct(f, 1 + 0j, 2.0, seed=42)
    b = sample_lambda_direct(f, 1 + 0j, 2.0, seed=42)
    assert a.value == b.value


def test_direct_sampler_counts_dropped_polygons(monkeypatch):
    # a polygon whose mass raises is skipped, and meta counts it
    real, calls = ccpath.pen_mass, []

    def flaky(field, pen):
        calls.append(pen)
        if len(calls) % 3 == 0:
            raise QuadratureFailure("injected")
        return real(field, pen)

    monkeypatch.setattr(ccpath, "pen_mass", flaky)
    est = sample_lambda_direct(ConstantDensity(4.0), 0.5j, 1.0, budget=100,
                               seed=3)
    assert len(calls) == 25
    assert est.meta["dropped"] == 8


def test_direct_sampler_drops_nothing_on_a_constant_field():
    est = sample_lambda_direct(ConstantDensity(2.0), 0.3 + 0.2j, 1.0,
                               budget=400, seed=1)
    assert est.meta["dropped"] == 0


def test_direct_below_sup_across_fields():
    for f in (ConstantDensity(4.0), P_Z4):
        for seed in (0, 1):
            est = sample_lambda_direct(f, 1 + 1j, 2.0, seed=seed)
            assert est.value <= lambda_sup(f, 1 + 1j, 2.0).value + 1e-9


# ---------------------------------------------------------------------------
# Monte-Carlo ball volume

def test_ball_volume_zero_density():
    est, _ = ball_volume_mc(ZeroDensity(), 0j, 0.0, 1.0, n_paths=1000,
                            seed=0)
    assert est == pytest.approx(0.0, abs=1e-250)


def test_ball_volume_nondecreasing_in_delta():
    f = ConstantDensity(4.0)
    e1, _ = ball_volume_mc(f, 0j, 0.0, 1.0, n_paths=2000, seed=3)
    e2, _ = ball_volume_mc(f, 0j, 0.0, 2.0, n_paths=2000, seed=3)
    assert e2 >= e1


def test_ball_volume_requires_enough_paths():
    with pytest.raises(ValueError):
        ball_volume_mc(ConstantDensity(1.0), 0j, 0.0, 1.0, n_paths=10)


@pytest.mark.parametrize("z, t", [(0j, math.nan), (0j, math.inf),
                                  (complex(math.nan, 0), 0.0),
                                  (complex(0, math.inf), 0.0)])
def test_ball_volume_rejects_a_base_point_that_is_not_finite(z, t):
    with pytest.raises(ValueError):
        ball_volume_mc(ConstantDensity(1.0), z, t, 1.0, n_paths=1000)
