"""Density fields: closed-form disk masses against quadrature oracles."""

import itertools
import math
import re
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ccstruct
from ccstruct import density, quadrature
from ccstruct.density import (BumpLattice, ConstantDensity, GridDensity,
                              PolynomialPotential, RadialAlphaDensity,
                              RadialProfileDensity, ZeroDensity,
                              decaying_bump_lattice, disk_mass)
from ccstruct.errors import (CCStructError, PotentialUnavailable,
                             QuadratureFailure)
from ccstruct.geometry import Pen, pen_mass

import reference


def test_public_names_resolve():
    missing = [n for n in ccstruct.__all__ if not hasattr(ccstruct, n)]
    assert missing == []


# ---------------------------------------------------------------------------
# constant / zero

def test_constant_disk_mass_exact():
    f = ConstantDensity(4.0)
    assert f.disk_mass(1 + 2j, 3.0) == pytest.approx(36 * math.pi, rel=1e-14)


def test_constant_quadrature_agrees():
    f = ConstantDensity(2.5)
    exact = f.disk_mass(0.5 - 1j, 1.7)
    quad = reference.disk_mass(f, 0.5 - 1j, 1.7)
    assert quad == pytest.approx(exact, rel=1e-12)


def test_constant_rejects_nonpositive():
    with pytest.raises(ValueError):
        ConstantDensity(0.0)


def test_zero_density_everything_vanishes():
    f = ZeroDensity()
    assert f.disk_mass(3 + 4j, 10.0) == 0.0
    assert np.all(f.density(np.array([0, 1j, 5.0])) == 0.0)


def _one_field_per_family():
    values = np.random.default_rng(8).uniform(0.0, 2.0, (6, 7))
    return (ConstantDensity(2.0), ZeroDensity(),
            PolynomialPotential({(2, 2): 1.0}), RadialAlphaDensity(0.5),
            decaying_bump_lattice(3),
            GridDensity(-2 - 2j, 1.0, np.ones((5, 5))),
            GridDensity(-2 - 1.5j, 0.5, values, extension="periodic"))


def _field_id(f):
    periodic = getattr(f, "extension", None) == "periodic"
    return "grid_periodic" if periodic else f.family


def test_disk_mass_rejects_bad_radius():
    for f in _one_field_per_family():
        for r in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                f.disk_mass(0.5j, r)
            with pytest.raises(ValueError):
                _masses_at(f, np.array([0j, 0.5j]), r)
            with pytest.raises(ValueError):
                f.disk_mass_many(np.array([0j, 0.5j]), r)
        for c in (complex(math.nan, 0.0), complex(0.0, math.inf)):
            with pytest.raises(ValueError):
                f.disk_mass(c, 1.0)
            with pytest.raises(ValueError):
                _masses_at(f, np.array([c, 0.5j]), 1.0)
            with pytest.raises(ValueError):
                f.disk_mass_many(np.array([c, 0.5j]), 1.0)


def _masses_at(f, centers, r):
    """The disk masses of ``centers`` at the common radius ``r``, as the
    coarse search and classify's mass table ask for them."""
    return f.disk_mass(centers, np.full(np.shape(centers), r))


def test_disk_mass_many_keeps_the_shape_of_its_centers():
    # many centers at a common radius: the masses in the centers' shape;
    # disk_mass gives a float for a 0-d center, disk_mass_many an array
    centers = np.array([[0j, 0.5, 1 - 1j], [-2j, 0.25 + 0.5j, 3.0]])
    for f in _one_field_per_family():
        assert type(_masses_at(f, np.asarray(0.5j), 1.5)) is float
        for cs in (np.array([], dtype=complex), centers):
            many = _masses_at(f, cs, 1.5)
            assert many.shape == cs.shape and many.dtype == float
        for cs in (np.asarray(0.5j), np.array([], dtype=complex), centers):
            many = f.disk_mass_many(cs, 1.5)
            assert many.shape == cs.shape and many.dtype == float
            assert np.array_equal(_bits(many), _bits(_masses_at(f, cs, 1.5)))


def test_density_rejects_non_finite_points():
    # each family gave its own answer here: c, 0.0, nan or a ValueError
    for f in _one_field_per_family():
        for z in (complex(math.nan, 0.0), complex(0.0, math.inf),
                  np.array([0.5 + 0.5j, complex(-math.inf, 1.0)])):
            with pytest.raises(ValueError, match="finite"):
                f.density(z)
        vals = f.density(np.array([[0j, 0.5 + 0.5j]]))
        assert vals.shape == (1, 2) and vals.dtype == float
        assert np.all(np.isfinite(vals))


def test_disk_mass_is_the_array_kernel_on_one_center():
    # a lone disk is a batch of one of the array kernel, so lone calls and
    # a call at a common radius agree to the last bit
    rng = np.random.default_rng(11)
    centers = rng.uniform(-4.0, 4.0, 60) + 1j * rng.uniform(-4.0, 4.0, 60)
    values = rng.uniform(0.0, 2.0, (7, 9))
    fields = (ConstantDensity(2.5), ZeroDensity(),
              PolynomialPotential({(1, 1): 2.0, (2, 2): 0.5, (2, 1): 0.3 + 0.1j,
                                   (1, 2): 0.3 - 0.1j}),
              GridDensity(-2 - 1.5j, 0.5, values),
              GridDensity(-2 - 1.5j, 0.5, values, extension="periodic"))
    for f in fields:
        # at r = 2.5 a grid block holds a few centers, at r = 9 one
        # periodic center's pieces run over several blocks
        for r in (0.05, 0.7, 2.5, 9.0):
            scalar = [f.disk_mass(c, r) for c in centers]
            one = [f.disk_mass([c], [r])[0] for c in centers]
            assert np.array_equal(_bits(scalar), _bits(one))
            assert np.array_equal(_bits(scalar),
                                  _bits(_masses_at(f, centers, r)))


_GRID_VALUES = np.random.default_rng(11).uniform(0.0, 2.0, (7, 9))
_COMMON_RADIUS_FIELDS = {
    "constant": ConstantDensity(2.5),
    "zero": ZeroDensity(),
    "polynomial": PolynomialPotential({(1, 1): 2.0, (2, 2): 0.5,
                                       (2, 1): 0.3 + 0.1j,
                                       (1, 2): 0.3 - 0.1j}),
    "bump_lattice_3": decaying_bump_lattice(3),
    "bump_lattice_12": decaying_bump_lattice(12),
    "bump_lattice_35": decaying_bump_lattice(35),
    "grid_zero": GridDensity(-2 - 1.5j, 0.5, _GRID_VALUES),
    "grid_periodic": GridDensity(-2 - 1.5j, 0.5, _GRID_VALUES,
                                 extension="periodic"),
}


@pytest.mark.parametrize("name", list(_COMMON_RADIUS_FIELDS))
def test_disk_mass_many_is_disk_mass_at_a_common_radius(name):
    # the coarse search's masses, many centers at a common radius, are the
    # lone masses bit for bit, duplicates included; a bump lattice's
    # centers take whole-lattice rows at the large radii and the cell
    # list's pairs at the small ones
    f = _COMMON_RADIUS_FIELDS[name]
    rng = np.random.default_rng(31)
    centers = np.concatenate([
        rng.uniform(-4.0, 4.0, 60) + 1j * rng.uniform(-4.0, 4.0, 60),
        [0j, 0j, 1 + 1j, 80 + 80j]])
    paths = set()
    for r in (0.05, 0.7, 2.5, 9.0, 30.0):
        if isinstance(f, BumpLattice):
            paths.update(f._takes_every_bump(centers, f._reach(r)).tolist())
        lone = _bits([f.disk_mass(c, r) for c in centers])
        assert np.array_equal(_bits(_masses_at(f, centers, r)), lone)
        assert np.array_equal(_bits(f.disk_mass_many(centers, r)), lone)
    assert paths == ({False, True} if isinstance(f, BumpLattice) else set())


def _pair_cases(f):
    """(centers, radii) pairs for ``f``'s family: the radial cases hold
    near-origin centers, d < r and d >= r; the bump cases mix wide and
    narrow reaches and hold duplicates, a query on a bump center and far
    queries."""
    rng = np.random.default_rng(21)
    centers = rng.uniform(-4.0, 4.0, 40) + 1j * rng.uniform(-4.0, 4.0, 40)
    radii = 10.0 ** rng.uniform(-2.0, 1.2, 40)
    if isinstance(f, RadialProfileDensity):
        centers = np.append(centers, [0j, 1e-13, 5e-13j, 2.0, 2.0, 1 + 1j])
        radii = np.append(radii, [3.0, 0.5, 20.0, 1.0, 2.0 + 1e-9, 1e-3])
    if isinstance(f, BumpLattice):
        centers = np.append(centers, [2 + 1j, 2 + 1j, 0j, 50 + 50j,
                                      -40 + 3j, 1.5 + 0.5j])
        radii = np.append(radii, [0.3, 0.3, 30.0, 1.0, 45.0, 0.01])
    return centers, radii


@pytest.mark.parametrize("f", _one_field_per_family(), ids=_field_id)
def test_disk_mass_pairs_repeat_lone_calls_bitwise(f):
    # an array call of disk_mass gives each (center, radius) the bits of
    # its lone call, whatever else is in the batch: both orders, and a
    # 2-D batch in its shape
    centers, radii = _pair_cases(f)
    if isinstance(f, GridDensity):
        # the grid kernel groups a batch's disks by their line count
        assert len(np.unique(f._line_count(radii, min(f.values.shape)))) >= 3
    lone = [f.disk_mass(c, r) for c, r in zip(centers, radii)]
    assert np.array_equal(_bits(f.disk_mass(centers, radii)), _bits(lone))
    assert np.array_equal(_bits(f.disk_mass(centers[::-1], radii[::-1])),
                          _bits(lone[::-1]))
    two_d = f.disk_mass(centers[:12].reshape(3, 4), radii[:12].reshape(3, 4))
    assert two_d.shape == (3, 4)
    assert np.array_equal(_bits(two_d).ravel(), _bits(lone[:12]))
    assert f.disk_mass(centers[:0], radii[:0]).shape == (0,)


def test_radial_disk_mass_pairs_keep_the_lone_adaptive_rule():
    # each radial mass is 2 pi m(r - d) for the covered disk plus a lone
    # adaptive_1d of the annulus integrand, as the scalar path computed it
    f = RadialAlphaDensity(0.5)
    centers, radii = _pair_cases(f)
    got = f.disk_mass(centers, radii)
    for c, r, g in zip(centers, radii, got):
        d = float(np.abs(c))
        if d < 1e-8 * max(1.0, r):
            want = 2.0 * math.pi * f.cumulative(r)
        else:
            want = 0.0
            if d < r:
                want += 2.0 * math.pi * f.cumulative(r - d)
            factors = f._annulus_integrand(d, float(r))
            want += quadrature.adaptive_1d(
                lambda x: np.multiply(*factors(x)), 0.0, 0.5 * math.pi,
                rel_tol=density._ANNULUS_REL_TOL)
        assert _bits(g) == _bits(want), (c, r)


def test_disk_mass_that_overflows_raises():
    # a huge disk's mass overflows to inf: a lone or batch disk mass, and a
    # circle pen's mass, raise CCStructError instead of returning it
    for f, r in ((ConstantDensity(2.0), 1e200),
                 (PolynomialPotential({(2, 2): 1.0}), 1e100)):
        with pytest.raises(CCStructError, match=r"disk mass of \w+ field "
                                                r"is inf at center 0j"):
            f.disk_mass(0, r)
        with pytest.raises(CCStructError, match=re.escape(
                f"is inf at center 1j, radius {r!r}")):
            f.disk_mass(np.array([0j, 1j]), np.array([1.0, r]))
        with pytest.raises(CCStructError, match="is inf"):
            pen_mass(f, Pen.circle(0, r))
        assert math.isfinite(f.disk_mass(0, 1e10))


def test_disk_mass_pairs_reject_bad_input():
    for f in _one_field_per_family():
        with pytest.raises(ValueError, match="pair up"):
            f.disk_mass(np.array([0j, 1j]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="pair up"):
            f.disk_mass(np.array([0j, 1j]), 1.0)
        for r in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="radius"):
                f.disk_mass(np.array([0j, 1j]), np.array([1.0, r]))
        with pytest.raises(ValueError, match="center"):
            f.disk_mass(np.array([0j, complex(math.nan, 0.0)]),
                        np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# polynomial potentials

def test_poly_z4_density():
    # P = |z|^4: lap P = 16 |z|^2
    f = PolynomialPotential({(2, 2): 1.0})
    zs = np.array([0.0, 1.0, 1 + 1j, 3j])
    assert f.density(zs) == pytest.approx(16.0 * np.abs(zs) ** 2, rel=1e-12)


def test_poly_z4_disk_mass_closed_form():
    # mu(c, r) = 16 pi (|c|^2 r^2 + r^4 / 2)
    f = PolynomialPotential({(2, 2): 1.0})
    for c, r in [(0j, 1.0), (2 + 1j, 0.5), (3j, 2.0)]:
        expect = 16 * math.pi * (abs(c) ** 2 * r ** 2 + r ** 4 / 2)
        assert f.disk_mass(c, r) == pytest.approx(expect, rel=1e-12)


def test_poly_disk_mass_vs_quadrature():
    f = PolynomialPotential({(1, 1): 2.0, (2, 2): 0.5, (2, 1): 0.3 + 0.1j,
                             (1, 2): 0.3 - 0.1j})
    for c, r in [(0.3 + 0.2j, 0.8), (1 - 1j, 1.5)]:
        exact = f.disk_mass(c, r)
        quad = reference.disk_mass(f, c, r)
        assert quad == pytest.approx(exact, rel=1e-12)


def test_poly_gradient_finite_difference():
    f = PolynomialPotential({(1, 1): 1.0, (2, 2): 0.25})
    z = 0.7 - 0.3j
    h = 1e-6

    def P(z):
        zz = complex(z)
        return (abs(zz) ** 2 + 0.25 * abs(zz) ** 4).real

    px, py = f.potential_gradient(z)
    assert px == pytest.approx((P(z + h) - P(z - h)) / (2 * h), rel=1e-6)
    assert py == pytest.approx((P(z + 1j * h) - P(z - 1j * h)) / (2 * h),
                               rel=1e-6)


def test_poly_rejects_non_hermitian():
    with pytest.raises(ValueError):
        PolynomialPotential({(2, 1): 1.0})   # missing conjugate partner


def test_poly_rejects_harmonic():
    with pytest.raises(ValueError):
        PolynomialPotential({(2, 0): 1.0, (0, 2): 1.0})   # lap P = 0


def test_poly_rejects_negative_density():
    with pytest.raises(ValueError):
        PolynomialPotential({(1, 1): -1.0})


@given(st.complex_numbers(max_magnitude=3, allow_nan=False,
                          allow_infinity=False),
       st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_poly_many_matches_scalar(c, r):
    f = PolynomialPotential({(1, 1): 1.0, (2, 2): 1.0})
    assert _masses_at(f, np.array([c]), r)[0] == f.disk_mass(c, r)


# ---------------------------------------------------------------------------
# radial profiles

def test_radial_alpha_cumulative_closed_form():
    f = RadialAlphaDensity(0.5)
    # m(r) = int_0^r s (1+s^2)^(-1/4) ds, independent numeric oracle
    from scipy.integrate import quad
    for r in (0.5, 2.0, 30.0):
        oracle, _ = quad(lambda s: s * (1 + s * s) ** -0.25, 0, r)
        assert f.cumulative(r) == pytest.approx(oracle, rel=1e-9)


def test_radial_alpha_rejects_bad_alpha():
    for alpha in (0.0, 2.0 / 3.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            RadialAlphaDensity(alpha)


def test_radial_disk_mass_vs_quadrature():
    f = RadialAlphaDensity(0.4)
    for c, r in [(0j, 1.0), (2 + 0j, 0.7), (1 + 3j, 4.0), (50 + 0j, 2.0)]:
        exact = f.disk_mass(c, r)
        quad = reference.disk_mass(f, c, r)
        assert quad == pytest.approx(exact, rel=1e-7)


def test_radial_disk_mass_just_off_the_origin_is_the_centered_one():
    # a center within 1e-8 max(1, r) of the origin takes the centered mass,
    # which its own differs from by O((d/r)^2); beyond a 1e-12 cutoff the
    # annulus of this disk was too thin to converge, and it raised
    f = RadialAlphaDensity(0.5)
    assert f.disk_mass(3e-11, 20.0) == 371.17025762671403
    assert f.disk_mass(3e-11, 20.0) == f.disk_mass(0, 20.0)
    assert f.disk_mass(1e-10, 20.0) == f.disk_mass(0, 20.0)


def test_radial_many_matches_scalar():
    f = RadialAlphaDensity(0.5)
    centers = np.array([0j, 0.5, 1 + 1j, 10 - 2j, 300 + 0j])
    for many in (_masses_at(f, centers, 1.3), f.disk_mass_many(centers, 1.3)):
        for c, v in zip(centers, many):
            assert _bits(v) == _bits(f.disk_mass(c, 1.3))


def test_potential_from_radial_reconstruction():
    # for a known profile the gradient identity P'(r) = m(r)/r must hold
    f = RadialProfileDensity(lambda s: np.exp(-np.asarray(s, float) ** 2))
    for r in (0.3, 1.0, 2.5):
        assert f.dP(r) * r == pytest.approx(f.cumulative(r), rel=1e-9)


def test_radial_cumulative_without_closed_form(monkeypatch):
    # m(r) of exp(-s^2) on the pieces [0, 1], [1, 2], [2, 4], ... with
    # numpy alone, also where the profile underflows on most of [0, r]
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "numpy.ma", None)
    f = RadialProfileDensity(lambda s: np.exp(-s * s))
    radii = np.array([0.0, 1e-8, 0.3, 2.5, 100.0, 1e4, 1e100])
    want = -np.expm1(-radii * radii) / 2.0
    got = f.cumulative(radii)
    assert got.shape == radii.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.shape(f.cumulative(2.5)) == ()
    assert np.shape(f.cumulative(np.array(2.5))) == ()
    assert f.cumulative(2.5) == pytest.approx(want[3], rel=1e-12)
    square = radii[1:].reshape(2, 3)
    assert np.array_equal(f.cumulative(square), got[1:].reshape(2, 3))
    assert f.cumulative(np.empty((0, 2))).shape == (0, 2)


def test_radial_gradient_finite_difference():
    f = RadialAlphaDensity(0.5)
    z = 1.2 - 0.7j
    h = 1e-6
    # P(r) = int_0^r P'(s) ds with P(0) = 0
    from scipy.integrate import quad

    def P(r):
        return quad(f.dP, 0.0, r, epsabs=1e-13, epsrel=1e-12, limit=200)[0]

    px, py = f.potential_gradient(z)
    num_px = (P(abs(z + h)) - P(abs(z - h))) / (2 * h)
    num_py = (P(abs(z + 1j * h)) - P(abs(z - 1j * h))) / (2 * h)
    assert px == pytest.approx(num_px, rel=1e-5)
    assert py == pytest.approx(num_py, rel=1e-5)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _alpha_m(alpha, r):
    """m(r) of RadialAlphaDensity(alpha) for a Python float r, in Python's
    float arithmetic: the reference of its array closed form."""
    return ((1.0 + r * r) ** (1.0 - alpha / 2.0) - 1.0) / (2.0 - alpha)


def _log_uniform_radii(seed, shape):
    return 10.0 ** np.random.default_rng(seed).uniform(-12.0, 3.0, shape)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.65])
def test_radial_alpha_dP_bitwise_per_radius(alpha):
    # the array closed form must give the scalar cumulative's bits, also at
    # the edges of its power: a base 1 + r^2 that rounds to 1, and an r^2
    # that overflows to inf; the radii passed in are left as they were
    f = RadialAlphaDensity(alpha)
    radii = _log_uniform_radii(7, (40, 50))
    rng = np.random.default_rng(8)
    tiny = np.append(10.0 ** rng.uniform(-300.0, -8.0, 200), [1e-8, 5e-324])
    root_max = math.sqrt(np.finfo(float).max)
    huge = np.append(10.0 ** rng.uniform(155.0, 308.0, 200),
                     [1e155, root_max, np.nextafter(root_max, math.inf),
                      np.finfo(float).max])
    assert np.all(1.0 + tiny * tiny == 1.0)
    with np.errstate(over="ignore"):
        assert np.isinf(huge * huge).sum() == huge.size - 1
    inputs = [float(radii[0, 0]),            # what P's quad passes
              np.array(radii[0, 1]),         # 0-d array
              np.empty(0),
              radii,                         # 2-D
              radii[::3, 1::2],              # non-contiguous slice
              tiny, huge]
    for r in inputs:
        kept = np.array(r, copy=True)
        with np.errstate(over="ignore"):
            got = f.dP(r)
        r_arr = np.asarray(r, dtype=float)
        want = [_alpha_m(alpha, ri) / ri for ri in r_arr.ravel().tolist()]
        assert np.shape(got) == r_arr.shape
        assert np.array_equal(_bits(np.ravel(got)), _bits(want))
        assert np.array_equal(_bits(np.ravel(r)), _bits(np.ravel(kept)))


def test_radial_gradient_at_origin_only():
    f = RadialAlphaDensity(0.5)
    z = np.zeros((3, 4), dtype=complex)
    px, py = f.potential_gradient(z)
    assert px.shape == py.shape == z.shape
    assert not np.any(px) and not np.any(py)


@pytest.mark.parametrize("field", [
    RadialAlphaDensity(0.5),
    RadialProfileDensity(lambda s: np.exp(-s * s)),
    # singular at 0, where the quadrature of m(r) never looks
    RadialProfileDensity(lambda s: 1.0 / s),
], ids=["alpha", "quadrature", "singular"])
def test_radial_gradient_is_the_per_point_gradient(field):
    # an array's gradient has each point's lone bits; it is 0 at z = 0 of
    # either sign, and no RuntimeWarning is raised
    rng = np.random.default_rng(11)
    z = (rng.standard_normal(200) + 1j * rng.standard_normal(200)) * 3.0
    z[::37] = 0.0
    z[1] = complex(-0.0, -0.0)
    z[2] = complex(0.0, -2.5)
    z[3] = complex(-1.5, -0.0)
    z[4] = 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        px, py = field.potential_gradient(z)
        lone = [field.potential_gradient(w) for w in z.tolist()]
    assert px.shape == py.shape == z.shape
    assert _bits(px).tolist() == _bits([p for p, _ in lone]).tolist()
    assert _bits(py).tolist() == _bits([q for _, q in lone]).tolist()
    zero = z == 0
    assert zero.sum() == 7
    assert _bits(px[zero]).tolist() == _bits(py[zero]).tolist() == [0] * 7


def test_radial_many_is_per_center_across_blocks():
    # the annulus kernel runs in blocks of centers; each center's mass must
    # not depend on the batch it came in, near the origin, inside r or out
    f = RadialAlphaDensity(0.5)
    rng = np.random.default_rng(5)
    r = 2.0
    d = np.concatenate([[0.0], r * 10.0 ** rng.uniform(-16, -12, 40),
                        r * rng.uniform(0.0, 3.0, 960)])
    centers = d * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, d.size))
    rng.shuffle(centers)
    one = [f.disk_mass(c, r) for c in centers]
    assert np.array_equal(_bits(_masses_at(f, centers, r)), _bits(one))
    assert np.array_equal(_bits(_masses_at(f, centers[::-1], r)[::-1]),
                          _bits(one))


def test_radial_many_temporaries_stay_small():
    # blocked, the kernel's peak allocation is a few blocks of annulus
    # rows plus its 1-D arrays; unblocked, 5,000 centers x 192 nodes
    # peaked at 46 MB
    f = RadialAlphaDensity(0.5)
    rng = np.random.default_rng(2)
    centers = rng.uniform(-5.0, 5.0, 5000) + 1j * rng.uniform(-5.0, 5.0, 5000)
    tracemalloc.start()
    try:
        _masses_at(f, centers, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _search_lattice(center, radius=1.5, n=33):
    # the coarse lattice of optimize_weighted_disk: n x n masked to the disk
    ax = np.linspace(-radius, radius, n)
    zz = (center + ax[None, :] + 1j * ax[:, None]).ravel()
    return zz[np.abs(zz - center) <= radius + 1e-12 * max(1.0, radius)]


def test_radial_many_runs_one_row_per_distinct_distance(monkeypatch):
    # a radial disk mass depends on its center only through |center|: the
    # annulus integrals run one row per distinct far distance, and every
    # center still gets its one-center value
    f = RadialAlphaDensity(0.5)
    rows = []
    kernel = quadrature.adaptive_1d

    def counting(*args, **kwargs):
        rows.append(kwargs["rows"])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(quadrature, "adaptive_1d", counting)
    rng = np.random.default_rng(3)
    scattered = rng.uniform(-3.0, 3.0, 200) + 1j * rng.uniform(-3.0, 3.0, 200)
    mixed = np.concatenate([scattered, np.conj(scattered[:50]),
                            -scattered[50:100], scattered[::-7],
                            [0j, 1e-13, -1e-13j, 3e-14 + 4e-14j]])
    cases = [(_search_lattice(1 + 1j), 406), (_search_lattice(0j), 103),
             (mixed, 200)]
    for centers, distinct in cases:
        for r in (0.7, 1.5):
            one = [f.disk_mass(c, r) for c in centers]
            rows.clear()
            many = _masses_at(f, centers, r)
            assert rows == [distinct]
            assert np.array_equal(_bits(many), _bits(one))


@pytest.mark.parametrize("alpha", [0.01, 0.5, 0.66])
def test_radial_disk_mass_is_the_256_node_rule_to_1e7(alpha):
    # the adaptive annulus rule against a fixed 256-node reference, on
    # distances d in 10^[-4, 2.5] and radii r in 10^[-3.5, 2.5], a tenth
    # of the centers near the disk's rim (d ~ r)
    f = RadialAlphaDensity(alpha)
    x, w = quadrature.gl_nodes(0.0, 0.5 * math.pi, 256)
    rng = np.random.default_rng(23)
    for r in 10.0 ** rng.uniform(-3.5, 2.5, 40):
        d = 10.0 ** rng.uniform(-4.0, 2.5, 50)
        d[:5] = r * (1.0 + rng.uniform(-1e-6, 1e-6, 5))
        centers = d * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, d.size))
        d = np.abs(centers)
        values, jac = f._annulus_integrand(d[:, None], r)(x)
        want = (2.0 * math.pi * f.cumulative(np.maximum(r - d, 0.0))
                + (jac * w * values).sum(axis=1))
        got = _masses_at(f, centers, r)
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=0.0)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.65])
def test_radial_alpha_many_inner_disks_bitwise(alpha):
    # the fully covered sub-disks against the per-radius sum:
    # the same field with the closed form taken one radius at a time
    f = RadialAlphaDensity(alpha)

    class PerRadius(RadialProfileDensity):
        def cumulative(self, r):
            r = np.asarray(r, dtype=float)
            return np.reshape([_alpha_m(alpha, x) for x in r.ravel().tolist()],
                              r.shape)

    per_radius = PerRadius(f.profile)
    rng = np.random.default_rng(11)
    for r in (1e-6, 0.7, 40.0):
        d = r * rng.uniform(0.0, 1.5, 300)
        centers = d * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, d.size))
        assert np.array_equal(_bits(_masses_at(f, centers, r)),
                              _bits(_masses_at(per_radius, centers, r)))


# ---------------------------------------------------------------------------
# bump lattices

def test_single_bump_fully_inside():
    f = BumpLattice([0j], [3.0], [0.5])
    assert f.disk_mass(0, 2.0) == pytest.approx(3.0, rel=1e-9)
    assert f.disk_mass(5 + 0j, 1.0) == 0.0


def test_bump_partial_overlap_vs_quadrature():
    # the 48-node overlap rule is 2.1e-6 off on the first disk
    # (DISK_MASS_REL_TOL's comment)
    f = BumpLattice([0j, 1.5 + 0j], [2.0, 1.0], [0.6, 0.4])
    for c, r in [(0.5 + 0j, 0.4), (1 + 0.2j, 0.8), (0j, 1.6)]:
        exact = f.disk_mass(c, r)
        quad = reference.bump_disk_mass(f, c, r)
        assert quad == pytest.approx(exact, rel=1e-5, abs=1e-10)


def test_bump_many_matches_scalar():
    f = decaying_bump_lattice(6)
    centers = np.array([0j, 1 + 1j, 2.5 - 0.5j, 4 + 3j])
    many = _masses_at(f, centers, 1.7)
    for c, v in zip(centers, many):
        assert v == pytest.approx(f.disk_mass(c, 1.7), rel=1e-8, abs=1e-12)


def test_mollifier_mass_is_the_quad_value():
    # the literal must be scipy quad's value of the plane mass
    from scipy.integrate import quad
    val, _ = quad(lambda s: 2.0 * math.pi * s
                  * float(density._mollifier(np.array([s]))[0]),
                  0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    assert density._MOLLIFIER_MASS == val


def _reference_fraction_inside(d, rho, r, n_nodes=48):
    """Scalar partial-overlap fraction, one (d, rho) pair at a time."""
    cuts = sorted({0.0, 1.0} | {v for v in (abs(r - d) / rho, (r + d) / rho)
                                if 0.0 < v < 1.0})
    num = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        s, ws = quadrature.gl_nodes(a, b, n_nodes)
        phi = density._mollifier(s)
        radii = rho * s
        if d < 1e-15:
            ang = np.where(radii <= r, 2.0 * math.pi, 0.0)
        else:
            cosv = (d * d + radii ** 2 - r * r) / (2.0 * d * radii)
            ang = np.where(cosv <= -1.0, 2.0 * math.pi,
                           np.where(cosv >= 1.0, 0.0,
                                    2.0 * np.arccos(np.clip(cosv, -1.0, 1.0))))
        num += float(np.dot(ws, phi * s * ang))
    return num / density._MOLLIFIER_MASS


def _reference_disk_mass(f, center, r):
    """All-pairs bump-lattice disk mass: every bump is classified as
    inside, outside or partial, partial ones summed in index order."""
    center = complex(center)
    d = np.abs(f.centers - center)
    inside = d + f.radii <= r
    outside = d - f.radii >= r
    total = float(np.sum(f.masses[inside]))
    for idx in np.nonzero(~(inside | outside))[0]:
        total += f.masses[idx] * _reference_fraction_inside(
            float(d[idx]), float(f.radii[idx]), r)
    return total


def _reference_disk_masses(f, centers, r):
    return [_reference_disk_mass(f, c, r) for c in centers]


def _reference_density(f, z):
    dist = np.abs(np.asarray(z, dtype=complex).ravel()[:, None]
                  - f.centers[None, :])
    return np.sum(f.masses / (f.radii ** 2 * density._MOLLIFIER_MASS)
                  * density._mollifier(dist / f.radii), axis=1)


_coord = st.floats(min_value=-3.0, max_value=3.0)


@given(bumps=st.lists(st.tuples(_coord, _coord,
                                st.floats(min_value=0.1, max_value=2.0),
                                st.floats(min_value=0.05, max_value=1.5)),
                      min_size=1, max_size=30),
       query=st.one_of(st.integers(min_value=0, max_value=29),
                       st.tuples(_coord, _coord)),
       r=st.floats(min_value=0.01, max_value=12.0))
@example(bumps=[(0.0, 0.0, 1.0, 0.5), (0.3, 0.0, 2.0, 1.2)], query=0, r=0.2)
@example(bumps=[(1.0, 1.0, 1.0, 0.5), (-2.0, 0.5, 0.5, 0.3)],
         query=(0.0, 0.0), r=12.0)
@settings(max_examples=60, deadline=None)
def test_bump_indexed_matches_all_pairs(bumps, query, r):
    """The indexed disk masses and density match the all-pairs sums on
    overlapping supports, with a bump at the query center (an integer
    query picks a bump), r below a support radius and r past the whole
    lattice."""
    xs, ys, masses, radii = map(np.array, zip(*bumps))
    f = BumpLattice(xs + 1j * ys, masses, radii)
    if isinstance(query, int):
        c = complex(f.centers[query % len(f.centers)])
    else:
        c = complex(*query)
    # disk_mass keeps the reference's summation order, so it is exact
    assert f.disk_mass(c, r) == _reference_disk_mass(f, c, r)
    zs = np.array([c, c + 0.5, f.centers[0], 7.0 + 7.0j])
    many = _masses_at(f, zs, r)
    for z, v in zip(zs, many):
        assert v == pytest.approx(_reference_disk_mass(f, z, r),
                                  rel=1e-12, abs=0.0)
    assert f.density(zs) == pytest.approx(_reference_density(f, zs),
                                          rel=1e-12, abs=0.0)


def test_bump_disk_mass_bitwise_at_c12_oracle_points():
    """The classify slope on c12's lattice depends on the last bits of
    disk_mass through the Nelder-Mead polish, so the indexed sum must
    reproduce the all-pairs one exactly, through the k-d tree for small
    disks and through the arrays over every bump for large ones."""
    f = decaying_bump_lattice(70)
    paths = set()
    for z in (0j, 10 + 3j, -15 - 15j):
        for d in (0.19, 3.0, 5.0, 8.0, 22.0, 40.0):
            paths.add((d, f._takes_every_bump(z, f._reach(d))))
            assert f.disk_mass(z, d) == _reference_disk_mass(f, z, d)
    assert (0.19, False) in paths and (40.0, True) in paths


def _listed_pairs(f, points, reach):
    """The former pair search: a k-d tree's Python index lists over the
    bump centers, sorted by bump index, in blocks of about ``_PAIR_BLOCK``
    pairs."""
    from scipy.spatial import cKDTree
    tree = cKDTree(np.column_stack([f.centers.real, f.centers.imag]))
    xy = np.column_stack([points.real, points.imag])
    counts = tree.query_ball_point(xy, reach, return_length=True)
    block = np.cumsum(counts) // density._PAIR_BLOCK
    edges = [0, *(np.flatnonzero(np.diff(block)) + 1), len(points)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = counts[lo:hi]
        lists = tree.query_ball_point(xy[lo:hi], reach, return_sorted=True)
        bi = np.fromiter(itertools.chain.from_iterable(lists),
                         dtype=np.intp, count=int(np.sum(n)))
        yield np.repeat(np.arange(lo, hi), n), bi


def _listed_density(f, z):
    out = np.zeros(z.shape)
    for qi, bi in _listed_pairs(f, z, f._reach(0.0)):
        rho = f.radii[bi]
        vals = (f.masses[bi] / (rho ** 2 * density._MOLLIFIER_MASS)
                * density._mollifier(np.abs(z[qi] - f.centers[bi]) / rho))
        out += np.bincount(qi, weights=vals, minlength=len(z))
    return out


@pytest.fixture(scope="module")
def lattice35():
    return decaying_bump_lattice(35)


@pytest.mark.parametrize("r", [1e-3, 0.19, 1.0, 5.0, 12.0, 20.0, 40.0])
def test_bump_many_bitwise_as_listed_pairs(lattice35, r):
    """Whole-lattice rows and the cell list's pairs give each center the
    all-pairs reference's bits, on the center sets once checked against
    the k-d tree's listed pairs: 17-grids about 0 and 10 + 3i, scattered
    centers, duplicates, a bump center and centers beyond every
    support."""
    f = lattice35
    rng = np.random.default_rng(15)
    ax = np.linspace(-2.0, 2.0, 17)
    grid = (ax[None, :] + 1j * ax[:, None]).ravel()
    centers = np.concatenate([
        grid, grid + (10 + 3j),
        rng.uniform(-45.0, 45.0, 60) + 1j * rng.uniform(-45.0, 45.0, 60),
        [0j, 0j, 1 + 1j, 1 + 1j, f.centers[7], 80 + 80j, -200j]])
    assert np.array_equal(_bits(_masses_at(f, centers, r)),
                          _bits(_reference_disk_masses(f, centers, r)))


def test_bump_many_bitwise_in_split_and_mixed_calls(lattice35):
    f = lattice35
    rng = np.random.default_rng(16)
    # a tree-side call of more than _PAIR_BLOCK pairs runs in split blocks
    sparse = rng.uniform(-30.0, 30.0, 2000) + 1j * rng.uniform(-30.0, 30.0,
                                                                 2000)
    reach = f._reach(5.0)
    assert not np.any(f._takes_every_bump(sparse, reach))
    blocks = [len(bi) for _, bi in f._near_pairs(sparse, reach)]
    assert len(blocks) > 1 and sum(blocks) > density._PAIR_BLOCK
    assert max(blocks) <= density._PAIR_BLOCK
    assert np.array_equal(_bits(_masses_at(f, sparse, 5.0)),
                          _bits(_reference_disk_masses(f, sparse, 5.0)))
    # the coarse lattice of a sup search at delta = 40: most centers take
    # whole-lattice rows, the corners take the tree's pairs
    lattice = _search_lattice(0j, 40.0)
    every = f._takes_every_bump(lattice, f._reach(12.0))
    assert np.any(every) and not np.all(every)
    assert np.array_equal(_bits(_masses_at(f, lattice, 12.0)),
                          _bits(_reference_disk_masses(f, lattice, 12.0)))
    z = rng.uniform(-37.0, 37.0, 4000) + 1j * rng.uniform(-37.0, 37.0, 4000)
    assert np.array_equal(_bits(f.density(z)), _bits(_listed_density(f, z)))


def test_bump_many_wide_blocks_repeat_lone_centers(lattice35):
    # hundreds of whole-lattice rows, two to a block, interleaved with
    # narrow centers: each block's sums land on its own disks only
    f = lattice35
    rng = np.random.default_rng(17)
    centers = rng.uniform(-45.0, 45.0, 400) + 1j * rng.uniform(-45.0, 45.0,
                                                               400)
    every = f._takes_every_bump(centers, f._reach(12.0))
    assert every.sum() > 100 and not np.all(every)
    lone = [_masses_at(f, centers[i:i + 1], 12.0)[0]
            for i in range(len(centers))]
    assert np.array_equal(_bits(_masses_at(f, centers, 12.0)),
                          _bits(np.array(lone)))


def test_bump_density_blocks_repeat_lone_points(lattice35, monkeypatch):
    # each block of the cell list's pairs adds its sums to its own points'
    # span: a call over several blocks, with points that have no candidate
    # among them, gives each point the bits of its lone call
    f = lattice35
    rng = np.random.default_rng(18)
    z = np.concatenate([rng.uniform(-37.0, 37.0, 300)
                        + 1j * rng.uniform(-37.0, 37.0, 300),
                        [80 + 80j, 0j, 0j, f.centers[7]]])
    monkeypatch.setattr(density, "_PAIR_BLOCK", 100)
    assert len(list(f._near_pairs(z, f._reach(0.0)))) >= 4
    lone = [f.density(p) for p in z]
    assert np.array_equal(_bits(f.density(z)), _bits(lone))


@pytest.mark.parametrize("r", [12.0, 40.0])
def test_bump_many_memory_is_bounded(lattice35, r):
    # the pair arrays and whole-lattice rows stay within _PAIR_BLOCK
    # pairs a block; the listed pairs peaked at 12.3 MB on this call
    lattice = _search_lattice(0j, 40.0)
    assert len(lattice) == 797
    tracemalloc.start()
    try:
        _masses_at(lattice35, lattice, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_bump_many_memory_is_bounded_on_random_centers(lattice35):
    # centers without symmetry share no partial overlaps: a call over
    # thousands of them, nearly all whole-lattice rows, holds no array or
    # table that grows with the call (1.0 MB here; a table of the call's
    # partial overlaps reached 3.9 MB)
    rng = np.random.default_rng(29)
    centers = rng.uniform(-30.0, 30.0, 2000) + 1j * rng.uniform(-30.0, 30.0,
                                                                2000)
    every = lattice35._takes_every_bump(centers, lattice35._reach(12.0))
    assert every.mean() > 0.9
    tracemalloc.start()
    try:
        _masses_at(lattice35, centers, 12.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


_mass = st.floats(min_value=0.1, max_value=2.0)
_small = st.floats(min_value=0.01, max_value=0.5)
_bump = st.tuples(_coord, _coord, _mass, _small)
_awkward_lattices = st.one_of(
    # a single bump
    _bump.map(lambda b: [b]),
    # collinear bumps: a support box of height 2 rho
    st.builds(lambda y, xs, rho: [(x, y, 1.0, rho) for x in xs],
              _coord, st.lists(_coord, min_size=2, max_size=12), _small),
    # coincident centers
    st.builds(lambda b, n: [b[:2] + (b[2] * (k + 1), b[3] / (k + 1))
                            for k in range(n)],
              _bump, st.integers(min_value=2, max_value=5)),
    # one large-rho bump among small ones
    st.builds(lambda big, small: [big] + small,
              st.tuples(_coord, _coord, _mass,
                        st.floats(min_value=3.0, max_value=20.0)),
              st.lists(st.tuples(_coord, _coord, _mass,
                                 st.floats(min_value=0.01, max_value=0.2)),
                       min_size=1, max_size=20)))
_far = st.sampled_from([(1e200, 0.0), (-1e200, 0.0), (0.0, 1e200),
                        (0.0, -1e200), (1e200, -1e200), (-40.0, 35.0)])
_queries = st.lists(st.one_of(st.tuples(st.floats(-8.0, 8.0),
                                        st.floats(-8.0, 8.0)),
                              st.integers(min_value=0, max_value=20), _far),
                    min_size=1, max_size=8)


@given(bumps=_awkward_lattices, queries=_queries,
       r=st.floats(min_value=1e-3, max_value=30.0))
@example(bumps=[(0.0, 0.0, 1.0, 0.25)], queries=[(1e200, 0.0), 0], r=0.5)
@example(bumps=[(-3.0, 1.0, 1.0, 0.05), (3.0, 1.0, 1.0, 0.05),
                (0.0, 1.0, 1.0, 0.05)],
         queries=[(0.0, 1.1), (-3.0, -1e200)], r=2.9)
@settings(max_examples=80, deadline=None)
def test_bump_cell_list_on_awkward_lattices(bumps, queries, r):
    """The cell list's candidates hold every bump within the reach, in
    ascending index, on a single bump, collinear and coincident bumps, one
    wide bump among narrow ones, and queries far outside the box; the disk
    masses keep the all-pairs reference's bits."""
    xs, ys, masses, radii = map(np.array, zip(*bumps))
    f = BumpLattice(xs + 1j * ys, masses, radii)
    zs = np.array([complex(f.centers[q % len(f.centers)])
                   if isinstance(q, int) else complex(*q) for q in queries])
    reach = f._reach(r)
    pairs = list(f._near_pairs(zs, reach))
    qi = np.concatenate([p[0] for p in pairs])
    bi = np.concatenate([p[1] for p in pairs])
    key = qi * len(f.centers) + bi
    assert np.all(np.diff(key) > 0)
    for k, z in enumerate(zs):
        near = np.flatnonzero(np.abs(z - f.centers) <= reach)
        assert set(near) <= set(bi[qi == k])
        got = f.disk_mass(z, r)
        assert type(got) is float
        assert _bits(got) == _bits(_reference_disk_mass(f, z, r))
    assert np.array_equal(_bits(_masses_at(f, zs, r)),
                          _bits(_reference_disk_masses(f, zs, r)))
    assert f.density(zs) == pytest.approx(_reference_density(f, zs),
                                          rel=1e-12, abs=0.0)


def test_bump_disk_mass_is_a_float():
    # the sum that adds a partial bump, and the one that adds none, both
    # return a Python float with the all-pairs bits
    f = decaying_bump_lattice(5)
    for z, r, partial in ((0.3 + 0.1j, 0.7, True), (0j, 0.3, False)):
        d = np.abs(f.centers - z)
        assert np.any((d + f.radii > r) & (d - f.radii < r)) == partial
        got = f.disk_mass(z, r)
        assert type(got) is float
        assert _bits(got) == _bits(_reference_disk_mass(f, z, r))


def test_bump_density_rejects_non_finite_points():
    f = BumpLattice([0j], [1.0], [0.25])
    with pytest.raises(ValueError, match="finite"):
        f.density(np.array([0j, complex(math.nan, 0.0)]))


def _two_piece_fractions(d, rho, r, n_nodes=48):
    """The overlap kernel as one (pairs x nodes) array a radial piece,
    with the mollifier masked to s < 1 and the wedge angle's limits as
    explicit cases: the kernel's piece-stacked form must match it bit for
    bit."""
    x, w = quadrature.gauss_legendre(n_nodes)
    lo = np.minimum(np.abs(r - d) / rho, 1.0)
    hi = np.minimum((r + d) / rho, 1.0)
    at_center = (d < 1e-15)[:, None]
    dc = d[:, None]
    num = np.zeros(d.shape)
    for a, b in ((np.zeros(d.shape), lo), (lo, hi)):
        half = (0.5 * (b - a))[:, None]
        s = a[:, None] + half * (x + 1.0)
        radii = rho[:, None] * s
        with np.errstate(divide="ignore", invalid="ignore"):
            cosv = (dc * dc + radii ** 2 - r * r) / (2.0 * dc * radii)
            ang = np.where(cosv <= -1.0, 2.0 * math.pi,
                           np.where(cosv >= 1.0, 0.0,
                                    2.0 * np.arccos(np.clip(cosv, -1.0, 1.0))))
        ang = np.where(at_center, np.where(radii <= r, 2.0 * math.pi, 0.0), ang)
        vals = density._mollifier(s) * s * ang
        piece = ((half * w)[:, None, :] @ vals[:, :, None])[:, 0, 0]
        num += np.where(b > a, piece, 0.0)
    return num / density._MOLLIFIER_MASS


@pytest.mark.parametrize("r", [0.05, 0.3, 1.0, 2.7])
def test_bump_fractions_match_two_piece_kernel(r):
    """Random pairs over several kernel blocks, with pairs at the center
    (d = 0), pairs whose wedge cosine passes -1 or 1 (disk beyond or
    inside the support), an empty first piece (d = r) and empty pieces
    (lo = hi = 1, the support wholly inside or outside)."""
    rng = np.random.default_rng(int(r * 100))
    n = 3 * (density.KERNEL_BUDGET // (2 * density._BUMP_NODES)) + 7
    d = rng.uniform(0.0, 2.0 * r + 1.0, n)
    rho = rng.uniform(0.02, 1.5, n)
    d[:20] = 0.0
    d[20:40] = r
    d[40:60] = r + rho[40:60] + rng.uniform(0.0, 1.0, 20)
    d[60:80] = np.maximum(r - rho[60:80] - rng.uniform(0.0, 1.0, 20), 0.0)
    d[80:90] = 1e-16
    rng.shuffle(d)
    got = density._bump_fractions_inside(d, rho, r)
    assert np.array_equal(_bits(got), _bits(_two_piece_fractions(d, rho, r)))
    # each pair's fraction is independent of the block it lands in
    one = [density._bump_fractions_inside(d[i:i + 1], rho[i:i + 1], r)[0]
           for i in range(0, n, 37)]
    assert np.array_equal(_bits(one), _bits(got[::37]))
    assert density._bump_fractions_inside(d[:0], rho[:0], r).shape == (0,)


def test_decaying_lattice_masses():
    f = decaying_bump_lattice(2)
    # bump at the origin has mass 1, at k=1 mass 1/2, at k=1+1j mass 1/(1+sqrt 2)
    assert f.disk_mass(0, 0.3) == pytest.approx(1.0, rel=1e-9)
    assert f.disk_mass(1 + 0j, 0.3) == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("masses, radii", [([math.nan], [1.0]),
                                            ([math.inf], [1.0]),
                                            ([1.0], [math.nan]),
                                            ([1.0], [math.inf])])
def test_bump_lattice_rejects_non_finite_masses_and_radii(masses, radii):
    # a nan or inf mass made every disk mass nan or inf, and a nan or inf
    # radius a silent 0.0
    with pytest.raises(ValueError, match="finite"):
        BumpLattice([0j], masses, radii)


def test_bump_lattice_has_no_potential():
    f = BumpLattice([0j], [1.0], [0.25])
    with pytest.raises(PotentialUnavailable):
        f.potential_gradient(0.5)


# ---------------------------------------------------------------------------
# grid densities

def test_grid_bilinear_interpolation():
    vals = np.array([[0.0, 1.0], [2.0, 3.0]])
    f = GridDensity(0j, 1.0, vals, extension="zero")
    assert float(f.density(0.5 + 0.5j)) == pytest.approx(1.5)
    assert float(f.density(10 + 10j)) == 0.0


def test_grid_periodic_extension():
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    f = GridDensity(0j, 1.0, vals, extension="periodic")
    assert float(f.density(0.25 + 0.25j)) == pytest.approx(
        float(f.density(2.25 + 2.25j)))


@pytest.mark.parametrize("origin, cell", [
    (0j, math.nan), (0j, math.inf), (0j, -math.inf),
    (complex(math.nan, 0.0), 1.0), (complex(0.0, math.inf), 1.0)])
def test_grid_rejects_nonfinite_geometry(origin, cell):
    with pytest.raises(ValueError):
        GridDensity(origin, cell, np.ones((3, 3)))


def test_grid_constant_matches_constant_density():
    c = ConstantDensity(1.7)
    zero = GridDensity(-4 - 3j, 0.5, np.full((15, 17), 1.7))
    periodic = GridDensity(-4 - 3j, 0.5, np.full((4, 6), 1.7), "periodic")
    for center, r in [(0.3 + 0.1j, 0.4), (-0.6 + 0.9j, 1.3), (0.25, 2.5)]:
        assert zero.disk_mass(center, r) == pytest.approx(
            c.disk_mass(center, r), rel=1e-13)
    # periodic: any disk, also far outside the table and much larger
    for center, r in [(0.3 + 0.1j, 0.4), (-31.7 + 12.2j, 3.2),
                      (150.0 - 80.0j, 20.0), (1.0 + 1.0j, 0.01)]:
        assert periodic.disk_mass(center, r) == pytest.approx(
            c.disk_mass(center, r), rel=1e-13)


def test_grid_linear_ramp_exact():
    # bilinear interpolation reproduces a linear ramp, whose disk mean is
    # its value at the center
    xs = -8.0 + 0.5 * np.arange(33)
    ramp = 4.5 + 0.3 * xs[None, :] + 0.2 * xs[:, None]
    f = GridDensity(-8 - 8j, 0.5, ramp)
    for center, r in [(0.3 + 0.2j, 0.7), (-1.1 + 0.45j, 3.2),
                      (2.0 - 1.0j, 3.2), (0.0, 7.9)]:
        expect = math.pi * r * r * float(f.density(center))
        assert f.disk_mass(center, r) == pytest.approx(expect, rel=1e-13)


_grid_values = st.integers(3, 5).flatmap(
    lambda ny: st.integers(3, 5).flatmap(
        lambda nx: st.lists(st.floats(0.25, 1.0), min_size=ny * nx,
                            max_size=ny * nx).map(
            lambda v: np.reshape(v, (ny, nx)))))


@pytest.mark.parametrize("extension", ["zero", "periodic"])
@given(values=_grid_values, cell=st.floats(0.5, 1.5),
       u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
       radius=st.floats(0.1, 1.0))
@example(values=np.array([[1.0, 1.0, 0.5, 0.8125, 1.0],
                          [1.0, 1.0, 0.5, 1.0, 0.75],
                          [1.0, 1.0, 1.0, 0.875, 1.0]]),
         cell=1.34765625, u=0.705078125, v=0.251953125, radius=0.865234375)
@settings(max_examples=5, deadline=None, derandomize=True)
def test_grid_disk_mass_matches_quadrature(values, cell, extension, u, v,
                                           radius):
    # the disk lies inside the table, and under periodic extension the
    # last row and column repeat the first; an adaptive polar quadrature
    # misses 1e-6 on the explicit example
    if extension == "periodic":
        values = np.vstack([values, values[:1]])
        values = np.hstack([values, values[:, :1]])
    ny, nx = values.shape
    f = GridDensity(-1 + 0.5j, cell, values, extension)
    r = radius * min(0.7, 0.5 * cell * (min(nx, ny) - 1))
    center = f.origin + complex(r + u * (cell * (nx - 1) - 2 * r),
                                r + v * (cell * (ny - 1) - 2 * r))
    quad = reference.grid_disk_mass(f, center, r)
    assert f.disk_mass(center, r) == pytest.approx(quad, rel=1e-12)


def test_grid_sliver_disk_mass():
    # a disk at the table's corner holding a thin sliver of one hat, where
    # an adaptive polar quadrature was off by 3.5e-4 even at rel_tol=1e-9
    f = GridDensity(-1 + 0.5j, 1.0, np.pad([[1.0, 0.0], [0.0, 0.0]], 1))
    c, r = f.origin + 0.0078125j, 0.5
    expect = reference.grid_disk_mass(f, c, r)
    assert f.disk_mass(c, r) == pytest.approx(expect, rel=1e-12)


def test_grid_disk_holding_the_table_gets_its_mass():
    # the angular cuts of every column round to one angle on a disk huge
    # against a cell; a disk holding the four corners takes the exact mass
    f = GridDensity(-1 - 1j, 1.0, np.ones((3, 4)))
    for r in (1e6, 1e14, 1e16, 1e20, 1e200):
        assert f.disk_mass(0.3, r) == 6.0
    # the bilinear table's mass: the mean of each cell's corners, times its
    # area; disks through or just short of the far corner take the cuts
    values = np.random.default_rng(5).uniform(0.0, 2.0, (5, 6))
    f = GridDensity(-1 - 1j, 0.5, values)
    want = 0.0625 * (values[:-1, :-1] + values[1:, :-1] + values[:-1, 1:]
                     + values[1:, 1:]).sum()
    r = abs(0.5 * (5 + 4j))
    masses = f.disk_mass([f.origin, f.origin, 0j, 0.3 - 2j],
                         [r * (1.0 - 1e-9), r, 1.01 * r, 1e6])
    np.testing.assert_allclose(masses, want, rtol=1e-8)
    np.testing.assert_allclose(masses[1:], want, rtol=1e-13)


@pytest.mark.parametrize("r", [1e12, 1e200])
def test_periodic_grid_huge_disk_raises_at_once(r):
    # a periodic disk is cut at every lattice line within 2r: past
    # _MAX_GRID_LINES it raises at once, before building rows of that
    # many cuts (terabytes at r = 1e12)
    f = GridDensity(0j, 1.0, np.ones((3, 3)), "periodic")
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(QuadratureFailure, match="grid lines"):
            f.disk_mass(0.3, r)
        with pytest.raises(QuadratureFailure, match="grid lines"):
            f.disk_mass([0.3, 0.5j], [1.0, r])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 10e6
    # the largest radius within the bound keeps its mass
    assert f.disk_mass(0.3, 499.0) == pytest.approx(math.pi * 499.0 ** 2,
                                                    rel=1e-12)
    with pytest.raises(QuadratureFailure):
        f.disk_mass(0.3, 499.5)


def test_grid_periodic_translation_invariance():
    vals = np.random.default_rng(3).uniform(0.0, 1.0, (6, 9))
    f = GridDensity(-1 - 2j, 0.4, vals, "periodic")
    period = complex(0.4 * 8, 0.4 * 5)
    for center, r in [(0.37 + 0.21j, 0.6), (-1.3 + 2.2j, 3.1),
                      (5.0 - 7.0j, 11.0)]:
        m = f.disk_mass(center, r)
        for shift in (period.real, 1j * period.imag, -period):
            assert f.disk_mass(center + shift, r) == pytest.approx(
                m, rel=1e-12)


@pytest.mark.parametrize("extension", ["zero", "periodic"])
def test_grid_disk_mass_many_and_monotone(extension):
    rng = np.random.default_rng(4)
    f = GridDensity(-2 - 2j, 0.5, rng.uniform(0.0, 1.0, (9, 9)), extension)
    centers = (rng.uniform(-3.0, 3.0, 40)
               + 1j * rng.uniform(-3.0, 3.0, 40)).reshape(8, 5)
    for r in (0.3, 1.7, 6.0):
        many = _masses_at(f, centers, r)
        assert many.shape == centers.shape
        assert many.tolist() == [[f.disk_mass(c, r) for c in row]
                                 for row in centers]
    radii = np.linspace(0.05, 8.0, 60)
    for c in centers.ravel()[:6]:
        masses = [f.disk_mass(c, r) for r in radii]
        # non-decreasing up to round-off once a disk covers a zero grid
        assert np.all(np.diff(masses) >= -1e-13 * masses[-1])


# ---------------------------------------------------------------------------
# module-level helpers

def test_disk_mass_matches_forced_quadrature():
    f = ConstantDensity(3.0)
    a = disk_mass(f, 0.5j, 1.1)
    b = reference.disk_mass(f, 0.5j, 1.1)
    assert b == pytest.approx(a, rel=1e-12)
