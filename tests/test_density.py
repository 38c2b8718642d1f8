"""Density fields: closed-form disk masses against quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccstruct import density, quadrature
from ccstruct.density import (BumpLattice, ConstantDensity, GridDensity,
                              PolynomialPotential, RadialAlphaDensity,
                              ZeroDensity, decaying_bump_lattice, disk_mass,
                              nagel_lambda_polynomial, potential_from_radial)
from ccstruct.errors import PotentialUnavailable


# ---------------------------------------------------------------------------
# constant / zero

def test_constant_disk_mass_exact():
    f = ConstantDensity(4.0)
    assert f.disk_mass(1 + 2j, 3.0) == pytest.approx(36 * math.pi, rel=1e-14)


def test_constant_quadrature_agrees():
    f = ConstantDensity(2.5)
    exact = f.disk_mass(0.5 - 1j, 1.7)
    quad = f.disk_mass_quadrature(0.5 - 1j, 1.7)
    assert quad == pytest.approx(exact, rel=1e-6)


def test_constant_rejects_nonpositive():
    with pytest.raises(ValueError):
        ConstantDensity(0.0)


def test_zero_density_everything_vanishes():
    f = ZeroDensity()
    assert f.disk_mass(3 + 4j, 10.0) == 0.0
    assert np.all(f.density(np.array([0, 1j, 5.0])) == 0.0)


def test_disk_mass_rejects_bad_radius():
    for f in (ConstantDensity(1.0), ZeroDensity()):
        with pytest.raises(ValueError):
            f.disk_mass(0, 0.0)


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
        quad = f.disk_mass_quadrature(c, r, rel_tol=1e-8)
        assert quad == pytest.approx(exact, rel=1e-6)


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


def test_nagel_formula_z4():
    # for P = |z|^4: 16 (|z|^2 d^2 + 2 |z| d^3 + d^4)
    f = PolynomialPotential({(2, 2): 1.0})
    for z, d in [(0j, 1.0), (2 + 0j, 0.5), (1 + 1j, 2.0)]:
        expect = 16 * (abs(z) ** 2 * d ** 2 + 2 * abs(z) * d ** 3 + d ** 4)
        assert nagel_lambda_polynomial(f, z, d) == pytest.approx(expect,
                                                                 rel=1e-12)


@given(st.complex_numbers(max_magnitude=3, allow_nan=False,
                          allow_infinity=False),
       st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_poly_many_matches_scalar(c, r):
    f = PolynomialPotential({(1, 1): 1.0, (2, 2): 1.0})
    many = f.disk_mass_many(np.array([c]), r)[0]
    assert many == pytest.approx(f.disk_mass(c, r), rel=1e-10)


# ---------------------------------------------------------------------------
# radial profiles

def test_radial_alpha_cumulative_closed_form():
    f = RadialAlphaDensity(0.5)
    # m(r) = int_0^r s (1+s^2)^(-1/4) ds, independent numeric oracle
    from scipy.integrate import quad
    for r in (0.5, 2.0, 30.0):
        oracle, _ = quad(lambda s: s * (1 + s * s) ** -0.25, 0, r)
        assert f.potential.cumulative(r) == pytest.approx(oracle, rel=1e-9)


def test_radial_alpha_rejects_bad_alpha():
    for alpha in (0.0, 2.0 / 3.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            RadialAlphaDensity(alpha)


def test_radial_disk_mass_vs_quadrature():
    f = RadialAlphaDensity(0.4)
    for c, r in [(0j, 1.0), (2 + 0j, 0.7), (1 + 3j, 4.0), (50 + 0j, 2.0)]:
        exact = f.disk_mass(c, r)
        quad = f.disk_mass_quadrature(c, r, rel_tol=1e-8)
        assert quad == pytest.approx(exact, rel=1e-6)


def test_radial_many_matches_scalar():
    f = RadialAlphaDensity(0.5)
    centers = np.array([0j, 0.5, 1 + 1j, 10 - 2j, 300 + 0j])
    many = f.disk_mass_many(centers, 1.3)
    for c, v in zip(centers, many):
        assert v == pytest.approx(f.disk_mass(c, 1.3), rel=1e-9)


def test_potential_from_radial_reconstruction():
    # for a known profile the gradient identity P'(r) = m(r)/r must hold
    pot = potential_from_radial(lambda s: np.exp(-np.asarray(s, float) ** 2))
    for r in (0.3, 1.0, 2.5):
        assert pot.dP(r) * r == pytest.approx(pot.cumulative(r), rel=1e-9)


def test_radial_gradient_finite_difference():
    f = RadialAlphaDensity(0.5)
    z = 1.2 - 0.7j
    h = 1e-6
    P = f.potential.P
    px, py = f.potential_gradient(z)
    num_px = (P(abs(z + h)) - P(abs(z - h))) / (2 * h)
    num_py = (P(abs(z + 1j * h)) - P(abs(z - 1j * h))) / (2 * h)
    assert px == pytest.approx(num_px, rel=1e-5)
    assert py == pytest.approx(num_py, rel=1e-5)


# ---------------------------------------------------------------------------
# bump lattices

def test_single_bump_fully_inside():
    f = BumpLattice([0j], [3.0], [0.5])
    assert f.disk_mass(0, 2.0) == pytest.approx(3.0, rel=1e-9)
    assert f.disk_mass(5 + 0j, 1.0) == 0.0


def test_bump_partial_overlap_vs_quadrature():
    f = BumpLattice([0j, 1.5 + 0j], [2.0, 1.0], [0.6, 0.4])
    for c, r in [(0.5 + 0j, 0.4), (1 + 0.2j, 0.8), (0j, 1.6)]:
        exact = f.disk_mass(c, r)
        quad = f.disk_mass_quadrature(c, r, rel_tol=1e-6)
        assert quad == pytest.approx(exact, rel=1e-5, abs=1e-10)


def test_bump_many_matches_scalar():
    f = decaying_bump_lattice(6)
    centers = np.array([0j, 1 + 1j, 2.5 - 0.5j, 4 + 3j])
    many = f.disk_mass_many(centers, 1.7)
    for c, v in zip(centers, many):
        assert v == pytest.approx(f.disk_mass(c, 1.7), rel=1e-8, abs=1e-12)


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
    many = f.disk_mass_many(zs, r)
    for z, v in zip(zs, many):
        assert v == pytest.approx(_reference_disk_mass(f, z, r),
                                  rel=1e-12, abs=0.0)
    assert f.density(zs) == pytest.approx(_reference_density(f, zs),
                                          rel=1e-12, abs=0.0)


def test_bump_disk_mass_bitwise_at_c12_oracle_points():
    """The classify slope on c12's lattice depends on the last bits of
    disk_mass through the Nelder-Mead polish, so the indexed sum must
    reproduce the all-pairs one exactly."""
    f = decaying_bump_lattice(70)
    for z, d in ((0j, 5.0), (10 + 3j, 8.0), (-15 - 15j, 3.0)):
        assert f.disk_mass(z, d) == _reference_disk_mass(f, z, d)


def test_decaying_lattice_masses():
    f = decaying_bump_lattice(2)
    # bump at the origin has mass 1, at k=1 mass 1/2, at k=1+1j mass 1/(1+sqrt 2)
    assert f.disk_mass(0, 0.3) == pytest.approx(1.0, rel=1e-9)
    assert f.disk_mass(1 + 0j, 0.3) == pytest.approx(0.5, rel=1e-9)


def test_bump_lattice_has_no_potential():
    f = BumpLattice([0j], [1.0], [0.25])
    assert not f.has_potential
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


# ---------------------------------------------------------------------------
# module-level helpers

def test_disk_mass_force_quadrature_flag():
    f = ConstantDensity(3.0)
    a = disk_mass(f, 0.5j, 1.1)
    b = disk_mass(f, 0.5j, 1.1, force_quadrature=True)
    assert b == pytest.approx(a, rel=1e-6)
