"""Density fields: models of the subharmonic data (P, its gradient, and
the plane density given by its Laplacian) together with disk-mass
integration mu(z, r) = integral of the density over B(z, r): one checked
entry point on ``DensityField``, one array kernel per family.

Conventions
-----------
The Laplacian is taken in real coordinates, lap P = P_xx + P_yy, which
equals 4 d^2 P / dz dzbar.  All densities are non-negative (P is
subharmonic); construction rejects data violating this on a sample
lattice.

Field operations are pure and never change the field; a field carries no
state past construction.  The sup searches of a field, its ``lambda_sup``
estimates among them, are kept apart from it, in ``structure``'s memo
keyed on the field.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import quadrature
from .errors import CCStructError, PotentialUnavailable, QuadratureFailure
from .quadrature import KERNEL_BUDGET

#: relative accuracy of every ``disk_mass`` that is not exact.  A bump
#: lattice's partial overlaps miss it: their 48-node rule converges only
#: algebraically, from the sqrt kinks at its piece ends, and on 30,594
#: random overlaps holding over 1e-3 of their bump it was up to 1.1e-5
#: relative off a 2048-node rule (median 9.8e-7)
DISK_MASS_REL_TOL = 1e-6


def _check_disk(r, centers=0j):
    """Reject a radius (or an array of radii) that is not positive and
    finite, and a center (or an array of centers) that is not finite."""
    r = np.asarray(r, dtype=float)
    if not (np.isfinite(r) & (r > 0)).all():
        raise ValueError("disk radius must be positive and finite")
    if not np.isfinite(np.asarray(centers, dtype=complex)).all():
        raise ValueError("disk center must be finite")


# ---------------------------------------------------------------------------
# bivariate polynomial helpers (coefficients of sum c[j,k] z^j zbar^k)

def _poly_eval(coeffs: np.ndarray, z):
    z = np.asarray(z, dtype=complex)
    zb = np.conj(z)
    jmax, kmax = coeffs.shape
    # Horner in zbar inside Horner in z
    acc = np.zeros_like(z)
    for j in range(jmax - 1, -1, -1):
        row = np.zeros_like(z)
        for k in range(kmax - 1, -1, -1):
            row = row * zb + coeffs[j, k]
        acc = acc * z + row
    return acc


def _poly_dz(coeffs: np.ndarray) -> np.ndarray:
    jmax, kmax = coeffs.shape
    if jmax <= 1:
        return np.zeros((1, kmax), dtype=complex)
    out = np.zeros((jmax - 1, kmax), dtype=complex)
    for j in range(1, jmax):
        out[j - 1] = j * coeffs[j]
    return out


def _poly_dzbar(coeffs: np.ndarray) -> np.ndarray:
    return _poly_dz(coeffs.T).T


def _poly_is_zero(coeffs: np.ndarray) -> bool:
    return not np.any(np.abs(coeffs) > 0)


# ---------------------------------------------------------------------------

class DensityField:
    """Base class: a plane density with optional potential data.

    A family implements ``_density`` (a finite complex array) that
    ``density`` runs, and one disk-mass kernel ``_disk_masses(centers,
    radii)`` on flat arrays of finite centers and radii r > 0, one radius
    per center, which ``disk_mass`` runs (a lone disk as a batch of one)
    and ``disk_mass_many`` runs at a common radius."""

    family = "abstract"

    def density(self, z):
        """Density value(s) at complex point(s) ``z``, in their shape;
        raises ValueError at a point that is not finite."""
        z = np.asarray(z, dtype=complex)
        if not np.isfinite(z).all():
            raise ValueError("density points must be finite")
        return self._density(z)

    def _density(self, z):
        raise NotImplementedError

    def potential_gradient(self, z):
        """(P_x, P_y) at the complex points ``z``, as arrays of their shape;
        raises PotentialUnavailable by default."""
        raise PotentialUnavailable(
            f"{self.family} field carries no potential data"
        )

    # -- disk mass ---------------------------------------------------------

    def disk_mass(self, center, r):
        """mu(center, r), exact or to relative tolerance DISK_MASS_REL_TOL
        (a bump lattice's partial overlaps: to about 1e-5).

        ``center`` and ``r`` may also be arrays of one shape: then the mass
        of each (center, radius) pair, in that shape, each with the bits of
        its lone call; a float for a lone disk.  Raises CCStructError where
        a mass is not finite (a huge disk's mass may overflow)."""
        centers = np.asarray(center, dtype=complex)
        radii = np.asarray(r, dtype=float)
        if centers.shape != radii.shape:
            raise ValueError(f"centers of shape {centers.shape} and radii of "
                             f"shape {radii.shape} do not pair up")
        masses = self._checked_masses(centers, radii)
        return float(masses) if masses.ndim == 0 else masses

    def disk_mass_many(self, centers, r):
        """``disk_mass`` of an array of centers at the common radius r, as
        an array in the centers' shape: classify's mass table (the sup
        search's coarse lattices go through ``disk_mass`` in blocks).  The
        same kernel and bits as ``disk_mass``; a name of its own so that a
        profile counts these calls apart."""
        centers = np.asarray(centers, dtype=complex)
        return self._checked_masses(centers, np.full(centers.shape, float(r)))

    def _checked_masses(self, centers, radii):
        _check_disk(radii, centers)
        masses = self._disk_masses(centers.ravel(), radii.ravel())
        bad = np.flatnonzero(~np.isfinite(masses))
        if len(bad):
            i = bad[0]
            raise CCStructError(
                f"disk mass of {self.family} field is {masses[i]} at center "
                f"{complex(centers.flat[i])!r}, radius {float(radii.flat[i])!r}")
        return masses.reshape(centers.shape)

    def _disk_masses(self, centers, radii):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} family={self.family}>"


# ---------------------------------------------------------------------------

class ConstantDensity(DensityField):
    """Constant density c > 0; the potential is c |z|^2 / 4."""

    family = "constant"

    def __init__(self, c):
        c = float(c)
        if c <= 0:
            raise ValueError("constant density must be positive; "
                             "use ZeroDensity for the zero test double")
        self.c = c

    def _density(self, z):
        return np.full(z.shape, self.c)

    def potential_gradient(self, z):
        z = np.asarray(z, dtype=complex)
        return 0.5 * self.c * z.real, 0.5 * self.c * z.imag

    def _disk_masses(self, centers, radii):
        # a huge disk's mass overflows to inf unwarned; disk_mass raises
        with np.errstate(over="ignore"):
            return self.c * math.pi * radii * radii


class ZeroDensity(DensityField):
    """Explicit zero test double (P harmonic); not a valid model field
    but useful for exercising degenerate paths."""

    family = "zero"

    def _density(self, z):
        return np.zeros(z.shape)

    def potential_gradient(self, z):
        z = np.asarray(z, dtype=complex)
        return np.zeros(z.shape), np.zeros(z.shape)

    def _disk_masses(self, centers, radii):
        return np.zeros(centers.shape)


# ---------------------------------------------------------------------------

#: np.linspace arguments of each axis of the lattice on which
#: construction checks a polynomial density is non-negative
_CHECK_AXIS = (-3.0, 3.0, 41)
#: Largest exponent j or k of a polynomial potential.  The disk-mass
#: series divides by (a + 1) (a!)^2, a below both, which leaves the float
#: range near a = 97; the coefficient table is (degree + 1)^2 complex
_MAX_DEGREE = 64


class PolynomialPotential(DensityField):
    """P(z) = sum c_{j,k} z^j zbar^k with Hermitian coefficients.

    The density and all of its z/zbar derivatives are available in closed
    form, which also yields an exact disk-mass formula

        mu(c, r) = pi * sum_a r^(2a+2) / ((a+1) (a!)^2) * (dz^a dzbar^a lapP)(c),

    obtained by expanding the shifted polynomial and using that only
    balanced monomials u^a ubar^a survive integration over a centered disk.
    """

    family = "polynomial"

    def __init__(self, coeffs):
        C = self._coerce(coeffs)
        if not np.allclose(C, np.conj(C.T), atol=1e-9):
            raise ValueError("coefficients must satisfy c[j,k] = conj(c[k,j]) "
                             "so that P is real")
        C = 0.5 * (C + np.conj(C.T))
        self.coeffs = C
        # lap P = 4 d2P/dz dzbar
        self.lap_coeffs = 4.0 * _poly_dzbar(_poly_dz(C))
        if _poly_is_zero(self.lap_coeffs):
            raise ValueError("P is harmonic: the density vanishes identically")
        self._check_nonnegative()
        self._diag_derivs = self._diagonal_derivatives()

    @staticmethod
    def _coerce(coeffs):
        n = 1 + max(max(j, k) for (j, k) in coeffs)
        if n > _MAX_DEGREE + 1:
            raise ValueError(f"exponent {n - 1} is above {_MAX_DEGREE}, the "
                             "largest a polynomial potential takes")
        C = np.zeros((n, n), dtype=complex)
        for (j, k), v in coeffs.items():
            C[j, k] = complex(v)
        return C

    def _check_nonnegative(self):
        ax = np.linspace(*_CHECK_AXIS)
        zz = ax[None, :] + 1j * ax[:, None]
        vals = _poly_eval(self.lap_coeffs, zz).real   # unclamped
        scale = max(float(np.max(np.abs(vals))), 1.0)
        if float(np.min(vals)) < -1e-9 * scale:
            raise ValueError("density is negative on the check lattice: "
                             "P is not subharmonic")

    def _diagonal_derivatives(self):
        out = []
        Q = self.lap_coeffs
        while not _poly_is_zero(Q):
            out.append(Q)
            Q = _poly_dzbar(_poly_dz(Q))
        return out

    def _density(self, z):
        vals = _poly_eval(self.lap_coeffs, z).real
        return np.maximum(vals, 0.0)

    def potential_gradient(self, z):
        pz = _poly_eval(_poly_dz(self.coeffs), z)
        return 2.0 * pz.real, -2.0 * pz.imag

    def _disk_masses(self, centers, radii):
        total = np.zeros(centers.shape)
        for a, Q in enumerate(self._diag_derivs):
            # float_power is libm pow, as Python's float ** (np.power is
            # not); a huge disk's terms overflow to inf unwarned, and
            # disk_mass raises
            with np.errstate(over="ignore"):
                coef = (math.pi * np.float_power(radii, 2 * a + 2)
                        / ((a + 1) * math.factorial(a) ** 2))
                total = total + coef * _poly_eval(Q, centers).real
        return np.maximum(total, 0.0)


# ---------------------------------------------------------------------------
# radial fields

#: relative error bound of the radial quadrature of m(r)
_RADIAL_REL_TOL = 1e-9
#: relative tolerance of the adaptive annulus integral of a radial disk
#: mass.  On 20,000 random disks its masses stay within 7.0e-9 relative
#: of a 256-node rule (radial_alpha 0.5; 9.5e-11 at alpha = 0.01)
_ANNULUS_REL_TOL = 1e-7


class RadialProfileDensity(DensityField):
    """Density f(|z|) depending only on |z|, with the potential
    reconstructed radially: P'(r) = m(r)/r with m(r) = int_0^r s f(s) ds,
    so that lap P = P'' + P'/r = f.

    ``profile`` maps an array of radii s >= 0 to f(s) elementwise.  m(r)
    is integrated on the pieces [0, 1], [1, 2], [2, 4], ... of [0, r] (the
    last one cut at r), each to relative tolerance ``_RADIAL_REL_TOL``;
    the profile is assumed smooth inside each piece, and a jump inside one
    raises QuadratureFailure.  A subclass with m in closed form overrides
    ``cumulative``.

    A disk mass is its covered disk's mass plus an annulus integral,
    adaptive to relative tolerance ``_ANNULUS_REL_TOL``.  The profile is
    assumed smooth on the annulus: a jump there (a step profile's rim
    inside the disk's) raises QuadratureFailure."""

    family = "radial_profile"

    def __init__(self, profile):
        self.profile = profile

    def cumulative(self, r):
        """m(r) = int_0^r s f(s) ds for radii r >= 0 (a float or an
        array), in the shape of r."""
        r = np.asarray(r, dtype=float)
        # piece j of each radius is [2^(j-1), 2^j] (j >= 1) or [0, 1],
        # cut at the radius: frexp gives the count of pieces exactly
        flat = r.ravel()
        mant, expo = np.frexp(flat)
        count = np.maximum(expo - (mant == 0.5), 0) + 1
        owner = np.repeat(np.arange(flat.size), count)
        j = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
        lo = np.where(j > 0, np.ldexp(1.0, j - 1), 0.0)
        width = (np.minimum(np.ldexp(1.0, j), flat[owner]) - lo)[:, None]
        lo = lo[:, None]

        def integrand(x, live):
            s = lo[live] + width[live] * x
            return np.asarray(self.profile(s), dtype=float) * s * width[live]

        pieces = quadrature.adaptive_1d(integrand, 0.0, 1.0,
                                        rel_tol=_RADIAL_REL_TOL,
                                        rows=len(owner))
        return np.bincount(owner, weights=pieces,
                           minlength=flat.size).reshape(r.shape)

    def dP(self, r):
        """P'(r) = m(r)/r for an array of radii r > 0."""
        r = np.asarray(r, dtype=float)
        return self.cumulative(r) / r

    def _density(self, z):
        return np.asarray(self.profile(np.abs(z)), dtype=float)

    def potential_gradient(self, z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        # on whole arrays: the gradient is 0 at z = 0, where the radius 1
        # stands in so that neither m(0)/0 nor a profile singular at 0 is
        # evaluated
        off_origin = r > 0
        r = np.where(off_origin, r, 1.0)
        dp = self.dP(r)
        return (np.where(off_origin, dp * z.real / r, 0.0),
                np.where(off_origin, dp * z.imag / r, 0.0))

    # -- disk masses: reduce to 1D radial integrals ------------------------

    def _covered_masses(self, d, radii):
        """2 pi m(r) for each disk centered within 1e-8 max(1, r) of the
        origin, else 2 pi m(r - d) of its covered disk (0.0 where d >= r),
        and the mask of these far disks, whose annulus integrals are due.
        mu is even in d, so a near disk's mass is the centered one to
        O((d/r)^2); a smaller cutoff leaves annulus integrals so thin that
        round-off keeps them from converging (d = 3e-11 at r = 20)."""
        far = d >= 1e-8 * np.maximum(1.0, radii)
        covered = np.maximum(np.where(far, radii - d, radii), 0.0)
        return 2.0 * math.pi * self.cumulative(covered), far

    def _disk_masses(self, centers, radii):
        """Each disk's covered mass plus its annulus integral.  A mass
        depends only on (|center|, r), packed exactly as d + r i: one row
        per distinct far pair, and the rows run in one ``adaptive_1d``
        doubling loop, each stopping at its own order.  With
        return_inverse, np.unique sorts and never reaches the numpy.ma
        check that its plain form makes."""
        pairs, back = np.unique(np.abs(centers) + 1j * radii,
                                return_inverse=True)
        d, r = pairs.real, pairs.imag
        out, far = self._covered_masses(d, r)
        d, r = d[far], r[far]

        def integrand(x, live):
            return np.multiply(*self._annulus_integrand(
                d[live, None], r[live, None])(x))

        # far from the origin 2 d s, or a profile's s^2, overflows and the
        # integrand would round to 0: an error, not a mass of 0.0
        try:
            with np.errstate(over="raise"):
                out[far] += quadrature.adaptive_1d(
                    integrand, 0.0, 0.5 * math.pi, rel_tol=_ANNULUS_REL_TOL,
                    rows=len(d))
        except FloatingPointError:
            raise CCStructError(
                f"annulus integrand of {self.family} field overflows on a "
                f"disk reaching {float(np.max(d + r))!r} from the "
                "origin") from None
        return out[back]

    def _annulus_integrand(self, d, r):
        """The annulus integrand for centers at distance d (a float or a
        column) from the origin: the function of nodes x in [0, pi/2]
        returning its factors (f(s) s theta(s), span sin 2x).  theta(s),
        the angle measure of {t : |d + s e^(i t)| <= r}, has sqrt-type
        kinks at both ends of [|d-r|, d+r]; the sin^2 substitution
        flattens them, so plain Gauss-Legendre converges spectrally.
        theta is formed from the exact offset s - d as cos = 1 + q,
        q = (off^2 - r^2)/(2 d s), which avoids the cancellation in
        d^2 + s^2 - r^2 for a small disk far from the origin; the
        half-angle atan2 form keeps full precision near 0 and 2 pi."""
        span = 2.0 * np.minimum(d, r)
        u0 = r - span    # |d-r| - d: r - 2d for d < r, exactly -r otherwise

        def factors(x):
            off = u0 + span * np.sin(x) ** 2
            s = d + off
            q = np.clip((off * off - r * r) / (2.0 * d * s), -2.0, 0.0)
            theta = 2.0 * np.arctan2(np.sqrt(-q * (2.0 + q)), 1.0 + q)
            return (np.asarray(self.profile(s), dtype=float) * s * theta,
                    span * np.sin(2.0 * x))

        return factors


class RadialAlphaDensity(RadialProfileDensity):
    """Density (1 + |z|^2)^(-alpha/2) for alpha in (0, 2/3): strictly
    positive, radially decreasing, with the cumulative integral in
    closed form:  m(r) = ((1 + r^2)^(1 - alpha/2) - 1) / (2 - alpha)."""

    family = "radial_alpha"

    def __init__(self, alpha):
        alpha = float(alpha)
        if not 0.0 < alpha < 2.0 / 3.0:
            raise ValueError("alpha must lie in (0, 2/3)")
        self.alpha = alpha
        super().__init__(
            profile=lambda s: (1.0 + np.asarray(s, dtype=float) ** 2) ** (-alpha / 2.0),
        )

    def cumulative(self, r):
        # the closed form's steps in place on one flat buffer (temporaries
        # raise a volume run's peak RSS); float_power's float64 loop is
        # libm pow, as Python's float ** float for the base 1 + r^2 >= 1,
        # where np.power's SIMD loops round differently
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):  # disk_mass raises on an inf mass
            x = np.multiply(r, r).ravel()
        x += 1.0
        np.float_power(x, 1.0 - self.alpha / 2.0, out=x)
        x -= 1.0
        x /= 2.0 - self.alpha
        return x.reshape(r.shape)


# ---------------------------------------------------------------------------

def _mollifier(s):
    """The standard smooth compactly supported profile exp(-1/(1-s^2))
    on [0, 1), vanishing to infinite order at s = 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


#: The mollifier's plane mass, int_0^1 2 pi s exp(-1/(1-s^2)) ds, as
#: scipy's quad gives it at epsabs 1e-14, epsrel 1e-13
_MOLLIFIER_MASS = 0.46651239317833004


#: Gauss-Legendre order of each radial piece of a partial bump overlap
_BUMP_NODES = 48


def _bump_fractions_inside(d, rho, r):
    """Fractions of unit bumps at distances ``d`` (support radii ``rho``)
    lying inside a disk of radius ``r`` about the query center, one per
    (d, rho, r) triple; a float r is every pair's radius.

    The 1D radial integral over s in [0, 1] is split at the regime
    boundaries s = |r - d|/rho and s = (r + d)/rho where the wedge angle
    has kinks, so fixed Gauss-Legendre converges fast on each piece.  The
    piece beyond (r + d)/rho lies wholly outside the disk (wedge angle 0)
    and is not evaluated.  On the first piece the bump's circle of radius
    rho s lies wholly inside the disk where r > d (angle 2 pi) and wholly
    outside it where d > r (angle 0): there the angle is that constant, and
    an outside first piece is skipped.  Only where |r - d| <= 1e-9 (d + r)
    is the first piece's angle computed, as it always is on the second.
    The pairs run in blocks, each piece one (pairs x nodes) array within
    ``KERNEL_BUDGET``; a first piece with no rows in a block is not run.
    Empty pieces add exactly zero, and each piece's node sum is a BLAS dot
    product, so a pair's fraction does not depend on the other pairs in
    the call.
    """
    x, w = quadrature.gauss_legendre(_BUMP_NODES)
    r = np.broadcast_to(r, d.shape)

    def piece(a, b, d, rho, r, angle=None):
        # the integral over s in [a, b], one row per pair; the wedge angle
        # is ``angle`` on every node, or else computed
        half = (0.5 * (b - a))[:, None]
        s = a[:, None] + half * (x + 1.0)
        # the mollifier: s <= 1 on every node, and s = 1 gives exp(-inf) = 0
        with np.errstate(divide="ignore"):
            phi = np.exp(-1.0 / (1.0 - s * s))
        if angle is None:
            dc, rc = d[:, None], r[:, None]
            radii = rho[:, None] * s
            # a pair with dc < 1e-15 (a subnormal dc too) may divide by 0
            # or overflow here; its angle is replaced below
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                cosv = (dc * dc + radii ** 2 - rc * rc) / (2.0 * dc * radii)
                # arccos(-1) = pi and arccos(1) = 0, so the clip gives
                # 2 pi wholly inside the disk and 0 wholly outside it
                angle = 2.0 * np.arccos(np.clip(cosv, -1.0, 1.0))
            if np.any(dc < 1e-15):
                angle = np.where(dc < 1e-15,
                                 np.where(radii <= rc, 2.0 * math.pi, 0.0),
                                 angle)
        vals = phi * s * angle
        out = ((half * w)[:, None, :] @ vals[:, :, None])[:, 0, 0]
        return np.where(b > a, out, 0.0)

    num = np.empty(d.shape)
    step = KERNEL_BUDGET // _BUMP_NODES
    for k in range(0, len(d), step):
        dk, rhok, rk = d[k:k + step], rho[k:k + step], r[k:k + step]
        lo = np.minimum(np.abs(rk - dk) / rhok, 1.0)
        hi = np.minimum((rk + dk) / rhok, 1.0)
        # The first piece's computed angle is exactly 2 pi or 0 outside the
        # margin: its outermost node lies eta = 6.1e-4 of the piece inside
        # |r - d|, where cosv clears -1 or 1 by about eta r / d, while
        # rounding moves cosv by about u d / |r - d| (u = 1.1e-16), so the
        # clip is exact wherever |r - d| passes about 2e-13 d, and the
        # margin of 1e-9 (d + r) is some 5,000 times wider
        computed = np.abs(rk - dk) <= 1e-9 * (dk + rk)
        first = np.zeros(len(dk))
        for rows, angle in ((~computed & (rk > dk), 2.0 * math.pi),
                            (computed, None)):
            n = np.count_nonzero(rows)
            if n:
                first[rows] = piece(np.zeros(n), lo[rows], dk[rows],
                                    rhok[rows], rk[rows], angle)
        num[k:k + step] = first + piece(lo, hi, dk, rhok, rk)
    return num / _MOLLIFIER_MASS


class BumpLattice(DensityField):
    """A finite sum of smooth radial bumps.  Bump k has total mass m_k
    supported in the disk of radius rho_k around its center (supports may
    overlap).  Used to build the linear-growth test regime.

    Its one disk-mass kernel, ``_disk_masses``, behind ``disk_mass``, and
    the density take their (disk or point, bump) pairs from one cell list
    built once (``_near_pairs``), however far a disk reaches: the bump
    centers binned on a uniform grid over the support box, each cell's
    bumps one run of ``_order``.  The cells that meet the square of
    half-side ``reach`` about a query form one run of ``_order`` per cell
    row, and the pairs come out of those runs in blocks within
    ``KERNEL_BUDGET``."""

    family = "bump_lattice"

    def __init__(self, centers, masses, radii):
        centers = np.asarray(centers, dtype=complex).ravel()
        masses = np.asarray(masses, dtype=float).ravel()
        radii = np.asarray(radii, dtype=float).ravel()
        if not (len(centers) == len(masses) == len(radii)):
            raise ValueError("centers, masses, radii must have equal length")
        if len(centers) == 0:
            raise ValueError("at least one bump is required")
        if not (np.all(np.isfinite(masses) & (masses > 0))
                and np.all(np.isfinite(radii) & (radii > 0))):
            raise ValueError("masses and radii must be positive and finite")
        if not np.all(np.isfinite(centers)):
            raise ValueError("bump centers must be finite")
        self.centers = centers
        self.masses = masses
        self.radii = radii
        self._rho_max = float(np.max(radii))
        # the support box: (x0, x1, y0, y1) around every bump's support
        self._box = (float(np.min(centers.real)) - self._rho_max,
                     float(np.max(centers.real)) + self._rho_max,
                     float(np.min(centers.imag)) - self._rho_max,
                     float(np.max(centers.imag)) + self._rho_max)
        # cells of side at least rho_max, about one bump each on an even
        # lattice and at most 3 n + 1 of them however the bumps lie (the
        # side is finite even where the box's width overflows)
        x0, x1, y0, y1 = self._box
        w, h, n = x1 - x0, y1 - y0, len(centers)
        self._side = min(max(self._rho_max, math.sqrt(w / n) * math.sqrt(h),
                             max(w, h) / n), np.finfo(float).max)
        self._ncols = 1 + int(min(n, w / self._side))
        self._nrows = 1 + int(min(n, h / self._side))
        col, _ = self._cell_span(centers.real, 0.0, x0, self._ncols)
        row, _ = self._cell_span(centers.imag, 0.0, y0, self._nrows)
        cell = row * self._ncols + col
        # cell k holds the bumps _order[_starts[k]:_starts[k + 1]], ascending
        self._order = np.argsort(cell, kind="stable")
        self._starts = np.searchsorted(
            cell[self._order], np.arange(self._nrows * self._ncols + 1))
        # _counts[i, j]: the bumps in the cells of rows < i, columns < j
        self._counts = np.zeros((self._nrows + 1, self._ncols + 1), np.intp)
        self._counts[1:, 1:] = np.diff(self._starts).reshape(
            self._nrows, self._ncols).cumsum(0).cumsum(1)
        # whether bump indices ascend with the cells (row by row, as on a
        # Gaussian-integer lattice): then a query's runs, in cell order,
        # list its candidates in ascending bump index without a sort
        self._ascending = bool(np.all(np.diff(self._order) > 0))

    def _cell_span(self, coords, reach, origin, count):
        """The first and last of the ``count`` cells along one axis that
        [c - reach, c + reach] meets, for each coordinate c of an array;
        first > last where it meets none.  Clipped in float before the
        cast, so that no coordinate overflows or wraps an index."""
        first = np.floor((coords - reach - origin) / self._side)
        last = np.floor((coords + reach - origin) / self._side)
        return (np.clip(first, 0, count).astype(np.intp),
                np.clip(last, -1, count - 1).astype(np.intp))

    def _reach(self, r):
        # a bump adds to a disk mass where np.abs(center - bump) - rho < r,
        # with np.abs rounded; the margin keeps every such bump strictly
        # inside the square of half-side reach, so the cells, found from
        # the square through monotone roundings and floor, list it.  Extra
        # candidates add exactly 0.0
        return (r + self._rho_max) * (1.0 + 1e-12)

    def _near_pairs(self, points, reach):
        """Yield (query index, bump index) arrays of candidate pairs,
        ordered by query and then by ascending bump index, in blocks of
        queries whose pairs and (query, cell row) runs number at most
        ``KERNEL_BUDGET // 2``, so that a block's complex pair arrays hold
        at most ``KERNEL_BUDGET`` float64 values (a lone query may hold
        more).  The candidates of a query are the bumps in the cells that
        the square of half-side ``reach`` (a float, or one per query) about
        it meets, a superset of the bumps within that reach; ``_counts``
        counts them before any is listed.  Each (query, cell row) is one
        run of ``_order``.  Where the bump indices do not ascend with the
        cells, one sort of the integer key query * bumps + bump puts a
        block's pairs in order."""
        n = len(self.centers)
        x0, _, y0, _ = self._box
        col0, col1 = self._cell_span(points.real, reach, x0, self._ncols)
        row0, row1 = self._cell_span(points.imag, reach, y0, self._nrows)
        rows = np.where(col0 <= col1, np.maximum(row1 - row0 + 1, 0), 0)
        # a query's share of a block: its candidates, counted from _counts
        # (0 on an empty span, where row1 + 1 == row0 or col1 + 1 == col0),
        # and its runs
        c = self._counts
        cost = (c[row1 + 1, col1 + 1] - c[row0, col1 + 1] - c[row1 + 1, col0]
                + c[row0, col0] + rows)
        upto = np.cumsum(cost)
        lo = 0
        while lo < len(points):
            base = upto[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(
                upto, base + KERNEL_BUDGET // 2, side="right")))
            # one run per (query, cell row), queries ascending
            run_q = np.repeat(np.arange(lo, hi), rows[lo:hi])
            ends = np.cumsum(rows[lo:hi])
            row = (row0[run_q] + np.arange(len(run_q))
                   - (ends - rows[lo:hi])[run_q - lo])
            first = self._starts[row * self._ncols + col0[run_q]]
            count = self._starts[row * self._ncols + col1[run_q] + 1] - first
            # each run's positions first, first + 1, ... in _order
            pos = np.repeat(first - np.cumsum(count) + count, count)
            pos += np.arange(len(pos))
            qi, bi = np.repeat(run_q, count), self._order[pos]
            if not self._ascending:
                bi = np.sort(qi * n + bi) - qi * n
            yield qi, bi
            lo = hi

    def _density(self, z):
        flat = z.ravel()
        out = np.zeros(flat.shape)
        for qi, bi in self._near_pairs(flat, self._reach(0.0)):
            if len(qi):
                rho = self.radii[bi]
                vals = (self.masses[bi] / (rho ** 2 * _MOLLIFIER_MASS)
                        * _mollifier(np.abs(flat[qi] - self.centers[bi])
                                     / rho))
                # the block's points ascend: only their span gets its sums
                out[qi[0]:qi[-1] + 1] += np.bincount(qi - qi[0], weights=vals)
        return out.reshape(z.shape)

    def _disk_masses(self, centers, radii):
        """Each disk's mass: ``np.add.reduce`` (``np.sum``'s reduction)
        adds the masses of the bumps wholly inside it, then its partial
        masses are added one at a time, both in ascending bump index (the
        polish amplifies last-bit changes).  The partial overlaps are held
        until there are at least ``KERNEL_BUDGET`` of them; ``np.add.at``
        adds them in index order, and each disk's pairs lie in one block of
        ``_near_pairs``.  One lexsort of a held batch's (d, rho, r) triples
        sends each distinct triple to the kernel once (a search lattice
        about a symmetry point of the bumps repeats a triple up to 8 times),
        and its fraction goes back to every pair that has it.  A pair's
        fraction does not depend on the other pairs of a kernel call, so
        each mass keeps the bits of a kernel row per pair."""
        out = np.zeros(len(centers))
        # the (disk, bump, distance) arrays of the partial overlaps held,
        # and their count
        parts, held = [], 0

        def add_partials():
            disk, bump, d = (np.concatenate(a) for a in zip(*parts))
            parts.clear()
            rho, r = self.radii[bump], radii[disk]
            # sorted, a triple is new where any key differs from the one
            # before it: run[k] is the k-th held triple's run of equal ones
            order = np.lexsort((r, rho, d))
            new = np.zeros(len(order), bool)
            new[0] = True
            for key in (d, rho, r):
                key = key[order]
                new[1:] |= key[1:] != key[:-1]
            del key
            run = np.empty_like(order)
            run[order] = np.cumsum(new) - 1
            first = order[new]
            del order, new
            frac = _bump_fractions_inside(d[first], rho[first], r[first])
            np.add.at(out, disk, self.masses[bump] * frac[run])

        for disk, bump in self._near_pairs(centers, self._reach(radii)):
            d = np.abs(centers[disk] - self.centers[bump])
            r, rho = radii[disk], self.radii[bump]
            inside = d + rho <= r
            partial = ~inside & (d - rho < r)
            disk_in = disk[inside]
            cuts = np.flatnonzero(disk_in[1:] != disk_in[:-1]) + 1
            masses = self.masses[bump[inside]]
            for lo, hi in zip([0, *cuts], [*cuts, len(disk_in)]):
                if hi > lo:
                    out[disk_in[lo]] = np.add.reduce(masses[lo:hi])
            parts.append((disk[partial], bump[partial], d[partial]))
            held += np.count_nonzero(partial)
            # the block's arrays go before a held batch is sorted, so that
            # the two are not alive at once
            del disk, bump, d, r, rho, inside, partial, disk_in, masses
            if held >= KERNEL_BUDGET:
                add_partials()
                held = 0
        if held:
            add_partials()
        return out


def decaying_bump_lattice(extent):
    """Bumps at the Gaussian integers k with |Re k|, |Im k| <= extent,
    masses 1/(1+|k|) and radii min(1/4, mass)."""
    ks = np.arange(-int(extent), int(extent) + 1)
    grid = (ks[None, :] + 1j * ks[:, None]).ravel()
    masses = 1.0 / (1.0 + np.abs(grid))
    return BumpLattice(grid, masses, np.minimum(0.25, masses))


# ---------------------------------------------------------------------------

def _moment_series():
    """The series of J_q(h) = integral of V^q over [-h, h], V = 1 - cos,
    for q = 1..4: J_q(h) = h sum_k A[q, k] h^(2k) over k >= 1.  From
    V^q = 2^-q (C(2q, q) + 2 sum_j (-1)^j C(2q, q - j) cos(j delta)),
    A[q, k] = 2^(1-q) (-1)^k N[q, k] / (2k + 1)!, where N[q, k] sums those
    weights times j^(2k): integers while below 2^53, so the zeros at k < q
    are exact.  A piece spans at most pi, so h <= pi/2; the series stops
    before the first term below half an ulp of J_0(pi/2) = pi there, at
    k = 18 (at 17, J_4 would be 1.5e-15 off)."""
    q, k = np.arange(5.0), np.arange(24)
    weights = np.array([[(2.0 - (j == 0)) * (-1) ** j * math.comb(2 * n, n - j)
                         if j <= n else 0.0 for j in range(5)]
                        for n in range(5)])
    coef = ((weights[:, :, None] * q[:, None] ** (2 * k)).sum(axis=1)
            * (2.0 ** (1 - q))[:, None] * (-1.0) ** k
            / [float(math.factorial(2 * n + 1)) for n in k])
    size = np.abs(coef) * (0.5 * math.pi) ** (2 * k + 1)
    return coef[1:, 1:np.argmax(size.max(axis=0) < 0.5 * math.ulp(math.pi))]


#: A grid disk mass is cut into angular pieces on which the column and
#: the chord ends' rows are fixed.  About a piece's midpoint angle, with
#: delta = theta - theta_m, S = sin(delta) and V = 1 - cos(delta), the
#: column offset is X = R (c V + s S) and the upper chord end's row offset
#: Y = R (c S - s V), in cells, with R = r / cell, c = cos(theta_m) and
#: s = sin(theta_m).  The chord's integral is a polynomial in X (degree 1)
#: and Y (degree 2), and dX = R (c S + s (1 - V)) d(delta).  Odd powers of
#: S integrate to zero and S^2 = V (2 - V), so the moment of X^a Y^b dX is
#: R^(a+b+1) pref_ab (L_ab + c^2 M_ab).J over the moments J_q of V^q:
#: J_0 = 2h, and the rest from this series in h^2
_MOMENT_SERIES = _moment_series()
#: (L_ab; M_ab) over q = 1..4 for (a, b) = 00, 10, 01, 11, 02, 12, whose
#: prefactors pref_ab are s, cs, 1, c, s, cs; of J_0, only L_00 holds 1
_MOMENT_TERMS = np.array([
    [-1, 0, 0, 0], [3, -2, 0, 0], [-1, 1, 0, 0],
    [2, -6, 3, 0], [0, 1, -1, 0], [0, -4, 9, -4],
    [0, 0, 0, 0], [0, 0, 0, 0], [3, -2, 0, 0],
    [-2, 8, -4, 0], [2, -8, 4, 0], [0, 10, -20, 8]], dtype=float)
#: a + b + 1 of each coefficient, over (Y power b, X power a)
_MOMENT_POWERS = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])[
    :, :, None, None]
#: the lower and the upper chord end; the lower end's Y^b coefficient
#: has the sign (-1)^b
_CHORD_ENDS = np.array([-1.0, 1.0])[:, None, None]
_LOWER_END = np.array([1.0, -1.0, 1.0])[:, None, None, None]
#: floats a piece holds in its largest array (the powers of its series)
_PIECE_FLOATS = _MOMENT_SERIES.shape[1]
#: Largest r/cell at which a zero-extension grid disk whose rim crosses the
#: table gets a mass.  The angular cuts of a disk huge against a cell are
#: off by about an ulp of the angle, which moves the rim by about
#: eps r/cell cells: on 800 random disks at r/cell 1e6 to 1e10 whose rims
#: cross two tables, the error stayed under 9e-17 r/cell of the table's
#: mass, and under 3.6e-15 r/cell relative on the disks holding at least
#: 1e-3 of the table, so 3.6e-7 here, within DISK_MASS_REL_TOL
_MAX_RIM_RADIUS = 1e8
#: Most lattice lines along an axis that a periodic grid disk mass cuts at
#: (every line within 2r): past it, at r/cell above 499, it raises
#: QuadratureFailure.  The tests reach r/cell of 499; there a disk takes
#: 1.1 ms, and a coarse rung of 797 disks 0.9 s
_MAX_GRID_LINES = 1000


class GridDensity(DensityField):
    """Density sampled on a uniform grid with bilinear interpolation
    between nodes and a declared extension rule beyond the window: zero,
    or periodic with periods (nx - 1) and (ny - 1) cells.

    Disk masses are exact up to round-off, with no quadrature rule.  Along
    a vertical line the density is (1 - fx) L_i(y) + fx L_{i+1}(y), with
    L_i the piecewise-linear profile of grid column i, so the inner
    y-integral over the disk's chord is read from a table of column
    antiderivatives.  The outer integral, in theta with
    x = cx - r cos(theta), is cut at the angles where x crosses a grid
    column or cy -/+ r sin(theta) crosses a grid row; between two cuts the
    chord's integral is a polynomial in the offsets from the piece's
    midpoint, integrated exactly (``_MOMENT_SERIES``)."""

    family = "grid"

    def __init__(self, origin, cell_size, values, extension="zero"):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or min(values.shape) < 2:
            raise ValueError("grid values must be a 2D array of at least "
                             "2 x 2 nodes")
        if not np.all(np.isfinite(values) & (values >= 0)):
            raise ValueError("grid node values must be finite and "
                             "non-negative")
        if extension not in ("zero", "periodic"):
            raise ValueError("extension must be 'zero' or 'periodic'")
        if not (math.isfinite(cell_size) and cell_size > 0):
            raise ValueError("cell size must be positive and finite")
        if not cmath.isfinite(complex(origin)):
            raise ValueError("grid origin must be finite")
        self.origin = complex(origin)
        self.cell_size = float(cell_size)
        self.values = values
        self.extension = extension
        # three tables over the flat node index j nx + i, in grid units:
        # the integral of column i's profile from row 0 to row j
        # (cumulative trapezoid sums), and the profile's value and half
        # slope on the row step above j (zero on the last row); beside
        # each, its step to column i + 1 (never read on the last column)
        cum = np.zeros(values.shape)
        cum[1:] = np.cumsum(0.5 * (values[:-1] + values[1:]), axis=0)
        half_slope = np.zeros(values.shape)
        half_slope[:-1] = 0.5 * (values[1:] - values[:-1])
        tables = np.stack([cum, values, half_slope]).reshape(3, -1)
        steps = np.zeros(tables.shape)
        steps[:, :-1] = tables[:, 1:] - tables[:, :-1]
        self._column_tables = np.stack([tables, steps], axis=1)

    def _density(self, z):
        gx = (z.real - self.origin.real) / self.cell_size
        gy = (z.imag - self.origin.imag) / self.cell_size
        ny, nx = self.values.shape
        if self.extension == "periodic":
            gx = np.mod(gx, nx - 1)
            gy = np.mod(gy, ny - 1)
        ix = np.clip(np.floor(gx).astype(int), 0, nx - 2)
        iy = np.clip(np.floor(gy).astype(int), 0, ny - 2)
        fx = gx - ix
        fy = gy - iy
        v = self.values
        val = (v[iy, ix] * (1 - fx) * (1 - fy)
               + v[iy, ix + 1] * fx * (1 - fy)
               + v[iy + 1, ix] * (1 - fx) * fy
               + v[iy + 1, ix + 1] * fx * fy)
        if self.extension == "zero":
            in_x = (gx >= 0) & (gx <= nx - 1)
            in_y = (gy >= 0) & (gy <= ny - 1)
            val = np.where(in_x & in_y, val, 0.0)
        return val

    def _line_count(self, r, n):
        """How many grid lines along an axis of n nodes ``_crossings``
        tries for disks of the radii r (an array): under zero extension at
        most the n of the grid; under periodic extension every lattice
        line, and QuadratureFailure where that passes ``_MAX_GRID_LINES``
        (checked in float, before the cast)."""
        lines = 2.0 * r / self.cell_size
        if self.extension == "zero":
            lines = np.minimum(lines, n - 2)
        elif lines.max(initial=0.0) > _MAX_GRID_LINES - 2:
            raise QuadratureFailure(
                f"periodic grid disk of radius {float(np.max(r))!r} meets "
                f"more than {_MAX_GRID_LINES} grid lines along an axis")
        return lines.astype(int) + 2

    def _crossings(self, c, r, o, n):
        """(line - c)/r for the grid lines o + cell k within distance r
        of each coordinate of the column ``c`` (r a column too), one row
        each, padded with nan to the largest ``_line_count`` of r."""
        cell = self.cell_size
        count = int(self._line_count(r, n).max())
        k0 = np.floor((c - r - o) / cell)
        if self.extension == "zero":
            k0 = np.minimum(np.maximum(k0, 0.0), n - count)
        a = (o + cell * (k0 + np.arange(count)) - c) / r
        return np.where(np.abs(a) < 1.0, a, np.nan)

    def _disk_masses(self, centers, radii):
        """Masses of the disks of ``radii`` about a flat array of centers.

        Its largest arrays hold ``_PIECE_FLOATS`` values a piece (the
        powers of the moment series), so it sees at most
        ``KERNEL_BUDGET // _PIECE_FLOATS`` pieces at once: a block of
        centers of one piece count, or a run of one center's pieces.  Each
        piece is summed on its own and each mass is the sum of its lone
        call's pieces: no bit moves.

        Under zero extension a disk that holds the four table corners
        holds the whole table, and gets its mass, the trapezoid sum of the
        column integrals, without the angular cuts: on a disk huge against
        a cell the cuts of all columns round to one angle.  The corners'
        distances, rounded by under 2 ulps, must be 4 ulps inside, and
        only a disk as wide as the table's diagonal is tried.  Past
        ``_MAX_RIM_RADIUS`` cells a disk that misses the table holds
        nothing, and one whose rim crosses it raises QuadratureFailure."""
        ny, nx = self.values.shape
        cell = self.cell_size
        out = np.empty(len(centers))
        # the disks whose masses run through the cuts
        rest = np.arange(len(centers))
        if (self.extension == "zero" and 2.0 * radii.max(initial=0.0)
                >= cell * math.hypot(nx - 1, ny - 1)):
            corners = self.origin + cell * np.array(
                [0.0, nx - 1, (ny - 1) * 1j, nx - 1 + (ny - 1) * 1j])
            inner = radii * (1.0 - 4.0 * np.finfo(float).eps)
            whole = np.all(np.abs(centers[:, None] - corners)
                           <= inner[:, None], axis=1)
            totals = self._column_tables[0, 0, (ny - 1) * nx:]
            out[whole] = cell * cell * (0.5 * (totals[:-1] + totals[1:])).sum()
            rest = rest[~whole]
            far = radii[rest] > _MAX_RIM_RADIUS * cell
            if far.any():
                c, r, lo, hi = (centers[rest[far]], radii[rest[far]],
                                corners[0], corners[3])
                meets = np.abs(c - np.clip(c.real, lo.real, hi.real)
                               - 1j * np.clip(c.imag, lo.imag, hi.imag)) < r
                if meets.any():
                    raise QuadratureFailure(
                        f"zero-extension grid disk of radius "
                        f"{float(r[meets][0])!r} crosses the table at more "
                        f"than {_MAX_RIM_RADIUS:g} cells")
                out[rest[far]] = 0.0
                rest = rest[~far]
        pieces = (1 + self._line_count(radii[rest], nx)
                  + 2 * self._line_count(radii[rest], ny))
        run = KERNEL_BUDGET // _PIECE_FLOATS
        # not np.unique, whose first call imports numpy.ma (about 15 ms)
        for count in set(pieces.tolist()):
            group = rest[pieces == count]
            step = max(1, run // count)
            for rows in (group[lo:lo + step]
                         for lo in range(0, len(group), step)):
                block, r = centers[rows, None], radii[rows, None]
                cuts = self._cuts(block, r)
                masses = [self._piece_masses(block, r, cuts[:, a:a + run + 1])
                          for a in range(0, count, run)]
                out[rows] = cell * cell * np.concatenate(
                    masses, axis=1).sum(axis=1)
        return out

    def _cuts(self, centers, r):
        """The sorted angles in [0, pi] that split the outer integral of
        each center of a column (r a column too) into smooth pieces, one
        row each: x = cx - r cos(theta) on a column, |y - cy| = r sin(theta)
        on a row.  The nan pads sort last and become pi, giving empty
        pieces of zero weight."""
        ny, nx = self.values.shape
        ax = self._crossings(centers.real, r, self.origin.real, nx)
        ay = np.arcsin(np.abs(
            self._crossings(centers.imag, r, self.origin.imag, ny)))
        ends = np.zeros((len(centers), 2))
        ends[:, 1] = math.pi
        cuts = np.sort(np.concatenate(
            [ends, np.arccos(-ax), ay, math.pi - ay], axis=1), axis=1)
        return np.where(np.isnan(cuts), math.pi, cuts)

    def _piece_masses(self, c, r, cuts):
        """The mass of each piece between consecutive cuts, in square
        cells, one row per center of a column (r too): the exact integral
        of the chord's polynomial in the offsets X, Y from the piece's
        midpoint, its six coefficients read from the tables there."""
        ny, nx = self.values.shape
        cell, o = self.cell_size, self.origin
        periodic = self.extension == "periodic"
        R = r / cell
        half = 0.5 * (cuts[:, 1:] - cuts[:, :-1])
        mid = cuts[:, :-1] + half
        cos, sin = np.cos(mid), np.sin(mid)

        gx = (c.real - o.real) / cell - R * cos
        if periodic:
            # reduce to the first period (np.mod is many times slower)
            gx = gx - (nx - 1) * np.floor(gx / (nx - 1))
        # clamped in float before the cast, which then floors
        ix = np.minimum(np.maximum(gx, 0.0), nx - 2.0).astype(np.intp)
        fx = gx - ix

        # the chord's two ends as a grid row and the fraction t above it,
        # taken from the center's row, so that t keeps its digits on a
        # short chord.  Under periodic extension each row is reduced to the
        # first period, and the whole column periods between the ends are
        # added back; under zero extension an end off the table sits on its
        # edge, with no Y terms
        y = (c.imag - o.imag) / cell
        base = np.floor(y)
        t = (y - base) + R * sin * _CHORD_ENDS
        row = np.floor(t)
        t -= row
        row += base
        if periodic:
            q = np.floor(row / (ny - 1))
            j = row - (ny - 1) * q
        else:
            j = np.minimum(np.maximum(row, 0.0), ny - 2.0)
            free = j == row
            t = np.where(free, t, row > j)
        # the three tables (integral from row 0, value, half slope) at both
        # ends, blended between columns ix and ix + 1 (the X^0 terms), and
        # their steps (the X^1 terms): (table, X power, end, ...)
        p = self._column_tables.take(j.astype(np.intp) * nx + ix, axis=2)
        p[:, 0] += fx * p[:, 1]
        # in place, the Y^0, Y^1 and Y^2 coefficients of each end's
        # antiderivative at t + Y past its row's; the rows' integrals are
        # subtracted apart, so that two ends in one row cancel exactly
        rows = p[0, :, 1] - p[0, :, 0]
        tp = t * p[2]
        p[1] += tp
        np.multiply(t, p[1], out=p[0])
        p[1] += tp
        if not periodic:
            p[1:] *= free
        # the upper end minus the lower, which runs down as Y grows:
        # (Y power, X power, rows, pieces)
        coef = p[:, :, 1] - _LOWER_END * p[:, :, 0]
        coef[0] += rows
        if periodic:
            # a whole column period: the integral to the last row
            top = self._column_tables[0].take((ny - 1) * nx + ix, axis=1)
            top[0] += fx * top[1]
            coef[0] += (q[1] - q[0]) * top
        else:
            coef *= np.abs(gx - 0.5 * (nx - 1)) <= 0.5 * (nx - 1)
        # X^a Y^b integrates to R^(a+b+1) pref_ab (L_ab + c^2 M_ab).J
        coef *= R ** _MOMENT_POWERS
        coef[:, 1] *= cos
        coef[::2] *= sin
        # (h^2)^k for k >= 1, each product doubling the powers made so far
        powers = np.empty((_PIECE_FLOATS,) + half.shape)
        np.multiply(half, half, out=powers[0])
        done = 1
        while done < len(powers):
            more = min(done, len(powers) - done)
            np.multiply(powers[:more], powers[done - 1],
                        out=powers[done:done + more])
            done += more
        # (L; M).J / h, with J_0 / h = 2
        terms = np.einsum("jq,q...->j...", _MOMENT_TERMS, np.einsum(
            "qk,k...->q...", _MOMENT_SERIES, powers))
        terms[0] += 2.0
        terms[:6] += cos * cos * terms[6:]
        return half * (coef.reshape(terms[:6].shape) * terms[:6]).sum(axis=0)


# ---------------------------------------------------------------------------
# module-level operation wrappers

def disk_mass(field: DensityField, center, r):
    """mu(center, r) to relative tolerance ``DISK_MASS_REL_TOL`` or exact:
    ``field.disk_mass``."""
    return field.disk_mass(center, r)

