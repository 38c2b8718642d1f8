"""Density fields: models of the subharmonic data (P, its gradient, and
the plane density given by its Laplacian) together with disk-mass
integration mu(z, r) = integral of the density over B(z, r).

Conventions
-----------
The Laplacian is taken in real coordinates, lap P = P_xx + P_yy, which
equals 4 d^2 P / dz dzbar.  All densities are non-negative (P is
subharmonic); construction rejects data violating this on a sample
lattice.

Fields are immutable after construction and all operations are pure, so
they are safe to share across data-parallel sweep workers.  Internal
memoization only caches pure results.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate as _sciint
from scipy.spatial import cKDTree

from . import quadrature
from .errors import PotentialUnavailable, QuadratureFailure

#: Suprema over the inner disk radius use this lower cutoff: for bounded
#: densities mu(z, h)/h -> 0 as h -> 0, so the supremum is attained away
#: from zero and the cutoff only removes a vanishing tail.
DELTA_HAT_MIN = 1e-3


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
    """Base class: a plane density with optional potential data."""

    family = "abstract"
    has_potential = False
    #: declared symmetry ('radial', or None); classification windows can
    #: only be certified sufficient when a symmetry is declared.
    symmetry = None

    def density(self, z):
        """Density value(s) at complex point(s) ``z``.  Vectorized."""
        raise NotImplementedError

    def potential_gradient(self, z):
        """(P_x, P_y) at ``z``; raises PotentialUnavailable by default."""
        raise PotentialUnavailable(
            f"{self.family} field carries no potential data"
        )

    # -- disk mass ---------------------------------------------------------

    def disk_mass(self, center, r, rel_tol=1e-6):
        """mu(center, r); subclasses override with analytic fast paths."""
        return self.disk_mass_quadrature(center, r, rel_tol=rel_tol)

    def disk_mass_quadrature(self, center, r, rel_tol=1e-6):
        """Force the generic adaptive polar quadrature path."""
        if r <= 0:
            raise ValueError("disk radius must be positive")
        return quadrature.disk_integral(self.density, complex(center), float(r),
                                        rel_tol=rel_tol)

    def disk_mass_many(self, centers, r):
        """Vectorized mu over an array of centers at a common radius.

        Accuracy target is the coarse-search regime (~1e-5 relative);
        final answers should go through :meth:`disk_mass`.
        """
        centers = np.asarray(centers, dtype=complex)
        flat = centers.ravel()
        out = np.array([self.disk_mass(c, r) for c in flat])
        return out.reshape(centers.shape)

    def __repr__(self):
        return f"<{type(self).__name__} family={self.family}>"


# ---------------------------------------------------------------------------

class ConstantDensity(DensityField):
    """Constant density c > 0; the potential is c |z|^2 / 4."""

    family = "constant"
    has_potential = True
    symmetry = "radial"

    def __init__(self, c):
        c = float(c)
        if c <= 0:
            raise ValueError("constant density must be positive; "
                             "use ZeroDensity for the zero test double")
        self.c = c

    def density(self, z):
        z = np.asarray(z, dtype=complex)
        return np.full(z.shape, self.c)

    def potential_gradient(self, z):
        z = np.asarray(z, dtype=complex)
        return 0.5 * self.c * z.real, 0.5 * self.c * z.imag

    def disk_mass(self, center, r, rel_tol=1e-6):
        if r <= 0:
            raise ValueError("disk radius must be positive")
        return self.c * math.pi * r * r

    def disk_mass_many(self, centers, r):
        centers = np.asarray(centers, dtype=complex)
        return np.full(centers.shape, self.c * math.pi * r * r)


class ZeroDensity(DensityField):
    """Explicit zero test double (P harmonic); not a valid model field
    but useful for exercising degenerate paths."""

    family = "zero"
    has_potential = True
    symmetry = "radial"

    def density(self, z):
        z = np.asarray(z, dtype=complex)
        return np.zeros(z.shape)

    def potential_gradient(self, z):
        z = np.asarray(z, dtype=complex)
        return np.zeros(z.shape), np.zeros(z.shape)

    def disk_mass(self, center, r, rel_tol=1e-6):
        if r <= 0:
            raise ValueError("disk radius must be positive")
        return 0.0

    def disk_mass_many(self, centers, r):
        centers = np.asarray(centers, dtype=complex)
        return np.zeros(centers.shape)


# ---------------------------------------------------------------------------

class PolynomialPotential(DensityField):
    """P(z) = sum c_{j,k} z^j zbar^k with Hermitian coefficients.

    The density and all of its z/zbar derivatives are available in closed
    form, which also yields an exact disk-mass formula

        mu(c, r) = pi * sum_a r^(2a+2) / ((a+1) (a!)^2) * (dz^a dzbar^a lapP)(c),

    obtained by expanding the shifted polynomial and using that only
    balanced monomials u^a ubar^a survive integration over a centered disk.
    """

    family = "polynomial"
    has_potential = True

    def __init__(self, coeffs, check_lattice_halfwidth=3.0, check_points=41):
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
        jmax, kmax = C.shape
        self.degree = max(j + k for j in range(jmax) for k in range(kmax)
                          if C[j, k] != 0)
        self._check_nonnegative(check_lattice_halfwidth, check_points)
        self._diag_derivs = self._diagonal_derivatives()

    @staticmethod
    def _coerce(coeffs):
        if isinstance(coeffs, np.ndarray):
            C = np.asarray(coeffs, dtype=complex)
            if C.shape[0] != C.shape[1]:
                n = max(C.shape)
                D = np.zeros((n, n), dtype=complex)
                D[: C.shape[0], : C.shape[1]] = C
                C = D
            return C
        n = 1 + max(max(j, k) for (j, k) in coeffs)
        C = np.zeros((n, n), dtype=complex)
        for (j, k), v in coeffs.items():
            C[j, k] = complex(v)
        return C

    def _check_nonnegative(self, halfwidth, n):
        ax = np.linspace(-halfwidth, halfwidth, n)
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

    def density(self, z):
        vals = _poly_eval(self.lap_coeffs, z).real
        return np.maximum(vals, 0.0)

    def potential_gradient(self, z):
        pz = _poly_eval(_poly_dz(self.coeffs), z)
        return 2.0 * pz.real, -2.0 * pz.imag

    def disk_mass(self, center, r, rel_tol=1e-6):
        if r <= 0:
            raise ValueError("disk radius must be positive")
        return float(self.disk_mass_many(np.asarray(center, dtype=complex), r))

    def disk_mass_many(self, centers, r):
        centers = np.asarray(centers, dtype=complex)
        total = np.zeros(centers.shape)
        for a, Q in enumerate(self._diag_derivs):
            coef = math.pi * r ** (2 * a + 2) / ((a + 1) * math.factorial(a) ** 2)
            total = total + coef * _poly_eval(Q, centers).real
        return np.maximum(total, 0.0)

    def lap_derivative_abs_sum(self, z, k):
        """sum over a of |d^k lapP / dz^a dzbar^(k-a) (z)|."""
        z = complex(z)
        total = 0.0
        for a in range(k + 1):
            Q = self.lap_coeffs
            for _ in range(a):
                Q = _poly_dz(Q)
            for _ in range(k - a):
                Q = _poly_dzbar(Q)
            total += abs(complex(_poly_eval(Q, z)))
        return total


def nagel_lambda_polynomial(field: PolynomialPotential, z, delta):
    """The classical polynomial growth formula: the weighted sum over
    derivative orders of the density's mixed derivatives at z,

        sum_{k=0}^{m-2} ( sum_a |d^k lapP / dz^a dzbar^(k-a)(z)| ) delta^(k+2).
    """
    if not isinstance(field, PolynomialPotential):
        raise TypeError("nagel_lambda_polynomial requires a polynomial field")
    if delta <= 0:
        raise ValueError("delta must be positive")
    total = 0.0
    for k in range(field.degree - 1):  # k = 0 .. m-2
        total += field.lap_derivative_abs_sum(z, k) * delta ** (k + 2)
    return total


# ---------------------------------------------------------------------------
# radial fields

class RadialPotential:
    """Radial potential reconstructed from a radial density profile f:

        P'(r) = (1/r) * integral_0^r s f(s) ds.

    The cumulative integral m(r) = int_0^r s f(s) ds is evaluated by
    adaptive quadrature with cached values (or by a supplied closed
    form), and satisfies lap P = P'' + P'/r = f.
    """

    def __init__(self, profile, cumulative=None, rel_tol=1e-9):
        self.profile = profile
        self._cumulative = cumulative
        self.rel_tol = rel_tol
        self._m_cache = {}
        self._p_cache = {}

    def cumulative(self, r):
        """m(r) = int_0^r s f(s) ds."""
        r = float(r)
        if r <= 0:
            return 0.0
        if self._cumulative is not None:
            return float(self._cumulative(r))
        hit = self._m_cache.get(r)
        if hit is not None:
            return hit
        val, err = _sciint.quad(lambda s: s * self.profile(s), 0.0, r,
                                epsabs=1e-13, epsrel=1e-12, limit=200)
        if err > self.rel_tol * max(abs(val), 1e-12):
            raise QuadratureFailure(
                f"radial cumulative integral to r={r} reached error {err:.3e}"
            )
        self._m_cache[r] = val
        return val

    def dP(self, r):
        """P'(r)."""
        r = float(r)
        if r <= 0:
            return 0.0
        return self.cumulative(r) / r

    def P(self, r):
        """P(r) with the normalization P(0) = 0."""
        r = float(r)
        if r <= 0:
            return 0.0
        hit = self._p_cache.get(r)
        if hit is not None:
            return hit
        val, err = _sciint.quad(self.dP, 0.0, r,
                                epsabs=1e-13, epsrel=1e-12, limit=200)
        if err > self.rel_tol * max(abs(val), 1e-12):
            raise QuadratureFailure("radial potential integral did not converge")
        self._p_cache[r] = val
        return val


def potential_from_radial(profile, cumulative=None):
    """Reconstruct a radial potential from a continuous profile f >= 0."""
    return RadialPotential(profile, cumulative=cumulative)


class RadialProfileDensity(DensityField):
    """Density depending only on |z|, with the potential reconstructed
    radially.  ``cumulative`` optionally supplies the closed form of
    int_0^r s f(s) ds (cross-checked against quadrature in the tests)."""

    family = "radial_profile"
    has_potential = True
    symmetry = "radial"

    def __init__(self, profile, cumulative=None):
        self.profile = profile
        self.potential = potential_from_radial(profile, cumulative=cumulative)

    def density(self, z):
        z = np.asarray(z, dtype=complex)
        return np.asarray(self.profile(np.abs(z)), dtype=float)

    def potential_gradient(self, z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        scalar = z.ndim == 0
        rr = np.atleast_1d(r)
        zz = np.atleast_1d(z)
        px = np.zeros(rr.shape)
        py = np.zeros(rr.shape)
        mask = rr > 0
        if np.any(mask):
            dp = np.array([self.potential.dP(v) for v in rr[mask]])
            px[mask] = dp * zz[mask].real / rr[mask]
            py[mask] = dp * zz[mask].imag / rr[mask]
        if scalar:
            return float(px[0]), float(py[0])
        return px.reshape(r.shape), py.reshape(r.shape)

    # -- disk masses: reduce to 1D radial integrals ------------------------

    def disk_mass(self, center, r, rel_tol=1e-6):
        if r <= 0:
            raise ValueError("disk radius must be positive")
        d = abs(complex(center))
        if d < 1e-12 * max(1.0, r):
            return 2.0 * math.pi * self.potential.cumulative(r)
        return self._annulus_mass(d, r, rel_tol)

    @staticmethod
    def _wedge_angle_from_offset(u, s, d, r):
        """Angle measure of {theta : |d + s e^(i theta)| <= r}, from the
        offset u = s - d carried exactly.  The stable form
        cos = 1 + q with q = (u^2 - r^2)/(2 d s) avoids the cancellation
        in d^2 + s^2 - r^2 when a small disk sits far from the origin,
        and the half-angle atan2 form keeps full precision for angles
        near 0 and near 2 pi."""
        q = np.clip((u * u - r * r) / (2.0 * d * s), -2.0, 0.0)
        return 2.0 * np.arctan2(np.sqrt(-q * (2.0 + q)), 1.0 + q)

    def _annulus_mass(self, d, r, rel_tol):
        # the wedge angle has sqrt-type kinks at both endpoints of
        # [|d-r|, d+r]; the sin^2 substitution flattens them so plain
        # Gauss-Legendre converges spectrally
        span = 2.0 * min(d, r)
        u0 = -r if d >= r else r - 2.0 * d    # |d-r| - d, formed stably

        def integrand(x):
            off = u0 + span * np.sin(x) ** 2
            s = d + off
            jac = span * np.sin(2.0 * x)
            return (np.asarray(self.profile(s), dtype=float) * s
                    * self._wedge_angle_from_offset(off, s, d, r) * jac)

        total = 0.0
        if d < r:
            # the sub-disk |w| < r - d is fully covered
            total += 2.0 * math.pi * self.potential.cumulative(r - d)
        total += quadrature.adaptive_1d(integrand, 0.0, 0.5 * math.pi,
                                        rel_tol=0.1 * rel_tol)
        return total

    def disk_mass_many(self, centers, r, n_nodes=192):
        centers = np.asarray(centers, dtype=complex)
        d = np.abs(centers).ravel()
        out = np.zeros(d.shape)
        near = d < 1e-12 * max(1.0, r)
        if np.any(near):
            out[near] = 2.0 * math.pi * self.potential.cumulative(r)
        far = ~near
        if np.any(far):
            dd = d[far]
            span = 2.0 * np.minimum(dd, r)
            u0 = np.where(dd >= r, -r, r - 2.0 * dd)
            x, w = quadrature.gl_nodes(0.0, 0.5 * math.pi, n_nodes)
            off = u0[:, None] + span[:, None] * np.sin(x[None, :]) ** 2
            nodes = dd[:, None] + off
            weights = span[:, None] * np.sin(2.0 * x)[None, :] * w[None, :]
            fvals = np.asarray(self.profile(nodes), dtype=float)
            ang = self._wedge_angle_from_offset(off, nodes, dd[:, None], r)
            vals = np.einsum("ij,ij->i", weights, fvals * nodes * ang)
            inner = dd < r
            if np.any(inner):
                vals[inner] += np.array(
                    [2.0 * math.pi * self.potential.cumulative(r - dv)
                     for dv in dd[inner]])
            out[far] = vals
        return out.reshape(centers.shape)


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
        p = 1.0 - alpha / 2.0
        super().__init__(
            profile=lambda s: (1.0 + np.asarray(s, dtype=float) ** 2) ** (-alpha / 2.0),
            cumulative=lambda r: ((1.0 + r * r) ** p - 1.0) / (2.0 - alpha),
        )


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


def _mollifier_plane_mass():
    val, _ = _sciint.quad(lambda s: 2.0 * math.pi * s * float(_mollifier(np.array([s]))[0]),
                          0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    return val


_MOLLIFIER_MASS = _mollifier_plane_mass()


#: Most (query, bump) pairs a bump-lattice call handles at once; bounds
#: the index lists and the (pairs x nodes) arrays of the overlap kernel.
_PAIR_BLOCK = 100_000


def _bump_fractions_inside(d, rho, r, n_nodes=48):
    """Fractions of unit bumps at distances ``d`` (support radii ``rho``)
    lying inside a disk of radius r about the query center, one per
    (d, rho) pair.

    The 1D radial integral over s in [0, 1] is split at the regime
    boundaries s = |r - d|/rho and s = (r + d)/rho where the wedge angle
    has kinks, so fixed Gauss-Legendre converges fast on each piece.  The
    piece beyond (r + d)/rho lies wholly outside the disk (wedge angle 0)
    and is not evaluated.  Empty pieces add exactly zero, and each
    piece's node sum is a BLAS dot product, so a pair's fraction does not
    depend on the other pairs in the call.
    """
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
        vals = _mollifier(s) * s * ang
        piece = ((half * w)[:, None, :] @ vals[:, :, None])[:, 0, 0]
        num += np.where(b > a, piece, 0.0)
    return num / _MOLLIFIER_MASS


class BumpLattice(DensityField):
    """A finite sum of smooth radial bumps.  Bump k has total mass m_k
    supported in the disk of radius rho_k around its center (supports may
    overlap).  Used to build the linear-growth test regime.

    A k-d tree over the bump centers, built once, restricts every query
    to the bumps whose supports can reach it."""

    family = "bump_lattice"
    has_potential = False

    def __init__(self, centers, masses, radii):
        centers = np.asarray(centers, dtype=complex).ravel()
        masses = np.asarray(masses, dtype=float).ravel()
        radii = np.asarray(radii, dtype=float).ravel()
        if not (len(centers) == len(masses) == len(radii)):
            raise ValueError("centers, masses, radii must have equal length")
        if len(centers) == 0:
            raise ValueError("at least one bump is required")
        if np.any(masses <= 0) or np.any(radii <= 0):
            raise ValueError("masses and radii must be positive")
        if not np.all(np.isfinite(centers)):
            raise ValueError("bump centers must be finite")
        self.centers = centers
        self.masses = masses
        self.radii = radii
        self._tree = cKDTree(np.column_stack([centers.real, centers.imag]))
        self._rho_max = float(np.max(radii))

    def _reach(self, r):
        # the tree's distances may differ from np.abs in the last bit, so
        # the search radius carries a margin; extra candidates add nothing
        return (r + self._rho_max) * (1.0 + 1e-12)

    def _near_pairs(self, points, reach):
        """Yield (query index, bump index) arrays of the pairs within
        ``reach``, in blocks of about ``_PAIR_BLOCK`` pairs, ordered by
        query and then by ascending bump index."""
        xy = np.column_stack([points.real, points.imag])
        counts = self._tree.query_ball_point(xy, reach, return_length=True)
        block = np.cumsum(counts) // _PAIR_BLOCK
        edges = [0, *(np.flatnonzero(np.diff(block)) + 1), len(points)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            n = counts[lo:hi]
            lists = self._tree.query_ball_point(xy[lo:hi], reach,
                                                return_sorted=True)
            bi = np.fromiter(itertools.chain.from_iterable(lists),
                             dtype=np.intp, count=int(np.sum(n)))
            yield np.repeat(np.arange(lo, hi), n), bi

    def density(self, z):
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.zeros(flat.shape)
        for qi, bi in self._near_pairs(flat, self._reach(0.0)):
            rho = self.radii[bi]
            vals = (self.masses[bi] / (rho ** 2 * _MOLLIFIER_MASS)
                    * _mollifier(np.abs(flat[qi] - self.centers[bi]) / rho))
            out += np.bincount(qi, weights=vals, minlength=len(flat))
        return out.reshape(z.shape)

    def disk_mass(self, center, r, rel_tol=1e-6):
        if r <= 0:
            raise ValueError("disk radius must be positive")
        center = complex(center)
        idx = np.asarray(self._tree.query_ball_point(
            (center.real, center.imag), self._reach(r), return_sorted=True),
            dtype=np.intp)
        d = np.abs(self.centers[idx] - center)
        rho = self.radii[idx]
        inside = d + rho <= r
        partial = ~inside & (d - rho < r)
        # full masses first, then the partial ones one at a time, both in
        # ascending bump index: the polish amplifies last-bit changes
        total = float(np.sum(self.masses[idx[inside]]))
        fracs = _bump_fractions_inside(d[partial], rho[partial], r)
        for v in self.masses[idx[partial]] * fracs:
            total += v
        return total

    def disk_mass_many(self, centers, r):
        centers = np.asarray(centers, dtype=complex)
        flat = centers.ravel()
        out = np.zeros(flat.shape)
        for qi, bi in self._near_pairs(flat, self._reach(r)):
            d = np.abs(flat[qi] - self.centers[bi])
            rho = self.radii[bi]
            inside = d + rho <= r
            partial = ~inside & (d - rho < r)
            frac = inside.astype(float)
            frac[partial] = _bump_fractions_inside(d[partial], rho[partial], r)
            out += np.bincount(qi, weights=self.masses[bi] * frac,
                               minlength=len(flat))
        return out.reshape(centers.shape)


def decaying_bump_lattice(extent, mass_fn=None, radius_fn=None):
    """Bumps at the Gaussian integers k with |Re k|, |Im k| <= extent,
    default masses 1/(1+|k|) and radii min(1/4, mass)."""
    ks = np.arange(-int(extent), int(extent) + 1)
    grid = (ks[None, :] + 1j * ks[:, None]).ravel()
    absk = np.abs(grid)
    masses = 1.0 / (1.0 + absk) if mass_fn is None else mass_fn(grid)
    radii = np.minimum(0.25, masses) if radius_fn is None else radius_fn(grid)
    return BumpLattice(grid, masses, radii)


# ---------------------------------------------------------------------------

class GridDensity(DensityField):
    """Density sampled on a uniform grid with bilinear interpolation
    between nodes and a declared extension rule beyond the window."""

    family = "grid"
    has_potential = False

    def __init__(self, origin, cell_size, values, extension="zero"):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("grid values must be a 2D array")
        if np.any(values < 0):
            raise ValueError("grid node values must be non-negative")
        if extension not in ("zero", "periodic"):
            raise ValueError("extension must be 'zero' or 'periodic'")
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.origin = complex(origin)
        self.cell_size = float(cell_size)
        self.values = values
        self.extension = extension

    def density(self, z):
        z = np.asarray(z, dtype=complex)
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


# ---------------------------------------------------------------------------
# module-level operation wrappers

def disk_mass(field: DensityField, center, r, rel_tol=1e-6,
              force_quadrature=False):
    """mu(center, r) to relative tolerance ``rel_tol``; analytic fast
    paths per family unless ``force_quadrature`` is set."""
    if r <= 0:
        raise ValueError("disk radius must be positive")
    if force_quadrature:
        return field.disk_mass_quadrature(center, r, rel_tol=rel_tol)
    return field.disk_mass(center, r, rel_tol=rel_tol)

