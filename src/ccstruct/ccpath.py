"""Direct realization of the metric definition: horizontal control paths
in C x R.

The horizontal fields are X = d/dx + P_y d/dt and Y = -d/dy + P_x d/dt.
A control (alpha, beta) with alpha^2 + beta^2 <= 1 drives the ODE

    x' = delta * alpha,   y' = -delta * beta,
    t' = delta * (alpha * P_y + beta * P_x).

The planar projection is an arbitrary plane path of speed <= delta; over a
closed planar loop the lifted t-displacement equals the boundary line
integral of (P_y, -P_x), i.e. (by Green's theorem, clockwise positive)
the enclosed mass of the defining density.  That bridge identity is what
ties the path picture to the pen/stockyard picture, and it is the basis
of both the direct lower-bound sampler and the Monte-Carlo ball-volume
estimate here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
# numpy imports its submodules on first use; this one comes with ccstruct
from numpy.random import default_rng

from .density import DensityField
from .errors import CCStructError, DegenerateLoop
from .geometry import Pen, boundary_line_integral, pen_mass, polygon_curve
from .structure import (LambdaEstimate, _segment_integrals, lambda_sup,
                        twist_many)


#: Gauss-Legendre order of each control interval's edge in
#: ``integrate_endpoints``.  On radial_alpha 0.5, 2,000 random 8-interval
#: paths from 1+1i drawn as ``ball_volume_mc`` draws them (seed 0), the
#: largest t error against scipy ``quad`` of each edge (rel 1e-13) was
#: 1.7e-16 at delta = 2 and 2.5e-11 at delta = 20, where |t| reaches 15;
#: 8 nodes gave 3.4e-8 at delta = 20 and 16 nodes 4.6e-14.  The rule is
#: exact for a polynomial potential of degree up to 24.
_LIFT_NODES = 12


def _checked_controls(alpha, beta, breakpoints):
    """The controls (alpha, beta) of shape (n_paths, n_intervals) and
    their partition of [0, 1] as float arrays, checked: finite values,
    2-D controls of one shape with at least one interval, one more
    breakpoint than intervals, breakpoints strictly increasing from 0 to
    1, and alpha^2 + beta^2 <= 1 (closed constraint, to 1e-12).  Raises
    ValueError."""
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)
    bps = np.asarray(breakpoints, dtype=float)
    if a.ndim != 2 or a.shape != b.shape or a.shape[1] == 0:
        raise ValueError("controls must be 2-D arrays of one shape with at "
                         "least one interval")
    if bps.shape != (a.shape[1] + 1,):
        raise ValueError("need one more breakpoint than control intervals")
    if not (np.isfinite(a).all() and np.isfinite(b).all()
            and np.isfinite(bps).all()):
        raise ValueError("breakpoints and control values must be finite")
    if abs(bps[0]) > 1e-15 or abs(bps[-1] - 1.0) > 1e-12:
        raise ValueError("breakpoints must span [0, 1]")
    if (np.diff(bps) <= 0).any():
        raise ValueError("breakpoints must be strictly increasing")
    if (a * a + b * b > 1.0 + 1e-12).any():
        raise ValueError("control constraint alpha^2 + beta^2 <= 1 violated")
    return a, b, bps


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control on [0, 1].

    ``breakpoints`` is the full partition 0 = s_0 < ... < s_n = 1 and
    ``values`` the per-interval (alpha, beta) pairs with
    alpha^2 + beta^2 <= 1 (closed constraint; the open/closed distinction
    changes nothing measurable), checked as ``integrate_endpoints``
    checks its controls.
    """
    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bps = tuple(float(s) for s in self.breakpoints)
        vals = tuple((float(a), float(b)) for a, b in self.values)
        _checked_controls([[a for a, _ in vals]], [[b for _, b in vals]], bps)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    @property
    def n_intervals(self):
        return len(self.values)


def _random_controls(rng, n_paths, n_intervals):
    """``n_paths`` uniform-in-disk piecewise-constant controls on the
    uniform partition: (alpha, beta) arrays of shape
    (n_paths, n_intervals) and the breakpoints."""
    r = np.sqrt(rng.uniform(0.0, 1.0, (n_paths, n_intervals)))
    th = rng.uniform(0.0, 2.0 * math.pi, (n_paths, n_intervals))
    bps = np.linspace(0.0, 1.0, n_intervals + 1)
    return r * np.cos(th), r * np.sin(th), bps


def integrate_path(field: DensityField, start, control: ControlSignal,
                   delta):
    """End state (x, y, t) of the horizontal ODE from ``start`` under
    ``control``: :func:`integrate_endpoints` on a batch of one path."""
    a, b = np.array(control.values).T
    end = integrate_endpoints(field, start, a[None, :], b[None, :],
                              control.breakpoints, delta)
    return tuple(float(v) for v in end[0])


def integrate_endpoints(field: DensityField, start, controls_alpha,
                        controls_beta, breakpoints, delta):
    """Endpoint states for a batch of piecewise-constant controls.

    ``controls_alpha``/``controls_beta`` have shape (n_paths, n_intervals)
    on the partition ``breakpoints`` of [0, 1] shared by all paths, checked
    as ``ControlSignal`` checks its values.  A control is constant on each
    interval, so the planar path is a polygon with the exact vertices
    v_{j+1} = v_j + (s_{j+1} - s_j) delta (alpha_j - i beta_j), and t
    gains the line integral of P_y dx - P_x dy along each edge: the
    ``_LIFT_NODES``-point Gauss-Legendre rule of
    ``structure._segment_integrals``, added to t in interval order.
    Returns an (n_paths, 3) array of (x, y, t).  Raises ValueError on
    input that is not finite or breaks the control rules, and
    CCStructError where an edge's integral is not finite.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("delta must be positive and finite")
    start = np.asarray(start, dtype=float)
    if start.shape != (3,) or not np.isfinite(start).all():
        raise ValueError("start must be a finite point (x, y, t)")
    a, b, bps = _checked_controls(controls_alpha, controls_beta, breakpoints)
    v = np.full(a.shape[0], complex(start[0], start[1]))
    t = np.full(a.shape[0], start[2])
    for j in range(a.shape[1]):
        w = v + (bps[j + 1] - bps[j]) * delta * (a[:, j] - 1j * b[:, j])
        t = t + _segment_integrals(field, v, w, _LIFT_NODES)
        v = w
    return np.stack([v.real, v.imag, t], axis=1)


def loop_displacement(field: DensityField, loop):
    """t-displacement of the lifted horizontal path over a closed planar
    loop: the line integral of P_y dx - P_x dy around the loop."""
    if not loop.closed:
        raise DegenerateLoop("loop_displacement needs a closed curve")
    return boundary_line_integral(field, loop)


def control_from_polygon(vertices, delta):
    """Piecewise-constant control whose planar projection traverses the
    closed polygon at constant speed; requires perimeter <= delta."""
    vs = [complex(v) for v in vertices]
    edges = [(w - v) for v, w in zip(vs, vs[1:] + vs[:1])]
    lengths = [abs(e) for e in edges]
    perim = sum(lengths)
    if perim <= 0:
        raise DegenerateLoop("zero-perimeter polygon")
    if perim > delta * (1.0 + 1e-12):
        raise ValueError("polygon perimeter exceeds the speed budget delta")
    # traverse in parameter fraction perim/delta, then rest with zero control
    bps = [0.0]
    values = []
    acc = 0.0
    for e, ell in zip(edges, lengths):
        if ell == 0.0:
            continue
        acc += ell
        bps.append(acc / delta)
        u = e / ell
        # x' = delta*alpha, y' = -delta*beta with speed delta along u
        values.append((u.real, -u.imag))
    if bps[-1] < 1.0 - 1e-12:
        bps.append(1.0)
        values.append((0.0, 0.0))
    else:
        bps[-1] = 1.0
    return ControlSignal(tuple(bps), tuple(values))


# ---------------------------------------------------------------------------
# direct lower-bound sampler

def sample_lambda_direct(field: DensityField, z, delta, budget=2000, seed=0):
    """Lower bound for the structure value by explicit admissible loops.

    All candidate loops pass through z and have total length <= delta
    (the speed-delta, unit-parameter normalization).  Candidates:

    * deterministic: m windings of a circle through z of radius
      delta / (2 pi m) — m = 1 is the isoperimetric optimum for constant
      density;
    * witness-guided: a small connector circle from z to the boundary of
      a disk near the sup-formula witness, plus as many windings of that
      disk as the remaining length affords;
    * random convex polygons through z; ``meta["dropped"]`` counts those
      whose mass raised (degenerate or unmeasurable), which are skipped.

    Displacements are evaluated through the enclosed-mass identity, so
    the sampler works for every density field (no potential needed).
    Reproducible for a given seed.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("delta must be positive and finite")
    z = complex(z)
    delta = float(delta)
    rng = default_rng(seed)

    best_val = 0.0
    best_loop = None

    def consider(val, loop_desc):
        nonlocal best_val, best_loop
        if val > best_val:
            best_val, best_loop = val, loop_desc

    # deterministic circles through z, m windings each
    for m in (1, 2, 3, 4):
        rho = delta / (2.0 * math.pi * m)
        for ang in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            center = z + rho * complex(math.cos(ang), math.sin(ang))
            consider(m * field.disk_mass(center, rho),
                     ("circle", center, rho, m))

    # witness-guided: wind the best weighted disk found by the sup search
    witness = lambda_sup(field, z, delta).witness
    n_witness = max(16, budget // 4)
    for i in range(n_witness):
        if i == 0:
            zhat, rho = witness.center, witness.radius
        else:
            zhat = witness.center + (rng.normal(scale=0.25 * delta)
                                     + 1j * rng.normal(scale=0.25 * delta))
            rho = witness.radius * math.exp(rng.normal(scale=0.5))
        d = abs(zhat - z)
        connector = math.pi * abs(d - rho)
        remaining = delta - connector
        if remaining <= 0 or rho <= 0:
            continue
        m = int(remaining // (2.0 * math.pi * rho))
        if m < 1:
            # shrink the winding radius until one turn fits
            rho = remaining / (2.0 * math.pi) * 0.999
            if rho <= 0:
                continue
            u = (zhat - z) / d if d > 0 else 1.0
            zhat = z + u * max(0.0, d - witness.radius + rho)
            m = 1
        consider(m * field.disk_mass(zhat, rho),
                 ("circle+connector", zhat, rho, m))

    # random convex polygons through z
    n_poly = max(16, budget // 4)
    dropped = 0
    for _ in range(n_poly):
        k = int(rng.integers(3, 8))
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
        radii = rng.uniform(0.3, 1.0, k)
        vs = [complex(r * math.cos(a), r * math.sin(a))
              for r, a in zip(radii, angles)]
        perim = sum(abs(w - v) for v, w in zip(vs, vs[1:] + vs[:1]))
        if perim <= 0:
            continue
        scale = (delta / perim) * rng.uniform(0.2, 1.0)
        vs = [z + (v - vs[0]) * scale for v in vs]
        try:
            consider(pen_mass(field, Pen.polygon(vs)), ("polygon", tuple(vs)))
        except (ValueError, CCStructError):  # degenerate or unmeasurable
            dropped += 1

    return LambdaEstimate(z, delta, best_val, "direct", "lower", best_loop,
                          {"seed": seed, "budget": budget,
                           "dropped": dropped})


# ---------------------------------------------------------------------------
# Monte-Carlo ball volume

#: fewest paths that give a meaningful occupancy histogram
MIN_PATHS = 1000

#: control intervals of each random path, and histogram bins per axis
_VOLUME_INTERVALS = 8
_VOLUME_BINS = 64


def ball_volume_mc(field: DensityField, z, t, delta, n_paths=10000, seed=0):
    """Reachable-set volume estimate from random horizontal paths.

    Integrates ``n_paths`` random piecewise-constant controls from
    (z, t), then estimates the volume of the reachable set by occupancy
    counting on a 64^3 histogram over the outer comparison box
    {|w - z| < 3 delta} x {|s - t| < upper structure bound at 3 delta}.
    Returns (estimate, (lo, hi)) with a binomial band on the occupied
    fraction.  Occupancy over-estimates at fixed n; the band covers only
    sampling error, not discretization.  Raises ValueError at a z or t
    that is not finite.
    """
    if n_paths < MIN_PATHS:
        raise ValueError(
            f"need n_paths >= {MIN_PATHS} for a meaningful histogram")
    z = complex(z)
    t = float(t)
    if not (cmath.isfinite(z) and math.isfinite(t)):
        raise ValueError("base point z and t must be finite")
    delta = float(delta)
    upper = lambda_sup(field, z, 3.0 * delta).value
    half_t = max(upper, 1e-300)

    a, b, bps = _random_controls(default_rng(seed), n_paths,
                                 _VOLUME_INTERVALS)
    ends = integrate_endpoints(field, (z.real, z.imag, t), a, b, bps,
                               delta)

    # shear away the twist drift (volume-preserving), so the t-extent of
    # the comparison box is the structure bound, not the drift
    ends[:, 2] -= twist_many(field, z, ends[:, 0] + 1j * ends[:, 1])

    lo = np.array([z.real - 3 * delta, z.imag - 3 * delta, t - half_t])
    hi = np.array([z.real + 3 * delta, z.imag + 3 * delta, t + half_t])
    span = hi - lo
    bins = _VOLUME_BINS
    inside = np.all((ends >= lo) & (ends < hi), axis=1)
    pts = ends[inside]
    idx = np.floor((pts - lo) / span * bins).astype(np.int64)
    idx = np.clip(idx, 0, bins - 1)
    # the distinct cells, counted on the sorted cell codes (the first call
    # of np.unique imports numpy.ma, about 15 ms)
    flat = np.sort(idx[:, 0] * bins * bins + idx[:, 1] * bins + idx[:, 2])
    occupied = int(np.count_nonzero(flat[1:] != flat[:-1])) + min(flat.size, 1)
    cell_vol = float(np.prod(span)) / bins ** 3
    estimate = occupied * cell_vol

    # binomial band on the occupied-cell fraction
    frac = occupied / bins ** 3
    se = math.sqrt(max(frac * (1 - frac), 0.0) / bins ** 3)
    box_vol = float(np.prod(span))
    band = (max(0.0, (frac - 1.96 * se)) * box_vol,
            (frac + 1.96 * se) * box_vol)
    return estimate, band
