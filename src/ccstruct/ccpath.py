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

import math
from dataclasses import dataclass

import numpy as np
# numpy imports its submodules on first use; this one comes with ccstruct
from numpy.random import default_rng

from .density import DensityField
from .errors import CCStructError, DegenerateLoop
from .geometry import Pen, boundary_line_integral, pen_mass, polygon_curve
from .structure import LambdaEstimate, lambda_sup, twist_many


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control on [0, 1].

    ``breakpoints`` is the full partition 0 = s_0 < ... < s_n = 1 and
    ``values`` the per-interval (alpha, beta) pairs with
    alpha^2 + beta^2 <= 1 (closed constraint; the open/closed distinction
    changes nothing measurable).
    """
    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bps = tuple(float(s) for s in self.breakpoints)
        vals = tuple((float(a), float(b)) for a, b in self.values)
        if len(bps) != len(vals) + 1 or len(vals) == 0:
            raise ValueError("need len(breakpoints) == len(values) + 1 >= 2")
        if not all(map(math.isfinite, bps + sum(vals, ()))):
            raise ValueError("breakpoints and control values must be finite")
        if abs(bps[0]) > 1e-15 or abs(bps[-1] - 1.0) > 1e-12:
            raise ValueError("breakpoints must span [0, 1]")
        if any(b <= a for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(a * a + b * b > 1.0 + 1e-12 for a, b in vals):
            raise ValueError("control constraint alpha^2 + beta^2 <= 1 violated")
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
                   delta, steps=16):
    """End state (x, y, t) of the horizontal ODE from ``start`` under
    ``control``: :func:`integrate_endpoints` on a batch of one path."""
    a, b = np.array(control.values).T
    end = integrate_endpoints(field, start, a[None, :], b[None, :],
                              control.breakpoints, delta, steps)
    return tuple(float(v) for v in end[0])


def integrate_endpoints(field: DensityField, start, controls_alpha,
                        controls_beta, breakpoints, delta, steps=24):
    """Endpoint states for a batch of piecewise-constant controls.

    ``controls_alpha``/``controls_beta`` have shape (n_paths, n_intervals)
    on the partition ``breakpoints`` of [0, 1] shared by all paths.
    Classical RK4 with ``steps`` (>= 16) steps per control interval,
    vectorized across paths; the planar part is exact (piecewise linear)
    and only t carries O(steps^-4) error.  Returns an (n_paths, 3) array
    of (x, y, t).
    """
    if steps < 16:
        raise ValueError("need at least 16 steps per control interval")
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("delta must be positive and finite")
    a = np.asarray(controls_alpha, dtype=float)
    b = np.asarray(controls_beta, dtype=float)
    bps = [float(s) for s in breakpoints]
    n_paths, n_int = a.shape
    if len(bps) != n_int + 1:
        raise ValueError("need one more breakpoint than control intervals")
    x = np.full(n_paths, float(start[0]))
    y = np.full(n_paths, float(start[1]))
    t = np.full(n_paths, float(start[2]))

    def tdot(grad, alpha, beta):
        px, py = grad
        return delta * (alpha * py + beta * px)

    # the gradient depends on the position only, and a step's end point is
    # the next step's start (also across intervals): each end point's
    # gradient is evaluated once and reused as the next step's k1
    grad0 = field.potential_gradient(x + 1j * y)
    for j, (s0, s1) in enumerate(zip(bps, bps[1:])):
        h = (s1 - s0) / steps
        vx = delta * a[:, j]
        vy = -delta * b[:, j]
        for _ in range(steps):
            # x, y advance linearly; RK4 quadrature for t along the segment
            grad_mid = field.potential_gradient(
                (x + 0.5 * h * vx) + 1j * (y + 0.5 * h * vy))
            x = x + h * vx
            y = y + h * vy
            grad1 = field.potential_gradient(x + 1j * y)
            k1 = tdot(grad0, a[:, j], b[:, j])
            k2 = tdot(grad_mid, a[:, j], b[:, j])
            k4 = tdot(grad1, a[:, j], b[:, j])
            t = t + (h / 6.0) * (k1 + 4.0 * k2 + k4)
            grad0 = grad1
    return np.stack([x, y, t], axis=1)


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
    sampling error, not discretization.
    """
    if n_paths < MIN_PATHS:
        raise ValueError(
            f"need n_paths >= {MIN_PATHS} for a meaningful histogram")
    z = complex(z)
    delta = float(delta)
    upper = lambda_sup(field, z, 3.0 * delta).value
    half_t = max(upper, 1e-300)

    a, b, bps = _random_controls(default_rng(seed), n_paths,
                                 _VOLUME_INTERVALS)
    ends = integrate_endpoints(field, (z.real, z.imag, float(t)), a, b, bps,
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
