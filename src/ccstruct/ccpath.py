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
from dataclasses import dataclass, field as dc_field

import numpy as np

from .density import DensityField
from .errors import DegenerateLoop
from .geometry import Pen, boundary_line_integral, pen_mass, polygon_curve
from .structure import LambdaEstimate, SupOptions, WitnessDisk, lambda_sup


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


def random_control(rng, n_intervals=8):
    """Uniform-in-disk piecewise-constant control on a uniform partition."""
    r = np.sqrt(rng.uniform(0.0, 1.0, n_intervals))
    th = rng.uniform(0.0, 2.0 * math.pi, n_intervals)
    values = tuple(zip(r * np.cos(th), r * np.sin(th)))
    bps = tuple(np.linspace(0.0, 1.0, n_intervals + 1))
    return ControlSignal(bps, values)


@dataclass
class Trajectory:
    """Sampled solution of the horizontal ODE: parameter stamps ``s`` and
    states ``states`` of shape (n, 3) holding (x, y, t)."""
    s: np.ndarray
    states: np.ndarray
    delta: float

    @property
    def start(self):
        return tuple(self.states[0])

    @property
    def end(self):
        return tuple(self.states[-1])


def integrate_path(field: DensityField, start, control: ControlSignal,
                   delta, steps=16):
    """Integrate the horizontal ODE with classical RK4.

    ``steps`` is the per-control-interval step count (>= 16).  The planar
    part is exact (piecewise linear); only t carries O(steps^-4) error.
    """
    if steps < 16:
        raise ValueError("need at least 16 steps per control interval")
    if delta <= 0:
        raise ValueError("delta must be positive")
    x0, y0, t0 = (float(v) for v in start)

    def tdot(x, y, alpha, beta):
        px, py = field.potential_gradient(complex(x, y))
        return delta * (alpha * float(py) + beta * float(px))

    ss = [0.0]
    states = [(x0, y0, t0)]
    x, y, t = x0, y0, t0
    for (s0, s1), (alpha, beta) in zip(
            zip(control.breakpoints, control.breakpoints[1:]), control.values):
        h = (s1 - s0) / steps
        vx = delta * alpha
        vy = -delta * beta
        for i in range(steps):
            # x, y advance linearly; RK4 quadrature for t along the segment
            k1 = tdot(x, y, alpha, beta)
            k2 = tdot(x + 0.5 * h * vx, y + 0.5 * h * vy, alpha, beta)
            k4 = tdot(x + h * vx, y + h * vy, alpha, beta)
            t += (h / 6.0) * (k1 + 4.0 * k2 + k4)
            x += h * vx
            y += h * vy
            ss.append(s0 + (i + 1) * h)
            states.append((x, y, t))
    return Trajectory(np.asarray(ss), np.asarray(states), float(delta))


def integrate_endpoints(field: DensityField, start, controls_alpha,
                        controls_beta, delta, steps=24):
    """Endpoint states for a batch of piecewise-constant controls.

    ``controls_alpha``/``controls_beta`` have shape (n_paths, n_intervals)
    on the uniform partition.  Vectorized Simpson/RK4 stepping shared
    across paths; returns an (n_paths, 3) array of (x, y, t).
    """
    a = np.asarray(controls_alpha, dtype=float)
    b = np.asarray(controls_beta, dtype=float)
    n_paths, n_int = a.shape
    x = np.full(n_paths, float(start[0]))
    y = np.full(n_paths, float(start[1]))
    t = np.full(n_paths, float(start[2]))
    h = (1.0 / n_int) / steps

    def tdot(x, y, alpha, beta):
        px, py = field.potential_gradient(x + 1j * y)
        return delta * (alpha * py + beta * px)

    for j in range(n_int):
        vx = delta * a[:, j]
        vy = -delta * b[:, j]
        for _ in range(steps):
            k1 = tdot(x, y, a[:, j], b[:, j])
            k2 = tdot(x + 0.5 * h * vx, y + 0.5 * h * vy, a[:, j], b[:, j])
            k4 = tdot(x + h * vx, y + h * vy, a[:, j], b[:, j])
            t = t + (h / 6.0) * (k1 + 4.0 * k2 + k4)
            x = x + h * vx
            y = y + h * vy
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

def _circle_loop_value(field, center, rho, turns):
    """Mass-positive displacement of ``turns`` windings of a circle."""
    return turns * field.disk_mass(center, rho)


def sample_lambda_direct(field: DensityField, z, delta, budget=2000, seed=0,
                         opts: SupOptions = None):
    """Lower bound for the structure value by explicit admissible loops.

    All candidate loops pass through z and have total length <= delta
    (the speed-delta, unit-parameter normalization).  Candidates:

    * deterministic: m windings of a circle through z of radius
      delta / (2 pi m) — m = 1 is the isoperimetric optimum for constant
      density;
    * witness-guided: a small connector circle from z to the boundary of
      a disk near the sup-formula witness, plus as many windings of that
      disk as the remaining length affords;
    * random convex polygons through z.

    Displacements are evaluated through the enclosed-mass identity, so
    the sampler works for every density field (no potential needed).
    Reproducible for a given seed.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    z = complex(z)
    delta = float(delta)
    rng = np.random.default_rng(seed)

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
            consider(_circle_loop_value(field, center, rho, m),
                     ("circle", center, rho, m))

    # witness-guided: wind the best weighted disk found by the sup search
    witness = lambda_sup(field, z, delta, opts).witness
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
        consider(_circle_loop_value(field, zhat, rho, m),
                 ("circle+connector", zhat, rho, m))

    # random convex polygons through z
    n_poly = max(16, budget // 4)
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
        pen = Pen.polygon(vs)
        try:
            consider(pen_mass(field, pen), ("polygon", tuple(vs)))
        except Exception:
            continue

    return LambdaEstimate(z, delta, best_val, "direct", "lower", best_loop,
                          {"seed": seed, "budget": budget})


# ---------------------------------------------------------------------------
# Monte-Carlo ball volume

def ball_volume_mc(field: DensityField, z, t, delta, n_paths=10000, seed=0,
                   opts: SupOptions = None, n_intervals=8, bins=64, jobs=1):
    """Reachable-set volume estimate from random horizontal paths.

    Integrates ``n_paths`` random piecewise-constant controls from
    (z, t), then estimates the volume of the reachable set by occupancy
    counting on a ``bins``^3 histogram over the outer comparison box
    {|w - z| < 3 delta} x {|s - t| < upper structure bound at 3 delta}.
    Returns (estimate, (lo, hi)) with a binomial band on the occupied
    fraction.  Occupancy over-estimates at fixed n; the band covers only
    sampling error, not discretization.
    """
    if n_paths < 1000:
        raise ValueError("need n_paths >= 1000 for a meaningful histogram")
    z = complex(z)
    delta = float(delta)
    upper = lambda_sup(field, z, 3.0 * delta, opts).value
    half_t = max(upper, 1e-300)

    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 1.0, (n_paths, n_intervals)))
    th = rng.uniform(0.0, 2.0 * math.pi, (n_paths, n_intervals))
    a = r * np.cos(th)
    b = r * np.sin(th)

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        chunks = np.array_split(np.arange(n_paths), jobs)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(
                lambda idx: integrate_endpoints(
                    field, (z.real, z.imag, float(t)), a[idx], b[idx], delta),
                chunks))
        ends = np.concatenate(parts, axis=0)
    else:
        ends = integrate_endpoints(field, (z.real, z.imag, float(t)), a, b,
                                   delta)

    # shear away the twist drift (volume-preserving), so the t-extent of
    # the comparison box is the structure bound, not the drift
    from .structure import twist_many
    ends = ends.copy()
    ends[:, 2] -= twist_many(field, z, ends[:, 0] + 1j * ends[:, 1])

    lo = np.array([z.real - 3 * delta, z.imag - 3 * delta, t - half_t])
    hi = np.array([z.real + 3 * delta, z.imag + 3 * delta, t + half_t])
    span = hi - lo
    inside = np.all((ends >= lo) & (ends < hi), axis=1)
    pts = ends[inside]
    idx = np.floor((pts - lo) / span * bins).astype(np.int64)
    idx = np.clip(idx, 0, bins - 1)
    flat = np.unique(idx[:, 0] * bins * bins + idx[:, 1] * bins + idx[:, 2])
    occupied = flat.size
    cell_vol = float(np.prod(span)) / bins ** 3
    estimate = occupied * cell_vol

    # binomial band on the occupied-cell fraction
    frac = occupied / bins ** 3
    se = math.sqrt(max(frac * (1 - frac), 0.0) / bins ** 3)
    box_vol = float(np.prod(span))
    band = (max(0.0, (frac - 1.96 * se)) * box_vol,
            (frac + 1.96 * se) * box_vol)
    return estimate, band
