"""Estimators for the large-scale structure value at (z, delta).

Three routes are provided:

* ``lambda_sup`` — the computable upper-comparable proxy: the nested
  supremum of (delta/h) * mu(zhat, h) over zhat in B(z, delta) and
  h in [h_min, delta], found by a coarse log-ladder/lattice search plus
  Nelder-Mead polish.
* ``lambda_stockyard`` — a certified lower bound: the best witness disk
  is turned into an explicit validated stockyard (connector circle plus
  repeated copies of the witness disk) whose mass is a true lower bound
  for the structure at budget 4*pi*delta.
* direct path sampling lives in :mod:`ccstruct.ccpath`.

All classification logic downstream uses ratios and log-log slopes of
these quantities, never absolute values: the proxy is comparable to the
true structure only up to constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import optimize as _sciopt

from . import quadrature
from .density import DELTA_HAT_MIN, DensityField
from .errors import InvalidStockyard
from .geometry import Pen, Stockyard, stockyard_mass, validate_stockyard


@dataclass(frozen=True)
class SupOptions:
    """Search budget for the nested supremum.  Deterministic: a fixed
    log-spaced radius ladder crossed with a fixed spatial lattice, then
    derivative-free polish from the best coarse cells."""
    n_rungs: int = 16
    grid: int = 33
    n_polish: int = 5
    delta_hat_min: float = DELTA_HAT_MIN
    polish_maxiter: int = 160

    def key(self):
        return (self.n_rungs, self.grid, self.n_polish,
                self.delta_hat_min, self.polish_maxiter)


@dataclass(frozen=True)
class WitnessDisk:
    center: complex
    radius: float


@dataclass
class LambdaEstimate:
    """A structure value at (z, delta) with its provenance.

    ``bound`` records the direction: the sup-formula value is comparable
    from above (up to the theory's constants); stockyard and direct-path
    values are genuine lower bounds with an explicit witness.
    """
    z: complex
    delta: float
    value: float
    method: str                 # 'sup' | 'stockyard' | 'direct'
    bound: str                  # 'upper_comparable' | 'lower'
    witness: object = None
    meta: dict = dc_field(default_factory=dict)


def _field_cache(field):
    cache = getattr(field, "_lambda_cache", None)
    if cache is None:
        cache = {}
        field._lambda_cache = cache
    return cache


def optimize_weighted_disk(field: DensityField, center, search_radius,
                           dh_min, dh_max, weight, opts: SupOptions):
    """Maximize weight(h) * mu(zhat, h) over zhat in B(center, R) and
    h in [dh_min, dh_max].

    Coarse stage: log-spaced ladder of h crossed with a square lattice
    masked to the disk; the top cells are re-evaluated with the accurate
    disk-mass query and polished by Nelder-Mead in (x, y, log h) with
    projection onto the feasible set.
    """
    center = complex(center)
    dh_max = float(dh_max)
    dh_min = min(float(dh_min), dh_max)
    if dh_min <= 0:
        raise ValueError("inner radius cutoff must be positive")

    if dh_min == dh_max:
        rungs = np.array([dh_max])
    else:
        rungs = np.geomspace(dh_min, dh_max, opts.n_rungs)
    ax = np.linspace(-search_radius, search_radius, opts.grid)
    zz = (center + ax[None, :] + 1j * ax[:, None]).ravel()
    mask = np.abs(zz - center) <= search_radius + 1e-12 * max(1.0, search_radius)
    zz = zz[mask]

    candidates = []   # (coarse value, zhat, h)
    for h in rungs:
        vals = np.asarray(field.disk_mass_many(zz, float(h)), dtype=float)
        vals = weight(float(h)) * vals
        top = np.argsort(vals)[::-1][: opts.n_polish]
        for i in top:
            candidates.append((float(vals[i]), complex(zz[i]), float(h)))
    candidates.sort(key=lambda t: -t[0])
    candidates = candidates[: opts.n_polish]

    def objective_exact(zhat, h):
        if h <= 0:
            return 0.0
        return weight(h) * field.disk_mass(zhat, h)

    def project(x):
        zhat = complex(x[0], x[1])
        off = zhat - center
        r = abs(off)
        if r > search_radius:
            zhat = center + off * (search_radius / r)
        h = math.exp(min(max(x[2], math.log(dh_min)), math.log(dh_max)))
        return zhat, min(max(h, dh_min), dh_max)

    best_val = 0.0
    best_witness = WitnessDisk(center, dh_max)
    for _, zhat0, h0 in candidates:
        v0 = objective_exact(zhat0, h0)
        if v0 > best_val:
            best_val, best_witness = v0, WitnessDisk(zhat0, h0)

        def neg(x):
            zhat, h = project(x)
            return -objective_exact(zhat, h)

        res = _sciopt.minimize(
            neg, np.array([zhat0.real, zhat0.imag, math.log(h0)]),
            method="Nelder-Mead",
            options={"maxiter": opts.polish_maxiter, "xatol": 1e-8,
                     "fatol": 1e-12, "adaptive": True},
        )
        zhat, h = project(res.x)
        val = objective_exact(zhat, h)
        if val > best_val:
            best_val, best_witness = val, WitnessDisk(zhat, h)
    return best_val, best_witness


def lambda_sup(field: DensityField, z, delta, opts: SupOptions = None):
    """Upper-comparable proxy via the nested supremum of
    (delta/h) * mu(zhat, h); returns the best value and its witness."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    opts = opts or SupOptions()
    z = complex(z)
    cache = _field_cache(field)
    key = ("sup", z, float(delta), opts.key())
    hit = cache.get(key)
    if hit is not None:
        return hit
    value, witness = optimize_weighted_disk(
        field, z, float(delta), opts.delta_hat_min, float(delta),
        weight=lambda h: float(delta) / h, opts=opts)
    est = LambdaEstimate(z, float(delta), value, "sup", "upper_comparable",
                         witness, {"delta_hat_min": opts.delta_hat_min})
    cache[key] = est
    return est


def connector_circle(z, witness: WitnessDisk):
    """The connector pen: a circle through z tangent to the witness-disk
    boundary, with diameter | |z - zhat| - h |.  Returns None when z
    already lies on the witness boundary (within tolerance)."""
    z = complex(z)
    c, h = witness.center, witness.radius
    d = abs(z - c)
    gap = abs(d - h)
    if gap <= 1e-9 * max(1.0, h, d):
        return None
    if d > 1e-15:
        u = (c - z) / d
    else:
        u = 1.0 + 0.0j
    if d >= h:
        center = z + u * (gap / 2.0)
    else:
        # z inside the witness disk: run outward to the near boundary point
        center = z - u * (gap / 2.0)
    return Pen.circle(center, gap / 2.0)


def lambda_stockyard(field: DensityField, z, delta, opts: SupOptions = None):
    """Certified lower bound at budget 4*pi*delta: the witness disk from
    the sup search is encircled as many times as the fencing budget
    allows, linked to z by a connector circle.  The returned value is the
    validated stockyard's mass."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    z = complex(z)
    sup_est = lambda_sup(field, z, delta, opts)
    witness = sup_est.witness
    budget = 4.0 * math.pi * float(delta)

    pens = []
    connector = connector_circle(z, witness)
    used = 0.0
    if connector is not None:
        pens.append(connector)
        used = connector.fencing
    copy_fence = 2.0 * math.pi * witness.radius
    k = int(math.floor((budget - used) / copy_fence))
    if k < 1:
        raise InvalidStockyard(
            "fencing budget cannot fit one witness copy (internal defect)")
    pens.extend(Pen.circle(witness.center, witness.radius) for _ in range(k))
    yard = Stockyard(pens, z, budget)
    report = validate_stockyard(yard)
    if not report.ok:
        raise InvalidStockyard("constructed stockyard failed validation: "
                               + "; ".join(report.messages))
    mass = stockyard_mass(field, yard, validated=True)
    return LambdaEstimate(z, float(delta), mass, "stockyard", "lower", yard,
                          {"budget": budget, "copies": k,
                           "witness": witness,
                           "sup_value": sup_est.value})


# ---------------------------------------------------------------------------

def twist(field: DensityField, z, w, tol=1e-9):
    """The twist of the metric ball: the t-offset of the comparable box
    center,  -2 Im( integral_0^1 (w - z) P_z(z + r (w - z)) dr ).
    Raises QuadratureFailure when the integral does not converge by 4096
    nodes."""
    z, w = complex(z), complex(w)
    if z == w:
        return 0.0

    def integrand(r):
        pts = z + r * (w - z)
        px, py = field.potential_gradient(pts)
        pz = 0.5 * (px - 1j * py)
        return ((w - z) * pz).imag

    return -2.0 * quadrature.adaptive_1d(integrand, 0.0, 1.0, rel_tol=tol,
                                         abs_floor=1.0, max_order=4096)


def twist_many(field: DensityField, z, ws, n_nodes=96):
    """Vectorized twist over an array of endpoints (fixed-order rule)."""
    z = complex(z)
    ws = np.asarray(ws, dtype=complex).ravel()
    x, wts = quadrature.gl_nodes(0.0, 1.0, n_nodes)
    pts = z + (ws[:, None] - z) * x[None, :]
    px, py = field.potential_gradient(pts)
    pz = 0.5 * (px - 1j * py)
    vals = ((ws[:, None] - z) * pz).imag @ wts
    return -2.0 * vals


def volume_estimate(field: DensityField, z, delta, opts: SupOptions = None):
    """Sandwich for the metric-ball volume from the two box inclusions:

        inner: cylinder of radius delta/4 and half-height at least the
               certified lower structure bound at delta/4;
        outer: cylinder of radius 3*delta and half-height at most the
               upper proxy at 3*delta.

    Returns (lower, upper) with lower <= upper.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    z = complex(z)
    lower_struct = lambda_stockyard(field, z, delta / (16.0 * math.pi), opts)
    upper_struct = lambda_sup(field, z, 3.0 * delta, opts)
    lower = math.pi * (delta / 4.0) ** 2 * 2.0 * lower_struct.value
    upper = math.pi * (3.0 * delta) ** 2 * 2.0 * upper_struct.value
    return min(lower, upper), upper


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class Window:
    """Axis-aligned base-point window sampled on an n x n lattice."""
    x0: float
    y0: float
    x1: float
    y1: float
    n: int = 5

    def __post_init__(self):
        if self.x1 < self.x0 or self.y1 < self.y0 or self.n < 1:
            raise ValueError("empty window")

    def points(self):
        xs = np.linspace(self.x0, self.x1, self.n)
        ys = np.linspace(self.y0, self.y1, self.n)
        return [complex(x, y) for y in ys for x in xs]

    def as_dict(self):
        return {"x0": self.x0, "y0": self.y0, "x1": self.x1, "y1": self.y1,
                "n": self.n}


@dataclass
class SweepRow:
    z: complex
    delta: float
    method: str
    value: float = math.nan
    witness_center: complex = complex("nan")
    witness_radius: float = math.nan
    error: str = None


def lambda_sweep(field: DensityField, window: Window, deltas, method="sup",
                 opts: SupOptions = None, seed=0, jobs=1):
    """Evaluate the chosen estimator over all (z, delta) cells of the
    window crossed with the strictly increasing, positive ladder
    ``deltas``.  Rows are ordered (z index, delta index); per-row errors
    are recorded, not fatal.  Deterministic for a given seed."""
    from . import ccpath  # local import: avoid cycle at module load

    deltas = tuple(float(d) for d in deltas)
    if any(b <= a for a, b in zip(deltas, deltas[1:])) or not deltas:
        raise ValueError("delta ladder must be strictly increasing")
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")

    def one(z, delta):
        if method == "sup":
            return lambda_sup(field, z, delta, opts)
        if method == "stockyard":
            return lambda_stockyard(field, z, delta, opts)
        if method == "direct":
            return ccpath.sample_lambda_direct(field, z, delta, seed=seed,
                                               opts=opts)
        raise ValueError(f"unknown method {method!r}")

    cells = [(z, d) for z in window.points() for d in deltas]

    def evaluate(cell):
        z, delta = cell
        try:
            est = one(z, delta)
        except Exception as exc:  # recorded per row
            return SweepRow(z, delta, method, error=f"{type(exc).__name__}: {exc}")
        row = SweepRow(z, delta, method, est.value)
        w = est.witness
        if isinstance(w, WitnessDisk):
            row.witness_center = w.center
            row.witness_radius = w.radius
        elif est.method == "stockyard":
            wd = est.meta.get("witness")
            if wd is not None:
                row.witness_center = wd.center
                row.witness_radius = wd.radius
        return row

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(evaluate, cells))
    return [evaluate(c) for c in cells]
