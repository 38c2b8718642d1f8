"""Estimators for the large-scale structure value at (z, delta).

Three routes are provided:

* ``lambda_sup`` — the computable upper-comparable proxy: the nested
  supremum of (delta/h) * mu(zhat, h) over zhat in B(z, delta) and
  h in [h_min, delta], found by a coarse log-ladder/lattice search plus
  Nelder-Mead polish.  ``prime_lambda_sup`` runs the starts of many
  searches in lock step, and ``lambda_sup`` is a batch of one.  The polish
  is one array state machine over all the starts (``_nelder_mead``): each
  round projects the points of every live start as arrays and evaluates
  them with one array call of ``disk_mass``, whose masses have the bits
  of scalar calls, and each start takes the steps of its lone run, so a
  search's value and witness are those of a lone search.  This module's
  memo keeps each search's estimate or error; ``lambda_sweep``,
  ``classify``, ``volume`` and ``validate`` prime all their cells first.
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

import contextlib
import copy
import math
import types
import weakref
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from . import quadrature
from .density import DensityField
from .errors import CCStructError, InvalidStockyard
from .geometry import Pen, Stockyard, stockyard_mass
from .quadrature import KERNEL_BUDGET

#: fixed Gauss-Legendre order of ``twist_many``
_TWIST_NODES = 96

#: Suprema over the inner disk radius use this lower cutoff: for bounded
#: densities mu(z, h)/h -> 0 as h -> 0, so the supremum is attained away
#: from zero and the cutoff only removes a vanishing tail.
DELTA_HAT_MIN = 1e-3

#: Most witness copies a stockyard lists.  The copies are one pen object,
#: but each is still a list entry and a term of the fencing and mass sums;
#: a tiny witness disk at a large delta would need far more (about 2e9
#: for a 0.001-radius bump at delta = 1e6).
MAX_STOCKYARD_COPIES = 1_000_000


@dataclass(frozen=True)
class SupOptions:
    """Search budget for the nested supremum.  Deterministic: a fixed
    log-spaced radius ladder crossed with a fixed spatial lattice, then
    derivative-free polish from the best coarse cells.  A budget whose
    coarse stage has no candidate is rejected."""
    n_rungs: int = 16
    grid: int = 33
    n_polish: int = 5
    polish_maxiter: int = 160

    def __post_init__(self):
        if not (self.n_rungs >= 1 and self.grid >= 3 and self.n_polish >= 1
                and self.polish_maxiter >= 0):
            raise ValueError(
                "need n_rungs >= 1, grid >= 3, n_polish >= 1 and "
                f"polish_maxiter >= 0, got {self}")


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


# the phase of a ``_nelder_mead`` start: the step whose points it asked for
_REFLECT, _EXPAND, _OUTSIDE, _INSIDE, _SHRINK, _DONE = range(6)


def _nelder_mead(fun, x0, maxiter, xatol, fatol):
    """Minimize by adaptive Nelder-Mead from each row of the (k, N) array
    ``x0``, all starts in lock step: each round calls ``fun(points,
    owners)`` once, on the (m, N) array of the points that the live starts
    need next, ``owners`` naming the start of each row, for their m
    values.  Each start takes the steps of its lone run, step for step as
    scipy 1.17.1's ``minimize(fun, x0, method="Nelder-Mead",
    options={"adaptive": True, ...})`` (Gao and Han 2012, with no bounds
    and no evaluation limit): the same start simplex, coefficients,
    stopping test, roundings and argsort ordering, ties included, so its
    ``x`` and evaluation count keep every bit whatever the other starts
    do.  The N points of a shrink are asked for at once; scipy evaluates
    them one by one, but none depends on another's value.

    The starts are one array state machine: the simplices ``sim`` (k, N+1,
    N) with their values ``fsim``, and per start its phase, its reflected
    point ``xr`` with value ``fxr``, and its asked points.  Each round
    moves every live start on by masked array steps and sorts the
    simplices of the starts that finished an iteration.  A step's point
    a * xbar + b * sim[-1] is scipy's ``a * xbar - c * sim[-1]`` with
    b = -c, which rounds alike.

    Returns ``x`` (k, N) and ``fun`` (k,), the value at each ``x`` (scipy's
    ``fun``, unless some value was nan); ``nfev``, the evaluations of all
    starts; and per start ``start_nfev`` and ``start_rounds``, the rounds
    in which it was evaluated."""
    x0 = np.array(x0, dtype=float)
    k, N = x0.shape
    dim = float(N)
    rho = 1
    chi = 1 + 2/dim
    psi = 0.75 - 1/(2*dim)
    sigma = 1 - 1/dim
    nonzdelt = 0.05
    zdelt = 0.00025
    # per phase: (a, b) of its point and the count of its points
    a = np.array([1 + rho, 1 + rho * chi, 1 + psi * rho, 1 - psi, 0, 0])
    b = np.array([-rho, -(rho * chi), -(psi * rho), psi, 0, 0])
    asks = np.array([1, 1, 1, 1, N, 0])

    sim = np.repeat(x0[:, None, :], N + 1, axis=1)
    diag = np.arange(N)
    sim[:, diag + 1, diag] = np.where(x0 != 0, (1 + nonzdelt)*x0, zdelt)
    fsim = np.array(fun(sim.reshape(-1, N), np.repeat(np.arange(k), N + 1)),
                    dtype=float).reshape(k, N + 1)
    nfev = np.full(k, N + 1)
    rounds = np.ones(k, dtype=int)
    iterations = np.ones(k, dtype=int)
    xr = np.empty((k, N))
    fxr = np.empty(k)
    ask = np.empty((k, N + 1, N))
    slots = np.arange(N + 1)

    def order(rows):
        # scipy's argsort of each simplex's values, row by row
        ind = np.argsort(fsim[rows], axis=1)
        fsim[rows] = fsim[rows[:, None], ind]
        sim[rows] = sim[rows[:, None], ind]

    # scipy sorts the start simplex twice; numpy does not promise that the
    # second sort keeps tied values in place, so it is repeated here
    order(np.arange(k))
    order(np.arange(k))
    finished = np.ones(k, dtype=bool)
    phase = np.full(k, _REFLECT)
    while True:
        # each start that finished an iteration stops or reflects; the
        # test is scipy's, as a max is at most a bound where all are
        near = ((np.abs(sim[:, 1:] - sim[:, :1]) <= xatol).all(axis=(1, 2))
                & (np.abs(fsim[:, :1] - fsim[:, 1:]) <= fatol).all(axis=1))
        stop = finished & ((iterations >= maxiter) | near)
        phase[finished] = _REFLECT
        phase[stop] = _DONE
        xbar = np.add.reduce(sim[:, :-1], 1) / N
        ask[:, 0] = a[phase, None] * xbar + b[phase, None] * sim[:, -1]
        shrunk = phase == _SHRINK
        ask[shrunk, :N] = sim[shrunk, 1:]
        reflect = phase == _REFLECT
        xr[reflect] = ask[reflect, 0]

        asked = slots < asks[phase, None]
        owners = np.nonzero(asked)[0]
        if not owners.size:
            break
        f = np.zeros((k, N + 1))
        f[asked] = np.asarray(fun(ask[asked], owners), dtype=float)
        nfev += asks[phase]
        rounds += phase != _DONE

        fv = f[:, 0]
        fxr[reflect] = fv[reflect]
        lower = fv < fsim[:, -1]
        # a reflection's next phase, or _REFLECT where it keeps xr
        step = np.where(fv < fsim[:, 0], _EXPAND,
                        np.where(fv < fsim[:, -2], _REFLECT,
                                 np.where(lower, _OUTSIDE, _INSIDE)))
        keep = reflect & (step == _REFLECT)
        expanded = phase == _EXPAND
        contracted = (phase == _OUTSIDE) | (phase == _INSIDE)
        took = np.where(phase == _INSIDE, lower,
                        np.where(expanded, fv < fxr, fv <= fxr))
        took &= expanded | contracted
        moved = took | keep | expanded
        sim[moved, -1] = np.where(took[:, None], ask[:, 0], xr)[moved]
        fsim[moved, -1] = np.where(took, fv, fxr)[moved]
        fsim[shrunk, 1:] = f[shrunk, :N]
        finished = moved | shrunk
        iterations += finished
        order(np.flatnonzero(finished))
        phase[reflect] = step[reflect]
        shrink = contracted & ~took
        if shrink.any():
            best = sim[shrink, :1]
            sim[shrink, 1:] = best + sigma * (sim[shrink, 1:] - best)
            phase[shrink] = _SHRINK

    return types.SimpleNamespace(
        x=sim[:, 0], fun=fsim[:, 0], nfev=int(nfev.sum()),
        start_nfev=nfev.tolist(), start_rounds=rounds.tolist())


# perfbench/layers.py times the polish by rebinding ``_sciopt.minimize``;
# the benchmark rework of ROADMAP item 1 drops this binding
_sciopt = types.SimpleNamespace(minimize=_nelder_mead)


def _project(x, box):
    """Project each polish point (x, y, log h), a row of ``x``, onto its
    search's feasible set: zhat = x + iy into the disk B(c, R) and
    h = exp(log h) into [lo, hi].  ``box`` holds one column per row, of
    (c.real, c.imag, R, log lo, log hi, lo, hi).  Returns the arrays of
    zhat and h, with the bits of Python's scalar steps:
    ``c + (zhat - c) * (R / abs(zhat - c))`` outside the disk, whose float
    factor Python multiplies as the complex R / r + 0j, and ``math.exp``
    of the log h that ``min(max(log h, log lo), log hi)`` gives."""
    cx, cy, radius, log_lo, log_hi, lo, hi = box
    zre, zim = x[:, 0], x[:, 1]
    offr, offi = zre - cx, zim - cy
    r = np.hypot(offr, offi)   # abs(complex) is hypot, not np.abs
    out = r > radius
    t = radius[out] / r[out]
    offr, offi = offr[out], offi[out]
    zre, zim = zre.copy(), zim.copy()
    zre[out] = cx[out] + (offr * t - offi * 0.0)
    zim[out] = cy[out] + (offr * 0.0 + offi * t)
    zhat = np.empty(len(x), dtype=complex)
    zhat.real, zhat.imag = zre, zim   # x + 1j*y would turn -0.0 into 0.0
    # Python's max(a, b) is a unless b > a, and min(a, b) is a unless b < a
    lh = x[:, 2]
    lh = np.where(log_lo > lh, log_lo, lh)
    lh = np.where(log_hi < lh, log_hi, lh)
    h = np.array([math.exp(v) for v in lh.tolist()])
    h = np.where(lo > h, lo, h)
    return zhat, np.where(hi < h, hi, h)


# (scale / h) * mu may overflow to inf where mu is finite, and the polish
# then subtracts infinite values: each caller turns a value that is not
# finite into a CCStructError
@np.errstate(over="ignore", invalid="ignore")
def optimize_weighted_disk(field: DensityField, searches, opts: SupOptions):
    """Maximize (scale / h) * mu(zhat, h) over zhat in B(center, R) and
    h in [dh_min, dh_max], with dh_min = min(DELTA_HAT_MIN, dh_max), for
    each (center, R, dh_max, scale) of ``searches``.  Returns per search
    its [value, witness, counts], a value may be inf, or in their place
    the CCStructError that the search's coarse stage raised.

    Coarse stage, per search: log-spaced ladder of h crossed with a square
    lattice masked to the disk, one ``disk_mass_many`` call per rung (the
    ``disk_mass`` kernel at a common radius); its values rank the cells
    that the polish starts from.  Polish: the top cells of all the
    searches are polished together by one lock-step Nelder-Mead in
    (x, y, log h) (``_nelder_mead``, one array state machine over all the
    starts) with projection onto each search's feasible set
    (``_project``, on the arrays of a round, each point's bounds gathered
    by its owner's search).  Each round evaluates all its points with one
    array call of ``disk_mass``.  Every array mass has the bits of the
    scalar ``disk_mass`` and every start takes the steps of its lone run,
    so a search's value and witness do not depend on the searches polished
    with it.  Each witness is picked as a lone search would: over its top
    cells in order, the cell with its coarse value and then its polished
    point.  ``counts`` holds the search's polish evaluations
    (``polish_nfev``, over its starts) and lock-step rounds
    (``polish_rounds``, the most of any of its starts).
    """
    bounds = []       # (center, R, dh_min, dh_max, scale) per search
    starts = []       # (search, coarse value, zhat, h) per polish start
    out = []          # per search: [value, witness, counts] or its error
    for center, search_radius, dh_max, scale in searches:
        center = complex(center)
        search_radius = float(search_radius)
        dh_max = float(dh_max)
        dh_min = min(DELTA_HAT_MIN, dh_max)

        if dh_min == dh_max:
            rungs = np.array([dh_max])
        else:
            rungs = np.geomspace(dh_min, dh_max, opts.n_rungs)
        ax = np.linspace(-search_radius, search_radius, opts.grid)
        zz = (center + ax[None, :] + 1j * ax[:, None]).ravel()
        mask = np.abs(zz - center) <= search_radius + 1e-12 * max(
            1.0, search_radius)
        zz = zz[mask]
        bounds.append((center, search_radius, dh_min, dh_max, scale))

        candidates = []   # (coarse value, zhat, h)
        try:
            for h in rungs:
                vals = (scale / float(h)) * field.disk_mass_many(zz, float(h))
                top = np.argsort(vals)[::-1][: opts.n_polish]
                for i in top:
                    candidates.append((float(vals[i]), complex(zz[i]),
                                       float(h)))
        except CCStructError as exc:
            out.append(exc)
            continue
        candidates.sort(key=lambda t: -t[0])
        starts += [(len(out), *c) for c in candidates[: opts.n_polish]]
        out.append([0.0, WitnessDisk(center, dh_max), {"polish_nfev": 0,
                                                       "polish_rounds": 0}])
    if not starts:
        return out

    # per search the rows of ``_project``'s box, and its scale
    box = np.array([(c.real, c.imag, r, math.log(lo), math.log(hi), lo, hi)
                    for c, r, lo, hi, _ in bounds]).T
    scales = np.array([b[4] for b in bounds], dtype=float)
    owner = np.array([s for s, *_ in starts], dtype=int)

    def neg(points, owners):
        search = owner[owners]
        zhat, h = _project(points, box[:, search])
        return -((scales[search] / h) * field.disk_mass(zhat, h))

    res = _sciopt.minimize(
        neg, np.array([[zhat.real, zhat.imag, math.log(h)]
                       for _, _, zhat, h in starts]),
        maxiter=opts.polish_maxiter, xatol=1e-8, fatol=1e-12)
    polished = _project(res.x, box[:, owner])

    for i, (search, value, zhat0, h0) in enumerate(starts):
        best = out[search]
        if value > best[0]:
            best[0], best[1] = value, WitnessDisk(zhat0, h0)
        # the polish has evaluated its best point: no second disk mass
        val = -float(res.fun[i])
        if val > best[0]:
            best[0], best[1] = val, WitnessDisk(complex(polished[0][i]),
                                                float(polished[1][i]))
        counts = best[2]
        counts["polish_nfev"] += res.start_nfev[i]
        counts["polish_rounds"] = max(counts["polish_rounds"],
                                      res.start_rounds[i])
    return out


#: field -> {(z, delta, budget): lambda_sup estimate, or the error of its
#: search}, unbounded
_MEMO = weakref.WeakKeyDictionary()


def _sup_searches(field: DensityField, cells, opts):
    """Each (z, delta) cell's ``lambda_sup`` estimate at the budget
    ``opts``, or the error to raise in its place.  The cells that the memo
    lacks are searched in one call of ``optimize_weighted_disk``, and the
    memo keeps each outcome but a failure inside the lock-step polish:
    one array ``disk_mass`` call cannot say which search failed, so that
    failure raises from here, and each cell searches again when read."""
    opts = opts or SupOptions()
    memo = _MEMO.setdefault(field, {})
    keys = [(complex(z), float(delta), opts) for z, delta in cells]
    todo = dict.fromkeys(key for key in keys if key not in memo
                         and math.isfinite(key[1]) and key[1] > 0)
    found = optimize_weighted_disk(
        field, [(z, d, d, d) for z, d, _ in todo], opts) if todo else []
    for key, got in zip(todo, found):
        if isinstance(got, CCStructError):
            # a copy without the traceback, whose frames hold the field
            memo[key] = copy.copy(got)
        elif math.isfinite(got[0]):
            memo[key] = LambdaEstimate(*key[:2], got[0], "sup",
                                       "upper_comparable", *got[1:])
        else:
            memo[key] = CCStructError(
                f"lambda_sup at delta={key[1]!r} is {got[0]}")
    return [memo.get(key, ValueError("delta must be positive and finite"))
            for key in keys]


def lambda_sup(field: DensityField, z, delta, opts: SupOptions = None):
    """Upper-comparable proxy via the nested supremum of
    (delta/h) * mu(zhat, h) at the search budget ``opts`` (default
    ``SupOptions()``); returns the best value and its witness, with the
    polish's counts in ``meta``.  Raises ValueError on a bad delta and
    CCStructError when the search fails or the value is not finite."""
    est, = _sup_searches(field, [(z, delta)], opts)
    if isinstance(est, Exception):
        # a fresh error per raise, so that no traceback stays in the memo
        raise copy.copy(est)
    return est


def prime_lambda_sup(field: DensityField, cells, opts: SupOptions = None):
    """Run the ``lambda_sup`` searches of the (z, delta) ``cells`` in one
    polish for ``lambda_sup`` to return from the memo.  A failed polish
    stores nothing, so that each cell's lone search raises its own error."""
    with contextlib.suppress(CCStructError):
        _sup_searches(field, cells, opts)


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


def lambda_stockyard(field: DensityField, z, delta):
    """Certified lower bound at budget 4*pi*delta: the witness disk from
    the sup search is encircled as many times as the fencing budget
    allows, linked to z by a connector circle.  The returned value is the
    validated stockyard's mass.  Raises CCStructError when the budget
    holds more than ``MAX_STOCKYARD_COPIES`` copies."""
    z = complex(z)
    sup_est = lambda_sup(field, z, delta)
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
    if k > MAX_STOCKYARD_COPIES:
        raise CCStructError(
            f"stockyard at delta={delta:g} needs {k} witness copies, more "
            f"than {MAX_STOCKYARD_COPIES}")
    pens.extend([Pen.circle(witness.center, witness.radius)] * k)
    yard = Stockyard(pens, z, budget)
    mass = stockyard_mass(field, yard)
    return LambdaEstimate(z, float(delta), mass, "stockyard", "lower", yard,
                          {"budget": budget, "copies": k,
                           "witness": witness,
                           "sup_value": sup_est.value})


# ---------------------------------------------------------------------------

def twist_many(field: DensityField, z, ws):
    """The twist of the metric ball from z to each endpoint w of ``ws``:
    the t-offset of the comparable box center,
    -2 Im( integral_0^1 (w - z) P_z(z + r (w - z)) dr ), by a fixed
    Gauss-Legendre rule, in blocks whose complex (endpoints x nodes)
    arrays fit ``KERNEL_BUDGET``."""
    z = complex(z)
    ws = np.asarray(ws, dtype=complex).ravel()
    x, wts = quadrature.gl_nodes(0.0, 1.0, _TWIST_NODES)
    vals = np.empty(len(ws))
    step = KERNEL_BUDGET // (2 * _TWIST_NODES)
    for lo in range(0, len(ws), step):
        dw = ws[lo:lo + step, None] - z
        px, py = field.potential_gradient(z + dw * x)
        pz = 0.5 * (px - 1j * py)
        # einsum sums each row in node order, as matmul does on these
        # strided rows of two or more endpoints; on one endpoint matmul
        # calls BLAS ddot, whose sum rounds differently
        vals[lo:lo + step] = np.einsum("ij,j->i", (dw * pz).imag, wts)
    return -2.0 * vals


def volume_search_cells(z, delta):
    """The (z, delta) cells of the two ``lambda_sup`` searches that
    ``volume_estimate`` at delta runs: the stockyard's at delta/(16 pi)
    and the upper proxy's at 3 delta."""
    z = complex(z)
    return [(z, delta / (16.0 * math.pi)), (z, 3.0 * delta)]


def volume_estimate(field: DensityField, z, delta):
    """Sandwich for the metric-ball volume from the two box inclusions:

        inner: cylinder of radius delta/4 and half-height at least the
               certified lower structure bound at delta/4;
        outer: cylinder of radius 3*delta and half-height at most the
               upper proxy at 3*delta.

    Returns (lower, upper) with lower <= upper.
    """
    (z, lower_delta), (_, upper_delta) = volume_search_cells(z, delta)
    lower_struct = lambda_stockyard(field, z, lower_delta)
    upper_struct = lambda_sup(field, z, upper_delta)
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
        if not all(map(math.isfinite, (self.x0, self.y0, self.x1, self.y1))):
            raise ValueError("window bounds must be finite")
        if self.x1 < self.x0 or self.y1 < self.y0 or self.n < 1:
            raise ValueError("empty window")

    def points(self):
        xs = np.linspace(self.x0, self.x1, self.n)
        ys = np.linspace(self.y0, self.y1, self.n)
        return [complex(x, y) for y in ys for x in xs]

    def as_dict(self):
        return asdict(self)


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
                 seed=0):
    """Evaluate ``method`` over all (z, delta) cells of the window crossed
    with the strictly increasing, positive ladder ``deltas``: 'sup'
    (:func:`lambda_sup`), 'stockyard' (:func:`lambda_stockyard`) or
    'direct' (:func:`ccstruct.ccpath.sample_lambda_direct`, with
    ``seed``).  Rows are ordered (z index, delta index); per-row errors,
    an unknown method among them, are recorded, not fatal."""
    from . import ccpath  # local import: avoid cycle at module load

    deltas = tuple(float(d) for d in deltas)
    if any(b <= a for a, b in zip(deltas, deltas[1:])) or not deltas:
        raise ValueError("delta ladder must be strictly increasing")
    if not all(math.isfinite(d) and d > 0 for d in deltas):
        raise ValueError("deltas must be positive and finite")

    cells = [(z, d) for z in window.points() for d in deltas]
    if method in ("sup", "stockyard", "direct"):
        # each reads lambda_sup at its cell: every search in one polish
        prime_lambda_sup(field, cells)

    def evaluate(z, delta):
        # the estimators are looked up at call time, so a rebinding of the
        # module attributes (as by a tracer) sees these calls
        try:
            if method == "sup":
                est = lambda_sup(field, z, delta)
            elif method == "stockyard":
                est = lambda_stockyard(field, z, delta)
            elif method == "direct":
                est = ccpath.sample_lambda_direct(field, z, delta, seed=seed)
            else:
                raise ValueError(f"unknown method {method!r}")
        except (CCStructError, ValueError) as exc:  # recorded per row
            return SweepRow(z, delta, method, error=f"{type(exc).__name__}: {exc}")
        row = SweepRow(z, delta, method, est.value)
        # a stockyard estimate keeps its witness disk in meta
        w = (est.witness if isinstance(est.witness, WitnessDisk)
             else est.meta.get("witness"))
        if w is not None:
            row.witness_center, row.witness_radius = w.center, w.radius
        return row

    return [evaluate(z, d) for z, d in cells]
