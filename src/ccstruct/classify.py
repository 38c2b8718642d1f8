"""Decision procedures for uniform global structure (UGS).

A density field admits a UGS when a single profile f(delta) is
comparable to the structure value uniformly over base points; the theory
forces any such profile to be comparable to delta (linear type) or to
delta^2 (quadratic type).  These procedures probe that trichotomy on a
declared finite window and delta ladder:

* ``check_linear_conditions`` — the two equivalent linear-type
  conditions: (a) disk masses mu(z, delta)/delta uniformly bounded (no
  growth trend), and (b) the small-scale double supremum
  sup_{zhat near z} sup_{h <= M} mu(zhat, h)/h bounded away from zero
  uniformly in z.
* ``check_quadratic_conditions`` — a crossover scale delta* below which
  mu/delta is bounded and above which mu/delta^2 is pinched in a
  two-sided band.
* ``dichotomy_probe`` — per-base-point log-log slopes of the structure
  proxy combined with the condition checks into a verdict.

Everything is quantified over the recorded window only; `Inconclusive`
is a first-class verdict and finite data is never forced into the
dichotomy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field as dc_field

import numpy as np

from .density import DensityField
from .errors import CCStructError
from .structure import (SupOptions, Window, lambda_sup,
                        optimize_weighted_disk, prime_lambda_sup)

#: reduced search budget for classification sweeps (many lambda_sup calls)
CLASSIFY_OPTS = SupOptions(n_rungs=10, grid=17, n_polish=2,
                           polish_maxiter=60)

#: the fixed rules of the verdict: the slope bands of the two types, their
#: slack and the widest cross-z slope spread, the crossover scales delta*
#: tried by both condition checks, their trend slope bounds (linear over
#: the last LINEAR_TREND_TAIL rungs), the quadratic band-ratio bound, and
#: the bound that flags a doubling ratio
LINEAR_BAND = (0.85, 1.15)
QUADRATIC_BAND = (1.85, 2.15)
SLOPE_TOL = 0.15
SPREAD_TOL = 0.3
DELTA_STAR_LADDER = (1.0, 2.0, 4.0, 8.0, 16.0)
LINEAR_TREND_TOL = 0.2
LINEAR_TREND_TAIL = 4
QUADRATIC_TREND_TOL = 0.1
QUADRATIC_BAND_RATIO_MAX = 50.0
CHAIN_BOUND = 49.0


@dataclass
class ConditionCheck:
    name: str
    statistic: float
    verdict: str                    # 'pass' | 'fail' | 'inconclusive'
    window: dict = dc_field(default_factory=dict)
    context: dict = dc_field(default_factory=dict)


@dataclass
class UGSReport:
    verdict: str                    # 'Linear' | 'Quadratic' | 'NoUGS' | 'Inconclusive'
    checks: list
    slopes: dict                    # per-z fitted slope
    slope_spread: float
    window: dict
    deltas: tuple
    meta: dict = dc_field(default_factory=dict)

    def as_dict(self):
        slopes = {f"{z.real:g}+{z.imag:g}j": s for z, s in self.slopes.items()}
        return {**asdict(self), "slopes": slopes, "deltas": list(self.deltas)}


def fit_loglog_slope(deltas, values):
    """Least-squares slope of log(values) against log(deltas), skipping
    non-positive values.  Returns nan when fewer than two usable points."""
    d = np.asarray(deltas, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = (v > 0) & (d > 0)
    if keep.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log(d[keep]), np.log(v[keep]), 1)[0])


def _median(values):
    """``np.median`` of a 1D array, bit for bit (the mean (a + b) / 2 of
    the middle two of an even count, nan if any value is nan), without
    the import of numpy.ma that its first call makes (about 15 ms)."""
    s = np.sort(values)
    if np.isnan(s[-1]):
        return math.nan
    mid = len(s) // 2
    return float(s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2)


def track_slope(field, track, deltas):
    """Slope of log lambda_sup(track(delta), delta) vs log delta along a
    moving base point, e.g. track = lambda d: d**1.5."""
    cells = [(track(d), d) for d in deltas]
    prime_lambda_sup(field, cells, CLASSIFY_OPTS)
    vals = [lambda_sup(field, z, d, CLASSIFY_OPTS).value for z, d in cells]
    return fit_loglog_slope(deltas, vals)


def mass_table(field: DensityField, window: Window, deltas):
    """mu(z, delta) at the window's points, one row per delta."""
    zs = np.asarray(window.points(), dtype=complex)
    return np.array([field.disk_mass_many(zs, float(d)) for d in deltas])


def _check_table(table, window, deltas):
    if np.shape(table) != (len(deltas), window.n ** 2):
        raise ValueError(f"mass table has shape {np.shape(table)}, not "
                         f"({len(deltas)}, {window.n ** 2})")


def check_linear_conditions(field: DensityField, window: Window, deltas,
                            table):
    """The two linear-type conditions on the sampled window, from the
    window's ``mass_table`` over ``deltas``.

    (a) passes when sup_z mu(z, delta)/delta shows no growth trend: the
    log-log slope over the last ``LINEAR_TREND_TAIL`` ladder rungs is at
    most ``LINEAR_TREND_TOL``.
    (b) passes when, for some crossover delta* on the ladder (with reach
    M = delta*/2), the per-z double supremum of mu(zhat, h)/h is bounded
    away from zero: its infimum is at least 1e-3 times its median, with
    positive median.  Raises the first error of (b)'s searches, else a
    CCStructError where a supremum of (b) is not finite.
    """
    deltas = tuple(float(d) for d in deltas)
    _check_table(table, window, deltas)
    per_delta_sup = table.max(axis=1) / np.asarray(deltas)
    tail = min(LINEAR_TREND_TAIL, len(deltas))
    trend = fit_loglog_slope(deltas[-tail:], per_delta_sup[-tail:])
    stat_a = float(per_delta_sup.max())
    if math.isnan(trend):
        verdict_a = "inconclusive"
    else:
        verdict_a = "pass" if trend <= LINEAR_TREND_TOL else "fail"
    check_a = ConditionCheck(
        "linear_a_mass_over_delta_bounded", stat_a, verdict_a,
        window.as_dict(),
        {"trend_slope": trend, "trend_tol": LINEAR_TREND_TOL,
         "per_delta_sup": per_delta_sup.tolist(), "deltas": list(deltas)})

    # every delta* x z search in one polish
    zs = window.points()
    cells = [(z, dstar) for dstar in DELTA_STAR_LADDER for z in zs]
    found = optimize_weighted_disk(
        field, [(z, dstar, dstar / 2.0, 1.0) for z, dstar in cells],
        CLASSIFY_OPTS)
    for got in found:
        if isinstance(got, CCStructError):
            raise got
    for (z, dstar), (val, _, _) in zip(cells, found):
        if not math.isfinite(val):
            raise CCStructError(f"small-scale sup at z={z!r}, "
                                f"delta*={dstar!r} is {val}")
    best = None
    for k, dstar in enumerate(DELTA_STAR_LADDER):
        m_reach = dstar / 2.0
        per_z = np.asarray([val for val, _, _ in
                            found[k * len(zs):(k + 1) * len(zs)]])
        inf_v = float(per_z.min())
        med_v = _median(per_z)
        ok = med_v > 0 and inf_v >= 1e-3 * med_v
        cand = (ok, inf_v, med_v, dstar, m_reach)
        if best is None or (cand[0], cand[1]) > (best[0], best[1]):
            best = cand
    ok, inf_v, med_v, dstar, m_reach = best
    check_b = ConditionCheck(
        "linear_b_small_scale_inf_sup", inf_v,
        "pass" if ok else "fail", window.as_dict(),
        {"median": med_v, "delta_star": dstar, "M": m_reach,
         "delta_star_ladder": list(DELTA_STAR_LADDER)})
    return check_a, check_b


def check_quadratic_conditions(window: Window, deltas, table):
    """Crossover conditions for quadratic type, from the window's
    ``mass_table`` over the increasing ladder ``deltas``.

    Searches delta* on the ladder.  (a) below delta*, mu/delta must show
    no growth trend (vacuously true with < 2 rungs below delta*).
    (b) above delta*, mu/delta^2 over all sampled (z, delta) must be
    pinched in a band of ratio at most ``QUADRATIC_BAND_RATIO_MAX`` *and*
    show a flat trend in delta (otherwise a slow drift toward 0 or
    infinity passes the band test on any finite ladder).
    """
    deltas = np.asarray(deltas, dtype=float)
    _check_table(table, window, deltas)

    best_a = best_b = None
    for dstar in DELTA_STAR_LADDER:
        below = deltas <= dstar
        above = ~below
        if above.sum() < 2:
            continue
        # (a): no growth trend of sup_z mu/delta below the crossover
        if below.sum() >= 2:
            sup_small = table[below].max(axis=1) / deltas[below]
            trend_a = fit_loglog_slope(deltas[below], sup_small)
            ok_a = math.isnan(trend_a) or trend_a <= QUADRATIC_TREND_TOL
            stat_a = float(sup_small.max())
        else:
            trend_a, ok_a, stat_a = math.nan, True, 0.0
        # (b): two-sided band for mu/delta^2 above the crossover
        quad = table[above] / (deltas[above, None] ** 2)
        sup_q = float(quad.max())
        inf_q = float(quad.min())
        trend_b = fit_loglog_slope(deltas[above], quad.max(axis=1))
        if inf_q <= 0:
            ratio = math.inf
        else:
            ratio = sup_q / inf_q
        ok_b = (ratio <= QUADRATIC_BAND_RATIO_MAX and not math.isnan(trend_b)
                and abs(trend_b) <= QUADRATIC_TREND_TOL)
        if ok_a and ok_b:
            best_a = (stat_a, trend_a, dstar, "pass")
            best_b = (ratio, trend_b, dstar, "pass")
            break
        if best_b is None or (ratio < best_b[0]):
            best_a = (stat_a, trend_a, dstar, "pass" if ok_a else "fail")
            best_b = (ratio, trend_b, dstar, "pass" if ok_b else "fail")

    if best_b is None:   # ladder too short for any crossover
        check_a = ConditionCheck("quadratic_a_linear_below_crossover",
                                 math.nan, "inconclusive", window.as_dict())
        check_b = ConditionCheck("quadratic_b_band_above_crossover",
                                 math.nan, "inconclusive", window.as_dict())
        return check_a, check_b
    stat_a, trend_a, dstar_a, va = best_a
    ratio, trend_b, dstar, vb = best_b
    check_a = ConditionCheck(
        "quadratic_a_linear_below_crossover", stat_a, va, window.as_dict(),
        {"trend_slope": trend_a, "delta_star": dstar_a})
    check_b = ConditionCheck(
        "quadratic_b_band_above_crossover", ratio, vb, window.as_dict(),
        {"trend_slope": trend_b, "delta_star": dstar,
         "band_ratio_max": QUADRATIC_BAND_RATIO_MAX,
         "delta_star_ladder": list(DELTA_STAR_LADDER)})
    return check_a, check_b


def _decide(slopes, spread, linear_ok, quadratic_ok):
    """Verdict rule combining slope geometry with the condition checks.

    The checks carry the structural evidence; slopes alone decide only
    the clear-cut cases.  A tight slope cluster sitting outside both
    admissible bands contradicts the dichotomy on this window, as does a
    large cross-z spread with no check support: both yield NoUGS.
    """
    vals = [s for s in slopes.values() if not math.isnan(s)]
    if not vals:
        return "Inconclusive"
    mean = float(np.mean(vals))
    lin_lo, lin_hi = LINEAR_BAND
    quad_lo, quad_hi = QUADRATIC_BAND

    if linear_ok and quadratic_ok:
        return "Inconclusive"   # mutual exclusion: never render both
    if linear_ok:
        return "Linear"
    if quadratic_ok:
        return "Quadratic"

    # neither family of conditions holds
    if spread <= SPREAD_TOL:
        in_linear = lin_lo - SLOPE_TOL <= mean <= lin_hi + SLOPE_TOL
        in_quadratic = quad_lo - SLOPE_TOL <= mean <= quad_hi + SLOPE_TOL
        if not in_linear and not in_quadratic:
            return "NoUGS"      # uniform growth at an inadmissible exponent
        return "Inconclusive"   # slopes look fine but checks disagree
    return "NoUGS"              # exponent varies with the base point


def dichotomy_probe(field: DensityField, window: Window, deltas):
    """Probe the linear/quadratic dichotomy on the window.

    Fits a log-log slope of the structure proxy per base point, runs both
    condition checks, and combines them into a verdict.  Requires the
    delta ladder to span at least two decades, otherwise Inconclusive.
    """
    deltas = tuple(sorted(float(d) for d in deltas))
    slopes = {}
    meta = {"slope_tol": SLOPE_TOL, "spread_tol": SPREAD_TOL,
            "opts": astuple(CLASSIFY_OPTS)}

    enough = len(deltas) >= 3 and deltas[-1] / deltas[0] >= 100.0
    if not enough:
        report = UGSReport("Inconclusive", [], {}, math.nan,
                           window.as_dict(), deltas, meta)
        report.meta["reason"] = "delta ladder spans fewer than two decades"
        return report

    # every window x ladder search in one polish, then each from the memo
    prime_lambda_sup(field, [(z, d) for z in window.points() for d in deltas],
                     CLASSIFY_OPTS)
    for z in window.points():
        vals = [lambda_sup(field, z, d, CLASSIFY_OPTS).value for d in deltas]
        slopes[z] = fit_loglog_slope(deltas, vals)
    finite = [s for s in slopes.values() if not math.isnan(s)]
    spread = float(max(finite) - min(finite)) if finite else math.nan

    table = mass_table(field, window, deltas)
    lin_a, lin_b = check_linear_conditions(field, window, deltas, table)
    quad_a, quad_b = check_quadratic_conditions(window, deltas, table)
    linear_ok = lin_a.verdict == "pass" and lin_b.verdict == "pass"
    quadratic_ok = quad_a.verdict == "pass" and quad_b.verdict == "pass"

    verdict = _decide(slopes, spread, linear_ok, quadratic_ok)
    checks = [lin_a, lin_b, quad_a, quad_b]
    return UGSReport(verdict, checks, slopes, spread, window.as_dict(),
                     deltas, meta)


def doubling_ratio(field: DensityField, window: Window, deltas):
    """Per-delta table of max_z lambda_sup(z, 2 delta)/lambda_sup(z, delta).

    Only ladder entries whose double is also on the ladder (within 1e-9
    relative) are used.  Zero denominators are reported as skipped rows.
    The chain bound 49 applies to fields already classified as UGS; rows
    exceeding it are flagged, not fatal.
    """
    deltas = sorted(float(d) for d in deltas)
    zs = window.points()
    kept = [d for d in deltas
            if any(abs(d2 - 2.0 * d) <= 1e-9 * d2 for d2 in deltas)]
    # the cells read below, (z, d) and (z, 2 d), in one polish
    prime_lambda_sup(field, [(z, e) for d in kept for z in zs
                             for e in (d, 2.0 * d)], CLASSIFY_OPTS)
    rows = []
    for d in kept:
        ratios = []
        skipped = 0
        for z in zs:
            lo = lambda_sup(field, z, d, CLASSIFY_OPTS).value
            hi = lambda_sup(field, z, 2.0 * d, CLASSIFY_OPTS).value
            if lo <= 0:
                skipped += 1
                continue
            ratios.append(hi / lo)
        worst = max(ratios) if ratios else math.nan
        rows.append({"delta": d, "max_ratio": worst,
                     "flagged": worst > CHAIN_BOUND, "skipped": skipped})
    return rows
